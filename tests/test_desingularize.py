import mpmath as mp
import numpy as np
import pytest

from hopfseg import desingularize, states
from hopfseg.desingularize import (
    K_value,
    PerturbationContext,
    _K_and_weights,
    _lift,
    _ray_integral,
    _split,
    assemble_system,
    beta_moment,
    choose_R,
    excess_index,
    gamma_moment,
    limit_angles,
    make_context,
    normalized_det,
    reduce_to_simple,
    solve_weights,
    split_zero,
    zero_to_split,
)
from hopfseg.errors import NotAdmissible, SingularSolve, SplitOrderMismatch
from hopfseg.experiments import tuned_multizero
from hopfseg.mobius import make_general_position
from hopfseg.rational import monomial, order_at, rational
from hopfseg.states import admissibility, find_base_point, reconstruct
from hopfseg.nodal import trace, verify_index


def test_beta_moments_against_quadrature():
    assert beta_moment(2) == pytest.approx(4 / 15, abs=1e-12)
    assert beta_moment(1) == pytest.approx(np.pi / 8, abs=1e-12)
    for m0 in (1, 2, 3, 5):
        # int_0^1 t^{m0/2} sqrt(1-t) dt by mpmath's tanh-sinh rule
        num = float(mp.quad(lambda t: t ** (0.5 * m0) * mp.sqrt(1 - t), [0, 1]))
        assert num == pytest.approx(beta_moment(m0), abs=1e-10)


def test_gamma_moment_oracle():
    assert gamma_moment(2, 2) == pytest.approx(1 / 12, abs=1e-12)
    val = float(mp.quad(lambda t: t**2 * (1 - t), [0, 1]))
    assert val == pytest.approx(gamma_moment(2, 2), abs=1e-12)
    # generic exponents against plain quadrature
    for k, q in ((3, 1), (4, 3), (2, 5)):
        val = float(mp.quad(lambda t, k=k, q=q: t**k * (1 - t) ** (0.5 * q), [0, 1]))
        assert val == pytest.approx(gamma_moment(k, q), abs=1e-9)


def test_context_and_limit_angles():
    f = monomial(0.25, 3)
    ctx = make_context(f, 0.0)
    assert ctx.m0 == 2 and ctx.M == 0
    assert choose_R(ctx) == 1
    angles = limit_angles(ctx.f, ctx.z0)
    assert np.allclose(angles, [2 * k * np.pi / 5 for k in range(5)], atol=1e-12)


def _two_top_zeros():
    """Double zeros at 0.2-0.1j and -0.45+0.3j, and a simple zero 0.02 from the first."""
    f = tuned_multizero(0.2 - 0.1j, -0.45 + 0.3j, 3, 2)
    return split_zero(f, 0.2 - 0.1j, eps_target=1e9, eps0=0.02).f_new


@pytest.mark.parametrize("case", ["unit-roots-and-pole", "two-top-zeros"])
def test_limit_angles_are_the_zeros_of_K_in_every_chart(case):
    # the seeds come from f's Taylor coefficient alone; in three charts whose
    # cuts keep 0.1 from every seed, K(0, .) vanishes at each seed and
    # changes sign across it
    if case == "unit-roots-and-pole":
        f = rational(0.3 - 0.2j, roots=[(0.1 + 0.05j, 3), (-0.4 + 0.2j, 1), (0.2 - 0.5j, 2)],
                     unit_num=[(1.5 - 0.5j, 1), (0.3 + 1.6j, 2)], unit_den=[(-1.3 + 0.9j, 2)])
        zeros = (0.1 + 0.05j, 0.2 - 0.5j)
    else:
        f = _two_top_zeros()
        zeros = (0.2 - 0.1j, -0.45 + 0.3j)
    for z0 in zeros:
        seeds = limit_angles(f, z0)
        m = order_at(f, z0) + 2
        assert len(seeds) == m and seeds == sorted(seeds) and 0.0 <= seeds[0] and seeds[-1] < 2 * np.pi
        for k in range(3):
            ctx = make_context(f, z0, gamma_arg=seeds[k] + np.pi / m + 0.05 * (k - 1))
            assert min(abs((ctx.gamma_arg - th + np.pi) % (2 * np.pi) - np.pi) for th in seeds) > 0.1
            for th in seeds:
                assert abs(K_value(ctx, 0.0, th)) < 1e-12
                assert K_value(ctx, 0.0, th - 0.1) * K_value(ctx, 0.0, th + 0.1) < 0


def test_limit_angles_need_a_multiple_zero():
    with pytest.raises(ValueError, match="order >= 2"):
        limit_angles(rational(0.25, roots=[(0.1, 1)]), 0.1)


def test_zero_to_split_takes_the_highest_order_then_the_most_isolated():
    assert zero_to_split(_two_top_zeros()) == pytest.approx(-0.45 + 0.3j, abs=1e-15)
    # orders first: the triple zero, however crowded
    f = rational(0.25, roots=[(0.1, 3), (0.12, 1), (-0.5, 2)])
    assert zero_to_split(f) == 0.1
    # equally isolated: the least |z|, then the least angle
    assert zero_to_split(rational(0.25, roots=[(0.4, 2), (-0.2, 2)])) == -0.2
    assert zero_to_split(rational(0.25, roots=[(0.3j, 2), (-0.3j, 2)])) == -0.3j


def test_K_closed_form_and_limit():
    f = monomial(0.25, 3)
    ctx = make_context(f, 0.0)
    choose_R(ctx)
    for th in (0.3, 1.1, 2.7):
        closed = -0.5 * (4 / 15) * np.sin(2.5 * th)
        assert K_value(ctx, 0.0, th) == pytest.approx(closed, abs=1e-12)
        assert K_value(ctx, 0.01, th) == pytest.approx(closed, abs=1e-10)


def test_K_limit_uniform_convergence():
    # satellite case: K(eps, .) approaches K(0, .) on a theta grid
    res = split_zero(monomial(0.25, 3), 0.0, eps_target=1.0, eps0=0.05)
    ctx = make_context(res.f_new, 0.0)
    choose_R(ctx)
    ths = limit_angles(ctx.f, ctx.z0)[0] + np.linspace(-0.3, 0.3, 7)
    sups = []
    for eps in (4e-4, 2e-4, 1e-4):
        sups.append(max(abs(K_value(ctx, eps, t) - K_value(ctx, 0.0, t)) for t in ths))
    assert sups[0] > sups[-1]


@pytest.mark.parametrize("case", ["tuned-pair", "two-top-zeros"])
def test_K_value_on_an_array_matches_one_angle_calls(case):
    # one pass over all the angles gives each angle's K within a few ulps of
    # a call on that angle alone, and the same weights bit for bit; in
    # split_zero's chart of branch 0, at M = 1 and M = 2 other zeros
    if case == "tuned-pair":
        f, z0 = tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2), -0.35
    else:
        f, z0 = _two_top_zeros(), -0.45 + 0.3j
    seeds = limit_angles(f, z0)
    ctx = make_context(f, z0, gamma_arg=(seeds[0] + np.pi / len(seeds)) % (2 * np.pi))
    choose_R(ctx)
    assert ctx.M == (1 if case == "tuned-pair" else 2)
    eps = 0.25 * abs(ctx.omegas[0])
    thetas = seeds[0] + np.array([0.0, 1e-6, -1e-6, 0.1])
    K = K_value(ctx, eps, thetas)
    one = np.array([K_value(ctx, eps, t) for t in thetas])
    assert isinstance(one[0], float) and K.shape == (4,)
    assert np.all(np.abs(K - one) <= 4 * np.spacing(np.max(np.abs(one))))
    omegas = eps * np.exp(1j * thetas)
    W = _K_and_weights(ctx, omegas, thetas)[1]
    assert W.shape == (4, ctx.M)
    for i in range(4):
        assert np.array_equal(W[i], _K_and_weights(ctx, omegas[i:i + 1], thetas[i:i + 1])[1][0])


def test_reductions_take_one_integral_pass_per_system(monkeypatch):
    # each Newton step evaluates K at theta and theta +- 1e-6 in one pass of
    # the system integrals and one of the K integrals, and its converged
    # weights are kept: three scalar K evaluations per step and a separate
    # weights pass at convergence took 161 passes on these reductions.  With
    # R = 1 tried first, and an attempt whose first pass puts a q-root too
    # close to the disk stopped there, 16 steps take 32, and choose_R's one
    # determinant per split 5 more
    calls = []
    unit = desingularize._unit_integrals
    monkeypatch.setattr(desingularize, "_unit_integrals", lambda g, n: calls.append(n) or unit(g, n))
    for f in (monomial(0.3, 2), monomial(0.25, 3), tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2)):
        assert excess_index(reduce_to_simple(f, eps_budget=8.0)) == 0
    assert len(calls) <= 37


def test_split_diagnostics_count_attempts_and_passes(monkeypatch):
    # a split that converges on its first evaluation makes one attempt and
    # one Newton pass
    diag = split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, branch=0, eps0=0.01).diagnostics
    assert diag == {"attempts": 1, "newton_passes": 1, "R": 1, "det_fallback": False,
                    "backtracks": {"BranchLost": 0, "ClosenessFailed": 0,
                                   "RootTooCloseToBoundary": 0}}
    # every failed attempt of a successful split is one backtrack
    seen = []
    real = desingularize._split

    def logged(*args, **kw):
        res = real(*args, **kw)
        seen.append(res[0].diagnostics)
        return res

    monkeypatch.setattr(desingularize, "_split", logged)
    reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2), eps_budget=8.0)
    assert len(seen) == 2 and sum(sum(d["backtracks"].values()) for d in seen) > 0
    for d in seen:
        assert d["attempts"] == 1 + sum(d["backtracks"].values())
        assert d["newton_passes"] >= d["attempts"] and d["R"] in (1, 2, 4, 8, 16, 32, 64)


def test_a_failed_split_carries_its_counters():
    # at eps 1e-13 the new zero merges with the old one on the first
    # attempt's one Newton pass; the typed error says so
    with pytest.raises(SplitOrderMismatch) as exc:
        split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, eps0=1e-13)
    assert exc.value.diagnostics == {
        "attempts": 1, "newton_passes": 1, "R": 1, "det_fallback": False,
        "backtracks": {"BranchLost": 0, "ClosenessFailed": 0, "RootTooCloseToBoundary": 0}}


def test_splits_and_reductions_read_no_species_labels(monkeypatch):
    # the closeness check compares grid states, which carry no labels; the
    # reductions end on the same zeros as when the check labelled its states
    def never(*args, **kw):
        raise AssertionError("species labelled")

    monkeypatch.setattr(states, "_label_species", never)
    for k in range(5):
        res = split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, branch=k, eps0=0.01)
        assert (res.R, res.epsilon) == (1, 0.01)
    roots = [reduce_to_simple(f, eps_budget=8.0).interior_roots
             for f in (monomial(0.3, 2), monomial(0.25, 3),
                       tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2))]
    assert roots == [
        ((0j, 1), (0.25 + 0j, 1)),
        ((0j, 1), (0.011010320300795117 + 0.01108663483090784j, 1), (0.25 + 0j, 1)),
        ((-0.35 + 0j, 1), (-0.29338947691222683 + 0.07576649111400571j, 1),
         (0.4 + 0.1j, 1), (0.43095938848166876 + 0.1303626771200104j, 1)),
    ]


def test_solve_weights_examples():
    W = solve_weights(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    assert len(W) == 0
    A = np.array([[2.0 + 0j]])
    W = solve_weights(A, np.array([0.0j]), np.array([0.1j]))
    assert W[0] == pytest.approx(0.05j)
    with pytest.raises(SingularSolve):
        solve_weights(np.array([[0.0j]]), np.array([1.0 + 0j]), np.array([0.0j]))
    # stacked systems: one solve, the same weights as one system at a time
    A = np.array([[[2.0 + 0j, 1.0], [0.0, 4.0]], [[1.0, 0.0], [1.0j, 3.0]]])
    B0 = np.array([0.5j, 1.0j])
    W = solve_weights(A, np.zeros((2, 2), complex), B0)
    assert W.shape == (2, 2)
    for k in range(2):
        assert np.array_equal(W[k], solve_weights(A[k], np.zeros(2, complex), B0))


def test_weights_vanish_at_origin_split():
    res = split_zero(monomial(0.25, 3), 0.0, eps_target=1.0, eps0=0.05)
    ctx = make_context(res.f_new, 0.0)
    choose_R(ctx)
    th = limit_angles(ctx.f, ctx.z0)[0]
    from hopfseg.desingularize import _limit_signs

    norms = []
    for eps in (1e-4, 1e-5, 1e-6):
        A, B = assemble_system(ctx, eps * np.exp(1j * th))
        W = solve_weights(A, B, _limit_signs(ctx, th) * ctx.B0)
        norms.append(np.max(np.abs(W)))
    assert norms[0] > norms[1] > norms[2]
    assert norms[0] / norms[2] > 50  # linear decay in eps


def test_system_entry_beta_oracle():
    # b entry for f0 = z^3 (z - w)^2 with w0 = 0 against the Gamma moments:
    # the integrand along the ray is t^{3/2+1/2} (t - 1)-structured
    w1 = 0.5 + 0.0j
    f = rational(1.0, roots=[(0.0, 3), (w1, 2)])
    ctx = make_context(f, 0.0)
    A, B = assemble_system(ctx, 0.0, R=2)
    # with h = 1 and q = 2 the radial entry has closed Beta form:
    # B = 2 w^{(m0+3)/2 + q/2 + ...}: check against direct quadrature instead
    direct = _ray_integral_mp(ctx, w1, 0.0, 0)
    assert B[0] == pytest.approx(direct, rel=1e-9)
    # moment magnitude sanity: |a_{j l}| ratio structure via Gamma formula
    m11 = gamma_moment(2 + 0.5 * 3 + 0.5, 2)
    assert m11 > 0


def _ray_integral_mp(ctx, w, omega0, k):
    """2 * int_0^w zeta^k core(zeta) dzeta along the ray, at 30 digits.

    core's branches written out: the chart power of zeta (its argument is
    arg w lifted above the chart cut), each (zeta - c)^{q/2} continued from
    zeta = 0 along the ray, and h the principal root of the leading
    coefficient (f has no unit factors).
    """
    with mp.workdps(30):
        w_ = mp.mpc(w)

        def star(z, c, q):
            c_, lift = mp.mpc(c), _lift(np.angle(c), ctx.gamma_arg)
            return mp.exp(0.5 * q * (mp.log(abs(c_)) + 1j * (lift + mp.pi))
                          + 0.5 * q * mp.log((z - c_) / (-c_)))

        def integrand(t):
            z = t * w_
            p = 0.5 * (ctx.m0 + 1) if omega0 == 0 else 0.5 * ctx.m0
            out = mp.exp(p * (mp.log(t * abs(w_)) + 1j * _lift(np.angle(w), ctx.gamma_arg)))
            if omega0 != 0:
                out *= star(z, omega0, 1)
            out *= mp.sqrt(mp.mpc(ctx.f.leading))
            for c, q in zip(ctx.omegas, ctx.qs):
                out *= star(z, c, q)
            return z**k * out

        # the integrand turns fast where the ray passes omega0
        pts = [0, 2 * abs(omega0) / abs(w), 1] if omega0 else [0, 1]
        return complex(2 * w_ * mp.quad(integrand, pts))


@pytest.mark.parametrize("omega0", [0.0, 0.01 * np.exp(1.0j)], ids=["zero", "off_zero"])
def test_ray_integrals_match_mpmath(omega0):
    # M = 2 other zeros, one of them odd: the batched ray integrals of one
    # call against 30-digit quadrature of the written-out integrand
    f = rational(0.25 * np.exp(0.3j), roots=[(0.0, 3), (0.45 + 0.2j, 1), (-0.3 + 0.5j, 2)])
    ctx = make_context(f, 0.0)
    assert ctx.M == 2
    ends = np.array([ctx.omegas[0], ctx.omegas[0], ctx.omegas[1], ctx.omegas[1]])
    powers = np.array([0, 2, 0, 4])
    got = _ray_integral(ctx, ends, omega0, powers)
    for g, w, k in zip(got, ends, powers):
        assert abs(g - _ray_integral_mp(ctx, w, omega0, k)) <= 1e-11


def test_identity_permutation_dominates_as_R_grows():
    # M = 2: the off-diagonal permutation share of det A shrinks as R
    # doubles (the diagonal term dominates in the large-R asymptotic)
    f = rational(1.0, roots=[(0.0, 2), (0.3, 1), (0.57j, 1)])
    ctx = make_context(f, 0.0)
    ratios = []
    for R in (2, 4, 8):
        A, _ = assemble_system(ctx, 0.0, R=R)
        diag = np.prod(np.diag(A))
        ratios.append(abs(np.linalg.det(A) - diag) / abs(diag))
    assert ratios[0] > ratios[1] > ratios[2]
    assert choose_R(ctx) == 1
    assert normalized_det(ctx, 2) >= 1e-8


def test_split_cubic_all_branches():
    f = monomial(0.25, 3)
    thetas = []
    for k in range(5):
        res = split_zero(f, 0.0, eps_target=1.0, branch=k, eps0=0.01)
        assert res.epsilon == 0.01
        assert order_at(res.f_new, 0.0) == 2
        assert order_at(res.f_new, res.new_zero) == 1
        assert res.admissibility.admissible
        assert max(v for _, v in res.admissibility.residuals) <= 1e-8
        thetas.append(res.theta)
    thetas = np.sort(np.mod(thetas, 2 * np.pi))
    gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2 * np.pi]]))
    assert np.allclose(gaps, 2 * np.pi / 5, atol=1e-3)


def test_split_square_two_3pts():
    res = split_zero(monomial(0.25, 2), 0.0, eps_target=1.0, branch=0, eps0=0.01)
    assert order_at(res.f_new, 0.0) == 1
    assert order_at(res.f_new, res.new_zero) == 1
    st = reconstruct(res.f_new, 0.0, resolution=256)
    g = trace(st)
    rep = verify_index(g)
    assert rep.formula_check
    mults = sorted(v.multiplicity for v in g.vertices if v.kind == "interior-critical")
    assert mults == [3, 3]
    assert (g.M, g.N, g.T) == (4, 4, 1)


def test_split_order_bookkeeping_with_satellite():
    # splitting the 4-point of the admissible family keeps the other zero
    from hopfseg.experiments import admissible_fw

    f, base = admissible_fw(0)
    w = f.interior_roots[-1][0] if f.interior_roots[0][0] == 0 else f.interior_roots[0][0]
    w = [z for z, m in f.interior_roots if m == 2][0]
    res = split_zero(f, w, eps_target=1.0)
    assert order_at(res.f_new, w) == 1
    assert order_at(res.f_new, res.new_zero) == 1
    assert order_at(res.f_new, 0.0) == 1
    assert sum(m for _, m in res.f_new.interior_roots) == 3
    assert res.admissibility.admissible


def test_continuity_in_eps():
    f = monomial(0.25, 3)
    sups, l1s = [], []
    for eps in (0.02, 0.01, 0.005):
        res = split_zero(f, 0.0, eps_target=1.0, branch=0, eps0=eps)
        assert res.epsilon == eps
        sups.append(res.sup_dist)
        from hopfseg.states import hopf_l1
        from hopfseg.rational import RationalFactored

        # L1 distance of the Hopf differentials by polar quadrature
        n_r, n_th = 64, 128
        x, wq = np.polynomial.legendre.leggauss(n_r)
        r = 0.5 * (x + 1)
        th = 2 * np.pi * np.arange(n_th) / n_th
        Z = r[:, None] * np.exp(1j * th[None, :])
        diff = np.abs(f.eval(Z) - res.f_new.eval(Z)) * r[:, None]
        l1s.append(float((np.pi / n_th) * np.sum(diff @ np.ones(n_th) * wq)))
    assert sups[0] > sups[1] > sups[2]
    assert l1s[0] > l1s[1] > l1s[2]


def test_excess_index_and_chain_bookkeeping():
    f = monomial(0.25, 4)
    assert excess_index(f) == 3
    g = reduce_to_simple(f, eps_budget=3.0)
    assert excess_index(g) == 0
    assert all(m == 1 for _, m in g.interior_roots)
    assert sum(m for _, m in g.interior_roots) == 4
    base = find_base_point(g)
    assert base is not None
    assert admissibility(g, base).admissible


def test_reduce_identity_on_simple():
    f = rational(1.0, roots=[(0.2, 1), (-0.3j, 1)])
    assert reduce_to_simple(f, 0.1) is f


def test_reduce_cubic_three_3pts():
    g = reduce_to_simple(monomial(0.25, 3), eps_budget=3.0)
    assert excess_index(g) == 0
    st = reconstruct(g, find_base_point(g), resolution=256)
    gr = trace(st)
    rep = verify_index(gr)
    assert rep.formula_check and rep.euler_check
    mults = [v.multiplicity for v in gr.vertices if v.kind == "interior-critical"]
    assert sorted(mults) == [3, 3, 3]


def test_reduce_through_a_disk_automorphism(monkeypatch):
    # 0 lies on the line through the simple zeros +-0.3, so the double zero
    # there is not in general position: the step moves the configuration by
    # a disk automorphism, splits, and maps the result back
    moves = []

    def counted(pts, z0):
        moves.append(z0)
        return make_general_position(pts, z0)

    monkeypatch.setattr(desingularize, "make_general_position", counted)
    f = rational(0.25, roots=[(0.0, 2), (0.3, 1), (-0.3, 1)])
    g = reduce_to_simple(f, eps_budget=8.0)
    assert moves == [0j]
    assert [m for _, m in g.interior_roots] == [1, 1, 1, 1]
    gr = trace(reconstruct(g, find_base_point(g), resolution=128))
    assert gr.clean and (gr.M, gr.N, gr.T) == (6, 6, 1)
    rep = verify_index(gr)
    assert rep.formula_check and rep.euler_check


def test_split_rejects_merged_new_zero():
    # below the root merge tolerance 1e-12 the new zero merges with z0: a
    # typed error that the eps backtracking does not swallow
    for eps0 in (1e-13, 5e-13):
        with pytest.raises(SplitOrderMismatch, match="ROOT_MERGE_TOL"):
            split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, branch=0, eps0=eps0)


@pytest.mark.parametrize("eps0", [5e-11, 2e-12])
def test_split_keeps_a_new_zero_just_above_the_merge_scale(eps0):
    # a new zero eps0 from z0 stays a simple zero of its own, and each stored
    # root reports its own order
    res = split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, branch=0, eps0=eps0)
    assert res.epsilon == eps0
    assert (order_at(res.f_new, 0.0), order_at(res.f_new, res.new_zero)) == (2, 1)
    assert sorted(m for _, m in res.f_new.interior_roots) == [1, 2]


def test_split_at_a_point_near_the_zero_splits_the_stored_zero():
    # z0 within AT_ROOT_TOL of the stored zero names that zero, whose other
    # roots are then told apart from it by equality
    f = monomial(0.25, 3)
    near = split_zero(f, 5e-14j, eps_target=1e9, eps0=0.01)
    at = split_zero(f, 0.0, eps_target=1e9, eps0=0.01)
    assert near.z0 == 0.0
    assert (near.f_new, near.theta) == (at.f_new, at.theta)


def test_split_rejects_a_nan_target():
    # sup + h1 > nan is False, so a NaN target or budget would accept any split
    with pytest.raises(ValueError, match="eps_target must be positive"):
        split_zero(monomial(0.25, 3), 0.0, eps_target=float("nan"))
    with pytest.raises(ValueError, match="eps_budget must be positive"):
        reduce_to_simple(monomial(0.25, 3), eps_budget=float("nan"))


def test_split_requires_full_admissibility():
    # Re F vanishes at the odd base zero, so the state exists, but not at the
    # even zero 0.5 (residual 0.0101), so that zero is no critical point and
    # the split must refuse the input
    f = rational(0.25, roots=[(0, 3), (0.5, 2)])
    with pytest.raises(NotAdmissible, match="input not admissible"):
        split_zero(f, 0.0)
    st = reconstruct(f, 0.0, resolution=64)
    assert st.criticals == ((0j, 3, 5),)
    assert admissibility(f, 0.0).residuals[1][1] == pytest.approx(0.0101, abs=1e-4)


def test_split_reuses_a_given_state():
    # a resolution-96 state of f built at another zero stands in for the
    # one _split would build at z0: Re F vanishes at every zero once all
    # are admissible, so U = |Re F| is the same from any of them
    f = tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2)
    fresh = split_zero(f, -0.35, eps_target=4.0, eps0=0.1)
    st = reconstruct(f, 0.4 + 0.1j, resolution=96)
    res, st_new = _split(f, -0.35, eps_target=4.0, eps0=0.1, state=st)
    assert res.f_new == fresh.f_new
    assert st_new.f is res.f_new and st_new.resolution == 96
    assert (res.theta, res.epsilon, res.R) == (fresh.theta, fresh.epsilon, fresh.R)
    assert abs(res.sup_dist - fresh.sup_dist) <= 1e-9
    assert abs(res.h1_dist - fresh.h1_dist) <= 1e-9
    # f has only even zeros, so a state at a point that is not a zero
    # exists, but its U = |Re F - Re F(0)| is shifted
    for bad in (reconstruct(f, 0.0, resolution=96),
                reconstruct(f, -0.35, resolution=64),
                reconstruct(fresh.f_new, -0.35, resolution=96)):
        with pytest.raises(ValueError):
            _split(f, -0.35, eps_target=4.0, eps0=0.1, state=bad)
