import numpy as np
import pytest

from hopfseg import experiments, quadrature
from hopfseg.desingularize import reduce_to_simple
from hopfseg.errors import ToleranceNotMet, Unreachable
from hopfseg.experiments import admissible_fw, figure5_function, tuned_multizero
from hopfseg.primitive import PathEngine
from hopfseg.quadrature import (
    SqrtSegmentIntegrator, _principal_chain, branch_sign, gk15, nearest_sqrt, rtsafe,
    sqrt_segments,
)
from hopfseg.rational import monomial, rational
from hopfseg.slits import build_slit_disk, route_between
from hopfseg.states import admissibility, find_base_point


@pytest.fixture(scope="module")
def cubic_engine():
    f = monomial(0.25, 3)
    slit = build_slit_disk(f, 0.0)
    return f, slit, PathEngine(f, slit, tol=1e-12)


def test_primitive_golden_value(cubic_engine):
    f, slit, eng = cubic_engine
    pv = eng.primitive(1.0)
    assert pv.value.real == pytest.approx(0.4, abs=1e-9)
    assert abs(pv.value.imag) < 1e-9
    assert pv.est_error < 1e-9


def test_primitive_constant():
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    z = 0.3 + 0.4j
    pv = PathEngine(f, slit, tol=1e-11).primitive(z)
    assert pv.value == pytest.approx(z, abs=1e-10)


def test_primitive_rigidity_value():
    w = 0.1
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    slit = build_slit_disk(f, 0.0)
    pv = PathEngine(f, slit, tol=1e-11).primitive(w)
    assert abs(pv.value) == pytest.approx((4 / 15) * 0.1**2.5, rel=1e-8)


def test_rtsafe_without_slope():
    # secant steps on a smooth function; bisection across a jump
    calls = []

    def smooth(x):
        calls.append(x)
        return np.cos(x) - x, None

    x = rtsafe(smooth, 0.0, 1.0, 1.0, np.cos(1.0) - 1.0, 1e-12)
    assert abs(x - 0.7390851332151607) <= 1e-12
    assert len(calls) <= 10
    x = rtsafe(lambda x: (1.0 if x > 0.3 else -1.0, None), 0.0, 1.0, -1.0, 1.0, 1e-12)
    assert abs(x - 0.3) <= 1e-12


def test_rigidity_scan_refines_by_secant_steps():
    # at most ten values inside the bracket of each admissible angle, and
    # none anywhere else: on one sheet every sign change is a zero
    step = 2e-2
    scan = experiments.rigidity_scan(radius=0.1, step=step)
    targets = np.pi / 5 + 2 * np.pi * np.arange(5) / 5
    assert len(scan.zeros) == 5
    assert np.max(np.abs(np.array(scan.zeros) - targets)) <= 1e-9
    refined = np.array(scan.refined)
    for t in targets:
        assert np.count_nonzero(np.abs(refined - t) < step) <= 10
    assert np.all(np.min(np.abs(refined[:, None] - targets), axis=1) < step)
    assert experiments.rigidity_scan(radius=0.1, step=step).refined == scan.refined


@pytest.mark.parametrize("radius, step", [
    (0.1, 1.3), (0.1, 0.65), (0.1, np.pi / 5), (0.1, 0.0), (0.1, -2e-2),
    (0.0, 2e-2), (-0.1, 2e-2), (0.96, 2e-2),
])
def test_rigidity_scan_rejects_bad_arguments(radius, step):
    # the sheet rule needs a turn 5 step / 2 < pi/2, and w must lie in the
    # disk's margin; radius 0 is z^3/4, where every angle would pass
    with pytest.raises(ValueError):
        experiments.rigidity_scan(radius=radius, step=step)


@pytest.mark.parametrize("radius, step", [(0.1, 0.62), (0.95, 2e-2)])
def test_rigidity_scan_at_its_argument_limits(radius, step):
    scan = experiments.rigidity_scan(radius=radius, step=step)
    targets = np.pi / 5 + 2 * np.pi * np.arange(5) / 5
    assert np.max(np.abs(np.array(scan.zeros) - targets)) <= 1e-9


def test_rigidity_values_match_fresh_engines():
    # the straight segments from w / 2 against a fresh engine's route from
    # its reference point, up to the sign of the root at w / 2; for phi in
    # (pi, 2 pi) the route to w detours around the cut
    r = 0.1
    phis = np.array([0.0, 0.9, 2.5, 3.8, 5.5])
    vals = experiments.rigidity_values(r, phis)
    detours = 0
    for phi, v in zip(phis, vals):
        w = r * np.exp(1j * phi)
        f = rational(0.25, roots=[(0.0, 1), (w, 2)])
        eng = PathEngine(f, build_slit_disk(f, 0.0))
        detours += len(route_between(eng.slit, eng.z_ref, w)) > 2
        F = eng.F(w)
        assert min(abs(v - F), abs(v + F)) <= 1e-12 * abs(F)
        assert abs(experiments.rigidity_value(r, phi) - v) <= 1e-14 * abs(v)
    assert detours >= 2


def test_rigidity_oracle_at_every_scanned_angle():
    # f_phi(e^{i phi} z) = e^{3 i phi} f_0(z) makes F(w) = -(4/15) w^{5/2}, so
    # Re F(w) = -+(4/15) r^{5/2} cos(5 phi / 2), with one sign across the scan
    r = 0.1
    scan = experiments.rigidity_scan(radius=r, step=2e-2)
    target = (4 / 15) * r**2.5
    want = target * np.cos(2.5 * scan.phis)
    assert np.max(np.abs(np.abs(scan.residuals) - np.abs(want))) <= 1e-9 * target
    sign = np.sign(scan.residuals[0])
    assert np.max(np.abs(scan.residuals - sign * want)) <= 1e-9 * target
    for phi in scan.phis[::45]:
        assert abs(abs(experiments.rigidity_value(r, phi).real) - abs(target * np.cos(2.5 * phi))) \
            <= 1e-9 * target


def test_interior_branch_value(cubic_engine):
    # continued z^{5/2} with the argument lifted into (0, 2 pi)
    f, slit, eng = cubic_engine
    z = 0.5j
    expect = 0.4 * 0.5**2.5 * np.exp(1j * 2.5 * np.pi / 2)
    assert eng.F(z) == pytest.approx(expect, abs=1e-11)


def test_boundary_trace_closed_form(cubic_engine):
    f, slit, _ = cubic_engine
    th, vals = PathEngine(f, slit, tol=1e-11).boundary_values(64)
    tr = vals.real
    assert np.max(np.abs(tr - 0.4 * np.cos(2.5 * th))) <= 1e-8


def test_boundary_trace_constant():
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    th, vals = PathEngine(f, slit, tol=1e-11).boundary_values(32)
    tr = vals.real
    assert np.max(np.abs(tr - np.cos(th))) < 1e-9


def test_boundary_trace_perturbed_family():
    # |trace| of the one-parameter family against its closed form
    eps, phi = 0.01, 0.0
    w = eps * np.exp(1j * phi)
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    slit = build_slit_disk(f, 0.0)
    th, vals = PathEngine(f, slit, tol=1e-11).boundary_values(64)
    tr = vals.real
    closed = 0.4 * np.cos(2.5 * th) - (2 / 3) * eps * np.cos(1.5 * th + phi)
    assert np.max(np.abs(np.abs(tr) - np.abs(closed))) <= 1e-8


def _along(waypoints, per_segment=8):
    """Points on a polyline: its waypoints and per_segment - 1 between each."""
    pts = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        pts.extend(a + (b - a) * np.arange(1, per_segment + 1) / per_segment)
    return pts


def test_continue_sqrt_perfect_square():
    # z^2/4 has no cut, so the continued root is z/2 everywhere
    f = monomial(0.25, 2)
    eng = PathEngine(f, build_slit_disk(f, 0.0))
    for z in _along((0.1, 1.0)) + [-0.5 + 0.3j, -0.2 - 0.7j]:
        _, v = eng.value_and_sqrt(z)
        assert v == pytest.approx(z / 2, rel=1e-12)


def test_continue_sqrt_constant_both_sheets(cubic_engine):
    f = rational(0.25)
    eng = PathEngine(f, build_slit_disk(f, 0.0))
    for z in _along((0.1, 0.5 + 0.2j)):
        F, v = eng.value_and_sqrt(z)
        assert v == pytest.approx(0.5, rel=1e-12)
        assert F == pytest.approx(z, abs=1e-12)
        assert eng.primitive(z).sheet_end == 1
    # z^3/4 with its cut on [0, 1]: the continued root is minus the
    # principal one at i and the principal one at -i
    _, _, cubic = cubic_engine
    assert cubic.primitive(1j).sheet_end == -1
    assert cubic.primitive(-1j).sheet_end == 1


def test_continue_sqrt_arc_branch(cubic_engine):
    # z^3/4 with its cut on [0, 1]: the value at i is (1/2) e^{i 3 pi/4}
    f, slit, eng = cubic_engine
    assert slit.cuts[0].end == pytest.approx(1.0)
    _, v = eng.value_and_sqrt(1j)
    assert v == pytest.approx(0.5 * np.exp(1j * 0.75 * np.pi), rel=1e-9)


def test_sheet_consistency_along_paths(cubic_engine):
    f, slit, eng = cubic_engine
    for z in _along(route_between(slit, slit.base, -0.6 + 0.4j)):
        _, v = eng.value_and_sqrt(z)
        w = f.eval(z)
        assert abs(v * v - w) <= 1e-12 * max(abs(w), 1e-30)


def test_path_independence(rng):
    f = rational(0.3 + 0.2j, roots=[(0.2 - 0.1j, 1), (-0.3 + 0.2j, 2)])
    slit = build_slit_disk(f, 0.2 - 0.1j)
    eng = PathEngine(f, slit, tol=1e-11)
    for _ in range(4):
        z = 0.8 * (rng.random() + 1j * rng.random()) - 0.4 - 0.4j
        if slit.on_cut_interior(z) or f.min_root_distance(z) < 1e-3:
            continue
        direct = eng.primitive(z)
        # recompute through a detour waypoint staying inside the slit domain
        mid = 0.5 * z + 0.25j * (1 if z.imag < 0 else -1)
        if abs(mid) > 0.95 or slit.on_cut_interior(mid):
            continue
        if route_between(slit, mid, z) != (mid, z):
            continue
        F_mid, v_mid = eng.value_and_sqrt(mid)
        val, _, _ = SqrtSegmentIntegrator(f).integrate(mid, z, v_mid, tol=1e-11)
        indirect = F_mid + 2 * val
        assert indirect == pytest.approx(direct.value, abs=5e-10)


def test_cut_independence_admissible():
    # different cut systems on the same admissible f give the same |Re F|
    f = monomial(0.25, 3)
    s1 = build_slit_disk(f, 0.0)
    s2 = build_slit_disk(f, 0.0, preferred_dirs={0j: np.exp(2.2j)})
    e1 = PathEngine(f, s1, tol=1e-11)
    e2 = PathEngine(f, s2, tol=1e-11)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(200):
        z = 0.9 * (rng.random() + 1j * rng.random()) - 0.45 - 0.45j
        if s1.on_cut_interior(z) or s2.on_cut_interior(z) or abs(z) > 0.97:
            continue
        if min(s1.distance_to_cuts(z), s2.distance_to_cuts(z)) < 1e-6:
            continue
        assert abs(abs(e1.F(z).real) - abs(e2.F(z).real)) < 1e-8
        checked += 1
        if checked >= 100:
            break
    assert checked >= 50


def test_two_sided_cut_flip(cubic_engine):
    f, slit, eng = cubic_engine
    for xi in (0.3, 0.6, 0.9):
        up = eng.F(xi + 1e-9j).real
        dn = eng.F(xi - 1e-9j).real
        assert abs(up + dn) < 1e-8
        assert abs(up) > 1e-3  # genuinely nonzero on both sides


def test_primitive_rejects_target_inside_cut(cubic_engine):
    _, _, eng = cubic_engine
    with pytest.raises(Unreachable):
        eng.primitive(0.5 + 0.0j)


def test_engine_rejects_tolerance_below_floor(cubic_engine):
    f, slit, _ = cubic_engine
    with pytest.raises(ValueError):
        PathEngine(f, slit, tol=1e-13)


def test_every_routed_value_checks_its_error_estimate(monkeypatch):
    # once the integrator reports ten times the tolerance on every leg, each
    # routed value refuses it: F, value_and_sqrt, primitive and the rim
    # march's start
    f = monomial(0.25, 3)
    eng = PathEngine(f, build_slit_disk(f, 0.0))
    segments = SqrtSegmentIntegrator.segments

    def inflated(self, *args, **kw):
        vals, errs, v = segments(self, *args, **kw)
        return vals, errs + 10 * eng.tol, v

    z = -0.3 + 0.4j
    monkeypatch.setattr(SqrtSegmentIntegrator, "segments", inflated)
    for value, arg in ((eng.F, z), (eng.value_and_sqrt, z), (eng.primitive, z),
                       (eng.boundary_values, 32)):
        with pytest.raises(ToleranceNotMet):
            value(arg)
    monkeypatch.undo()
    assert eng.primitive(z).est_error <= 10 * eng.tol     # nothing refused was kept


def test_boundary_values_match_pointwise(cubic_engine):
    f, slit, eng = cubic_engine
    th, vals = eng.boundary_values(32)
    for k in (3, 11, 19, 27):
        direct = eng.F(np.exp(1j * th[k]))
        assert vals[k] == pytest.approx(direct, abs=1e-9)


def test_boundary_values_memo_is_not_shared(cubic_engine):
    _, _, eng = cubic_engine
    th, vals = eng.boundary_values(48)
    want_th, want = th.copy(), vals.copy()
    th[:] = 0.0
    vals[:] = 0.0
    th2, vals2 = eng.boundary_values(48)
    assert np.array_equal(th2, want_th)
    assert np.array_equal(vals2, want)


def test_branch_sign_picks_the_nearer_root(rng):
    # +1 where v is nearer ref than -v, -1 where -v is, +1 on a tie, with
    # the sign of a zero making no difference; floats for scalars
    v = rng.normal(size=200) + 1j * rng.normal(size=200)
    ref = rng.normal(size=200) + 1j * rng.normal(size=200)
    want = np.where(np.abs(v - ref) <= np.abs(v + ref), 1.0, -1.0)
    assert np.array_equal(branch_sign(v, ref), want)
    for a, b in ((1.0, 1j), (1j, 1.0), (-1.0, 1j), (0j, 1.0), (complex(-0.0, 0.0), 1.0)):
        assert branch_sign(a, b) == 1.0 and isinstance(branch_sign(a, b), float)
    assert branch_sign(-1.0 + 0.1j, 1.0) == -1.0
    assert np.array_equal(nearest_sqrt(v, ref), branch_sign(np.sqrt(v), ref) * np.sqrt(v))


def test_principal_chain_matches_scalar_loop(rng):
    # the sign-flip product must pick exactly the roots of the nearest-root
    # loop started on the principal root, on chains whose argument turns by
    # < pi/2 per step, with a zero at the end of some rows (the root a
    # segment ends at, the only place a zero can occur); rows of a 2-D input
    # are chains of their own
    rows, wants = [], []
    for k in range(50):
        arg = np.cumsum(rng.uniform(-0.44 * np.pi, 0.44 * np.pi, 40))
        fvals = rng.uniform(0.1, 2.0, 40) * np.exp(1j * arg)
        fvals[-1] = 0.0 if k % 2 == 0 else fvals[-1]
        want, ref = [], None
        for w in fvals:
            s = np.sqrt(w) if ref is None else nearest_sqrt(w, ref)
            want.append(s)
            if s != 0:
                ref = s
        assert np.array_equal(_principal_chain(fvals)[0], np.array(want))
        rows.append(fvals)
        wants.append(want)
    assert np.array_equal(_principal_chain(np.array(rows))[0], np.array(wants))


def test_arg_steps_ok_skips_zeros_per_row(rng):
    # the argument-step rule compares consecutive nonzero values, row by row;
    # a zero, at the end of some rows, is skipped
    rows, want = [], []
    for k in range(60):
        arg = np.cumsum(rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 17))
        fvals = rng.uniform(0.1, 2.0, 17) * np.exp(1j * arg)
        fvals[-1] = 0.0 if k % 3 == 0 else fvals[-1]
        nz = fvals[fvals != 0]
        want.append(bool(np.all(np.abs(np.angle(nz[1:] / nz[:-1])) < 0.45 * np.pi)))
        assert _principal_chain(fvals)[1] == want[-1]
        rows.append(fvals)
    assert 0 < sum(want) < len(want)
    assert np.array_equal(_principal_chain(np.array(rows))[1], np.array(want))


def test_chords_match_integrate(monkeypatch):
    # a short chord is one accepted panel; chords across the disk pass near
    # the roots, fail the node-gap rule and are split within the one batch
    f = rational(0.3 + 0.2j, roots=[(0.2 - 0.1j, 1), (-0.3 + 0.2j, 2)])
    integ = SqrtSegmentIntegrator(f, 1e-11)
    za = np.array([0.9, -0.8j, 0.5 + 0.5j, -0.9 + 0.1j])
    zb = np.array([0.88 + 0.05j, 0.8j, -0.6 - 0.4j, 0.9 - 0.1j])
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_MAX_DEPTH", 0)
        integ.chords(za[:1], zb[:1])
        with pytest.raises(ToleranceNotMet):
            integ.chords(za, zb)
    calls = []
    integrate = SqrtSegmentIntegrator.integrate

    def counted(self, *args, **kw):
        calls.append(args[:2])
        return integrate(self, *args, **kw)

    monkeypatch.setattr(SqrtSegmentIntegrator, "integrate", counted)
    D, sigma = integ.chords(za, zb)
    monkeypatch.undo()
    assert calls == []
    for a, b, d, s in zip(za, zb, D, sigma):
        val, _, v_end = integ.integrate(a, b, np.sqrt(f.eval(a)))
        assert d == pytest.approx(2.0 * val, abs=1e-10)
        assert v_end == pytest.approx(s * np.sqrt(f.eval(b)), rel=1e-12)


def test_segments_match_integrate_one_by_one(rng):
    # one batch of segments, every third ending at a root, against integrate
    # on each; and a chained route into a root against integrate carrying
    # the branch from segment to segment
    f = rational(0.3 + 0.2j, roots=[(0.2 - 0.1j, 1), (-0.3 + 0.2j, 2)])
    roots = [r for r, _ in f.interior_roots]
    integ = SqrtSegmentIntegrator(f, 1e-11)
    za = 0.7 * np.exp(2j * np.pi * np.arange(12) / 12)
    zb = 0.9 * (rng.random(12) + 1j * rng.random(12)) - 0.45 - 0.45j
    zb[::3] = roots[0]
    zb[1::3][:2] = roots[1]
    v0 = np.sqrt(f.eval(za)) * rng.choice([-1.0, 1.0], 12)
    vals, errs, v_end = integ.segments(za, zb, v0)
    for i in range(12):
        val, err, ve = integ.integrate(za[i], zb[i], v0[i])
        assert abs(vals[i] - val) <= 1e-14 * max(1.0, abs(val))
        assert abs(v_end[i] - ve) <= 1e-14 * max(1.0, abs(ve))
        assert errs[i] == pytest.approx(err, abs=1e-15)
    assert np.all(v_end[::3] == 0)

    assert all(len(x) == 0 for x in integ.segments([], [], 1.0, chained=True))
    wps = np.array([0.6 + 0.5j, 0.1 + 0.6j, -0.5 + 0.5j, -0.7 - 0.2j, -0.2 - 0.6j, roots[0]])
    vals, _, v_end = integ.segments(wps[:-1], wps[1:], 1j * np.sqrt(f.eval(wps[0])), chained=True)
    v = 1j * np.sqrt(f.eval(wps[0]))
    for a, b, got, got_v in zip(wps[:-1], wps[1:], vals, v_end):
        val, _, v = integ.integrate(a, b, v)
        assert abs(got - val) <= 1e-14 * max(1.0, abs(val))
        assert abs(got_v - v) <= 1e-14 * max(1.0, abs(v))


def test_gk15_on_no_intervals():
    # a split of a zero with no other zero integrates over no intervals
    def fn(i, x):
        raise AssertionError("the integrand of no interval was evaluated")

    out = gk15(fn, np.zeros(0), np.zeros(0), 1e-12)
    assert out.dtype == complex and np.array_equal(out, np.zeros(0, complex))


def test_sqrt_segments_keeps_functions_apart(rng):
    # four functions in one call, with 0 to 3 roots padded with inf and some
    # segments ending at a root, against each function's own integrator
    fs = [rational(0.3 + 0.2j, roots=[(0.2 - 0.1j, 1), (-0.3 + 0.2j, 2)]),
          monomial(0.25, 3),
          rational(-0.2j, roots=[(0.4 + 0.1j, 1), (-0.1 - 0.5j, 2), (-0.45 + 0.3j, 3)]),
          rational(0.25)]
    za, zb, fid, roots = [], [], [], []
    for k, f in enumerate(fs):
        rk = [r for r, _ in f.interior_roots]
        a = 0.7 * np.exp(2j * np.pi * (np.arange(6) + k / 4) / 6)
        b = 0.9 * (rng.random(6) + 1j * rng.random(6)) - 0.45 - 0.45j
        b[:2 * len(rk):2] = rk
        za.append(a)
        zb.append(b)
        fid += [k] * 6
        roots += [rk + [np.inf] * (3 - len(rk))] * 6
    za, zb, fid = np.concatenate(za), np.concatenate(zb), np.array(fid)
    roots = np.array(roots, dtype=complex)
    v0 = np.array([np.sqrt(fs[k].eval(z)) for k, z in zip(fid, za)])
    v0 *= rng.choice([-1.0, 1.0], len(za))

    def fn(i, z):
        out = np.empty(z.shape, dtype=complex)
        for k, f in enumerate(fs):
            rows = fid[i] == k
            out[rows] = f.eval(z[rows])
        return out

    vals, errs, v_end = sqrt_segments(fn, roots, za, zb, v0, tol=1e-11)
    for k, f in enumerate(fs):
        rows = fid == k
        want = SqrtSegmentIntegrator(f, 1e-11).segments(za[rows], zb[rows], v0[rows])
        for got, exp in zip((vals[rows], errs[rows], v_end[rows]), want):
            assert np.all(np.abs(got - exp) <= 1e-14 * np.maximum(1.0, np.abs(exp)))
    assert np.count_nonzero(v_end == 0) == 6


# -- the batched boundary march against a chord-by-chord oracle -------------------


@pytest.fixture(scope="module")
def rim_states():
    red = reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2), eps_budget=8.0)
    return {
        "z3": (monomial(0.25, 3), 0.0),
        "figure5": figure5_function(),
        "fw2": admissible_fw(2),
        "reduced": (red, find_base_point(red)),
    }


def _march_oracle(eng, pts):
    """F and the carried root at each sample, routed at sample 0 and then
    integrating one chord at a time from the previous sample's root."""
    integ = SqrtSegmentIntegrator(eng.f, eng.tol)
    F = np.empty(len(pts), dtype=complex)
    roots = np.empty(len(pts), dtype=complex)
    for i, z in enumerate(pts):
        if i == 0:
            F[i], roots[i] = eng.value_and_sqrt(z)
        else:
            val, _, roots[i] = integ.integrate(pts[i - 1], z, roots[i - 1], tol=eng.tol)
            F[i] = F[i - 1] + 2.0 * val
    return F, roots


@pytest.mark.parametrize("samples", [32, 256, 512])
@pytest.mark.parametrize("name", ["z3", "figure5", "fw2", "reduced"])
def test_batch_march_matches_chord_by_chord(rim_states, name, samples, monkeypatch):
    f, base = rim_states[name]
    eng = PathEngine(f, build_slit_disk(f, base))
    # integrate calls made from inside chords are its rejected chords
    inside, rejected = [False], []
    chords, integrate = SqrtSegmentIntegrator.chords, SqrtSegmentIntegrator.integrate

    def counted_chords(self, *args, **kw):
        inside[0] = True
        try:
            return chords(self, *args, **kw)
        finally:
            inside[0] = False

    def counted_integrate(self, *args, **kw):
        if inside[0]:
            rejected.append(args[:2])
        return integrate(self, *args, **kw)

    monkeypatch.setattr(SqrtSegmentIntegrator, "chords", counted_chords)
    monkeypatch.setattr(SqrtSegmentIntegrator, "integrate", counted_integrate)
    _, vals = eng.boundary_values(samples)
    monkeypatch.undo()
    assert rejected == []

    _, pts, _, roots = eng._march(samples)
    want, want_roots = _march_oracle(eng, pts)
    assert np.max(np.abs(vals - want[:samples])) <= 1e-13 * eng.boundary_scale()
    assert np.all((roots * np.conj(want_roots)).real > 0)


def test_rim_values_continue_across_cut_ends(rim_states):
    # the reduction's rim passes the cut ends of odd zeros other than the
    # base; there the continued values keep |Re F| of the slit determination,
    # and one turn brings Re F back to +-Re F at angle 0
    f, base = rim_states["reduced"]
    eng = PathEngine(f, build_slit_disk(f, base))
    assert sum(abs(c.anchor - base) > 1e-12 for c in eng.slit.cuts) >= 2
    samples = 256
    th, vals = eng.boundary_values(samples)
    scale = eng.boundary_scale()
    for k in range(0, samples, 8):
        routed = eng.F(np.exp(1j * th[k]))
        assert abs(abs(vals[k].real) - abs(routed.real)) <= 1e-9 * scale
    residual = max(v for _, v in admissibility(f, base, engine=eng).residuals)
    raws = eng._march(samples)[2]            # anchored at z_ref, through one full turn
    turned = vals[0] + (raws[-1] - raws[0])
    assert abs(abs(turned.real) - abs(vals[0].real)) <= 2 * residual + 1e-9 * scale
