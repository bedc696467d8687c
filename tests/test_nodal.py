import functools
import hashlib
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from hopfseg.desingularize import reduce_to_simple
from hopfseg.errors import SearchExhausted
from hopfseg.experiments import (
    admissible_fw, figure5_function, random_even_function, reduction_sweep, tuned_multizero,
)
from hopfseg.nodal import (
    JET_CAP, _critical_seeds, _Marcher, boundary_zeros, counts, faces, trace, verify_index,
)
from hopfseg.primitive import PathEngine, circle_march
from hopfseg.quadrature import SqrtSegmentIntegrator
from hopfseg.rational import RationalFactored, monomial, rational
from hopfseg.serialize import emit_function
from hopfseg.slits import build_slit_disk
from hopfseg.states import analytic_state, find_base_point, reconstruct


@pytest.fixture(scope="module")
def cubic_graph():
    st = reconstruct(monomial(0.25, 3), 0.0, resolution=256)
    return st, trace(st)


def test_constant_diameter():
    st = reconstruct(rational(0.25), 0.0, resolution=128)
    g = trace(st)
    assert (g.M, g.N, g.T) == (2, 2, 1)
    assert len(g.arcs) == 1
    assert len([v for v in g.vertices if v.kind == "boundary-zero"]) == 2
    rep = verify_index(g)
    assert rep.formula_check and rep.euler_check and rep.index_sum == 0
    # the arc is the vertical diameter
    pts = np.asarray(g.arcs[0].points)
    assert np.max(np.abs(pts.real)) < 1e-6


def test_cubic_five_rays(cubic_graph):
    st, g = cubic_graph
    assert (g.M, g.N, g.T) == (5, 5, 1)
    assert len(g.arcs) == 5
    rep = verify_index(g)
    assert rep.index_sum == 3
    assert rep.formula_check and rep.euler_check
    assert g.clean


def test_boundary_zero_angles(cubic_graph):
    st, _ = cubic_graph
    bz = boundary_zeros(st)
    targets = [np.pi / 5 + 2 * k * np.pi / 5 for k in range(5)]
    assert len(bz) == 5
    for z, t in zip(sorted(bz), targets):
        assert z == pytest.approx(t, abs=1e-12)


@pytest.mark.parametrize("side", ["after", "before"])
def test_boundary_zero_next_to_cut_end(side):
    # a simple zero at the base sends one cut to the rim at angle psi; a
    # phase rotation puts a boundary zero inside psi's sample gap, after psi
    # or before it; both are refined along the chord from the sample before
    # them, which continues F across the cut
    root = 0.3 + 0.2j
    f0 = rational(0.25, roots=[(root, 1)])
    slit = build_slit_disk(f0, root)
    (cut,) = slit.cuts
    psi = np.angle(cut.end) % (2 * np.pi)
    gap = 2 * np.pi / 256          # boundary_zeros' sample count for order 1
    lo = np.floor(psi / gap) * gap
    target = 0.5 * (psi + lo + gap) if side == "after" else 0.5 * (lo + psi)
    F0 = PathEngine(f0, slit).F(np.exp(1j * target))
    gamma = (0.5 * np.pi - np.angle(F0)) % np.pi
    f = rational(0.25 * np.exp(2j * gamma), roots=[(root, 1)])
    bz = boundary_zeros(reconstruct(f, root, resolution=64))
    assert min(abs(z - target) for z in bz) < 1e-9


@pytest.mark.parametrize("case", ["figure5", "fw2", "reduced_z3"])
def test_boundary_zeros_vanish_on_routed_values(case):
    if case == "figure5":
        f, base = figure5_function()
        want = 7
    elif case == "fw2":
        f, base = admissible_fw(2)
        want = 5
    else:
        f = reduce_to_simple(monomial(0.25, 3), eps_budget=8.0)
        base = find_base_point(f)
        want = 5
    st = reconstruct(f, base, resolution=64)
    bz = boundary_zeros(st)
    assert len(bz) == want
    eng = PathEngine(f, build_slit_disk(f, base))
    for z in bz:
        assert abs(eng.F(np.exp(1j * z)).real) <= 1e-9 * st.scale


def test_vertex_arc_incidence(cubic_graph):
    _, g = cubic_graph
    for v in g.vertices:
        if v.kind == "interior-critical":
            assert g.incident(v.id) == v.multiplicity
        else:
            assert g.incident(v.id) == v.multiplicity - 1  # one interior arc


def test_counts_accessor(cubic_graph):
    _, g = cubic_graph
    assert counts(g) == (5, 5, 1)


def test_admissible_family_one_3pt_one_4pt():
    f, base = admissible_fw(0)
    st = reconstruct(f, base, resolution=256)
    g = trace(st)
    rep = verify_index(g)
    assert (g.M, g.N, g.T) == (5, 5, 1)
    assert rep.index_sum == 3  # 1 + 2
    assert rep.formula_check and rep.euler_check
    mults = sorted(v.multiplicity for v in g.vertices if v.kind == "interior-critical")
    assert mults == [3, 4]


def test_nonadmissible_angle_topology():
    w = 0.1 * np.exp(0.2j)
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    st = reconstruct(f, 0.0, resolution=256)
    g = trace(st)
    rep = verify_index(g)
    # only the 3-point survives; the even zero is off the nodal set
    assert (g.M, g.N, g.T) == (5, 4, 2)
    assert rep.index_sum == 1
    assert rep.formula_check and rep.euler_check


def test_figure5_counts():
    f, base = figure5_function()
    st = reconstruct(f, base, resolution=256)
    g = trace(st)
    rep = verify_index(g)
    assert (g.M, g.N, g.T) == (7, 6, 2)
    assert rep.index_sum == 3
    assert rep.formula_check and rep.euler_check


def test_max_multiplicity_bound(cubic_graph):
    _, g = cubic_graph
    for v in g.vertices:
        if v.kind == "interior-critical":
            assert v.multiplicity <= g.N


def test_graph_export_dict(cubic_graph):
    _, g = cubic_graph
    d = g.to_dict()
    assert set(d) == {"vertices", "arcs", "M", "N", "T"}
    assert len(d["vertices"]) == len(g.vertices)
    assert all(set(v) == {"id", "x", "y", "kind", "index"} for v in d["vertices"])
    assert all(set(a) == {"from", "to", "points"} for a in d["arcs"])


@pytest.fixture(scope="module")
def index_states():
    """The twelve states the benchmark's nodal workload runs `index` on, at G=128."""
    rng = np.random.default_rng(20240817)
    cases = [(random_even_function(rng), None) for _ in range(9)]
    cases += [(figure5_function()[0], -0.4 - 0.3j), (admissible_fw(2)[0], None),
              (monomial(0.25, 3), None)]
    return [reconstruct(f, find_base_point(f) if base is None else base, resolution=128)
            for f, base in cases]


@pytest.mark.parametrize("case, G, counts", [
    ("figure5", 97, (7, 6, 2)),
    ((-0.35, 0.4 + 0.1j, 3, 2), 128, (7, 7, 1)),
    ((-0.3 - 0.1j, 0.42 + 0.05j, 3, 3), 128, (8, 8, 1)),
])
def test_species_count_matches_euler(case, G, counts):
    # a cell within about one cell of a nodal arc could link two species
    # across it away from every cut, and N read one short of E - V + 1
    if case == "figure5":
        f, base = figure5_function()
    else:
        f = reduce_to_simple(tuned_multizero(*case), eps_budget=8.0)
        base = find_base_point(f)
    st = reconstruct(f, base, resolution=G)
    g = trace(st)
    assert g.clean
    assert (g.M, g.N, g.T) == counts
    assert st.n_species == g.N == len(g.arcs) + g.M - len(g.vertices) + 1
    # the grid plays no part in the trace
    assert trace(analytic_state(f, base, resolution=G)) == g
    rep = verify_index(g)
    assert rep.formula_check and rep.euler_check


def test_random_even_draws_are_unchanged():
    # the draw filter reads the rim zeros from the analytic state; criterion
    # 3's 38 draws (the benchmark's nine are the first) are byte for byte the
    # draws of the filter that read them from a resolution-96 grid
    rng = np.random.default_rng(20240817)
    text = "".join(emit_function(random_even_function(rng)) for _ in range(38))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ef39206521a75d6e5cafd7268153dde229bc24e8d9d6c1fbc33f2c73e898528")


def _face_area(g, face):
    """(signed area, length) of a face's cycle of darts: shoelace sums over
    the arcs' polylines, and the exact area 1/2 dtheta swept on the rim."""
    rim = [v.location for v in g.vertices if v.kind == "boundary-zero"]
    area = length = 0.0
    for k, forward in face:
        if k < len(g.arcs):
            p = np.asarray(g.arcs[k].points)[:: 1 if forward else -1]
            area += 0.5 * np.sum((np.conj(p[:-1]) * p[1:]).imag)
            length += np.sum(np.abs(np.diff(p)))
        else:
            j = k - len(g.arcs)
            span = np.angle(rim[(j + 1) % len(rim)] / rim[j]) % (2 * np.pi) or 2 * np.pi
            area += 0.5 * span if forward else -0.5 * span
            length += span
    return area, length


def test_face_areas_fill_the_disk(index_states):
    for st in index_states:
        g = trace(st)
        areas = sorted(_face_area(g, face) for face in faces(g.vertices, g.arcs))
        # the outer face is the rim run clockwise; every other face is a
        # species, on the left of its cycle
        (outer, _), inner = areas[0], areas[1:]
        assert outer == pytest.approx(-np.pi, abs=1e-12)
        assert len(inner) == g.N and all(a > 0 for a, _ in inner)
        total, perimeter = np.sum(inner, axis=0)
        assert abs(total - np.pi) <= perimeter * 0.1 / st.resolution
        # the grid's species, by their cells: each face is larger by less than
        # its length times h, the band of unlabelled cells along the nodal set
        assert st.n_species == g.N
        cells = np.sort(np.bincount(st.species.ravel())[1:]) * st.h ** 2
        for (a, length), s in zip(inner, cells):
            assert 0 < a - s < length * st.h
        if st is index_states[-1]:
            # z^3/4: five sectors of area pi/5, each within its length times
            # the 0.1/G sagitta
            for a, length in inner:
                assert abs(a - np.pi / 5) <= length * 0.1 / st.resolution


def test_a_swapped_rotation_leaves_fewer_faces(index_states):
    # swapping the seed angles of two arc ends at a critical makes its cyclic
    # order non-planar: the face walk finds fewer faces, and Euler's relation fails
    swaps = 0
    for st in index_states:
        g = trace(st)
        n = len(faces(g.vertices, g.arcs))
        for v in g.vertices[:len(st.criticals)]:
            (k1, e1), (k2, e2) = [(k, e) for k, arc in enumerate(g.arcs)
                                  for e in (0, 1) if (arc.a, arc.b)[e] == v.id][:2]
            arcs = list(g.arcs)
            a1, a2 = arcs[k1].angles[e1], arcs[k2].angles[e2]
            for k, e, ang in ((k1, e1, a2), (k2, e2, a1)):
                angles = list(arcs[k].angles)
                angles[e] = ang
                arcs[k] = replace(arcs[k], angles=tuple(angles))
            swapped = len(faces(g.vertices, arcs))
            assert swapped < n
            assert not verify_index(replace(g, arcs=tuple(arcs), N=swapped - 1)).euler_check
            swaps += 1
    assert swaps == 5


# seed 11's first 18 draws of random_multizero, each reduced to simple zeros
# and checked at G = 128 as hopfseg index checks it: (M, N, T, clean trace,
# identities and Euler's relation hold), or the typed error on the way
SWEEP_OUTCOMES = [
    (6, 6, 1, True, True), (8, 8, 1, True, True), (7, 7, 1, True, True),
    "SearchExhausted",      # no general position among the Moebius candidates
    (7, 7, 1, True, True), (7, 7, 1, True, True), (6, 6, 1, True, True),
    (7, 7, 1, True, True), (6, 6, 1, True, True), (6, 6, 1, True, True),
    (6, 6, 1, True, True), (6, 6, 1, True, True), (8, 8, 1, True, True),
    (7, 7, 1, True, True), (7, 7, 1, True, True), (7, 7, 1, True, True),
    (7, 7, 1, True, True),
    # two simple zeros 2.9e-7 apart: the trace is unclean, and its faces give
    # N = 6 where the grid reads 7
    (7, 6, 2, False, False),
]


class FailsIndexChecks(Exception):
    """A reduced output whose trace is unclean or breaks an identity."""


@functools.cache
def _sweep_outcomes():
    return [outcome for _, outcome, _ in reduction_sweep(11, len(SWEEP_OUTCOMES))]


@pytest.mark.parametrize("case", [
    pytest.param(k, id=f"case{k:02d}", marks=pytest.mark.xfail(
        strict=True, raises=FailsIndexChecks, reason="near-coincident zeros trace unclean"))
    if k == 17 else pytest.param(k, id=f"case{k:02d}")
    for k in range(len(SWEEP_OUTCOMES))
])
def test_random_reduction_sweep(case):
    outcome = _sweep_outcomes()[case]
    assert outcome == SWEEP_OUTCOMES[case]
    if not isinstance(outcome, str) and not (outcome[3] and outcome[4]):
        raise FailsIndexChecks(f"case {case}: {outcome}")


def test_each_arc_marched_once(index_states, monkeypatch):
    marches = []
    run = _Marcher.run

    def counted(self, *args):
        marches.append(args)
        return run(self, *args)

    monkeypatch.setattr(_Marcher, "run", counted)
    for st in index_states:
        marches.clear()
        g = trace(st)
        assert g.clean
        assert len(marches) == len(g.arcs)


def test_trace_integrations(index_states, monkeypatch):
    # every value goes by a certified Taylor series where the Cauchy bound
    # allows: integrating every move took 3,052 calls on these twelve states, a
    # third-order closed-form corrector with integral predictor steps 1,711;
    # seeds that carry F to their arcs' starts 336, one jet per step 203
    calls = []
    integrate = SqrtSegmentIntegrator.integrate

    def counted(self, *args, **kw):
        calls.append(args[:2])
        return integrate(self, *args, **kw)

    monkeypatch.setattr(SqrtSegmentIntegrator, "integrate", counted)
    for st in index_states:
        assert trace(st).clean
    assert len(calls) <= 203


def test_trace_diagnostics_count_every_move(index_states, monkeypatch):
    # every re-centring is one move, a jet move or an integral move; each
    # predictor step, each retry and each start on the rim runs the corrector
    # once; and the integral count is every integrate call the trace makes
    # (moves, seeds, starts and rim zeros)
    centres, corrects, rims, calls = [], [], [], []
    for name, log in (("_centre", centres), ("_correct", corrects), ("start_on_rim", rims)):
        monkeypatch.setattr(_Marcher, name, lambda self, *a, _f=getattr(_Marcher, name), _log=log:
                            _log.append(a) or _f(self, *a))
    integrate = SqrtSegmentIntegrator.integrate
    monkeypatch.setattr(SqrtSegmentIntegrator, "integrate",
                        lambda self, *a, **kw: calls.append(a) or integrate(self, *a, **kw))
    total = dict.fromkeys(("steps", "jet_moves", "integral_moves", "retries", "integrals"), 0)
    for st in index_states:
        for log in (centres, corrects, rims, calls):
            log.clear()
        d = trace(st).diagnostics
        assert set(d) == set(total)
        assert d["jet_moves"] + d["integral_moves"] == len(centres)
        assert d["steps"] + d["retries"] + len(rims) == len(corrects)
        assert d["integrals"] == len(calls)
        for k in total:
            total[k] += d[k]
    assert total["integral_moves"] < total["jet_moves"] // 10
    assert total["integrals"] <= 203


def test_one_jet_per_step(index_states, monkeypatch):
    # a jet is built where an arc or a start on the rim begins and at every
    # re-centring, and nowhere else: a jet at every move took 2,904 f.jet
    # calls and 139 integral moves on these twelve states, one jet per step
    # 1,002 and 6 (quarter-distance steps next to zeros are certified on the
    # 3/4 disk)
    jets, runs, rims = [], [], []
    monkeypatch.setattr(RationalFactored, "jet", lambda self, *a, _f=RationalFactored.jet:
                        jets.append(a) or _f(self, *a))
    for name, log in (("run", runs), ("start_on_rim", rims)):
        monkeypatch.setattr(_Marcher, name, lambda self, *a, _f=getattr(_Marcher, name), _log=log:
                            _log.append(a) or _f(self, *a))
    total = dict.fromkeys(("jets", "integral_moves"), 0)
    for st in index_states:
        for log in (jets, runs, rims):
            log.clear()
        d = trace(st).diagnostics
        assert len(jets) == len(runs) + len(rims) + d["jet_moves"] + d["integral_moves"]
        total["jets"] += len(jets)
        total["integral_moves"] += d["integral_moves"]
    assert total["jets"] <= 1002 and total["integral_moves"] <= 6


def test_taylor_move_matches_the_integral(index_states):
    # z^3/4, figure 5 and the first random_even_function draw: on each arc
    # point, the longest move the bound accepts in each of three directions
    # (sizes 1e-8 * 1.5^k, extended to 0.84, beyond the q < 1/2 a jet needs),
    # and a move of 1e-7, agree with the integral to the corrector's tolerance
    sizes = 1e-8 * 1.5 ** np.arange(46)
    checked = 0
    for st in (index_states[11], index_states[9], index_states[0]):
        marcher = _Marcher(st)
        f = st.f
        for arc in trace(st).arcs:
            for z in arc.points[1:-1]:
                v = np.sqrt(f.eval(z))
                jet = marcher._jet(z)
                for d in np.exp(2j * np.pi * np.arange(3) / 3):
                    longest = max(s for s in sizes
                                  if marcher._jet_move(z, v, 0j, s * d, jet) is not None)
                    assert longest < sizes[-1]
                    for c in (1e-7 * d, longest * d):
                        moved = marcher._centre(*marcher._jet_move(z, v, 0j, c, jet))
                        val, _, v_end = marcher.integ.integrate(z, z + c, v, tol=1e-16)
                        assert moved[0] == z + c
                        assert abs(moved[2] - 2.0 * val) <= marcher.tight
                        assert abs(moved[1] - v_end) <= 1e-12 * abs(v_end)
                        checked += 1
    assert checked >= 1000
    # next to the triple zero of z^3/4 the Newton move from z = 1e-3 is -0.4 z,
    # with q = 0.53: the corrector integrates it
    st = index_states[11]
    marcher = _Marcher(st)
    z = 1e-3
    v, F = np.sqrt(st.f.eval(z)), 0.4 * z ** 2.5
    assert abs(-0.4 * z) / st.f.jet(z, 1)[0] >= 0.5
    assert marcher._jet_move(z, v, F, -0.4 * z, marcher._jet(z)) is None
    calls = []
    advance = marcher._advance
    marcher._advance = lambda *args: calls.append(args) or advance(*args)
    zn, _, Fn, _, ok = marcher._correct(z, v, F, marcher._jet(z), 0, np.inf)
    assert ok and abs(Fn.real) < marcher.tight and len(calls) >= 1
    assert calls[0][3] == pytest.approx(-0.4 * z, rel=1e-12)


def _move_mp(f, z, v, c):
    """2 * int_z^{z+c} f^{1/2} along the segment, at 30 digits.

    Along w = z + t c, f(w) = f(z) prod (1 + t c / (z - r))^n over the roots
    and poles (order -p), and |c| < |z - r| / 2 keeps each factor's
    principal power analytic there, so f^{1/2}(w) = v prod (1 + t c / (z - r))^(n/2).
    """
    with mp.workdps(30):
        z_, c_ = mp.mpc(z), mp.mpc(c)
        factors = [(z_ - mp.mpc(r), n) for r, n in f.interior_roots + f.unit_num]
        factors += [(z_ - mp.mpc(r), -p) for r, p in f.unit_den]

        def integrand(t):
            out = mp.mpc(v)
            for d, n in factors:
                out *= mp.power(1 + t * c_ / d, mp.mpf(n) / 2)
            return out

        return complex(2 * c_ * mp.quad(integrand, [0, 1]))


@pytest.mark.parametrize("case", ["z3", "figure5", "unit-roots-and-pole"])
def test_jet_move_matches_mpmath(case):
    # the series of one jet per point, 1e-3 to 0.3 from a zero and away from
    # all, at offsets c of q = |c| / rho (as the marcher computes it) up to just
    # below 1/2, in three directions, in an order that grows the series and
    # reuses it: a value the bound accepts matches 30 digits, F within tight/10
    # and f^{1/2} within its own tail bound, and a value at q >= 1/2 or whose
    # tail bound 2 M |c| q^K / (1 - q), M = |v| g^{1/2}, is still above
    # tight/10 at K = JET_CAP is refused.  A quarter of the root distance, the
    # step next to a zero, is q = 1/3 when the root is nearest: it is accepted
    if case == "z3":
        f, base = monomial(0.25, 3), 0.0
    elif case == "figure5":
        f, base = figure5_function()
    else:
        f = rational(0.5 - 0.25j, roots=[(0.2 + 0.1j, 2), (-0.3, 2)],
                     unit_num=[(1.4, 1)], unit_den=[(-1.7 + 0.4j, 2)])
        base = find_base_point(f)
    marcher = _Marcher(reconstruct(f, base, resolution=32))
    r0 = f.interior_roots[-1][0]
    points = [r0 + s * np.exp(1j * (1.0 + s)) for s in (1e-3, 1e-2, 0.3)] + [0.6 - 0.7j]
    accepted = refused = edge = quarter = 0
    for z in points:
        v = np.sqrt(f.eval(z))
        jet = marcher._jet(z)
        rho, g = jet[:2]
        for share in (0.45, 0.1, 0.499, 1 / 3, 0.5, 0.3, 0.7):
            for d in np.exp(2j * np.pi * (np.arange(3) + 0.3) / 3):
                c = share * rho * d
                q = abs(c) / rho
                moved = marcher._jet_move(z, v, 0j, c, jet)
                if share == 1 / 3 and f.min_root_distance(z) == pytest.approx(rho / 0.75):
                    assert moved is not None
                    quarter += 1
                bound = 2.0 * abs(v) * np.sqrt(g) * abs(c) * q ** JET_CAP / (1.0 - q)
                if q >= 0.5 or bound >= marcher.tight / 10:
                    assert moved is None
                    refused += 1
                    continue
                assert moved[0] == z + c
                F_mp, v_mp = _move_mp(f, z, v, c), _sqrt_mp(f, z, v, c)
                assert abs(moved[2] - F_mp) <= marcher.tight / 10
                assert abs(moved[1] - v_mp) <= marcher.tight / (20 * abs(c)) + 1e-14 * abs(v_mp)
                accepted += 1
                edge += share == 0.499
        assert len(jet[5]) <= JET_CAP
    assert accepted >= 45 and refused >= 35 and edge >= 3 and quarter == 12


def _sqrt_mp(f, z, v, c):
    """f^{1/2}(z + c) = v prod (1 + c / (z - r))^(n/2), at 30 digits (_move_mp)."""
    with mp.workdps(30):
        out = mp.mpc(v)
        for r, n in f.interior_roots + f.unit_num + tuple((d, -p) for d, p in f.unit_den):
            out *= mp.power(1 + mp.mpc(c) / (mp.mpc(z) - mp.mpc(r)), mp.mpf(n) / 2)
        return complex(out)


@pytest.mark.parametrize("eps", [2e-12, 5e-12, 2e-11])
def test_trace_next_to_zeros_closer_than_a_step_floor(eps):
    # a step floor of 1e-11 stepped past the simple zero eps from the double
    # one, and the integral of that step never converged (ToleranceNotMet)
    f = rational(0.25, roots=[(0, 2), (eps, 1)])
    g = trace(reconstruct(f, find_base_point(f), resolution=96))
    assert g.clean and (g.M, g.N, g.T) == (5, 5, 1)
    rep = verify_index(g)
    assert rep.formula_check and rep.euler_check


def test_polylines_lie_on_the_nodal_set(index_states):
    # a fresh engine's routed F shares no state with the tracer
    for st in index_states:
        eng = PathEngine(st.f, build_slit_disk(st.f, st.base))
        g = trace(st)
        for arc in g.arcs:
            assert arc.points[0] == g.vertices[arc.a].location
            assert arc.points[-1] == g.vertices[arc.b].location
            for z in arc.points:
                assert abs(z) <= 1.0 + 1e-15
                assert abs(eng.F(z).real) <= 1e-9 * st.scale


def test_polyline_chords_stay_near_the_nodal_set(index_states):
    # the step grows with the arc's curvature bound |f'/f|/2, capped so that
    # the chord between consecutive points bows at most 0.1/G off the arc;
    # the distance of a chord's midpoint to the nodal set is |Re F|/|F'|
    f, base = figure5_function()
    kept = 0
    for st in index_states + [reconstruct(f, base, resolution=512)]:
        eng = PathEngine(st.f, build_slit_disk(st.f, st.base))
        g = trace(st)
        if st.resolution == 128:
            kept += sum(len(arc.points) for arc in g.arcs)
        for arc in g.arcs:
            inner = arc.points[1:-1]
            for p, q in zip(inner[:-1], inner[1:]):
                F, v = eng.value_and_sqrt(0.5 * (p + q))
                assert abs(F.real) / abs(2.0 * v) <= 0.1 / st.resolution
    # a fixed step of 2/G kept 2,533 points on these states
    assert kept <= 1500


@pytest.mark.parametrize("G", [128, 256])
def test_rim_march_leaves_its_boundary_zero(G):
    # the ninth draw of random_even_function(default_rng(20240817)): at one
    # boundary zero the level set meets the rim about 59 degrees off radial,
    # and a radial march from a start off the level set ran back out at its
    # own vertex
    f = rational(0.29130139034048635 - 0.07171819842759289j,
                 roots=[(0.5308209216083883 - 0.5246203577259316j, 2)])
    st = reconstruct(f, find_base_point(f), resolution=G)
    bz = boundary_zeros(st)
    assert len(bz) == 4
    marcher = _Marcher(st)
    for k, ang in enumerate(bz):
        at, arrival, _ = marcher.start_on_rim(np.exp(1j * ang))
        assert at is None      # no critical lies on this nodal set
        gaps = [abs((arrival - a + np.pi) % (2 * np.pi) - np.pi) for a in bz]
        assert int(np.argmin(gaps)) != k
        assert min(gaps) <= max(0.1, 20.0 / G)


def test_rim_refinement_integrations(index_states, monkeypatch):
    # the nodal workload's thirteen traced states; bisecting each boundary
    # zero to 1e-13 took 2,018 chord integrations over them
    states = index_states + [reconstruct(monomial(0.25, 2), 0.0, resolution=128)]
    calls = []
    integrate = SqrtSegmentIntegrator.integrate

    def counted(self, *args, **kw):
        calls.append(args[:2])
        return integrate(self, *args, **kw)

    for st in states:
        want = boundary_zeros(st)
        eng = PathEngine(st.f, build_slit_disk(st.f, st.base))
        samples = max(256, 64 * (st.f.total_interior_order + 2))
        eng.boundary_values(samples)           # the march itself is not refinement
        monkeypatch.setattr(SqrtSegmentIntegrator, "integrate", counted)
        assert eng.boundary_zeros(samples) == want
        monkeypatch.undo()
    assert len(calls) <= 400


def test_zero_on_a_sample_angle_is_not_bisected(monkeypatch):
    # at 320 samples every boundary zero of z^3/4 sits on a sample angle, a
    # rounding error outside its bracket; bisecting toward it takes ~38 chords
    f = monomial(0.25, 3)
    eng = PathEngine(f, build_slit_disk(f, 0.0))
    eng.boundary_values(320)
    calls = []
    integrate = SqrtSegmentIntegrator.integrate

    def counted(self, *args, **kw):
        calls.append(args[:2])
        return integrate(self, *args, **kw)

    monkeypatch.setattr(SqrtSegmentIntegrator, "integrate", counted)
    bz = eng.boundary_zeros(320)
    targets = [np.pi / 5 + 2 * k * np.pi / 5 for k in range(5)]
    assert np.max(np.abs(np.array(bz) - targets)) <= 1e-12
    assert len(calls) <= 2 * len(bz)


@pytest.mark.parametrize("G", [97, 128])
def test_zero_at_the_march_start_is_found_once(G):
    # F = 0.4i z^{5/2} from the triple zero: Re F vanishes on the rays at
    # 2 pi k / 5, so one ray meets the rim and the seed ring at sample 0, where
    # each march starts its turn and ends it
    f = monomial(-0.25, 3)
    st = reconstruct(f, 0.0, resolution=G)
    bz = boundary_zeros(st)
    marcher = _Marcher(st)
    ((zc, order, _),) = st.criticals
    seeds = _critical_seeds(f, marcher.integ, zc, order, 2.0 * marcher.crit_snap[0])
    for angles in (bz, [ang for ang, _, _ in seeds]):
        assert len(angles) == 5
        assert sum(abs((a + np.pi) % (2 * np.pi) - np.pi) <= 1e-12 for a in angles) == 1
    g = trace(st)
    assert g.clean and counts(g) == (5, 5, 1)


def _radial_primitive_mp(f, zc, order, w):
    """2 * int_{zc}^{w} f^{1/2} along the radius, at 30 digits, up to sign.

    f = (z - zc)^order * g with g free of zeros near zc, so along
    z = zc + t (w - zc) the root is t^{order/2} (w - zc)^{order/2} g^{1/2},
    with g^{1/2} continued from its value at zc.
    """
    with mp.workdps(30):
        zc_, d = mp.mpc(zc), mp.mpc(w) - mp.mpc(zc)

        def g(z):
            out = mp.mpc(f.leading)
            for r, n in f.interior_roots:
                if r != zc:
                    out *= (z - mp.mpc(r)) ** n
            for u, n in f.unit_num:
                out *= (z - mp.mpc(u)) ** n
            for u, n in f.unit_den:
                out /= (z - mp.mpc(u)) ** n
            return out

        ref = mp.sqrt(g(zc_))

        def integrand(t):
            s = mp.sqrt(g(zc_ + t * d))
            if abs(s - ref) > abs(s + ref):
                s = -s
            return t ** (mp.mpf(order) / 2) * s

        scale = d ** (mp.mpf(order) / 2) * d
        return complex(2 * scale * mp.quad(integrand, [0, 1]))


@pytest.mark.parametrize("case", ["z3", "figure5"])
def test_critical_seeds_match_mpmath(case):
    f, base = (monomial(0.25, 3), 0.0) if case == "z3" else figure5_function()
    st = reconstruct(f, base, resolution=128)
    marcher = _Marcher(st)
    assert st.criticals
    for i, (zc, order, _) in enumerate(st.criticals):
        r_seed = 2.0 * marcher.crit_snap[i]
        seeds = _critical_seeds(f, marcher.integ, zc, order, r_seed)
        assert len(seeds) == order + 2
        for ang, v, _ in seeds:
            w = zc + r_seed * np.exp(1j * ang)
            assert abs(v * v - f.eval(w)) <= 1e-12 * abs(f.eval(w))
            local = r_seed ** ((order + 2) / 2)
            assert abs(_radial_primitive_mp(f, zc, order, w).real) <= 1e-12 * local


@pytest.mark.parametrize("case", ["z3", "figure5", "fw2"])
def test_ring_march_matches_radial_values(case):
    f, base = {"z3": (monomial(0.25, 3), 0.0), "figure5": figure5_function(),
               "fw2": admissible_fw(2)}[case]
    st = reconstruct(f, base, resolution=128)
    marcher = _Marcher(st)
    assert st.criticals
    for i, (zc, order, _) in enumerate(st.criticals):
        r_seed = 2.0 * marcher.crit_snap[i]
        tol = 1e-16 + 1e-12 * r_seed
        v0 = np.sqrt(f.eval(zc + r_seed))
        F0 = -2.0 * marcher.integ.integrate(zc + r_seed, zc, v0, tol=tol)[0]
        th, w, vals, vs = circle_march(SqrtSegmentIntegrator(f, tol), zc, r_seed,
                                       32 * (order + 2), F0, v0)
        bound = 1e-12 * r_seed ** ((order + 2) / 2)
        # one radial integral into the critical per sample, as the seeds
        # were found before the ring march
        for k in range(len(th) - 1):
            val, _, _ = marcher.integ.integrate(w[k], zc, vs[k],
                                                tol=1e-16 + 1e-12 * abs(w[k] - zc))
            assert abs(vals[k] + 2.0 * val) <= bound
        assert abs(vals[-1] - (-1) ** order * vals[0]) <= bound


class _CoincidentDraws:
    """Stub generator: two double roots at the same point on every draw."""

    def integers(self, low, high):
        return 2

    def uniform(self, low, high):
        return 0.0


def test_random_even_function_gives_up():
    with pytest.raises(SearchExhausted):
        random_even_function(_CoincidentDraws())
