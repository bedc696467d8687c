import mpmath as mp
import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hopfseg import states
from hopfseg.errors import NotAdmissible, NotOnNodalSet
from hopfseg.experiments import admissible_fw, figure5_function, splitting_outputs
from hopfseg.primitive import PathEngine
from hopfseg.rational import monomial, rational
from hopfseg.slits import build_slit_disk, point_segment_distance, route_between
from hopfseg.states import (
    FILL_CHORD,
    FILL_ROUTED,
    FILL_TREE,
    admissibility,
    dirichlet_energy,
    export_grid_csv,
    find_base_point,
    grid_forest,
    hopf_l1,
    local_exponent,
    multiplicity_at,
    reconstruct,
)


@pytest.fixture(scope="module")
def cubic_state():
    return reconstruct(monomial(0.25, 3), 0.0, resolution=256)


def test_admissibility_examples():
    f = monomial(0.25, 3)
    rep = admissibility(f, 0.0)
    assert rep.admissible and rep.residuals == ((0j, 0.0),)

    w = 0.1 * np.exp(1j * np.pi / 5)
    fw = rational(0.25, roots=[(0, 1), (w, 2)])
    assert admissibility(fw, 0.0).admissible

    w2 = 0.1 * np.exp(0.2j)
    fw2 = rational(0.25, roots=[(0, 1), (w2, 2)])
    rep2 = admissibility(fw2, 0.0)
    assert not rep2.admissible
    res_w = dict(rep2.residuals)[w2]
    assert res_w == pytest.approx((4 / 15) * 0.1**2.5 * abs(np.cos(0.5)), rel=1e-6)


def test_find_base_point():
    assert find_base_point(monomial(0.25, 3)) == 0
    assert find_base_point(monomial(0.25, 2)) == 0  # no odd zeros: origin
    # Re F need not vanish at the non-critical double zero w: the simple zero
    # is a base although full admissibility (every zero critical) fails there
    w = 0.1 * np.exp(0.2j)
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    assert find_base_point(f) == 0
    assert not admissibility(f, 0.0).admissible


def test_find_base_point_takes_the_first_odd_zero(monkeypatch):
    # Re F differs at the two simple zeros: the rule still names the first
    # one, without an engine, and reconstruct is what refuses it
    f = rational(0.25, roots=[(-0.2 + 0.4j, 1), (0.3, 1)])
    monkeypatch.setattr(states, "PathEngine", None)
    assert find_base_point(f) == 0.3
    monkeypatch.undo()
    assert not admissibility(f, 0.3).admissible
    with pytest.raises(NotAdmissible):
        reconstruct(f, 0.3, resolution=64)


def test_admissible_from_every_odd_zero():
    # continuing F around an odd zero z_j maps F to 2 F(z_j) - F, so Re F
    # vanishing at every zero from one odd zero means it does from any, which
    # is what lets find_base_point take the first without testing it
    for f, _ in splitting_outputs():
        odd = [z for z, m in f.interior_roots if m % 2 == 1]
        assert odd
        for z in odd:
            assert admissibility(f, z).admissible


def test_find_base_point_figure5():
    # |Re F| = 0.069 at the double zero -0.05+0.55j, which is not critical
    f, base = figure5_function()
    assert find_base_point(f) == base == -0.4 - 0.3j


def test_reconstruct_constant():
    st = reconstruct(rational(0.25), 0.0, resolution=128)
    assert st.n_species == 2
    assert st.criticals == ()
    c = st.cell_centers
    X, _ = np.meshgrid(c, c)
    assert np.nanmax(np.abs(st.u - np.abs(X))[st.inside]) < 1e-10


def test_reconstruct_cubic(cubic_state):
    st = cubic_state
    assert st.n_species == 5
    assert st.criticals == ((0j, 3, 5),)
    # nodal rays where cos(5 theta / 2) = 0
    for k in range(5):
        th = np.pi / 5 + 2 * k * np.pi / 5
        z = 0.5 * np.exp(1j * th)
        assert st.value_at(z) < 1e-10


def test_reconstruct_square_closed_form():
    st = reconstruct(monomial(0.25, 2), 0.0, resolution=256)
    assert st.n_species == 4
    assert st.criticals == ((0j, 2, 4),)
    c = st.cell_centers
    X, Y = np.meshgrid(c, c)
    assert np.nanmax(np.abs(st.u - np.abs(X**2 - Y**2) / 2)[st.inside]) < 1e-10


def test_reconstruct_not_admissible():
    w = 0.3
    f = rational(0.25, roots=[(w, 1)])   # odd zero off the base's nodal set
    with pytest.raises(NotAdmissible):
        reconstruct(f, 0.5j, resolution=96)


@pytest.mark.parametrize("name", ["z3", "figure5"])
def test_reconstruct_with_given_engine(name):
    # a state built on a caller's engine, after the caller's own admissibility
    # check has filled its cache and rim march, equals a fresh one
    f, base = (monomial(0.25, 3), 0.0) if name == "z3" else figure5_function()
    eng = PathEngine(f, build_slit_disk(f, base))
    admissibility(f, base, engine=eng)
    st = reconstruct(f, base, 96, engine=eng)
    fresh = reconstruct(f, base, 96)
    assert st.engine is eng
    for key in ("u", "sre", "species", "source"):
        assert np.array_equal(getattr(st, key), getattr(fresh, key), equal_nan=True)
    assert (st.criticals, st.residuals, st.scale) == (fresh.criticals, fresh.residuals, fresh.scale)
    with pytest.raises(ValueError, match="another"):
        reconstruct(f, base + 0.1, 96, engine=eng)


def test_species_touch_boundary(cubic_state):
    st = cubic_state
    G = st.resolution
    c = st.cell_centers
    X, Y = np.meshgrid(c, c)
    rim = np.hypot(X, Y) > 1 - 3 * st.h
    for lab in range(1, st.n_species + 1):
        assert ((st.species == lab) & rim).any()
    # species are numbered in the row-major order of their first cells
    labels = st.species.ravel()
    _, first = np.unique(labels, return_index=True)
    assert np.array_equal(labels[np.sort(first)], np.arange(st.n_species + 1))


def test_multiplicity_examples(cubic_state):
    assert multiplicity_at(cubic_state, 0.0) == 5
    w = 0.1 * np.exp(1j * np.pi / 5)
    st = reconstruct(rational(0.25, roots=[(0, 1), (w, 2)]), 0.0, resolution=128)
    assert multiplicity_at(st, w) == 4
    assert multiplicity_at(st, 0.0) == 3
    stc = reconstruct(rational(0.25), 0.0, resolution=128)
    assert multiplicity_at(stc, 0.5j) == 2
    with pytest.raises(NotOnNodalSet):
        multiplicity_at(stc, 0.5)


def test_local_exponents(cubic_state):
    assert local_exponent(cubic_state, 0.0, [0.1, 0.05, 0.025]) == pytest.approx(2.5, abs=0.05)
    st1 = reconstruct(monomial(0.25, 1), 0.0, resolution=128)
    assert local_exponent(st1, 0.0, [0.1, 0.05, 0.025]) == pytest.approx(1.5, abs=0.05)
    stc = reconstruct(rational(0.25), 0.0, resolution=128)
    assert local_exponent(stc, 0.5j, [0.1, 0.05, 0.025]) == pytest.approx(1.0, abs=0.05)


def test_energy_identity_closed_forms(cubic_state):
    st = reconstruct(rational(0.25), 0.0, resolution=256)
    assert dirichlet_energy(st) == pytest.approx(np.pi / 2, rel=0.02)
    assert hopf_l1(rational(0.25)) == pytest.approx(np.pi / 2, rel=1e-6)

    st2 = reconstruct(monomial(0.25, 2), 0.0, resolution=256)
    assert dirichlet_energy(st2) == pytest.approx(np.pi / 4, rel=0.02)
    assert hopf_l1(monomial(0.25, 2)) == pytest.approx(np.pi / 4, rel=1e-4)

    assert dirichlet_energy(cubic_state) == pytest.approx(np.pi / 5, rel=0.02)
    assert hopf_l1(monomial(0.25, 3)) == pytest.approx(np.pi / 5, rel=1e-4)


def test_perfect_square_oracle(rng):
    # U = |Re P| with P the polynomial antiderivative, for f = p^2
    r1, r2 = 0.3 + 0.2j, -0.25 + 0.1j
    c = 0.7
    # p(z) = c (z - r1)(z - r2); f = p^2; P = 2 int p vanishing at base
    base = 0.0
    coeffs = np.polynomial.polynomial.polyfromroots([r1, r2]) * c
    P = np.polynomial.polynomial.polyint(coeffs) * 2.0
    P0 = np.polynomial.polynomial.polyval(base, P)
    f = rational(c * c, roots=[(r1, 2), (r2, 2)])
    st = reconstruct(f, base, resolution=128)
    cgrid = st.cell_centers
    X, Y = np.meshgrid(cgrid, cgrid)
    Z = X + 1j * Y
    exact = np.abs(np.real(np.polynomial.polynomial.polyval(Z, P) - P0))
    err = np.abs(st.u - exact)[st.inside]
    assert np.nanmax(err) < 1e-8


def test_fiber_structure_and_hopf_identity(rng):
    # distinct bases give genuinely different states, all with I(U) = f
    f = monomial(0.25, 2)
    b1, b2 = 0.0, 0.4 + 0.2j
    st1 = reconstruct(f, b1, resolution=96)
    st2 = reconstruct(f, b2, resolution=96)
    diff = np.nanmax(np.abs(st1.u - st2.u)[st1.inside & st2.inside])
    assert diff > 1e-3
    # finite-difference U_z^2 at random interior points away from the nodal set
    for st in (st1, st2):
        checked = 0
        tries = 0
        while checked < 50 and tries < 400:
            tries += 1
            z = 0.7 * (rng.random() + 1j * rng.random()) - 0.35 - 0.35j
            if st.value_at(z) < 1e-2:
                continue
            h = 1e-5
            ux = (st.value_at(z + h) - st.value_at(z - h)) / (2 * h)
            uy = (st.value_at(z + 1j * h) - st.value_at(z - 1j * h)) / (2 * h)
            uz2 = (0.5 * (ux - 1j * uy)) ** 2
            assert abs(uz2 - f.eval(z)) < 1e-4
            checked += 1
        assert checked == 50


def test_interface_gradient_reflection(rng):
    # one-sided gradients from the two species at a regular interface point
    st = reconstruct(rational(0.25), 0.0, resolution=128)
    for y0 in (-0.4, 0.1, 0.5):
        z = 1j * y0     # on the nodal line x = 0
        h = 1e-5
        gplus = (st.value_at(z + 2 * h) - st.value_at(z + h)) / h
        gminus = (st.value_at(z - 2 * h) - st.value_at(z - h)) / h
        assert abs(gplus) > 0.5
        assert gplus == pytest.approx(gminus, rel=0.05)


def test_grid_matches_routed_primitive(cubic_state, rng):
    st = cubic_state
    c = st.cell_centers
    idx = rng.integers(0, st.resolution, size=(40, 2))
    for iy, ix in idx:
        if not st.inside[iy, ix]:
            continue
        z = c[ix] + 1j * c[iy]
        if st.slit.distance_to_cuts(z) < 1e-6:
            continue
        assert st.u[iy, ix] == pytest.approx(abs(st.engine.F(z).real), abs=1e-8)


def test_csv_export(tmp_path, cubic_state):
    text = export_grid_csv(cubic_state, tmp_path / "grid.csv")
    lines = text.splitlines()
    assert lines[0] == "x,y,u,species"
    assert len(lines) == 1 + int(cubic_state.inside.sum())
    x, y, u, s = lines[1].split(",")
    float(x), float(y), float(u), int(s)


# -- the grid fill against routed values and an mpmath primitive ----------------


@pytest.fixture(scope="module")
def fill_states():
    """States whose fills take integrator steps near roots and cross several
    cuts; at odd G a cell centre of z3 lies on its root, and "clustered",
    with two simple zeros 3.7e-4 apart, has several components."""
    from hopfseg.desingularize import reduce_to_simple
    from hopfseg.experiments import tuned_multizero

    f5, b5 = figure5_function()
    red = reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2), eps_budget=8.0)
    clu = reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 3, 2), eps_budget=8.0)
    return {
        "z3": reconstruct(monomial(0.25, 3), 0.0, resolution=128),
        "z3-odd": reconstruct(monomial(0.25, 3), 0.0, resolution=97),
        "figure5": reconstruct(f5, b5, resolution=96),
        "reduced": reconstruct(red, find_base_point(red), resolution=96),
        "clustered": reconstruct(clu, find_base_point(clu), resolution=96),
    }


def _cell_grid(st):
    c = st.cell_centers
    return c[None, :] + 1j * c[:, None]


def _step_graph(st):
    """The fill's step graph from its definition: the inside cells not within
    1e-13 of a root, joined by the east and south steps that cross no cut
    and pass every root no closer than half the distance of their nearer end."""
    Z = _cell_grid(st)
    node = st.inside.copy()
    for r, _ in st.f.interior_roots:
        node &= np.abs(Z - r) > 1e-13

    def clear(a, b):
        ok = np.ones(a.shape, dtype=bool)
        for r, _ in st.f.interior_roots:
            t = np.clip(((r - a) * np.conj(b - a)).real / np.abs(b - a) ** 2, 0.0, 1.0)
            ok &= np.abs(a + t * (b - a) - r) >= 0.5 * np.minimum(np.abs(a - r), np.abs(b - r))
        return ok

    east = np.zeros_like(node)
    south = np.zeros_like(node)
    east[:, :-1] = (node[:, :-1] & node[:, 1:] & (st.cross_east[:, :-1] == 0)
                    & clear(Z[:, :-1], Z[:, 1:]))
    south[:-1, :] = (node[:-1, :] & node[1:, :] & (st.cross_south[:-1, :] == 0)
                     & clear(Z[:-1, :], Z[1:, :]))
    return node, east, south


@pytest.mark.parametrize("name", ["z3", "z3-odd", "figure5", "reduced", "clustered"])
def test_fill_matches_fresh_routed_values(fill_states, name):
    st = fill_states[name]
    eng = PathEngine(st.f, build_slit_disk(st.f, st.base))
    Z = _cell_grid(st)
    near_cut = np.zeros_like(st.inside)
    for iy, ix in zip(*np.nonzero(st.inside)):
        near_cut[iy, ix] = st.slit.distance_to_cuts(Z[iy, ix]) <= 2 * st.h
    chords = st.source == FILL_CHORD
    routed = st.source == FILL_ROUTED
    assert st.chords == chords.sum() > 0
    # one routed seed per component of the step graph; a cell at a root
    # takes a step from a neighbour
    node, east, south = _step_graph(st)
    assert st.routed == routed.sum() == _scipy_components(node, east, south).max() + 1
    assert np.all(chords[st.inside & ~node]) and (st.inside & ~node).any() == (name == "z3-odd")
    if name == "clustered":
        assert st.routed > 1       # steps past its two close zeros are refused
    if st.slit.cuts:
        assert near_cut.any()
    check = chords | routed | near_cut
    worst = max(abs(st.u[iy, ix] - abs(eng.F(Z[iy, ix]).real))
                for iy, ix in zip(*np.nonzero(check)))
    assert worst <= 1e-12 * st.scale


def _mp_abs_re_F(f, base, w):
    """|Re F(w)| at 30 digits: 2 int f^{1/2} along the straight segment from
    the base, each factor (z - r)^{m/2} continued along it by itself.

    Seen from a point off the segment, z(t) - r turns by less than pi, so
    (z - r)^{1/2} = (b - r)^{1/2} * sqrt((z - r) / (b - r)) with the principal
    root is the continued one; a root at the base b gives (t d)^{m/2}.  As Re F
    vanishes at the odd zeros, |Re F| does not depend on the path.
    """
    with mp.workdps(30):
        b, d = mp.mpc(base), mp.mpc(w) - mp.mpc(base)
        c = mp.sqrt(mp.mpc(f.leading))
        at_base, factors, splits = 0, [], [mp.mpf(0), mp.mpf(1)]
        signed = [(r, m) for r, m in f.interior_roots + f.unit_num]
        signed += [(r, -m) for r, m in f.unit_den]
        for r, m in signed:
            r = mp.mpc(r)
            if abs(r - b) < 1e-20:
                at_base += m
                c *= mp.sqrt(d) ** m
                continue
            t = mp.re((r - b) * mp.conj(d)) / abs(d) ** 2
            assert not (0 < t < 1 and abs(b + t * d - r) < 1e-9), "segment meets a root"
            if 0 < t < 1:
                splits.append(t)
            c *= mp.sqrt(b - r) ** m
            factors.append((r, b - r, m))

        def sqrt_f(t):
            z = b + t * d
            v = c * mp.sqrt(t) ** at_base
            for r, br, m in factors:
                v *= mp.sqrt((z - r) / br) ** m
            return v

        return float(abs(mp.re(2 * d * mp.quad(sqrt_f, sorted(splits)))))


def _oracle_cells(st, rng):
    """At least 20 cells: next to each root, next to each cut's rim end, on
    the rim, and the rest drawn at random, as (iy, ix)."""
    G = st.resolution
    Z = _cell_grid(st)
    dist_off = np.where(st.inside, 0.0, np.inf)
    picks = {}

    def nearest(z, k):
        for i in np.argsort((np.abs(Z - z) + dist_off).ravel())[:k]:
            picks[divmod(int(i), G)] = None

    for r, _ in st.f.interior_roots:
        nearest(r, 3)
    for cut in st.slit.cuts:
        nearest(cut.end * (1 - 1.5 * st.h), 1)
    for th in np.arange(4) * np.pi / 2 + 0.2:
        nearest(np.exp(1j * th), 1)
    while len(picks) < 20:
        iy, ix = (int(i) for i in rng.integers(0, G, size=2))
        if st.inside[iy, ix]:
            picks[iy, ix] = None
    return list(picks)


@pytest.mark.parametrize("name", ["z3", "z3-odd", "figure5", "reduced", "clustered"])
def test_fill_matches_mpmath_primitive(fill_states, name, rng):
    st = fill_states[name]
    Z = _cell_grid(st)
    cells = _oracle_cells(st, rng)
    want = {c: _mp_abs_re_F(st.f, st.base, Z[c]) for c in cells}
    worst = max(abs(st.u[c] - want[c]) for c in cells)
    assert worst <= 1e-12 * st.scale
    # the route from the reference point to a rim cell has a leg longer than
    # 0.5, integrated in one piece: its routed value matches too
    long = [c for c in cells
            if np.abs(np.diff(route_between(st.slit, st.engine.z_ref, Z[c]))).max() > 0.5]
    assert long
    assert max(abs(st.value_at(Z[c]) - want[c]) for c in long) <= 1e-12 * st.scale


@pytest.mark.parametrize("gap", [1e-8, 1e-11])
@pytest.mark.parametrize("order, side", [(3, 1), (3, -1), (2, 1), (2, -1)],
                         ids=["z3-left", "z3-right", "z2-left", "z2-right"])
def test_routed_leg_grazing_a_root_matches_mpmath(order, side, gap):
    # f = z^order / 4 with base 0 at its zero; the leg from the reference
    # point to w passes the zero gap away on the side side * i u, and an odd
    # zero's cut runs off the other side, so the leg stays straight
    f = monomial(0.25, order)
    eng0 = PathEngine(f, build_slit_disk(f, 0.0))
    rho = abs(eng0.z_ref)
    u = -eng0.z_ref / rho
    dirs = {0j: -side * 1j * u} if order % 2 else None
    eng = PathEngine(f, build_slit_disk(f, 0.0, preferred_dirs=dirs))
    assert eng.z_ref == eng0.z_ref
    w = 0.5 * u + side * gap * (0.5 + rho) / rho * 1j * u
    assert route_between(eng.slit, eng.z_ref, w) == (eng.z_ref, w)
    assert 0.9 * gap < point_segment_distance(0j, eng.z_ref, w) < 1.1 * gap
    want = _mp_abs_re_F(f, 0.0, w)
    assert abs(abs(eng.F(w).real) - want) <= 1e-12 * eng.boundary_scale()


@pytest.mark.parametrize("G", [97, 129])
@pytest.mark.parametrize("name", ["z3", "fw2"])
def test_row_of_cell_centres_on_cut(name, G):
    # at odd G the middle row of cell centres lies on the cut [0, 1]; those
    # cells belong to its counterclockwise side like every other point on it
    f = monomial(0.25, 3) if name == "z3" else admissible_fw(2)[0]
    st = reconstruct(f, 0.0, resolution=G)
    assert abs(st.cell_centers[G // 2]) < 1e-15
    assert st.n_species == 5
    assert st.routed == 1
    if G >= 128:
        assert dirichlet_energy(st) == pytest.approx(hopf_l1(f), rel=0.02)


# -- the row-run forest against scipy's connected components ------------------------


def _scipy_components(node, east, south):
    """Component of each node cell, numbered in order of first cells."""
    G = node.shape[0]
    flat = np.arange(G * G).reshape(G, G)
    rows = np.concatenate([flat[east], flat[south]])
    cols = np.concatenate([flat[east] + 1, flat[south] + G])
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(G * G, G * G))
    lab = connected_components(graph, directed=False)[1][np.flatnonzero(node)]
    _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _grid_case(G, case, rng):
    if case == "checkerboard":
        node = (np.add.outer(np.arange(G), np.arange(G)) % 2) == 0
    else:
        node = rng.random((G, G)) < 0.8
    east = np.zeros((G, G), dtype=bool)
    south = np.zeros((G, G), dtype=bool)
    east[:, :-1] = node[:, :-1] & node[:, 1:]
    south[:-1, :] = node[:-1, :] & node[1:, :]
    if case == "random":
        east &= rng.random((G, G)) < 0.6
        south &= rng.random((G, G)) < 0.3
    elif case == "none":
        east[:] = south[:] = False
    return node, east, south


@pytest.mark.parametrize("case", ["random", "none", "all", "checkerboard"])
@pytest.mark.parametrize("G", [1, 2, 7, 96, 97])
def test_grid_forest_matches_scipy_components(G, case, rng):
    node, east, south = _grid_case(G, case, rng)
    key = rng.integers(0, 5, size=(G, G)).astype(float)    # many ties
    for k in (None, key):
        cells, comp, parent = grid_forest(node, east, south, key=k)
        assert np.array_equal(cells, np.flatnonzero(node))
        roots = np.flatnonzero(parent < 0)
        # one root per component, at its first cell of least key
        assert np.array_equal(np.sort(comp[roots]), np.arange(len(roots)))
        for c, r in zip(comp[roots], roots):
            members = np.flatnonzero(comp == c)
            if k is None:
                assert r == members[0]
            else:
                kc = k.ravel()[cells[members]]
                assert r == members[np.flatnonzero(kc == kc.min())[0]]
        if k is None:
            assert np.array_equal(comp, _scipy_components(node, east, south))
        else:
            same = _scipy_components(node, east, south)
            assert len(np.unique(np.stack([comp, same]), axis=1)[0]) == len(roots)
        # every parent step is a given step, and the parents lead to the roots
        kid = np.flatnonzero(parent >= 0)
        lo = np.minimum(cells[kid], cells[parent[kid]])
        d = np.abs(cells[kid] - cells[parent[kid]])
        assert np.all((d == 1) & east.ravel()[lo] | (d == G) & south.ravel()[lo])
        up = np.where(parent < 0, np.arange(len(cells)), parent)
        for _ in range(int(np.log2(len(cells) + 1)) + 1):
            up = up[up]
        root_of = np.empty(len(roots), dtype=np.int64)
        root_of[comp[roots]] = roots
        assert np.array_equal(up, root_of[comp])


# -- invariants of the grid fill --------------------------------------------------------


@pytest.fixture(scope="module")
def fill_functions():
    from hopfseg.desingularize import reduce_to_simple
    from hopfseg.experiments import tuned_multizero

    f5, b5 = figure5_function()
    red = reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2), eps_budget=8.0)
    clu = reduce_to_simple(tuned_multizero(-0.35, 0.4 + 0.1j, 3, 2), eps_budget=8.0)
    return {"z3": (monomial(0.25, 3), 0.0), "figure5": (f5, b5),
            "reduced": (red, find_base_point(red)), "clustered": (clu, find_base_point(clu))}


def _certified_steps(st):
    """East and south steps between cells at least max(3, n+1) cells from
    every root that cross no cut, where the argument of f turns by less than
    0.45 pi."""
    Z = _cell_grid(st)
    fZ = st.f.eval(Z)
    far = st.inside.copy()
    for r, n in st.f.interior_roots:
        far &= np.abs(Z - r) > st.h * max(3, n + 1)
    east = np.zeros_like(far)
    south = np.zeros_like(far)
    with np.errstate(divide="ignore", invalid="ignore"):
        east[:, :-1] = (far[:, :-1] & far[:, 1:] & (st.cross_east[:, :-1] == 0)
                        & (np.abs(np.angle(fZ[:, 1:] / fZ[:, :-1])) < 0.45 * np.pi))
        south[:-1, :] = (far[:-1, :] & far[1:, :] & (st.cross_south[:-1, :] == 0)
                         & (np.abs(np.angle(fZ[1:, :] / fZ[:-1, :])) < 0.45 * np.pi))
    return east, south


@pytest.mark.parametrize("G", [96, 97, 128])
@pytest.mark.parametrize("name", ["z3", "figure5", "reduced", "clustered"])
def test_fill_forest_invariants(fill_functions, name, G, monkeypatch):
    gauss, kernel = [], []

    def counted(f, z, fz, a, b):
        gauss.append(np.stack([a, b]))
        return step_integrals(f, z, fz, a, b)

    class Counted(states.SqrtSegmentIntegrator):
        def chords(self, za, zb):
            kernel.append(np.stack([za, zb]))
            return super().chords(za, zb)

    step_integrals = states._step_integrals
    monkeypatch.setattr(states, "_step_integrals", counted)
    monkeypatch.setattr(states, "SqrtSegmentIntegrator", Counted)
    f, base = fill_functions[name]
    st = reconstruct(f, base, resolution=G)
    assert np.all(np.isfinite(st.sre[st.inside]))
    node, east, south = _step_graph(st)
    cells = np.flatnonzero(node)
    comp = _scipy_components(node, east, south)
    seeds = cells[st.source.ravel()[cells] == FILL_ROUTED]
    # one routed seed per component, at its cell nearest z_ref
    assert np.array_equal(np.sort(comp[np.searchsorted(cells, seeds)]),
                          np.arange(comp.max() + 1))
    dist = np.abs(_cell_grid(st).ravel() - st.engine.z_ref)
    for c in range(comp.max() + 1):
        members = cells[comp == c]
        assert np.intersect1d(members, seeds)[0] == members[np.argmin(dist[members])]

    # one batch of Gauss steps and one of integrator steps, all steps of the
    # graph, that span it: every other node is reached by exactly one of them
    assert len(gauss) == len(kernel) == 1
    G_steps = gauss[0]
    K_steps = (np.rint((kernel[0].imag + 1.0) / st.h - 0.5) * G
               + np.rint((kernel[0].real + 1.0) / st.h - 0.5)).astype(np.int64)
    a, b = np.concatenate([G_steps, K_steps], axis=1)
    assert np.all((b - a == 1) & east.ravel()[a] | (b - a == G) & south.ravel()[a])
    assert len(a) == len(cells) - len(seeds)
    assert np.array_equal(_scipy_components(node, *_edges(G, a, b)), comp)
    # a Gauss step is certified, an integrator step is not
    cert_e, cert_s = _certified_steps(st)
    a, b = G_steps
    assert np.all(np.where(b - a == 1, cert_e.ravel()[a], cert_s.ravel()[a]))
    a, b = K_steps
    assert not np.any(np.where(b - a == 1, cert_e.ravel()[a], cert_s.ravel()[a]))
    src = st.source.ravel()
    assert np.count_nonzero(src[cells] == FILL_TREE) == G_steps.shape[1]
    assert np.count_nonzero(src[cells] == FILL_CHORD) == K_steps.shape[1]
    # a cell at a root takes a step from a neighbour (z^3/4 at odd G) or is routed
    at_root = st.inside & ~node
    assert np.all(np.isin(st.source[at_root], (FILL_CHORD, FILL_ROUTED)))
    assert at_root.any() == (name == "z3" and G % 2 == 1)


def _edges(G, a, b):
    """East and south step masks holding the steps a[k] -> b[k]."""
    east = np.zeros(G * G, dtype=bool)
    south = np.zeros(G * G, dtype=bool)
    east[a[b - a == 1]] = True
    south[a[b - a == G]] = True
    return east.reshape(G, G), south.reshape(G, G)
