import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve
from scipy.spatial import cKDTree

from hopfseg import diffusion
from hopfseg.cli import main
from hopfseg.diffusion import (
    SWEEP_TOL,
    DiffusionConfig,
    DiffusionField,
    boundary_from_state,
    interface_cells,
    interface_distance,
    solve,
)
from hopfseg.errors import NoConvergence
from hopfseg.experiments import figure5_function
from hopfseg.mobius import MobiusMap, pushforward_hopf
from hopfseg.nodal import Arc, NodalGraph, boundary_zeros, trace
from hopfseg.rational import monomial, rational
from hopfseg.serialize import emit_function
from hopfseg.states import analytic_state, find_base_point


@pytest.fixture(scope="module")
def half_disk_state():
    return analytic_state(rational(0.25), 0.0, resolution=128)


@pytest.fixture(scope="module")
def half_disk_graph(half_disk_state):
    return trace(half_disk_state)


def test_config_invariants():
    g = np.zeros((2, 32))
    g[0, :16] = 1.0
    g[1, 16:] = 0.5
    DiffusionConfig(g=g, resolution=64)
    bad = g.copy()
    bad[1, 0] = 0.1  # overlapping supports
    with pytest.raises(ValueError):
        DiffusionConfig(g=bad, resolution=64)
    with pytest.raises(ValueError):
        DiffusionConfig(g=-g, resolution=64)
    for value in (np.nan, np.inf):
        bad = g.copy()
        bad[0, 3] = value
        with pytest.raises(ValueError, match="boundary data must be finite and non-negative"):
            DiffusionConfig(g=bad, resolution=64)
    for resolution in (0, -4, 513):
        with pytest.raises(ValueError, match=r"resolution must lie in \[1, 512\]"):
            DiffusionConfig(g=g, resolution=resolution)


@pytest.mark.parametrize("mu", [np.nextafter(0.0, -1.0), np.nextafter(1e6, np.inf),
                                -np.inf, np.inf, np.nan])
def test_solve_rejects_mu_outside_range(mu):
    cfg = DiffusionConfig(g=np.ones((1, 64)), resolution=16)
    assert not hasattr(cfg, "mu")
    with pytest.raises(ValueError, match="mu must lie"):
        solve(cfg, mu)


def test_harmonic_constant_data():
    cfg = DiffusionConfig(g=np.ones((1, 64)), resolution=64)
    fld = solve(cfg, mu=0.0)
    assert np.abs(fld.u[0][fld.inside] - 1.0).max() < 1e-4


def test_mu_zero_decouples(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=256)
    fld = solve(cfg, mu=0.0)
    # each species solves an independent Dirichlet problem: u1 approximates
    # the harmonic extension of max(cos, 0), compare at the center
    # harmonic extension value at 0 = mean of boundary data = 1/pi
    G = fld.resolution
    mid = G // 2
    total = fld.u[:, mid, mid].sum()
    assert total == pytest.approx(2 / np.pi, rel=0.05)


def test_boundary_from_state_halves(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=512)
    th = 2 * np.pi * np.arange(512) / 512
    # one species owns the cos > 0 arc, the other the cos < 0 arc
    right = [j for j in range(2) if cfg.g[j][0] > 0]
    assert len(right) == 1
    gr = cfg.g[right[0]]
    gl = cfg.g[1 - right[0]]
    assert np.all(np.cos(th[gr > 0]) > -1e-9)
    assert np.all(np.cos(th[gl > 0]) < 1e-9)
    assert np.allclose(cfg.g.sum(axis=0), np.abs(np.cos(th)), atol=1e-6)


def test_boundary_from_state_cubic_bumps():
    st = analytic_state(monomial(0.25, 3), 0.0, resolution=128)
    cfg = boundary_from_state(st, trace(st), samples=640)
    assert cfg.g.shape[0] == 5
    th = 2 * np.pi * np.arange(640) / 640
    assert np.allclose(cfg.g.sum(axis=0), np.abs(0.4 * np.cos(2.5 * th)), atol=1e-6)
    # support arcs have equal angular length 2 pi / 5
    for j in range(5):
        frac = (cfg.g[j] > 0).mean()
        assert frac == pytest.approx(0.2, abs=0.02)
    # species 1 owns the rim piece after the first boundary zero, and the
    # rest follow counterclockwise
    bz = boundary_zeros(st)
    for j in range(4):
        piece = (th > bz[j]) & (th < bz[j + 1])
        assert piece.any() and np.all(cfg.g[j, piece] > 0)


def test_maximum_principle(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=256)
    fld = solve(cfg, mu=100.0)
    for j in range(2):
        assert fld.u[j].min() >= 0.0
        assert fld.u[j].max() <= cfg.g[j].max() + 1e-9


def test_superharmonic_difference(half_disk_state, half_disk_graph):
    # sum_k u_k - 2 u_j is discretely superharmonic away from the embedded
    # boundary ring (rim stencils see the raw Dirichlet data)
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=256)
    fld = solve(cfg, mu=1000.0)
    G = fld.resolution
    h = 2.0 / G
    c = -1.0 + (np.arange(G) + 0.5) * h
    X, Y = np.meshgrid(c, c)
    u = fld.u
    tot = u.sum(axis=0)
    for j in range(2):
        v = tot - 2 * u[j]
        lap = (
            np.roll(v, 1, 0) + np.roll(v, -1, 0) + np.roll(v, 1, 1) + np.roll(v, -1, 1)
            - 4 * v
        )
        core = fld.inside & (np.hypot(X, Y) < 0.95)
        assert lap[core].max() <= 1e-6


def test_interface_matches_diameter(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=512)
    fld = solve(cfg, mu=1e4)
    pts = interface_cells(fld)
    assert len(pts) > 0
    assert np.abs(pts[:, 0]).max() < 3 * (2 / fld.resolution)
    d = interface_distance(fld, half_disk_graph)
    assert d <= 2.0


def test_defect_decreases_with_mu(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=256)
    defects = [solve(cfg, mu=mu).defect for mu in (1e2, 1e3, 1e4)]
    assert defects[0] > defects[1] > defects[2]


def test_identical_partitions_zero_distance(half_disk_state, half_disk_graph):
    cfg = boundary_from_state(half_disk_state, half_disk_graph, samples=512)
    fld = solve(cfg, mu=1e4)
    d1 = interface_distance(fld, half_disk_graph)
    d2 = interface_distance(fld, half_disk_graph)
    assert d1 == d2  # deterministic



@pytest.mark.parametrize("sizes", [(1, 1), (3, 700), (1300, 5), (600, 1100)])
def test_hausdorff_matches_kdtree(sizes, rng):
    # blocks of 512 points: the larger sets span two or three of them
    a = rng.uniform(-1, 1, size=(sizes[0], 2))
    b = rng.uniform(-1, 1, size=(sizes[1], 2)) * rng.uniform(0.1, 3.0)
    ref = max(cKDTree(a).query(b)[0].max(), cKDTree(b).query(a)[0].max())
    assert diffusion._hausdorff(a, b) == ref
    assert diffusion._hausdorff(b, a) == ref


def test_interface_distance_empty_sets():
    G = 16
    inside = np.ones((G, G), dtype=bool)
    one = DiffusionField(u=np.ones((1, G, G)), inside=inside, residual=0.0,
                         defect=0.0, sweeps=0, cycles=0, resolution=G)
    u = np.ones((2, G, G))
    u[1, :, G // 2:] = 2.0
    two = DiffusionField(u=u, inside=inside, residual=0.0, defect=0.0,
                         sweeps=0, cycles=0, resolution=G)
    empty = NodalGraph(vertices=(), arcs=(), M=0, N=0, T=0)
    chord = Arc(a=0, b=1, points=(-1j, 1j), angles=(-np.pi / 2, np.pi / 2))
    line = NodalGraph(vertices=(), arcs=(chord,), M=2, N=2, T=1)
    assert interface_distance(one, empty) == 0.0
    assert interface_distance(one, line) == np.inf
    assert interface_distance(two, empty) == np.inf
    assert np.isfinite(interface_distance(two, line))

# -- independent oracles for solve() ------------------------------------------


def _z3_config(resolution, samples=512):
    """Rim data of z^3/4 in closed form: |0.4 cos(5 theta / 2)|, one species
    on each arc between consecutive zeros theta = pi/5 + 2 pi k / 5."""
    th = 2 * np.pi * np.arange(samples) / samples
    arc = np.floor(((th - np.pi / 5) % (2 * np.pi)) / (2 * np.pi / 5)).astype(int)
    g = np.zeros((5, samples))
    g[arc, np.arange(samples)] = np.abs(0.4 * np.cos(2.5 * th))
    return DiffusionConfig(g=g, resolution=resolution)


def _halves_config(resolution, samples=256):
    th = 2 * np.pi * np.arange(samples) / samples
    g = np.stack([np.maximum(np.cos(th), 0.0), np.maximum(-np.cos(th), 0.0)])
    return DiffusionConfig(g=g, resolution=resolution)


def _dirichlet_grid(cfg):
    """Padded (G+2)^2 cell centres: the inside mask and, outside the disk,
    each species' data at the nearest of the uniformly spaced samples."""
    G = cfg.resolution
    c = -1.0 + (np.arange(-1, G + 1) + 0.5) * (2.0 / G)
    X, Y = np.meshgrid(c, c)
    S = cfg.g.shape[1]
    k = np.rint((np.arctan2(Y, X) % (2 * np.pi)) / (2 * np.pi) * S).astype(int) % S
    inside = X * X + Y * Y < 1.0
    return inside, np.where(inside[None], 0.0, cfg.g[:, k])


def _laplacian_system(cfg):
    """(L, rhs, inside): L = 4 u_i - sum of the inside neighbours over the
    inside cells, rhs[j] = species j's data in the outside neighbours."""
    inside, data = _dirichlet_grid(cfg)
    iy, ix = np.nonzero(inside)
    n = len(iy)
    index = np.full(inside.shape, -1)
    index[iy, ix] = np.arange(n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0)]
    rhs = np.zeros((data.shape[0], n))
    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jy, jx = iy + dy, ix + dx
        nb_in = inside[jy, jx]
        rows.append(np.nonzero(nb_in)[0])
        cols.append(index[jy, jx][nb_in])
        vals.append(np.full(int(nb_in.sum()), -1.0))
        rhs += np.where(nb_in, 0.0, data[:, jy, jx])
    L = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return L, rhs, inside[1:-1, 1:-1]


def _stop_quantity(fld, cfg, mu):
    """max |r_j| / (4 + mu h^2 sum_{k!=j} u_k) over the inside cells."""
    inside, data = _dirichlet_grid(cfg)
    u = data.copy()
    u[:, 1:-1, 1:-1][:, inside[1:-1, 1:-1]] = fld.u[:, inside[1:-1, 1:-1]]
    mh2 = mu * (2.0 / cfg.resolution) ** 2
    c = u[:, 1:-1, 1:-1]
    nb = u[:, :-2, 1:-1] + u[:, 2:, 1:-1] + u[:, 1:-1, :-2] + u[:, 1:-1, 2:]
    diag = 4.0 + mh2 * (c.sum(axis=0) - c)
    q = np.abs(nb - diag * c) / diag
    return float(q[:, inside[1:-1, 1:-1]].max())


@pytest.mark.parametrize("G", [64, 65, 97])
def test_mu_zero_matches_sparse_lu(G):
    cfg = _z3_config(G)
    fld = solve(cfg, mu=0.0)
    L, rhs, inside = _laplacian_system(cfg)
    assert np.array_equal(fld.inside, inside)
    lu = splu(L)
    for j in range(5):
        assert np.abs(fld.u[j][inside] - lu.solve(rhs[j])).max() < 1e-6


@pytest.mark.parametrize("G, mu", [(48, 1e4), (47, 1e4), (49, 1e6), (97, 1e6)])
def test_coupled_system_matches_sparse_newton(G, mu):
    cfg = _z3_config(G)
    mh2 = mu * (2.0 / G) ** 2
    L, rhs, inside = _laplacian_system(cfg)
    n = L.shape[0]
    lu = splu(L)
    u = np.stack([lu.solve(b) for b in rhs])           # mu = 0 start
    # the unknowns cell by cell, the species innermost: J is L (x) I_5 plus
    # one 5 x 5 coupling block per cell
    lap = sp.kron(L, sp.identity(5), format="csc")
    cell, row, col = np.unravel_index(np.arange(25 * n), (n, 5, 5))
    for step in range(30):
        others = u.sum(axis=0)[None] - u
        F = np.stack([L @ u[j] for j in range(5)]) - rhs + mh2 * u * others
        if np.abs(F).max() < 1e-12:
            break
        block = mh2 * np.where(row == col, others[row, cell], u[row, cell])
        J = lap + sp.csc_matrix((block, (5 * cell + row, 5 * cell + col)), shape=(5 * n, 5 * n))
        # minimum degree on J + J^T: J's pattern is symmetric
        u = u - spsolve(J, F.T.ravel(), permc_spec="MMD_AT_PLUS_A").reshape(n, 5).T
    else:
        pytest.fail("reference Newton did not converge")
    fld = solve(cfg, mu=mu)
    assert np.abs(fld.u[:, inside] - u).max() < 1e-6


@pytest.mark.parametrize("make, G, mu", [
    (_z3_config, 64, 0.0),
    (_z3_config, 48, 1e4),
    (_z3_config, 96, 1e6),
    (_z3_config, 45, 1e3),
    (_z3_config, 97, 1e6),
    (_z3_config, 193, 1e4),
    (_halves_config, 64, 1e2),
])
def test_returned_field_meets_stop_rule(make, G, mu):
    cfg = make(G)
    fld = solve(cfg, mu=mu)
    assert fld.u.min() >= 0.0
    q = _stop_quantity(fld, cfg, mu)
    assert q <= SWEEP_TOL
    assert fld.residual == pytest.approx(q, rel=1e-9, abs=1e-18)
    assert fld.cycles >= 1 and fld.sweeps >= fld.cycles


def test_odd_grids_coarsen_like_even_ones():
    # every G coarsens to (G+1)//2, so an odd grid costs about as many sweeps
    # as the even grid below it; sweeps on G=97 alone take about five times
    # as many as G=96's hierarchy
    for mu in (1e2, 1e4):
        assert [lev.G for lev in diffusion._hierarchy(_z3_config(97), mu)] == [97, 49, 25, 13, 7]
        for G in (97, 193):
            assert solve(_z3_config(G), mu).sweeps <= 1.25 * solve(_z3_config(G - 1), mu).sweeps


def _smooth_reference(u, b, lev, mu, sweeps):
    """_smooth one cell and one species at a time: the red cells ((r + c)
    even) row by row, then the black ones, with sum_k u_k frozen per sweep."""
    mh2 = mu * lev.h2
    rows, cols = np.nonzero(lev.inside)
    for _ in range(sweeps):
        total = u.sum(axis=0)
        for colour in (0, 1):
            for r, c in zip(rows, cols):
                if (r + c) % 2 != colour:
                    continue
                for j in range(len(u)):
                    nb = ((u[j, r - 1, c] + u[j, r + 1, c]) + u[j, r, c - 1]) + u[j, r, c + 1]
                    if b is not None:
                        nb += b[j, r, c]
                    u[j, r, c] = max(nb / (4.0 + mh2 * max(total[r, c] - u[j, r, c], 0.0)), 0.0)


@pytest.mark.parametrize("G", [8, 9, 12])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("mh2", [0.0, 1.0, 1e3])
def test_smoother_matches_a_cell_by_cell_loop(G, n, mh2, rng):
    # a random non-negative iterate, inside the disk and in its Dirichlet cells
    lev = diffusion._Level(DiffusionConfig(g=np.eye(n).repeat(8, axis=1), resolution=G), G)
    mu = mh2 / lev.h2
    for b in (None, rng.random((n, G + 2, G + 2))):
        for sweeps in (1, 3):
            u = rng.random((n, G + 2, G + 2))
            want = u.copy()
            _smooth_reference(want, b, lev, mu, sweeps)
            diffusion._smooth(u, b, lev, mu, sweeps)
            assert np.array_equal(u, want)


def _residual_reference(u, b, lev, mu):
    """(r, max |r| / diag) one cell and one species at a time:
    r = ((n + s) + w) + e - diag u + b in the inside cells, zero elsewhere,
    diag = 4 + mu h^2 (sum_k u_k - u_j)."""
    mh2 = mu * lev.h2
    total = u.sum(axis=0)
    r = np.zeros_like(u)
    worst = 0.0
    for y, x in zip(*np.nonzero(lev.inside)):
        for j in range(len(u)):
            diag = 4.0 + mh2 * (total[y, x] - u[j, y, x])
            nb = ((u[j, y - 1, x] + u[j, y + 1, x]) + u[j, y, x - 1]) + u[j, y, x + 1]
            r[j, y, x] = nb - diag * u[j, y, x]
            if b is not None:
                r[j, y, x] += b[j, y, x]
            worst = max(worst, abs(r[j, y, x]) / diag)
    return r, worst


@pytest.mark.parametrize("G", [8, 9, 12])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("mh2", [0.0, 1.0, 1e3])
def test_residual_matches_a_cell_by_cell_loop(monkeypatch, G, n, mh2, rng):
    # the residual, the FAS right-hand side of one coarse grid and its
    # correction of the fine grid; the coarse solve sets the coarse inside
    # cells to v, and the smoother is left out
    cfg = DiffusionConfig(g=np.eye(n).repeat(8, axis=1), resolution=G)
    Gc = (G + 1) // 2
    fine, coarse = diffusion._Level(cfg, G), diffusion._Level(cfg, Gc)
    fine.down, fine.up = diffusion._transfers(G, Gc)
    mu = mh2 / fine.h2
    v = 2.0 * rng.random((n, Gc + 2, Gc + 2)) - 1.0     # some corrections clamp at 0
    got_b = []

    def coarse_solve(uc, bc, lev, mu):
        got_b.append(bc.copy())
        uc[:, coarse.inside] = v[:, coarse.inside]

    monkeypatch.setattr(diffusion, "_smooth", lambda *args: None)
    monkeypatch.setattr(diffusion, "_coarsest", coarse_solve)
    for b in (None, rng.random((n, G + 2, G + 2))):
        u = rng.random((n, G + 2, G + 2))
        r, worst = _residual_reference(u, b, fine, mu)
        assert np.array_equal(diffusion._residual(u, b, fine, mu), r)
        assert diffusion._scaled_residual(u, b, fine, mu) == worst
        start = np.where(coarse.inside[None], diffusion._restrict(u, fine.down), coarse.u0)
        want_b = (G / Gc) ** 2 * diffusion._restrict(r, fine.down) \
            - _residual_reference(start, None, coarse, mu)[0]
        corr = fine.up @ np.where(coarse.inside[None], v - start, 0.0) @ fine.up.T
        want = u.copy()
        for y, x in zip(*np.nonzero(fine.inside)):
            for j in range(n):
                want[j, y, x] = max(u[j, y, x] + corr[j, y - 1, x - 1], 0.0)
        got_b.clear()
        diffusion._cycle([fine, coarse], 0, u, b, mu)
        assert len(got_b) == 2 and all(np.array_equal(bc, want_b) for bc in got_b)
        assert np.array_equal(u, want)


@pytest.mark.parametrize("make, G, mu", [(_z3_config, 96, 1e4), (_z3_config, 97, 1e2),
                                         (_halves_config, 64, 0.0), (_z3_config, 48, 1e6),
                                         (_z3_config, 96, 1e6)])
def test_level_sweeps_count_every_sweep(monkeypatch, make, G, mu):
    # _smooth, _cell_residual and _coarsest calls counted from outside, by
    # grid size; rim-band sweeps apart
    counted, rim_counted, residuals, visits = {}, {}, {}, []
    smooth, cell_residual, coarsest = diffusion._smooth, diffusion._cell_residual, diffusion._coarsest

    def counting_smooth(u, b, lev, mu, sweeps, rim=False):
        tally = rim_counted if rim else counted
        tally[lev.G] = tally.get(lev.G, 0) + sweeps
        smooth(u, b, lev, mu, sweeps, rim)

    def counting_residual(u, b, lev, mu):
        residuals[lev.G] = residuals.get(lev.G, 0) + 1
        return cell_residual(u, b, lev, mu)

    def counting_coarsest(u, b, lev, mu):
        visits.append(lev.G)
        coarsest(u, b, lev, mu)

    monkeypatch.setattr(diffusion, "_smooth", counting_smooth)
    monkeypatch.setattr(diffusion, "_cell_residual", counting_residual)
    monkeypatch.setattr(diffusion, "_coarsest", counting_coarsest)
    fld = solve(make(G), mu)
    sizes = [lev.G for lev in diffusion._hierarchy(make(G), mu)]
    L = len(sizes)
    assert len(fld.level_sweeps) == L and sum(fld.level_sweeps) == fld.sweeps
    assert fld.level_sweeps == tuple(counted[s] for s in sizes)
    assert fld.level_residuals == tuple(residuals[s] for s in sizes)
    # solve checks the finest grid after each cycle; a coarsest-grid visit
    # checks once, and once more per COARSE_CHUNK sweeps; with a coarser grid,
    # each cycle also takes one residual of the finest grid for the FAS
    # right-hand side
    if L == 1:
        assert fld.level_residuals == (fld.cycles + fld.coarsest_visits
                                       + fld.sweeps // diffusion.COARSE_CHUNK,)
    else:
        assert fld.level_residuals[0] == 2 * fld.cycles
    assert fld.coarsest_visits == len(visits) and set(visits) == {sizes[-1]}
    # an F-cycle from level k < L - 1 visits the coarsest grid L - 1 - k
    # times, as its F- and V-cycles meet there in one solve, and twice from
    # the finer of two grids; the nested pass visits it once and then in an
    # F-cycle from each finer level, and each cycle after it as an F-cycle
    # from level 0 does (27 visits at L = 5 and 5 cycles, 19 at L = 4)
    def visits(k):
        return 1 if k == L - 1 else L - 1 - k + (L == 2)

    assert fld.coarsest_visits == 1 + sum(map(visits, range(L - 1))) + (fld.cycles - 1) * visits(0)
    # each cycle, the nested pass included, sweeps the finest grid's rim band
    # after both of its smoothings; a one-grid solve has no smoothing outside
    # _coarsest
    if L == 1:
        assert fld.rim_sweeps == 0 and rim_counted == {}
    else:
        assert fld.rim_sweeps == 2 * diffusion.RIM_SWEEPS * fld.cycles
        assert rim_counted == {sizes[0]: fld.rim_sweeps}


@pytest.mark.parametrize("G", [8, 9, 47, 96])
def test_rim_band_is_the_cells_near_the_rim(G):
    # the inside cells whose centre lies within RIM_WIDTH cells of the rim,
    # from the padded cell centres, one colour at a time, each row-major
    lev = diffusion._Level(_z3_config(G), G)
    h = 2.0 / G
    x = -1.0 - 0.5 * h + np.arange(G + 2) * h
    X, Y = np.meshgrid(x, x)
    R = np.sqrt(X * X + Y * Y)
    rows, cols = np.indices(X.shape)
    band = (R < 1.0) & (R > 1.0 - diffusion.RIM_WIDTH * h)
    assert 0 < np.count_nonzero(band) < np.count_nonzero(lev.inside)
    for colour, (nbs, all_nbs) in enumerate(zip(lev.rim, lev.colours)):
        want = np.flatnonzero(band & ((rows + cols) % 2 == colour))
        assert np.array_equal(nbs[0], want)
        # the colour's index block restricted to the band's columns
        assert np.array_equal(nbs, all_nbs[:, np.isin(all_nbs[0], want)])


@pytest.mark.parametrize("make, G", [(_halves_config, 64), (_z3_config, 47)])
def test_one_grid_solve_makes_no_rim_sweeps(monkeypatch, make, G):
    # mu = 1e6 leaves one grid, where _coarsest does all the sweeping: the
    # solve is the same bits with the band sweeps switched off
    assert len(diffusion._hierarchy(make(G), 1e6)) == 1
    fld = solve(make(G), 1e6)
    monkeypatch.setattr(diffusion, "RIM_SWEEPS", 0)
    plain = solve(make(G), 1e6)
    assert fld.rim_sweeps == 0
    assert np.array_equal(fld.u, plain.u) and fld.residual == plain.residual
    assert (fld.cycles, fld.sweeps) == (plain.cycles, plain.sweeps)


def test_rim_band_saves_two_cycles(monkeypatch):
    # z^3/4 at G = 96, mu = 1e4: five F-cycles, seven without the band sweeps
    assert solve(_z3_config(96), 1e4).cycles == 5
    monkeypatch.setattr(diffusion, "RIM_SWEEPS", 0)
    assert solve(_z3_config(96), 1e4).cycles == 7


def test_field_is_near_a_tight_reference_solve(monkeypatch):
    # the default stop rule leaves the field within 1.5e-8 of a solve to a
    # scaled residual of 1e-13 (7.0e-9 with the band sweeps, 2.6e-8 without)
    fld = solve(_z3_config(96), 1e4)
    monkeypatch.setattr(diffusion, "SWEEP_TOL", 1e-13)
    ref = solve(_z3_config(96), 1e4)
    assert ref.residual <= 1e-13
    assert np.abs(fld.u - ref.u).max() <= 1.5e-8


def test_cycle_cap_raises(monkeypatch):
    monkeypatch.setattr(diffusion, "MAX_CYCLES", 1)
    with pytest.raises(NoConvergence, match=r"residual .* after 1 cycles"):
        solve(_z3_config(48), mu=1e4)


def test_nan_residual_is_not_converged(monkeypatch):
    # NaN > SWEEP_TOL and NaN >= prev are both False: a NaN field would
    # pass both stop tests as converged after one cycle
    monkeypatch.setattr(diffusion, "_scaled_residual", lambda *args: np.nan)
    with pytest.raises(NoConvergence, match=r"cycle 2 did not lower the residual \(nan -> nan\)"):
        solve(_z3_config(48), mu=1e4)


def test_stalled_cycle_raises(monkeypatch):
    # without the depth cap, the grids where mu h^2 max g is about 1e4 and
    # more spoil the coarse corrections at mu = 1e6; the solver says so
    # instead of cycling on
    monkeypatch.setattr(diffusion, "MAX_COARSE_COUPLING", np.inf)
    with pytest.raises(NoConvergence, match=r"cycle \d+ did not lower the residual"):
        solve(_z3_config(48), mu=1e6)


def test_boundary_data_has_one_row_per_face_on_a_moebius_image_of_figure5(tmp_path, capsys):
    # the clean trace of this image has 6 faces (test_cli_index_moebius_image_of_figure5),
    # but the grid at G=128 reads 5 species: rim labels from the faces give
    # each face its data, and simulate solves for 6 species
    m = MobiusMap(alpha=0.18007644349524524 + 0.6515866563352986j, theta=3.956966454651954)
    f = pushforward_hopf(figure5_function()[0], m)
    st = analytic_state(f, find_base_point(f), resolution=128)
    g = trace(st)
    assert g.clean and g.N == 6
    cfg = boundary_from_state(st, g)
    assert cfg.g.shape[0] == g.N and np.all(cfg.g.max(axis=1) > 0)
    p, out = tmp_path / "f.json", tmp_path / "out"
    p.write_text(emit_function(f))
    assert main(["simulate", "-i", str(p), "-o", str(out), "--resolution", "128",
                 "--samples", "512"]) == 0
    assert json.loads((out / "report.json").read_text())["n_species"] == 6
    header = (out / "fields.csv").read_text().split("\n", 1)[0]
    assert header == "x,y," + ",".join(f"u{j}" for j in range(1, 7))
