"""Competition-diffusion system on the disk and cross-validation of states.

-Delta u_j = -mu u_j sum_{k != j} u_k with Dirichlet data from a state's
boundary trace, split among the faces of its nodal graph.  Embedded-boundary
5-point Laplacian on a cell-centred Cartesian grid, solved by full
approximation scheme (FAS) multigrid (Brandt, Math. Comp. 1977) over the
grids G, (G+1)//2, ..., with red-black Gauss-Seidel, the coupling frozen per
sweep (monotone for this sign structure), as the smoother; as mu grows the
argmax partition converges to the analytic nodal partition.  The staircase
boundary limits the cycle's contraction, so the finest grid's rim band, the
inside cells within RIM_WIDTH cells of the rim, gets extra sweeps of its own
after each smoothing there (Brandt's local relaxation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .nodal import NodalGraph, boundary_zeros, faces
from .states import AnalyticState

SWEEP_TOL = 1e-8             # bound on the scaled residual (see solve)
MAX_CYCLES = 100
SMOOTHING_SWEEPS = 2         # before and after each coarse-grid correction
RIM_WIDTH = 3                # the rim band: inside cells with |z| > 1 - RIM_WIDTH h
RIM_SWEEPS = 4               # band sweeps after each finest-grid smoothing
MIN_COARSE = 6               # no grid fewer cells across than this
MAX_COARSE_COUPLING = 1e3    # no grid with mu h^2 max g above this (see _hierarchy)
COARSE_CHUNK = 5             # coarsest-grid sweeps between residual checks
COARSE_REDUCTION = 0.1       # residual reduction asked of a coarsest-grid solve


@dataclass(frozen=True)
class DiffusionConfig:
    """Dirichlet data and grid of one diffusion problem; the competition
    rate mu is an argument of solve, not part of the data."""

    g: np.ndarray          # (n_species, samples) finite, non-negative, disjoint supports;
                           # sample k lies at the angle 2 pi k / samples
    resolution: int

    def __post_init__(self):
        if not np.all((self.g >= 0) & (self.g < np.inf)):
            raise ValueError("boundary data must be finite and non-negative")
        overlap = (self.g > 0).sum(axis=0)
        if np.any(overlap > 1):
            raise ValueError("boundary supports must be disjoint")
        if not 1 <= self.resolution <= 512:
            raise ValueError("resolution must lie in [1, 512]")


@dataclass
class DiffusionField:
    u: np.ndarray          # (n_species, G, G)
    inside: np.ndarray
    residual: float        # the stop-rule quantity solve() reached
    defect: float
    sweeps: int            # red-black sweeps on all grid levels
    cycles: int            # the nested first pass and the F-cycles after it
    resolution: int
    level_sweeps: tuple = ()   # the sweeps on each grid level, finest first
    coarsest_visits: int = 0   # coarsest-grid solves (_coarsest calls)
    level_residuals: tuple = ()   # residual evaluations on each grid level, finest first
    rim_sweeps: int = 0        # red-black sweeps of the finest grid's rim band alone


def boundary_from_state(state: AnalyticState, graph: NodalGraph,
                        samples: int = 1024) -> DiffusionConfig:
    """Per-species boundary data: U on the species' rim pieces, 0 elsewhere.

    The species are the faces of graph, the nodal trace of state
    (nodal.faces).  Each rim piece between consecutive boundary zeros bounds
    one face, the one on the left of the piece run counterclockwise; the
    species are numbered in the order their first piece comes,
    counterclockwise from the first boundary zero, and a face off the rim
    keeps a row of zeros.  Disjointness is exact by construction.
    """
    th, vals = state.engine.boundary_values(samples)
    u_bd = np.abs(vals.real)
    bz = boundary_zeros(state)
    g = np.zeros((graph.N, samples))
    if not bz:
        # positive trace everywhere; single species on the whole rim
        g[0] = u_bd
        return DiffusionConfig(g=g, resolution=state.resolution)
    face_of = {d: i for i, cycle in enumerate(faces(graph.vertices, graph.arcs)) for d in cycle}
    species = {}
    lab = np.array([species.setdefault(face_of[(len(graph.arcs) + j, True)], len(species))
                    for j in range(len(bz))])
    # sample k lies on piece j from bz[j] to bz[j + 1]; -1 wraps to the last
    piece = np.searchsorted(bz, th, side="right") - 1
    g[lab[piece], np.arange(samples)] = u_bd
    return DiffusionConfig(g=g, resolution=state.resolution)


def _boundary_value_grid(config: DiffusionConfig, G: int):
    """Dirichlet values for cells outside the disk, by nearest boundary angle."""
    h = 2.0 / G
    cpad = -1.0 - 0.5 * h + np.arange(G + 2) * h
    X, Y = np.meshgrid(cpad, cpad)
    ang = np.arctan2(Y, X) % (2 * np.pi)
    n = config.g.shape[0]
    samples = config.g.shape[1]
    idx = np.rint(ang / (2 * np.pi) * samples).astype(int) % samples
    vals = np.stack([config.g[j][idx] for j in range(n)])
    inside = (X * X + Y * Y) < 1.0
    return vals, inside, h


class _Level:
    """One grid of the hierarchy: padded (G+2)^2 cells, Dirichlet values in
    the cells outside the disk, the sweeps, residual evaluations and
    coarsest-grid visits made on it, each species' offset in the flat u, and
    cells (5, m): the flat index of each inside cell, then of its N, S, W and
    E neighbours, the red cells ((r + c) even) first, then the black ones;
    colours are its two column blocks (views), and rim each colour's columns
    in the rim band, |z| > 1 - RIM_WIDTH h at the cell centre."""

    def __init__(self, config: DiffusionConfig, G: int):
        bvals, inside, h = _boundary_value_grid(config, G)
        self.G = G
        self.h2 = h * h
        self.inside = inside
        self.u0 = np.where(inside[None], 0.0, bvals)
        self.sweeps = self.rim_sweeps = self.residuals = self.visits = 0
        P = G + 2
        r, c = np.nonzero(inside)
        self.species = P * P * np.arange(len(bvals))[:, None]
        order = np.argsort((r + c) % 2, kind="stable")      # red first, each row-major
        self.cells = (r * P + c)[order] + np.array([[0], [-P], [P], [-1], [1]])
        red = [np.count_nonzero((r + c) % 2 == 0)]
        centre = -1.0 - 0.5 * h + np.arange(P) * h           # as in _boundary_value_grid
        band = np.split((np.hypot(centre[r], centre[c]) > 1.0 - RIM_WIDTH * h)[order], red)
        self.colours = np.split(self.cells, red, axis=1)
        self.rim = [nbs[:, m] for nbs, m in zip(self.colours, band)]


def _hierarchy(config: DiffusionConfig, mu: float):
    """Grids G, (G+1)//2, ..., coarsening while the next grid is at least
    MIN_COARSE cells across and has mu h^2 max g <= MAX_COARSE_COUPLING; each
    level but the coarsest carries its transfers to the next (_transfers).

    By the maximum principle u_j <= max g, so mu h^2 max g sets the size of
    the coupling against the Laplacian's 4 in a cell.  On grids where it is
    about 1e4 the frozen-coupling update barely contracts in cells shared by
    two species, and coarse corrections from there stall the cycle (mu = 1e6
    at G = 96 with a 6-cell coarsest grid)."""
    top = float(config.g.max(initial=0.0))
    G = config.resolution
    Gc = (G + 1) // 2
    levels = [_Level(config, G)]
    while Gc >= MIN_COARSE and mu * (2.0 / Gc) ** 2 * top <= MAX_COARSE_COUPLING:
        levels[-1].down, levels[-1].up = _transfers(G, Gc)
        G, Gc = Gc, (Gc + 1) // 2
        levels.append(_Level(config, G))
    return levels


def _transfers(G: int, Gc: int):
    """(down, up): 1-D transfers between G fine and Gc coarse cells across
    [-1, 1], from the cell geometry in units of 2 / (G Gc).  down (Gc x G)
    averages the fine cells by their overlap with each coarse cell; up
    (G x (Gc + 2)) interpolates linearly between the padded coarse centres,
    the pad cells half a coarse cell outside the square.  At G = 2 Gc these
    are the nested cell-centred weights 1/2, 1/2 and 1/4, 3/4, exactly."""
    i = np.arange(G)
    j = np.arange(Gc)[:, None]
    # fine cell i spans [i Gc, (i+1) Gc], coarse cell j spans [j G, (j+1) G]
    overlap = np.minimum((i + 1) * Gc, (j + 1) * G) - np.maximum(i * Gc, j * G)
    # fine centre i lies t2 / (2G) coarse cells from the first pad centre
    t2 = (2 * i + 1) * Gc + G
    left, w = t2 // (2 * G), (t2 % (2 * G)) / (2 * G)
    up = np.zeros((G, Gc + 2))
    up[i, left] = 1.0 - w
    up[i, left + 1] = w
    return np.maximum(overlap, 0) / G, up


def _restrict(a, down):
    """Overlap average of the padded fine array a, with a zero pad ring."""
    out = np.zeros((a.shape[0], down.shape[0] + 2, down.shape[0] + 2))
    out[:, 1:-1, 1:-1] = down @ a[:, 1:-1, 1:-1] @ down.T
    return out


def _smooth(u, b, lev, mu, sweeps, rim=False):
    """Red-black Gauss-Seidel on (4 + mu h^2 sum_{k!=j} u_k) u_j - nb_j = b_j
    with the coupling frozen per sweep; b is the h^2-scaled FAS right-hand
    side (None for zero), u and b C-contiguous.  A colour's neighbours are all
    of the other colour, so a half-sweep gathers the colour's five index rows,
    updates and scatters once; the red half-sweep writes no black cell, so the
    frozen sum_k u_k in a colour's cells is the sum of their gathered values.
    The update is non-negative where nb_j + b_j is; the clamp covers the rest.
    With rim, only the cells of lev.rim are swept, counted in lev.rim_sweeps
    rather than lev.sweeps."""
    mh2 = mu * lev.h2
    if rim:
        lev.rim_sweeps += sweeps
    else:
        lev.sweeps += sweeps
    blocks = lev.rim if rim else lev.colours
    flat = u.reshape(len(u), -1)
    # the same in every sweep: each block's scatter index into u, and its b
    dests = [(lev.species + nbs[0]).ravel() for nbs in blocks]
    bs = [None if b is None else b.reshape(len(b), -1).take(nbs[0], axis=1) for nbs in blocks]
    for _ in range(sweeps):
        for nbs, dest, bc in zip(blocks, dests, bs):
            old, new = flat.take(nbs[0], axis=1), flat.take(nbs[1], axis=1)
            for i in nbs[2:]:            # ((n + s) + w) + e
                new += flat.take(i, axis=1)
            if bc is not None:
                new += bc
            coupling = old.sum(axis=0) - old
            new /= 4.0 + mh2 * np.maximum(coupling, 0.0, out=coupling)
            np.maximum(new, 0.0, out=new)
            u.reshape(-1)[dest] = new.ravel()


def _cell_residual(u, b, lev, mu):
    """(r, diag) at the inside cells, in the order of lev.cells:
    r = b - (diag u - nb), h^2-scaled, and diag = 4 + mu h^2 sum_{k!=j} u_k."""
    lev.residuals += 1
    flat = u.reshape(len(u), -1)
    c, r = flat.take(lev.cells[0], axis=1), flat.take(lev.cells[1], axis=1)
    for i in lev.cells[2:]:              # ((n + s) + w) + e
        r += flat.take(i, axis=1)
    diag = 4.0 + (mu * lev.h2) * (c.sum(axis=0) - c)
    r -= diag * c
    if b is not None:
        r += b.reshape(len(b), -1).take(lev.cells[0], axis=1)
    return r, diag


def _residual(u, b, lev, mu):
    """r of _cell_residual on the padded grid, zero outside the disk (for _restrict)."""
    r = np.zeros_like(u)
    r.reshape(len(u), -1)[:, lev.cells[0]] = _cell_residual(u, b, lev, mu)[0]
    return r


def _scaled_residual(u, b, lev, mu):
    """Largest |r_j| / (4 + mu h^2 sum_{k!=j} u_k) over the inside cells:
    the change one more Gauss-Seidel update would make there."""
    r, diag = _cell_residual(u, b, lev, mu)
    return float((np.abs(r) / diag).max())


def _prolong(e, lev):
    """lev.up @ e @ lev.up.T, e on the padded next coarser grid, at lev's
    inside cells in the order of lev.cells (padded cell r, c is cell r - 1,
    c - 1 of the G x G product)."""
    q, P = lev.cells[0], lev.G + 2
    return (lev.up @ e @ lev.up.T).reshape(len(e), -1).take(q - 2 * (q // P) - P + 1, axis=1)


def _coarsest(u, b, lev, mu):
    """Sweep the coarsest grid until its scaled residual falls by
    COARSE_REDUCTION, at most 4 G^2 sweeps (Gauss-Seidel needs O(G^2) sweeps
    to reduce the smoothest error by a fixed factor)."""
    lev.visits += 1
    target = COARSE_REDUCTION * _scaled_residual(u, b, lev, mu)
    sweeps = 0
    while sweeps < 4 * lev.G * lev.G:
        _smooth(u, b, lev, mu, COARSE_CHUNK)
        sweeps += COARSE_CHUNK
        if _scaled_residual(u, b, lev, mu) <= target:
            break


def _cycle(levels, k, u, b, mu, v_only=False):
    """One FAS F-cycle (V-cycle if v_only) on level k, updating u in place."""
    lev = levels[k]
    if k == len(levels) - 1:
        _coarsest(u, b, lev, mu)
        return
    _smooth(u, b, lev, mu, SMOOTHING_SWEEPS)
    if k == 0:
        _smooth(u, b, lev, mu, RIM_SWEEPS, True)      # the rim band alone
    coarse = levels[k + 1]
    uc = np.where(coarse.inside[None], _restrict(u, lev.down), coarse.u0)
    start = uc.copy()
    # FAS right-hand side A_H(R u) + R(r), h_H^2-scaled (h_H / h = G / G_H)
    bc = (lev.G / coarse.G) ** 2 * _restrict(_residual(u, b, lev, mu), lev.down)
    bc.reshape(len(u), -1)[:, coarse.cells[0]] -= _cell_residual(uc, None, coarse, mu)[0]
    if not v_only:
        _cycle(levels, k + 1, uc, bc, mu)
    _cycle(levels, k + 1, uc, bc, mu, v_only=True)
    e = np.where(coarse.inside[None], uc - start, 0.0)
    flat = u.reshape(len(u), -1)
    new = flat.take(lev.cells[0], axis=1) + _prolong(e, lev)
    flat[:, lev.cells[0]] = np.maximum(new, 0.0, out=new)
    _smooth(u, b, lev, mu, SMOOTHING_SWEEPS)
    if k == 0:
        _smooth(u, b, lev, mu, RIM_SWEEPS, True)      # the rim band alone


def solve(config: DiffusionConfig, mu: float) -> DiffusionField:
    """The competition-diffusion system with rate mu in [0, 1e6] (ValueError
    outside), by FAS multigrid F-cycles until the scaled discrete residual is
    at most SWEEP_TOL.

    The levels are the grids G, (G+1)//2, ... of _hierarchy, each with its
    own embedded boundary, Dirichlet data and transfers (_transfers).  The
    smoother is red-black Gauss-Seidel with the coupling frozen per sweep,
    which keeps every iterate non-negative; coarse-grid corrections are
    interpolated to the inside cells of the finer grid and clamped at 0.
    On the finest grid each smoothing, before and after the correction, is
    followed by RIM_SWEEPS sweeps of the rim band alone (_Level).  Each grid
    draws the disk's staircase boundary differently, so coarse corrections
    are worst next to the rim, and the residual a cycle leaves peaks within
    two cells of it; without the band sweeps an F-cycle cuts the scaled
    residual by 0.13-0.17, with them by 0.05-0.08 (G = 64 to 128).  The
    coarser grids get no band sweeps: there they cost more than they save.
    The first iterate is nested: each grid starts from the interpolated
    solution of the next coarser one.  Stops when
    max |r_j| / (4 + mu h^2 sum_{k!=j} u_k) over the inside cells is at most
    SWEEP_TOL, where r_j = h^2 Delta_h u_j - mu h^2 u_j sum_{k!=j} u_k;
    raises NoConvergence after MAX_CYCLES cycles (the nested first pass
    counts as one), or as soon as a cycle does not lower that quantity.
    """
    if not 0.0 <= mu <= 1e6:
        raise ValueError("mu must lie in [0, 1e6]")
    levels = _hierarchy(config, mu)

    # nested iteration: solve the coarsest grid, then one cycle per finer grid
    u = levels[-1].u0.copy()
    _coarsest(u, None, levels[-1], mu)
    for k in range(len(levels) - 2, -1, -1):
        lev = levels[k]
        fine = lev.u0.copy()
        fine.reshape(len(u), -1)[:, lev.cells[0]] = np.maximum(_prolong(u, lev), 0.0)
        u = fine
        _cycle(levels, k, u, None, mu)

    lev = levels[0]
    res = _scaled_residual(u, None, lev, mu)
    cycles = 1
    while not res <= SWEEP_TOL:          # so that a NaN residual cannot pass
        if cycles >= MAX_CYCLES:
            raise NoConvergence(f"residual {res:.3e} > {SWEEP_TOL:g} after "
                                f"{cycles} cycles, the cap")
        _cycle(levels, 0, u, None, mu)
        cycles += 1
        prev, res = res, _scaled_residual(u, None, lev, mu)
        if not res < prev:
            raise NoConvergence(f"cycle {cycles} did not lower the residual "
                                f"({prev:.3e} -> {res:.3e})")

    total = u.sum(axis=0)
    cross = 0.5 * (total * total - np.sum(u * u, axis=0))
    defect = float(np.sum(cross[lev.inside]) * lev.h2)
    level_sweeps = tuple(lv.sweeps for lv in levels)
    return DiffusionField(
        u=u[:, 1:-1, 1:-1], inside=lev.inside[1:-1, 1:-1], residual=res,
        defect=defect, sweeps=sum(level_sweeps), cycles=cycles, resolution=lev.G,
        level_sweeps=level_sweeps, coarsest_visits=levels[-1].visits,
        level_residuals=tuple(lv.residuals for lv in levels), rim_sweeps=lev.rim_sweeps,
    )


def interface_cells(field: DiffusionField):
    """Centers of cells where the argmax species changes to a 4-neighbor."""
    G = field.resolution
    h = 2.0 / G
    tot = field.u.sum(axis=0)
    arg = np.argmax(field.u, axis=0)
    live = field.inside & (tot > 1e-12)
    pts = []
    c = -1.0 + (np.arange(G) + 0.5) * h
    for ax in (0, 1):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        ii, jj = np.nonzero((arg[lo] != arg[hi]) & live[lo] & live[hi])
        if ax == 0:
            pts.append(np.stack([c[jj], 0.5 * (c[ii] + c[ii + 1])], axis=1))
        else:
            pts.append(np.stack([0.5 * (c[jj] + c[jj + 1]), c[ii]], axis=1))
    return np.concatenate(pts, axis=0)


def _graph_points(graph: NodalGraph, spacing: float):
    pts = []
    for arc in graph.arcs:
        p = np.asarray(arc.points)
        if len(p) < 2:
            continue
        seg = np.abs(np.diff(p))
        acc = np.concatenate([[0.0], np.cumsum(seg)])
        total = acc[-1]
        n = max(2, int(total / spacing) + 1)
        s = np.linspace(0.0, total, n)
        re = np.interp(s, acc, p.real)
        im = np.interp(s, acc, p.imag)
        pts.append(np.stack([re, im], axis=1))
    if not pts:
        return np.zeros((0, 2))
    return np.concatenate(pts, axis=0)


def interface_distance(field: DiffusionField, graph: NodalGraph) -> float:
    """Symmetric Hausdorff distance, in grid cells, between the argmax
    interface of the diffusion field and the traced nodal set."""
    h = 2.0 / field.resolution
    a = interface_cells(field)
    b = _graph_points(graph, 0.5 * h)
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    return _hausdorff(a, b) / h


def _hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two non-empty point sets (rows
    of x, y), exact, from the squared distances of 512 points of b at a time
    to all of a."""
    to_b = np.full(len(a), np.inf)    # squared distance from each point of a to b
    worst = 0.0
    for s in range(0, len(b), 512):
        d2 = (b[s:s + 512, None, 0] - a[None, :, 0]) ** 2
        d2 += (b[s:s + 512, None, 1] - a[None, :, 1]) ** 2
        worst = max(worst, float(d2.min(axis=1).max()))
        np.minimum(to_b, d2.min(axis=0), out=to_b)
    return float(np.sqrt(max(worst, float(to_b.max()))))
