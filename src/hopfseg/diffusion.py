"""Competition-diffusion system on the disk and cross-validation of states.

-Delta u_j = -mu u_j sum_{k != j} u_k with Dirichlet data from a segregated
state's boundary trace.  Embedded-boundary 5-point Laplacian on a Cartesian
grid, red-black Gauss-Seidel with the coupling frozen per sweep (monotone
for this sign structure); as mu grows the argmax partition converges to the
analytic nodal partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import NoConvergence
from .nodal import NodalGraph, boundary_zeros, trace
from .states import SegregatedState

MAX_SWEEPS = 100_000
SWEEP_TOL = 1e-8


@dataclass(frozen=True)
class DiffusionConfig:
    g: np.ndarray          # (n_species, samples) non-negative, disjoint supports
    angles: np.ndarray
    mu: float
    resolution: int

    def __post_init__(self):
        if np.any(self.g < 0):
            raise ValueError("boundary data must be non-negative")
        overlap = (self.g > 0).sum(axis=0)
        if np.any(overlap > 1):
            raise ValueError("boundary supports must be disjoint")
        if self.mu < 0 or self.mu > 1e6:
            raise ValueError("mu must lie in [0, 1e6]")
        if self.resolution > 512:
            raise ValueError("resolution capped at 512")


@dataclass
class DiffusionField:
    u: np.ndarray          # (n_species, G, G)
    inside: np.ndarray
    residual: float
    defect: float
    sweeps: int
    resolution: int


def boundary_from_state(state: SegregatedState, samples: int = 1024) -> DiffusionConfig:
    """Per-species boundary data: U on the species' boundary arcs, 0 elsewhere.

    Arcs between consecutive boundary zeros each belong to one species
    (looked up from the state labels slightly inside the rim); disjointness
    is then exact by construction.
    """
    th, vals = state.engine.boundary_values(samples)
    u_bd = np.abs(vals.real)
    bz = boundary_zeros(state)
    n = state.n_species
    g = np.zeros((n, samples))
    if not bz:
        # positive trace everywhere; single species on the whole rim
        g[0] = u_bd
        return DiffusionConfig(g=g, angles=th, mu=0.0, resolution=state.resolution)

    G = state.resolution

    def label_at(angle):
        for depth in (3.0, 5.0, 8.0, 12.0):
            z = (1.0 - depth / G) * np.exp(1j * angle)
            ix = int(np.clip((z.real + 1.0) / state.h, 0, G - 1))
            iy = int(np.clip((z.imag + 1.0) / state.h, 0, G - 1))
            lab = state.species[iy, ix]
            if lab > 0:
                return lab
        return 0

    arcs = []
    for i, a in enumerate(bz):
        b = bz[(i + 1) % len(bz)]
        if i == len(bz) - 1:
            b += 2 * np.pi
        arcs.append((a, b, label_at(0.5 * (a + b))))

    for k, t in enumerate(th):
        tt = t if t >= bz[0] else t + 2 * np.pi
        for a, b, lab in arcs:
            if a <= tt < b:
                if lab > 0:
                    g[lab - 1, k] = u_bd[k]
                break
    return DiffusionConfig(g=g, angles=th, mu=0.0, resolution=state.resolution)


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


def solve(config: DiffusionConfig, mu: float | None = None,
          warm_start: bool = True) -> DiffusionField:
    """Red-black Gauss-Seidel sweeps with the coupling frozen per sweep.

    Each update solves u (4 + mu h^2 sum_others) = sum of neighbors, which
    keeps every iterate non-negative; negatives are clamped anyway per the
    contract.  Stops when the sup change of a full sweep drops below 1e-8.
    Fine grids warm-start from the half-resolution solution (the smoother's
    asymptotic rate is what it is; the warm start only removes the long
    transient).
    """
    mu = config.mu if mu is None else mu
    if mu < 0 or mu > 1e6:
        raise ValueError("mu must lie in [0, 1e6]")
    G = config.resolution
    n = config.g.shape[0]

    init = None
    if warm_start and G >= 64 and G % 2 == 0:
        from dataclasses import replace

        coarse = solve(replace(config, resolution=G // 2), mu=mu, warm_start=True)
        init = np.repeat(np.repeat(coarse.u, 2, axis=1), 2, axis=2)

    bvals, inside, h = _boundary_value_grid(config, G)
    u = np.where(inside[None], 0.0, bvals)
    if init is not None:
        core = u[:, 1:-1, 1:-1]
        u[:, 1:-1, 1:-1] = np.where(inside[None, 1:-1, 1:-1], init, core)

    mh2 = mu * h * h

    # red/black as four strided sub-blocks of the padded core (pure slicing)
    def block(r0, c0):
        rows = slice(r0, G + 1, 2)
        cols = slice(c0, G + 1, 2)
        nbs = (
            (slice(None), slice(r0 - 1, G, 2), cols),
            (slice(None), slice(r0 + 1, G + 2, 2), cols),
            (slice(None), rows, slice(c0 - 1, G, 2)),
            (slice(None), rows, slice(c0 + 1, G + 2, 2)),
        )
        return (slice(None), rows, cols), nbs, inside[rows, cols]

    blocks = [block(1, 1), block(2, 2), block(1, 2), block(2, 1)]  # red, red, black, black

    sweeps = 0
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        total = u.sum(axis=0)
        change = 0.0
        for sub, nbs, ins in blocks:
            if not ins.any():
                continue
            nb = u[nbs[0]] + u[nbs[1]] + u[nbs[2]] + u[nbs[3]]
            old = u[sub]
            coupling = total[sub[1], sub[2]][None] - old
            new = nb / (4.0 + mh2 * np.maximum(coupling, 0.0))
            np.maximum(new, 0.0, out=new)
            delta = np.abs(new - old)
            delta[:, ~ins] = 0.0
            m = float(delta.max())
            if m > change:
                change = m
            u[sub] = np.where(ins[None], new, old)
        if change <= SWEEP_TOL:
            break
    else:
        raise NoConvergence(f"no convergence after {MAX_SWEEPS} sweeps")

    total = u.sum(axis=0)
    cross = 0.5 * (total * total - np.sum(u * u, axis=0))
    defect = float(np.sum(cross[inside]) * h * h)

    # discrete residual of the coupled system on interior cells
    res = 0.0
    for j in range(n):
        lap = (
            np.roll(u[j], 1, axis=0) + np.roll(u[j], -1, axis=0)
            + np.roll(u[j], 1, axis=1) + np.roll(u[j], -1, axis=1)
            - 4.0 * u[j]
        ) / (h * h)
        rj = lap - mu * u[j] * (total - u[j])
        core = inside & np.roll(inside, 1, 0) & np.roll(inside, -1, 0) \
            & np.roll(inside, 1, 1) & np.roll(inside, -1, 1)
        if core.any():
            res = max(res, float(np.abs(rj[core]).max()) * h * h)

    core_u = u[:, 1:-1, 1:-1]
    return DiffusionField(
        u=core_u, inside=inside[1:-1, 1:-1], residual=res,
        defect=defect, sweeps=sweeps, resolution=G,
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
        a = np.take(arg, np.arange(G - 1), axis=ax)
        b = np.take(arg, np.arange(1, G), axis=ax)
        la = np.take(live, np.arange(G - 1), axis=ax)
        lb = np.take(live, np.arange(1, G), axis=ax)
        diff = (a != b) & la & lb
        ii, jj = np.nonzero(diff)
        if ax == 0:
            pts.append(np.stack([c[jj], 0.5 * (c[ii] + c[ii + 1])], axis=1))
        else:
            pts.append(np.stack([0.5 * (c[jj] + c[jj + 1]), c[ii]], axis=1))
    if not pts:
        return np.zeros((0, 2))
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


def interface_distance(field: DiffusionField, state: SegregatedState,
                       graph: NodalGraph | None = None) -> float:
    """Symmetric Hausdorff distance, in grid cells, between the argmax
    interface of the diffusion field and the traced nodal set."""
    if graph is None:
        graph = trace(state)
    h = 2.0 / field.resolution
    a = interface_cells(field)
    b = _graph_points(graph, 0.5 * h)
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    ta = cKDTree(a)
    tb = cKDTree(b)
    d_ab = ta.query(b)[0].max()
    d_ba = tb.query(a)[0].max()
    return float(max(d_ab, d_ba) / h)
