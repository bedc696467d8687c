"""Segregated states U = |Re F| on the disk: admissibility and reconstruction.

A state has an analytic part (AnalyticState): f, its base point and slit
disk, the PathEngine, the criticals and residuals from the admissibility
test, the boundary scale and the resolution G, which sets the nodal
tracer's scale.  analytic_state builds it; the nodal tracer, the graph
commands and the diffusion data, whose species are the traced faces, need
nothing more.  reconstruct adds the grid (SegregatedState).

The grid fill samples F at the cell centres in passes linear in the number
of cells.  An east or south step between inside cells is usable when it
crosses no cut and keeps clear of the roots.  Cells joined by usable east
steps form row runs, and a breadth-first search over the runs, linked by one
south step per pair of adjacent runs, gives each connected component of the
cells not at a root a spanning forest rooted at one routed seed.  Only the
forest's steps are integrated: 6-point Gauss where the step is certified
(away from the roots, and f turns by little along it), the root-aware
segment integrator otherwise.  Pointer jumping carries F and the branch of
f^{1/2} from the seeds to every cell they join.  A cell at a root takes one
integrator step from a neighbour, or the routed primitive if it has no
usable one.  SegregatedState.source records which of these gave each value.
The species labels come from the same row-run search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, NotAdmissible, NotOnNodalSet
from .primitive import PathEngine
from .quadrature import GL6_W, GL6_X, SqrtSegmentIntegrator, branch_sign, nearest_sqrt
from .rational import AT_ROOT_TOL, RationalFactored, order_at
from .serialize import csv_rows
from .slits import SlitDisk, build_slit_disk, crosses

ADMISSIBILITY_REL_TOL = 1e-8
SPECIES_REL_THRESHOLD = 1e-6
EXPONENT_ANGLES = 96             # angles per circle in local_exponent
L1_RADII, L1_ANGLES = 128, 512   # Gauss-Legendre radii and trapezoid angles in hopf_l1
ENERGY_MIN_RESOLUTION = 128      # the least grid resolution dirichlet_energy accepts
# how a cell of the grid fill got its value
FILL_TREE, FILL_CHORD, FILL_ROUTED = 1, 2, 3


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    residuals: tuple          # ((zero, |Re F|), ...) over all interior zeros
    tolerance: float
    scale: float


def admissibility(f: RationalFactored, base, tol: float | None = None,
                  engine: PathEngine | None = None) -> AdmissibilityReport:
    """Re F residuals at every interior zero of f, from the given base point.

    Vanishing at the odd zeros is what makes |Re F| a well-defined state;
    vanishing at the remaining zeros makes every zero a critical point of it
    (the configurations the splitting pipeline produces and consumes).  The
    default tolerance is relative to the boundary scale of F.
    """
    eng = engine or PathEngine(f, build_slit_disk(f, base))
    scale = eng.boundary_scale()
    if tol is None:
        tol = ADMISSIBILITY_REL_TOL * max(scale, 1e-300)
    residuals = []
    for z, _ in f.interior_roots:
        if abs(z - eng.slit.base) < AT_ROOT_TOL:
            residuals.append((z, 0.0))
        else:
            residuals.append((z, abs(eng.F(z).real)))
    ok = all(v <= tol for _, v in residuals)
    return AdmissibilityReport(admissible=ok, residuals=tuple(residuals),
                               tolerance=tol, scale=scale)


def find_base_point(f: RationalFactored) -> complex:
    """The first odd zero of f in (|z|, arg z) order, or the origin when f
    has none (then every base yields a state and the fiber is a family).

    Continuing F around an odd zero z_j maps F to 2 F(z_j) - F, so Re F
    vanishes at every odd zero from one of them iff it does from any: the
    choice needs no engine.  Whether it does is for admissibility, or for
    reconstruct, which raises NotAdmissible, to decide.
    """
    odd = [z for z, m in f.interior_roots if m % 2 == 1]
    return min(odd, key=lambda z: (abs(z), np.angle(z)), default=0.0 + 0.0j)


# -- the state: its analytic part, and the grid ---------------------------------


@dataclass
class AnalyticState:
    """The grid-free part of a state: everything the nodal tracer reads."""
    resolution: int               # G: the tracer's scale, and the grid's in SegregatedState
    criticals: tuple              # ((location, order, multiplicity), ...)
    residuals: tuple              # ((odd zero, |Re F|), ...)
    scale: float
    engine: PathEngine = field(repr=False)

    @property
    def f(self) -> RationalFactored:
        return self.engine.f

    @property
    def base(self) -> complex:
        return self.engine.slit.base

    @property
    def slit(self) -> SlitDisk:
        return self.engine.slit

    def value_at(self, z) -> float:
        """U(z) evaluated exactly (routed primitive, not grid lookup)."""
        return abs(self.engine.F(z).real)


@dataclass
class SegregatedState(AnalyticState):
    """An analytic state with U sampled on the G x G grid of cell centres."""
    u: np.ndarray                 # |Re F| at cell centers, NaN outside
    sre: np.ndarray               # signed Re F in the slit determination
    inside: np.ndarray
    species: np.ndarray           # 0 below threshold / outside, else 1..N
    n_species: int
    cross_east: np.ndarray = field(repr=False)   # cut crossings of east steps
    cross_south: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)       # FILL_* per inside cell, 0 outside

    @property
    def routed(self) -> int:
        """Cells of the grid fill that took the routed primitive."""
        return int(np.count_nonzero(self.source == FILL_ROUTED))

    @property
    def chords(self) -> int:
        """Cells of the grid fill whose value came from a step of the
        root-aware segment integrator."""
        return int(np.count_nonzero(self.source == FILL_CHORD))

    @property
    def h(self) -> float:
        return 2.0 / self.resolution

    @property
    def cell_centers(self) -> np.ndarray:
        c = -1.0 + (np.arange(self.resolution) + 0.5) * self.h
        return c


def _cut_crossings(cuts, Z):
    """Number of cuts crossed by each cell's east and south steps.

    A cell centre on a cut lies on its counterclockwise side (slits.crosses),
    so only its steps to the other side cross.
    """
    G = Z.shape[0]
    cross_east = np.zeros((G, G), dtype=np.int8)
    cross_south = np.zeros((G, G), dtype=np.int8)
    for cut in cuts:
        cross_east[:, :-1] += crosses(Z[:, :-1], Z[:, 1:], cut.anchor, cut.end)
        cross_south[:-1, :] += crosses(Z[:-1, :], Z[1:, :], cut.anchor, cut.end)
    return cross_east, cross_south


def _step_integrals(f, z, fz, a, b):
    """D = 2 int_a^b f^{1/2} along the grid steps a -> b (6-point Gauss), on
    the branch through the principal root p_a, and sigma = branch_sign(p_b,
    p_a), the sign of p_b on that branch.  One array per step is live at a
    time: the nodes are looped over.
    """
    pa, pb = np.sqrt(fz[a]), np.sqrt(fz[b])
    za = z[a]
    seg = z[b] - za
    acc = np.zeros(len(a), dtype=complex)
    for x, w in zip(GL6_X, GL6_W):
        acc += w * nearest_sqrt(f.eval(za + seg * (0.5 * (x + 1.0))), pa)
    return seg * acc, branch_sign(pb, pa)


def spanning_forest(n, a, b, roots=None):
    """Breadth-first spanning forest of the undirected graph on the nodes
    0..n-1 with the edges a[k] -- b[k].

    A tree grows from each node of roots (by default 0, 1, ..., n-1) that no
    earlier tree has reached, so the components are numbered in that order.
    Returns (comp, via): each node's component and the edge by which its tree
    reached it, -1 at a root.
    """
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(a.tolist(), b.tolist())):
        adj[u].append((v, k))
        adj[v].append((u, k))
    comp = [-1] * n
    via = [-1] * n
    c = 0
    for r in range(n) if roots is None else roots.tolist():
        if comp[r] >= 0:
            continue
        comp[r] = c
        queue = [r]
        for u in queue:
            for v, k in adj[u]:
                if comp[v] < 0:
                    comp[v], via[v] = c, k
                    queue.append(v)
        c += 1
    return np.array(comp, dtype=np.int64), np.array(via, dtype=np.int64)


def grid_forest(node, east, south, key=None):
    """Components of a grid's node cells and a spanning forest of each.

    node, east and south are G x G boolean arrays; east[iy, ix] joins the
    cells (iy, ix) and (iy, ix + 1), south[iy, ix] joins (iy, ix) and
    (iy + 1, ix), and both ends of every step are nodes.  Cells joined by
    east steps form row runs, and the first south step between two runs
    joins them; a breadth-first search over the runs (spanning_forest) gives
    the components and a tree of runs.  Each component's root is its cell of
    least key, the first of equals in row-major order, or with no key its
    first cell; the components are numbered in the order of their roots'
    keys, or with no key of their first cells.  A run is entered at the root
    or by the south step from its parent run, and its east steps point away
    from that cell.

    Returns (cells, comp, parent): the flat indices of the node cells in
    ascending order, the component of each and the position in cells of its
    parent, -1 at a root.
    """
    G = node.shape[0]
    cells = np.flatnonzero(node)
    m = len(cells)
    if not m:
        return cells, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    start = np.ones(m, dtype=bool)
    start[1:] = ~east.ravel()[cells[1:] - 1]
    run = np.cumsum(start) - 1
    heads = np.flatnonzero(start)
    at_cell = np.cumsum(node.ravel()) - 1     # a node cell's position in cells
    top = np.flatnonzero(south)
    pt, pb = at_cell[top], at_cell[top + G]
    _, first = np.unique(run[pt] * len(heads) + run[pb], return_index=True)
    pt, pb = pt[first], pb[first]

    if key is None:
        entry, roots = heads, None
    else:
        k = key.ravel()[cells]
        low = np.minimum.reduceat(k, heads)
        at = np.flatnonzero(k == low[run])
        lead = np.ones(len(at), dtype=bool)
        lead[1:] = run[at[1:]] != run[at[:-1]]
        entry, roots = at[lead], np.argsort(low, kind="stable")
    comp, via = spanning_forest(len(heads), run[pt], run[pb], roots)

    linked = np.flatnonzero(via >= 0)
    step = via[linked]
    from_above = run[pb[step]] == linked
    entry[linked] = np.where(from_above, pb[step], pt[step])
    pos = np.arange(m)
    parent = np.where(pos > entry[run], pos - 1, pos + 1)
    parent[entry] = -1
    parent[entry[linked]] = np.where(from_above, pt[step], pb[step])
    return cells, comp[run], parent


def _fill_grid(f, eng, Z, fZ, inside, cross_east, cross_south):
    """Signed Re F at the cell centres and each cell's source.

    An east or south step between inside cells is usable when it crosses no
    cut and ends at a root or passes every root no closer than half the
    distance of its nearer end (always so between cells at least max(3, m+1)
    cells from every root of order m, so only the other steps are tested).
    grid_forest spans the cells not at a root (the nodes) over their usable
    steps, rooted at one routed seed per component, its cell nearest z_ref,
    and only the forest's steps are integrated.  A step between far cells
    along which the argument of f turns by less than 0.45 pi is certified:
    the nearest-sign choice at its six Gauss nodes continues the branch (the
    test is symmetric in the two ends).  Every other step goes through the
    root-aware segment integrator at the engine's tolerance.  Pointer
    jumping composes the steps up to the seeds.  A cell at a root then takes
    one integrator step from its first node neighbour with a usable step to
    it, or the routed primitive.  source holds FILL_TREE (a Gauss step),
    FILL_CHORD (an integrator step) or FILL_ROUTED inside the disk, 0 outside.
    """
    G = Z.shape[0]
    n = G * G
    z, fz = Z.ravel(), fZ.ravel()
    far, node = inside.copy(), inside.copy()
    for r, m in f.interior_roots:
        d = np.abs(Z - r)
        far &= d > 2.0 / G * max(3, m + 1)
        node &= d >= AT_ROOT_TOL
    east = np.zeros((G, G), dtype=bool)
    south = np.zeros((G, G), dtype=bool)
    east[:, :-1] = inside[:, :-1] & inside[:, 1:] & (cross_east[:, :-1] == 0)
    south[:-1, :] = inside[:-1, :] & inside[1:, :] & (cross_south[:-1, :] == 0)
    far, e, s = far.ravel(), east.ravel(), south.ravel()
    for step, d in ((e, 1), (s, G)):
        i = np.flatnonzero(step)
        i = i[~(far[i] & far[i + d])]
        za, seg = z[i], z[i + d] - z[i]
        for r, _ in f.interior_roots:
            t = np.clip(((r - za) * np.conj(seg)).real / np.abs(seg) ** 2, 0.0, 1.0)
            ends = np.minimum(np.abs(za - r), np.abs(za + seg - r))
            step[i] &= (ends < AT_ROOT_TOL) | (np.abs(za + t * seg - r) >= 0.5 * ends)

    F = np.full(n, np.nan + 0.0j, dtype=complex)
    V = np.zeros(n, dtype=complex)
    source = np.zeros(n, dtype=np.int8)
    cells, _, parent = grid_forest(node, east & node & np.roll(node, -1, 1),
                                   south & node & np.roll(node, -1, 0),
                                   key=np.abs(Z - eng.z_ref))
    # a forest step parent -> child gives the child the sign s_parent * S and
    # the value F_parent + s_parent * D: (S, D) is (sigma, D_ab) on a step
    # a -> b, (sigma, -sigma * D_ab) on b -> a and the routed (sign, F) on
    # the virtual root m -> seed
    m = len(cells)
    seed = parent < 0
    kid = np.flatnonzero(~seed)
    up, down = cells[parent[kid]], cells[kid]
    a, b = np.minimum(up, down), np.maximum(up, down)
    gauss = far[a] & far[b] & (np.abs(np.angle(fz[b] / fz[a])) < 0.45 * np.pi)
    D, sigma = np.zeros(len(kid), dtype=complex), np.ones(len(kid))
    D[gauss], sigma[gauss] = _step_integrals(f, z, fz, a[gauss], b[gauss])
    integ = SqrtSegmentIntegrator(f, eng.tol)
    D[~gauss], sigma[~gauss] = integ.chords(z[a[~gauss]], z[b[~gauss]])
    par = np.full(m + 1, m)
    sign = np.ones(m + 1)
    val = np.zeros(m + 1, dtype=complex)
    par[kid], sign[kid] = parent[kid], sigma
    val[kid] = np.where(up < down, D, -sigma * D)
    for k in np.flatnonzero(seed):
        val[k], v = eng.value_and_sqrt(z[cells[k]])
        sign[k] = branch_sign(v, np.sqrt(fz[cells[k]]))
    while np.any(par != m):
        val = val[par] + sign[par] * val
        sign = sign[par] * sign
        par = par[par]
    F[cells], V[cells] = val[:m], sign[:m] * np.sqrt(fz[cells])
    source[cells[kid]] = np.where(gauss, FILL_TREE, FILL_CHORD)
    source[cells[seed]] = FILL_ROUTED

    # a cell at a root takes its first usable node neighbour in the order
    # east, west, south, north (later writes win); a wrapped index lands on
    # the last row or column, which has no step
    at = np.flatnonzero(inside & ~node)
    j = np.full(len(at), -1)
    for d, ok in ((-G, s[at - G]), (G, s[at]), (-1, e[at - 1]), (1, e[at])):
        nb = np.clip(at + d, 0, n - 1)
        j = np.where(ok & node.ravel()[nb], nb, j)
    tip, j = at[j >= 0], j[j >= 0]
    F[tip] = F[j] + 2.0 * integ.segments(z[j], z[tip], V[j])[0]
    source[tip] = FILL_CHORD
    for cell in np.setdiff1d(at, tip):
        F[cell] = eng.value_and_sqrt(z[cell])[0]
        source[cell] = FILL_ROUTED

    sre = np.where(inside, F.reshape(G, G).real, np.nan)
    return sre, source.reshape(G, G)


def _label_species(u, sre, inside, Z, cross_east, cross_south, thr, grad_scale):
    G = u.shape[0]
    # a cell within about one cell of the nodal set of the local branch is
    # left out: |grad Re F| = 2 |f|^{1/2}, so u < h |f|^{1/2} means the zero
    # line may run through the cell, and its sign cannot tell which side it
    # belongs to
    mask = inside & (u > thr) & (u >= grad_scale)
    sign = np.sign(sre)

    def links(p, c, parity):
        return mask[p] & mask[c] & ((sign[p] == sign[c]) != (parity[p] % 2 == 1))

    east = np.zeros((G, G), dtype=bool)
    south = np.zeros((G, G), dtype=bool)
    east[:, :-1] = links(np.s_[:, :-1], np.s_[:, 1:], cross_east)
    south[:-1, :] = links(np.s_[:-1, :], np.s_[1:, :], cross_south)
    cells, comp, _ = grid_forest(mask, east, south)
    # no species component is compactly contained in the disk, so grid
    # components that never reach the rim are nodal-band debris, not species
    h = 2.0 / G
    size = np.bincount(comp)
    touching = np.zeros(len(size), dtype=bool)
    touching[comp[np.abs(Z.ravel()[cells]) > 1.0 - 3.0 * h]] = True
    kept = touching & (size >= 6)
    lookup = np.zeros(len(size), dtype=np.int32)
    lookup[kept] = np.arange(1, np.count_nonzero(kept) + 1)
    labels = np.zeros(G * G, dtype=np.int32)
    labels[cells] = lookup[comp]
    return labels.reshape(G, G), int(np.count_nonzero(kept))


def analytic_state(f: RationalFactored, base, resolution: int = 256,
                   engine: PathEngine | None = None) -> AnalyticState:
    """The analytic part of the state U = |Re F|: criticals, residuals and
    scale, with no grid.

    Requires Re F to vanish at the odd zeros (otherwise |Re F| has no
    continuous extension across the cuts and the state does not exist).
    Critical points come from the exact root list filtered by the residual
    test.  resolution is the G that sets the nodal tracer's scale.  engine,
    if given, is a PathEngine already built for (f, base); the state then
    uses it, with its memoised rim march and cached routes, instead of
    building its own.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    base = complex(base)
    if engine is not None and (engine.f is not f or engine.slit.base != base):
        raise ValueError("engine was built for another (f, base)")
    eng = engine or PathEngine(f, build_slit_disk(f, base))
    rep = admissibility(f, base, engine=eng)
    orders = [m for _, m in f.interior_roots]
    odd_res = [zv for zv, m in zip(rep.residuals, orders) if m % 2 == 1]
    bad = [(z, v) for z, v in odd_res if v > rep.tolerance]
    if bad:
        raise NotAdmissible(f"Re F does not vanish at odd zeros: {bad}")
    crit = tuple(
        (z, m, m + 2)
        for (z, v), m in zip(rep.residuals, orders)
        if v <= rep.tolerance
    )
    return AnalyticState(resolution=resolution, criticals=crit, residuals=tuple(odd_res),
                         scale=rep.scale, engine=eng)


def reconstruct(f: RationalFactored, base, resolution: int = 256,
                engine: PathEngine | None = None) -> SegregatedState:
    """analytic_state(f, base, resolution, engine) with U sampled on the
    G x G grid of cell centres and its species labelled; the criticals
    never come from the grid."""
    state = analytic_state(f, base, resolution, engine)
    eng = state.engine
    G = resolution
    c = -1.0 + (np.arange(G) + 0.5) * (2.0 / G)
    X, Y = np.meshgrid(c, c)          # [iy, ix]
    Z = X + 1j * Y
    inside = np.abs(Z) < 1.0
    fZ = f.eval(Z)
    cross_east, cross_south = _cut_crossings(eng.slit.cuts, Z)
    sre, source = _fill_grid(f, eng, Z, fZ, inside, cross_east, cross_south)
    u = np.abs(sre)

    thr = SPECIES_REL_THRESHOLD * max(state.scale, 1e-300)
    grad_scale = (2.0 / G) * np.sqrt(np.abs(fZ))
    species, n_species = _label_species(
        u, sre, inside, Z, cross_east, cross_south, thr, grad_scale
    )

    return SegregatedState(
        **vars(state),
        u=u, sre=sre, inside=inside, species=species, n_species=n_species,
        cross_east=cross_east, cross_south=cross_south, source=source,
    )


def multiplicity_at(state: AnalyticState, z) -> int:
    """2 + ord(f; z) for nodal points (the zero order is exact by storage)."""
    z = complex(z)
    if abs(state.engine.F(z).real) > 1e-6 * max(state.scale, 1e-300):
        raise NotOnNodalSet(f"U({z}) != 0")
    return 2 + order_at(state.f, z)


def local_exponent(state: AnalyticState, z, radii) -> float:
    """Least-squares slope of log max_theta U(z + r e^{i theta}) vs log r.

    The angular maximum of the leading r^{m/2} |cos(m/2 (theta+theta_0))|
    profile is insensitive to theta_0 once the angles resolve one period.
    """
    z = complex(z)
    m = 2 + order_at(state.f, z)
    if EXPONENT_ANGLES < 8 * max(1, m // 2):
        raise GridTooCoarse("angular sampling cannot resolve the profile maximum")
    logr = []
    logu = []
    for r in radii:
        th = 2.0 * np.pi * np.arange(EXPONENT_ANGLES) / EXPONENT_ANGLES
        vals = [abs(state.engine.F(z + r * np.exp(1j * t)).real) for t in th]
        logr.append(np.log(r))
        logu.append(np.log(max(vals)))
    A = np.vstack([logr, np.ones(len(logr))]).T
    slope, _ = np.linalg.lstsq(A, np.array(logu), rcond=None)[0]
    return float(slope)


def dirichlet_energy(state: SegregatedState) -> float:
    """Grid Dirichlet energy (1/2) int |grad U|^2.

    Works on the signed field (smooth across the nodal set); neighbors on the
    other side of a cut enter with flipped sign, which is the analytic
    continuation of the local branch.  Rim cells get subsampled area weights.
    """
    if state.resolution < ENERGY_MIN_RESOLUTION:
        raise ValueError(f"energy requires resolution >= {ENERGY_MIN_RESOLUTION}")
    G = state.resolution
    h = state.h
    s = state.sre
    inside = state.inside
    c = state.cell_centers
    X, Y = np.meshgrid(c, c)

    def gradient(axis, cross):
        """Difference of s along the numpy axis: central between two inside
        neighbours, one-sided with one; a neighbour across an odd number of
        cuts (cross counts them per step) enters with flipped sign."""
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        flip = np.where(cross[lo] % 2 == 1, -1.0, 1.0)
        vp, vm = np.full_like(s, np.nan), np.full_like(s, np.nan)
        okp, okm = np.zeros_like(inside), np.zeros_like(inside)
        vp[lo], okp[lo] = s[hi] * flip, inside[hi]
        vm[hi], okm[hi] = s[lo] * flip, inside[lo]
        g = np.zeros_like(s)
        central = okp & okm
        g[central] = (vp[central] - vm[central]) / (2 * h)
        fwd = okp & ~okm
        g[fwd] = (vp[fwd] - s[fwd]) / h
        bwd = okm & ~okp
        g[bwd] = (s[bwd] - vm[bwd]) / h
        return g

    gx = gradient(1, state.cross_east)
    gy = gradient(0, state.cross_south)

    w = inside.astype(float)
    rim = np.abs(np.hypot(X, Y) - 1.0) < 1.5 * h
    sub = (np.arange(4) + 0.5) / 4 - 0.5
    SX, SY = np.meshgrid(sub, sub)
    px = X[rim][:, None, None] + SX * h
    py = Y[rim][:, None, None] + SY * h
    w[rim] = np.mean(px * px + py * py < 1.0, axis=(1, 2))
    dens = 0.5 * (gx * gx + gy * gy)
    dens[~inside] = 0.0
    return float(np.sum(dens * w) * h * h)


def hopf_l1(f: RationalFactored) -> float:
    """2 * int_D |f|, by polar Gauss-Legendre x trapezoid quadrature."""
    x, wgt = np.polynomial.legendre.leggauss(L1_RADII)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * wgt
    th = 2.0 * np.pi * np.arange(L1_ANGLES) / L1_ANGLES
    Zp = r[:, None] * np.exp(1j * th[None, :])
    vals = np.abs(f.eval(Zp)) * r[:, None]
    return float(2.0 * (2.0 * np.pi / L1_ANGLES) * np.sum(vals @ np.ones(L1_ANGLES) * wr))


def export_grid_csv(state: SegregatedState, path):
    """CSV x,y,u,species, row-major over inside cells, 17 significant digits."""
    rows = csv_rows("x,y,u,species", "%.17g,%d", state.inside,
                    state.cell_centers, (state.u, state.species))
    text = "\n".join(rows) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
