"""Segregated states U = |Re F| on the disk: admissibility and reconstruction.

The grid fill integrates F cell-to-cell in a breadth-first wave (6-point
Gauss steps with branch continuity), which is exact up to quadrature error
wherever the argument of f turns slowly.  Cells near roots, near cuts, or
otherwise unreached fall back to the routed scalar primitive, so the fast
path is an accelerator, never a source of truth of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import GridTooCoarse, NotAdmissible, NotOnNodalSet
from .primitive import PathEngine
from .quadrature import GL6_W, GL6_X, nearest_sqrt
from .rational import RationalFactored, order_at
from .slits import SlitDisk, build_slit_disk

ADMISSIBILITY_REL_TOL = 1e-8
SPECIES_REL_THRESHOLD = 1e-6


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
        if abs(z - eng.slit.base) < 1e-14:
            residuals.append((z, 0.0))
        else:
            residuals.append((z, abs(eng.F(z).real)))
    ok = all(v <= tol for _, v in residuals)
    return AdmissibilityReport(admissible=ok, residuals=tuple(residuals),
                               tolerance=tol, scale=scale)


def find_base_point(f: RationalFactored):
    """First odd zero from which Re F vanishes at every odd zero, or the
    origin when f has no odd zeros (then every base yields a state and the
    fiber is a family).  The even zeros need not be critical for a state."""
    is_odd = [m % 2 == 1 for _, m in f.interior_roots]
    odd = [z for (z, _), o in zip(f.interior_roots, is_odd) if o]
    odd.sort(key=lambda z: (abs(z), np.angle(z)))
    if not odd:
        return 0.0 + 0.0j
    for z in odd:
        rep = admissibility(f, z)
        if all(v <= rep.tolerance for (_, v), o in zip(rep.residuals, is_odd) if o):
            return z
    return None


# -- the reconstructed state ---------------------------------------------------


@dataclass
class SegregatedState:
    f: RationalFactored
    base: complex
    slit: SlitDisk
    resolution: int
    u: np.ndarray                 # |Re F| at cell centers, NaN outside
    sre: np.ndarray               # signed Re F in the slit determination
    inside: np.ndarray
    species: np.ndarray           # 0 below threshold / outside, else 1..N
    n_species: int
    criticals: tuple              # ((location, order, multiplicity), ...)
    residuals: tuple              # ((odd zero, |Re F|), ...)
    scale: float
    engine: PathEngine = field(repr=False)
    cross_east: np.ndarray = field(repr=False)   # cut crossings of east steps
    cross_south: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return 2.0 / self.resolution

    @property
    def cell_centers(self) -> np.ndarray:
        c = -1.0 + (np.arange(self.resolution) + 0.5) * self.h
        return c

    def value_at(self, z) -> float:
        """U(z) evaluated exactly (routed primitive, not grid lookup)."""
        return abs(self.engine.F(z).real)


def _segment_crossings(px, py, qx, qy, ax, ay, bx, by):
    """Vectorized strict segment-crossing predicate (step p->q vs cut a->b)."""
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    d3 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
    d4 = (qx - px) * (by - py) - (qy - py) * (bx - px)
    eps = 1e-15
    s1 = ((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps)) | (np.abs(d1) <= eps) | (np.abs(d2) <= eps)
    s2 = ((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)) | (np.abs(d3) <= eps) | (np.abs(d4) <= eps)
    return s1 & s2


def _fill_grid(f: RationalFactored, eng: PathEngine, G: int):
    h = 2.0 / G
    c = -1.0 + (np.arange(G) + 0.5) * h
    X, Y = np.meshgrid(c, c)          # [iy, ix]
    Z = X + 1j * Y
    inside = np.abs(Z) < 1.0

    cuts = eng.slit.cuts
    cross_east = np.zeros((G, G), dtype=np.int8)
    cross_south = np.zeros((G, G), dtype=np.int8)
    for cut in cuts:
        a, b = cut.anchor, cut.end
        ce = _segment_crossings(X[:, :-1], Y[:, :-1], X[:, 1:], Y[:, 1:],
                                a.real, a.imag, b.real, b.imag)
        cross_east[:, :-1] += ce.astype(np.int8)
        cs = _segment_crossings(X[:-1, :], Y[:-1, :], X[1:, :], Y[1:, :],
                                a.real, a.imag, b.real, b.imag)
        cross_south[:-1, :] += cs.astype(np.int8)

    near = np.zeros((G, G), dtype=bool)
    for r, n in f.interior_roots:
        near |= np.abs(Z - r) <= h * max(3, n + 1)
    far = inside & ~near

    F = np.full((G, G), np.nan + 0.0j, dtype=complex)
    V = np.zeros((G, G), dtype=complex)
    known = np.zeros((G, G), dtype=bool)

    # seed at the far cell nearest the engine reference point
    if far.any():
        iy, ix = np.unravel_index(np.argmin(np.where(far, np.abs(Z - eng.z_ref), np.inf)), (G, G))
        F[iy, ix], V[iy, ix] = eng.value_and_sqrt(Z[iy, ix])
        known[iy, ix] = True

    half_w = 0.5 * GL6_W
    tnodes = 0.5 * (GL6_X + 1.0)

    def expand(par_idx, child_idx):
        zp = Z.ravel()[par_idx]
        zc = Z.ravel()[child_idx]
        vp = V.ravel()[par_idx]
        seg = zc - zp
        nodes = zp[:, None] + seg[:, None] * tnodes[None, :]
        fv = f.eval(nodes)
        fc = f.eval(zc)
        ok = np.abs(np.angle(fc / (vp * vp))) < 0.45 * np.pi
        integral = seg * (nearest_sqrt(fv, vp[:, None]) @ half_w)
        fnew = F.ravel()[par_idx] + 2.0 * integral
        return fnew, nearest_sqrt(fc, vp), ok

    flat = np.arange(G * G).reshape(G, G)
    steps = [
        (flat[:, :-1], flat[:, 1:], cross_east[:, :-1] == 0),   # east
        (flat[:, 1:], flat[:, :-1], cross_east[:, :-1] == 0),   # west
        (flat[:-1, :], flat[1:, :], cross_south[:-1, :] == 0),  # south
        (flat[1:, :], flat[:-1, :], cross_south[:-1, :] == 0),  # north
    ]
    farr = far.ravel()

    def wave():
        for _ in range(4 * G):
            progressed = False
            for par, chi, open_mask in steps:
                k = known.ravel()
                cand = open_mask & k[par] & ~k[chi] & farr[chi]
                if not cand.any():
                    continue
                p_idx = par[cand]
                c_idx = chi[cand]
                c_idx, uniq = np.unique(c_idx, return_index=True)
                p_idx = p_idx[uniq]
                fnew, vc, ok = expand(p_idx, c_idx)
                good = c_idx[ok]
                F.ravel()[good] = fnew[ok]
                V.ravel()[good] = vc[ok]
                known.ravel()[good] = True
                progressed = progressed or bool(ok.any())
            if not progressed:
                return

    # cuts can sever the far region into several components (clustered
    # anchors cut the disk into sectors); seed each component once
    for _ in range(64):
        wave()
        left = far & ~known
        if not left.any():
            break
        cand_idx = np.nonzero(left.ravel())[0]
        zc_left = Z.ravel()[cand_idx]
        dcut = np.full(zc_left.shape, np.inf)
        for cut in cuts:
            seg = np.abs(zc_left - cut.anchor) + np.abs(zc_left - cut.end)
            dcut = np.minimum(dcut, seg - cut.length)  # ellipse-slack proxy
        pick = cand_idx[int(np.argmax(dcut))]
        F.ravel()[pick], V.ravel()[pick] = eng.value_and_sqrt(Z.ravel()[pick])
        known.ravel()[pick] = True

    # everything the wave could not certify goes through the routed primitive
    rest = inside & ~known
    for iy, ix in zip(*np.nonzero(rest)):
        F[iy, ix], V[iy, ix] = eng.value_and_sqrt(Z[iy, ix])
        known[iy, ix] = True

    sre = np.where(inside, F.real, np.nan)
    return Z, inside, sre, cross_east, cross_south


def _label_species(u, sre, inside, cross_east, cross_south, thr, grad_scale):
    G = u.shape[0]
    mask = inside & (u > thr)
    sign = np.sign(sre)
    flat = np.arange(G * G).reshape(G, G)
    # cells within about one cell of the nodal set of the local branch:
    # |grad Re F| = 2 |f|^{1/2}, so u < h |f|^{1/2} means the zero line runs
    # through the cell and the stored sign is not trustworthy for merging
    ambiguous = u < grad_scale

    def links(par, chi, parity):
        both = mask.ravel()[par.ravel()] & mask.ravel()[chi.ravel()]
        same = sign.ravel()[par.ravel()] == sign.ravel()[chi.ravel()]
        odd = (parity.ravel() % 2) == 1
        ok = both & (same != odd)
        clear = ~(ambiguous.ravel()[par.ravel()] | ambiguous.ravel()[chi.ravel()])
        ok &= ~odd | clear
        return par.ravel()[ok], chi.ravel()[ok]

    e1, e2 = links(flat[:, :-1], flat[:, 1:], cross_east[:, :-1])
    s1, s2 = links(flat[:-1, :], flat[1:, :], cross_south[:-1, :])
    rows = np.concatenate([e1, s1])
    cols = np.concatenate([e2, s2])
    n = G * G
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, lab = connected_components(adj, directed=False)
    lab_masked = lab.reshape(G, G)
    # no species component is compactly contained in the disk, so grid
    # components that never reach the rim are nodal-band debris, not species
    h = 2.0 / G
    cax = -1.0 + (np.arange(G) + 0.5) * h
    X, Y = np.meshgrid(cax, cax)
    rim = mask & (np.hypot(X, Y) > 1.0 - 3.0 * h)
    touching = set(np.unique(lab_masked[rim]).tolist())
    vals, counts_ = np.unique(lab_masked[mask], return_counts=True)
    big_enough = {int(v) for v, k in zip(vals, counts_) if k >= 6}
    used = [int(v) for v in vals if int(v) in touching and int(v) in big_enough]
    labels = np.zeros((G, G), dtype=np.int32)
    remap = {v: i + 1 for i, v in enumerate(sorted(used))}
    for v, i in remap.items():
        labels[(lab_masked == v) & mask] = i
    return labels, len(used)


def reconstruct(f: RationalFactored, base, resolution: int = 256,
                tol: float | None = None) -> SegregatedState:
    """Sampled state U = |Re F| with species labels and critical points.

    Requires Re F to vanish at the odd zeros (otherwise |Re F| has no
    continuous extension across the cuts and the state does not exist).
    Critical points come from the exact root list filtered by the residual
    test, never from the grid.
    """
    base = complex(base)
    slit = build_slit_disk(f, base)
    eng = PathEngine(f, slit)
    rep = admissibility(f, base, tol, engine=eng)
    scale, tol_adm = rep.scale, rep.tolerance
    orders = [m for _, m in f.interior_roots]
    odd_res = [zv for zv, m in zip(rep.residuals, orders) if m % 2 == 1]
    bad = [(z, v) for z, v in odd_res if v > tol_adm]
    if bad:
        raise NotAdmissible(f"Re F does not vanish at odd zeros: {bad}")

    Z, inside, sre, cross_east, cross_south = _fill_grid(f, eng, resolution)
    u = np.abs(sre)

    crit = tuple(
        (z, m, m + 2)
        for (z, v), m in zip(rep.residuals, orders)
        if v <= tol_adm
    )
    thr = SPECIES_REL_THRESHOLD * max(scale, 1e-300)
    c = -1.0 + (np.arange(resolution) + 0.5) * (2.0 / resolution)
    X, Y = np.meshgrid(c, c)
    grad_scale = (2.0 / resolution) * np.sqrt(np.abs(f.eval(X + 1j * Y)))
    species, n_species = _label_species(
        u, sre, inside, cross_east, cross_south, thr, grad_scale
    )

    return SegregatedState(
        f=f, base=base, slit=slit, resolution=resolution,
        u=u, sre=sre, inside=inside, species=species, n_species=n_species,
        criticals=crit, residuals=tuple(odd_res), scale=scale, engine=eng,
        cross_east=cross_east, cross_south=cross_south,
    )


def multiplicity_at(state: SegregatedState, z) -> int:
    """2 + ord(f; z) for nodal points (the zero order is exact by storage)."""
    z = complex(z)
    if abs(state.engine.F(z).real) > 1e-6 * max(state.scale, 1e-300):
        raise NotOnNodalSet(f"U({z}) != 0")
    return 2 + order_at(state.f, z)


def local_exponent(state: SegregatedState, z, radii, n_angles: int = 96) -> float:
    """Least-squares slope of log max_theta U(z + r e^{i theta}) vs log r.

    The angular maximum of the leading r^{m/2} |cos(m/2 (theta+theta_0))|
    profile is insensitive to theta_0 once the angles resolve one period.
    """
    z = complex(z)
    m = 2 + order_at(state.f, z)
    if n_angles < 8 * max(1, m // 2):
        raise GridTooCoarse("angular sampling cannot resolve the profile maximum")
    logr = []
    logu = []
    for r in radii:
        th = 2.0 * np.pi * np.arange(n_angles) / n_angles
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
    if state.resolution < 128:
        raise ValueError("energy requires resolution >= 128")
    G = state.resolution
    h = state.h
    s = state.sre
    inside = state.inside
    c = state.cell_centers
    X, Y = np.meshgrid(c, c)

    def neighbor(axis, step):
        """Signed-corrected neighbor field and validity mask."""
        v = np.full_like(s, np.nan)
        ok = np.zeros_like(inside)
        if axis == 0 and step == 1:
            v[:, :-1] = s[:, 1:] * np.where(state.cross_east[:, :-1] % 2 == 1, -1.0, 1.0)
            ok[:, :-1] = inside[:, 1:]
        elif axis == 0 and step == -1:
            v[:, 1:] = s[:, :-1] * np.where(state.cross_east[:, :-1] % 2 == 1, -1.0, 1.0)
            ok[:, 1:] = inside[:, :-1]
        elif axis == 1 and step == 1:
            v[:-1, :] = s[1:, :] * np.where(state.cross_south[:-1, :] % 2 == 1, -1.0, 1.0)
            ok[:-1, :] = inside[1:, :]
        else:
            v[1:, :] = s[:-1, :] * np.where(state.cross_south[:-1, :] % 2 == 1, -1.0, 1.0)
            ok[1:, :] = inside[:-1, :]
        return v, ok

    def gradient(axis):
        vp, okp = neighbor(axis, 1)
        vm, okm = neighbor(axis, -1)
        g = np.zeros_like(s)
        central = okp & okm
        g[central] = (vp[central] - vm[central]) / (2 * h)
        fwd = okp & ~okm
        g[fwd] = (vp[fwd] - s[fwd]) / h
        bwd = okm & ~okp
        g[bwd] = (s[bwd] - vm[bwd]) / h
        return g

    gx = gradient(0)
    gy = gradient(1)

    w = inside.astype(float)
    rim = np.abs(np.hypot(X, Y) - 1.0) < 1.5 * h
    sub = (np.arange(4) + 0.5) / 4 - 0.5
    SX, SY = np.meshgrid(sub, sub)
    for iy, ix in zip(*np.nonzero(rim)):
        px = X[iy, ix] + SX * h
        py = Y[iy, ix] + SY * h
        w[iy, ix] = np.mean(px * px + py * py < 1.0)
    dens = 0.5 * (gx * gx + gy * gy)
    dens[~inside] = 0.0
    return float(np.sum(dens * w) * h * h)


def hopf_l1(f: RationalFactored, n_r: int = 128, n_th: int = 512) -> float:
    """2 * int_D |f|, by polar Gauss-Legendre x trapezoid quadrature."""
    x, wgt = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * wgt
    th = 2.0 * np.pi * np.arange(n_th) / n_th
    Zp = r[:, None] * np.exp(1j * th[None, :])
    vals = np.abs(f.eval(Zp)) * r[:, None]
    return float(2.0 * (2.0 * np.pi / n_th) * np.sum(vals @ np.ones(n_th) * wr))


def export_grid_csv(state: SegregatedState, path):
    """CSV x,y,u,species, row-major over inside cells, 17 significant digits."""
    c = state.cell_centers
    lines = ["x,y,u,species"]
    for iy in range(state.resolution):
        for ix in range(state.resolution):
            if not state.inside[iy, ix]:
                continue
            lines.append(
                f"{c[ix]:.17g},{c[iy]:.17g},{state.u[iy, ix]:.17g},{state.species[iy, ix]}"
            )
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
