"""Reference computations the benchmark checks hopfseg's outputs against.

Nothing here calls hopfseg: the closed forms, the CSV re-analysis and the
mpmath primitive are computed apart from the program, so a fault in the
program cannot hide in its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.spatial import cKDTree

MP_DPS = 30


# -- closed-form states F = c z^p (base at the origin) ---------------------------


@dataclass(frozen=True)
class ClosedForm:
    """U = |Re(coeff * z^power)|, whose nodal set is rays from the origin."""

    coeff: float
    power: float
    rays: tuple          # angles of the nodal rays, ascending in [0, 2 pi)
    energy: float        # (1/2) int |grad U|^2 = 2 int_D |f|

    def u(self, x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        return self.coeff * r**self.power * np.abs(np.cos(self.power * th))

    def ray_distance(self, x, y):
        """Euclidean distance from (x, y) to the union of the nodal rays."""
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        d = np.full(np.shape(r), np.inf)
        for a in self.rays:
            delta = np.abs((th - a + np.pi) % (2 * np.pi) - np.pi)
            d = np.minimum(d, np.where(delta < 0.5 * np.pi, r * np.sin(delta), r))
        return d

    def domain(self, x, y):
        """Index of the sector between consecutive rays containing (x, y)."""
        th = (np.arctan2(y, x) - self.rays[0]) % (2 * np.pi)
        rel = np.array([(a - self.rays[0]) % (2 * np.pi) for a in self.rays])
        return np.searchsorted(rel, th, side="right") - 1

    def ray_points(self, spacing):
        pts = []
        n = int(math.ceil(1.0 / spacing)) + 1
        r = np.linspace(0.0, 1.0, n)
        for a in self.rays:
            pts.append(np.stack([r * math.cos(a), r * math.sin(a)], axis=1))
        return np.concatenate(pts)


# f = 1/4: F = z.  f = z^2/4: F = z^2/2.  f = z^3/4: F = (2/5) z^{5/2}.
CLOSED_FORMS = {
    "one": ClosedForm(1.0, 1.0, (0.5 * np.pi, 1.5 * np.pi), 0.5 * np.pi),
    "z2": ClosedForm(0.5, 2.0, tuple(np.pi / 4 + k * np.pi / 2 for k in range(4)), 0.25 * np.pi),
    "z3": ClosedForm(0.4, 2.5, tuple(np.pi / 5 + 2 * k * np.pi / 5 for k in range(5)), 0.2 * np.pi),
}


# -- CSV artifacts ----------------------------------------------------------------


def load_cell_csv(path, resolution):
    """Read an `x,y,...` cell CSV into (G, G) planes; cells absent are NaN.

    Returns (columns, planes) with planes[k][iy, ix] the k-th value column.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    G = resolution
    h = 2.0 / G
    ix = np.rint((data[:, 0] + 1.0) / h - 0.5).astype(int)
    iy = np.rint((data[:, 1] + 1.0) / h - 0.5).astype(int)
    planes = np.full((data.shape[1] - 2, G, G), np.nan)
    planes[:, iy, ix] = data[:, 2:].T
    return header[2:], planes


def cell_centres(resolution):
    c = -1.0 + (np.arange(resolution) + 0.5) * (2.0 / resolution)
    return np.meshgrid(c, c)


def grid_vs_closed_form(planes, form: ClosedForm, resolution):
    """(max |u - U|, labels matching the closed-form domains one to one).

    Cells within two cells of the nodal rays, or of the origin, carry no
    trustworthy label on any grid and are left out of the label test.
    """
    X, Y = cell_centres(resolution)
    u, species = planes[0], planes[1]
    inside = ~np.isnan(u)
    err = float(np.max(np.abs(u[inside] - form.u(X[inside], Y[inside]))))
    h = 2.0 / resolution
    clear = inside & (species > 0) & (form.ray_distance(X, Y) > 2 * h) & (np.hypot(X, Y) > 3 * h)
    pairs = set(zip(species[clear].astype(int).tolist(), form.domain(X[clear], Y[clear]).tolist()))
    labels = {a for a, _ in pairs}
    domains = {b for _, b in pairs}
    bijective = len(pairs) == len(labels) == len(domains) == len(form.rays)
    return err, bijective


# -- diffusion fields ---------------------------------------------------------------


def interface_points(u, resolution):
    """Midpoints between 4-neighbour cells whose largest species differ."""
    G = resolution
    h = 2.0 / G
    c = -1.0 + (np.arange(G) + 0.5) * h
    inside = ~np.isnan(u[0])
    uu = np.where(inside[None], u, 0.0)
    live = inside & (uu.sum(axis=0) > 1e-12)
    arg = np.argmax(uu, axis=0)
    pts = []
    # neighbours along x (columns) and along y (rows)
    diff = (arg[:, :-1] != arg[:, 1:]) & live[:, :-1] & live[:, 1:]
    iy, ix = np.nonzero(diff)
    pts.append(np.stack([0.5 * (c[ix] + c[ix + 1]), c[iy]], axis=1))
    diff = (arg[:-1, :] != arg[1:, :]) & live[:-1, :] & live[1:, :]
    iy, ix = np.nonzero(diff)
    pts.append(np.stack([c[ix], 0.5 * (c[iy] + c[iy + 1])], axis=1))
    return np.concatenate(pts)


def interface_distance_cells(u, form: ClosedForm, resolution):
    """Symmetric Hausdorff distance, in cells, from the argmax interface to
    the closed-form nodal rays."""
    h = 2.0 / resolution
    a = interface_points(u, resolution)
    if len(a) == 0:
        return np.inf
    d_ab = float(np.max(form.ray_distance(a[:, 0], a[:, 1])))
    b = form.ray_points(0.25 * h)
    d_ba = float(np.max(cKDTree(a).query(b)[0]))
    return max(d_ab, d_ba) / h


def segregation_defect(u, resolution):
    """int sum_{j<k} u_j u_k over the inside cells."""
    h = 2.0 / resolution
    inside = ~np.isnan(u[0])
    tot = u[:, inside].sum(axis=0)
    cross = 0.5 * (tot * tot - (u[:, inside] ** 2).sum(axis=0))
    return float(cross.sum() * h * h)


def sweep_residual(u, mu, resolution):
    """Largest Gauss-Seidel update the fields still call for.

    The discrete residual r_j = Delta_h u_j - mu u_j sum_{k != j} u_k on
    cells whose four neighbours are inside, divided by the diagonal of the
    cell equation: the change one more sweep would make, which the solver
    promises to bring below its tolerance.
    """
    h = 2.0 / resolution
    inside = ~np.isnan(u[0])
    core = np.zeros_like(inside)
    core[1:-1, 1:-1] = (inside[1:-1, 1:-1] & inside[:-2, 1:-1] & inside[2:, 1:-1]
                        & inside[1:-1, :-2] & inside[1:-1, 2:])
    tot = np.nansum(u, axis=0)
    worst = 0.0
    for uj in u:
        nb = np.zeros_like(uj)
        nb[1:-1, 1:-1] = uj[:-2, 1:-1] + uj[2:, 1:-1] + uj[1:-1, :-2] + uj[1:-1, 2:]
        others = tot - uj
        r = nb - 4.0 * uj - mu * h * h * uj * others
        upd = np.abs(r[core]) / (4.0 + mu * h * h * others[core])
        worst = max(worst, float(upd.max()))
    return worst


# -- mpmath primitive ---------------------------------------------------------------


def _factors(f):
    """(location, exponent) for every factor of f, square root taken: n/2."""
    out = [(complex(z), 0.5 * m) for z, m in f.interior_roots]
    out += [(complex(z), 0.5 * m) for z, m in f.unit_num]
    out += [(complex(z), -0.5 * m) for z, m in f.unit_den]
    return out


def _polyline(f, a, b):
    """Straight segment a -> b, bent once around any interior root it grazes.

    |Re F| at admissible points does not depend on the path, so the detour
    only has to keep the factor-wise logarithms continuous.
    """
    d = b - a
    for r, _ in f.interior_roots:
        r = complex(r)
        if abs(r - a) < 1e-14 or abs(r - b) < 1e-14:
            continue
        t = ((r - a) * d.conjugate()).real / abs(d) ** 2
        if 0.0 < t < 1.0 and abs(a + t * d - r) < 1e-6:
            off = 1e-3 * abs(d) * 1j * d / abs(d)
            return [a, a + t * d + off, b]
    return [a, b]


def primitive_mp(f, a, b):
    """2 * int_a^b f^{1/2} dz at MP_DPS digits, as an mpmath complex.

    The square root is the product of the factors (z - r)^{n/2}.  A factor
    of even order is a plain power; one of odd order is continued along the
    path through its own logarithm
    log(z - r) = log(z_0 - r) + Log(1 + t (z_1 - z_0) / (z_0 - r)),
    which is exact on a straight segment that does not pass through r.
    """
    with mpmath.workdps(MP_DPS):
        facs = [(mpmath.mpc(r), mpmath.mpf(e)) for r, e in _factors(f)]
        whole = [(r, int(e)) for r, e in facs if e == int(e)]
        half = [(r, e) for r, e in facs if e != int(e)]
        half_log_lead = mpmath.log(mpmath.mpc(f.leading)) / 2
        logs = [None] * len(half)      # continued log(z - r) at the current vertex
        total = mpmath.mpc(0)
        path = _polyline(f, complex(a), complex(b))
        for z0, z1 in zip(path[:-1], path[1:]):
            z0 = mpmath.mpc(z0)
            z1 = mpmath.mpc(z1)
            d = z1 - z0
            terms = []              # (k, exponent, log at start or None, w)
            for k, (r, e) in enumerate(half):
                if abs(z0 - r) < mpmath.mpf(10) ** (-14):
                    # the path leaves a root: z - r = t d exactly
                    terms.append((k, e, None, mpmath.log(d)))
                    continue
                if logs[k] is None:
                    logs[k] = mpmath.log(z0 - r)
                terms.append((k, e, logs[k], d / (z0 - r)))

            def integrand(t, z0=z0, d=d, terms=terms):
                z = z0 + t * d
                s = half_log_lead
                for _, e, lg, w in terms:
                    if lg is None:
                        s += e * (mpmath.log(t) + w)
                    else:
                        s += e * (lg + mpmath.log(1 + t * w))
                v = mpmath.exp(s)
                for r, n in whole:
                    v *= (z - r) ** n
                return v

            splits = [mpmath.mpf(0)]
            for r, _ in facs:
                t = mpmath.re((r - z0) * mpmath.conj(d)) / abs(d) ** 2
                if 0 < t < 1 and abs(z0 + t * d - r) < abs(d) / 4:
                    splits.append(t)
            splits = sorted(splits) + [mpmath.mpf(1)]
            total += d * mpmath.quad(integrand, splits)
            for k, e, lg, w in terms:
                if lg is None:
                    logs[k] = w
                elif 1 + w != 0:
                    logs[k] = lg + mpmath.log(1 + w)
                else:
                    logs[k] = None      # the segment ends on this root
        return 2 * total


def re_f_at_zeros(f):
    """(max_k |Re F(z_k)|, scale): Re F at every interior zero relative to the
    first one, and max |F(1)|, |F(-1)| for scale."""
    zeros = [complex(z) for z, _ in f.interior_roots]
    base = zeros[0]
    worst = max((abs(float(mpmath.re(primitive_mp(f, base, z)))) for z in zeros[1:]),
                default=0.0)
    scale = max(abs(complex(primitive_mp(f, base, w))) for w in (1.0, -1.0))
    return worst, scale
