"""Holomorphic functions on a neighborhood of the closed disk, in factored form.

A function is stored as

    f(z) = c * prod (z - r_i)^{n_i} * prod (z - u_j)^{m_j} / prod (z - d_k)^{p_k}

with interior roots r_i well inside the disk (|r| <= 1 - delta_bd) and the
unit factor roots u_j, d_k strictly outside (|u| >= 1 + delta_bd), so the unit
part never vanishes on a neighborhood of the closed disk.  Keeping roots
explicit makes zero orders exact integers instead of numerically detected
quantities, which the multiplicity bookkeeping downstream relies on.  One
rule, used by every module, says where a point is: z lies at the stored root
r when |z - r| < AT_ROOT_TOL, and at one root at most, as the constructor
keeps roots ROOT_MERGE_TOL apart.  Two stored roots are one only when equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mul

import numpy as np

from .errors import NonIntegerWinding, PoleHit, RootHit, RootOnContour

DELTA_BD_DEFAULT = 0.05
ROOT_MERGE_TOL = 1e-12       # stored roots lie this far apart (the constructor merges closer ones)
AT_ROOT_TOL = 1e-13          # z lies at r if |z - r| < this: under half the above, one r at most
CONTOUR_GUARD = 1e-6         # the least distance of a root from a winding contour


def _merge_roots(pairs, tol=ROOT_MERGE_TOL):
    """Merge roots closer than tol, or equal (multiplicities add); returns sorted tuple."""
    merged: list[list] = []
    for z, m in pairs:
        z = complex(z)
        m = int(m)
        if m < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
        for slot in merged:
            if slot[0] == z or abs(slot[0] - z) < tol:
                slot[1] += m
                break
        else:
            merged.append([z, m])
    merged.sort(key=lambda s: (s[0].real, s[0].imag))
    return tuple((z, m) for z, m in merged)


@dataclass(frozen=True)
class RationalFactored:
    """Factored rational function, holomorphic near the closed unit disk."""

    leading: complex
    interior_roots: tuple = ()
    unit_num: tuple = ()
    unit_den: tuple = ()
    delta_bd: float = DELTA_BD_DEFAULT

    def __post_init__(self):
        c = complex(self.leading)
        if not np.isfinite(c.real) or not np.isfinite(c.imag) or c == 0:
            raise ValueError("leading coefficient must be finite and nonzero")
        object.__setattr__(self, "leading", c)
        object.__setattr__(self, "interior_roots", _merge_roots(self.interior_roots))
        object.__setattr__(self, "unit_num", _merge_roots(self.unit_num))
        object.__setattr__(self, "unit_den", _merge_roots(self.unit_den))
        for z, _ in self.interior_roots:
            if abs(z) > 1.0 - self.delta_bd + 1e-15:
                raise ValueError(f"interior root {z} outside |z| <= {1 - self.delta_bd}")
        for z, _ in self.unit_num + self.unit_den:
            if abs(z) < 1.0 + self.delta_bd - 1e-15:
                raise ValueError(f"unit-factor root {z} inside |z| < {1 + self.delta_bd}")

    # -- structure helpers ---------------------------------------------------

    @property
    def total_interior_order(self) -> int:
        return sum(m for _, m in self.interior_roots)

    def min_root_distance(self, z) -> float:
        if not self.interior_roots:
            return np.inf
        z = np.asarray(z)
        d = np.full(z.shape, np.inf, dtype=float)
        for r, _ in self.interior_roots:
            d = np.minimum(d, np.abs(z - r))
        return d if d.shape else float(d)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Value of f at z (scalar or ndarray)."""
        scalar = np.isscalar(z) or getattr(z, "shape", None) == ()
        if scalar:
            for d, p in self.unit_den:
                if abs(complex(z) - d) < AT_ROOT_TOL:
                    raise PoleHit(f"evaluation at pole {d}")
        zz = np.asarray(z, dtype=complex)
        out = np.full(zz.shape, self.leading, dtype=complex)
        for r, m in self.interior_roots:
            out *= (zz - r) ** m
        for u, m in self.unit_num:
            out *= (zz - u) ** m
        for d, m in self.unit_den:
            out /= (zz - d) ** m
        return complex(out) if scalar else out

    def log_derivative(self, z):
        """f'(z)/f(z) as a partial-fraction sum."""
        scalar = np.isscalar(z) or getattr(z, "shape", None) == ()
        if scalar:
            for r, _ in self.interior_roots + self.unit_num:
                if abs(complex(z) - r) < AT_ROOT_TOL:
                    raise RootHit(f"log derivative at root {r}")
            for d, _ in self.unit_den:
                if abs(complex(z) - d) < AT_ROOT_TOL:
                    raise PoleHit(f"log derivative at pole {d}")
        zz = np.asarray(z, dtype=complex)
        out = np.zeros(zz.shape, dtype=complex)
        for r, m in self.interior_roots + self.unit_num:
            out += m / (zz - r)
        for d, m in self.unit_den:
            out -= m / (zz - d)
        return complex(out) if scalar else out

    def jet(self, z, K):
        """(rho, g, droot, [l_0, ..., l_{K-1}], f(z)) at the scalar z, in one pass.

        rho is half the distance from z to the nearest root or pole, and on
        |w - z| <= rho, |f(w)| <= g |f(z)|, as root factors grow by 3/2 and
        poles by 2 at most.  droot is the distance to the nearest interior root
        (min_root_distance).  l_k = (-1)^k sum n (z - r)^-(k+1) over roots r of
        order n, with poles entering with order -p, are the Taylor coefficients
        of L = f'/f: L(z + c) = sum l_k c^k.
        """
        z = complex(z)
        dmin = droot = np.inf
        g, ell, fz = 1.0, [0j] * K, self.leading
        for i, (r, n) in enumerate(self.interior_roots + self.unit_num
                                   + tuple((d, -p) for d, p in self.unit_den)):
            d = z - r
            if abs(d) < AT_ROOT_TOL:
                raise (RootHit if n > 0 else PoleHit)(f"log derivative at {r}")
            dmin = min(dmin, abs(d))
            droot = dmin if i < len(self.interior_roots) else droot  # they come first
            g *= 1.5 ** n if n > 0 else 2.0 ** -n
            fz *= d ** n
            ell = list(map(add, ell, accumulate(repeat(-1.0 / d, K - 1), mul, initial=n / d)))
        return 0.5 * dmin, g, droot, ell, fz

    def unit_log(self, z):
        """Analytic branch of log(c * unit_num / unit_den) on the closed disk.

        Each factor is written (z - u) = -u (1 - z/u); since |z/u| < 1 the
        principal log of (1 - z/u) is single valued there.
        """
        zz = np.asarray(z, dtype=complex)
        out = np.full(zz.shape, np.log(complex(self.leading)), dtype=complex)
        for u, m in self.unit_num:
            out += m * (np.log(-u) + np.log1p(-zz / u))
        for d, m in self.unit_den:
            out -= m * (np.log(-d) + np.log1p(-zz / d))
        return out if out.shape else complex(out)

    def unit_sqrt(self, z):
        """Single-valued square root of the nonvanishing unit part (incl. leading)."""
        return np.exp(0.5 * self.unit_log(z))

    def self_check(self) -> bool:
        """Interior zero count (with multiplicity) against the winding oracle."""
        radius = 1.0 - 0.5 * self.delta_bd
        return winding_count(self, 0.0, radius) == self.total_interior_order


# -- module-level operation surface  -------------------------------------


def rational(leading, roots=(), unit_num=(), unit_den=(), delta_bd=DELTA_BD_DEFAULT):
    """Convenience constructor; roots may be bare locations (mult 1) or pairs."""

    def norm(pairs):
        out = []
        for p in pairs:
            if isinstance(p, (tuple, list)):
                out.append((complex(p[0]), int(p[1])))
            else:
                out.append((complex(p), 1))
        return tuple(out)

    return RationalFactored(
        leading=leading,
        interior_roots=norm(roots),
        unit_num=norm(unit_num),
        unit_den=norm(unit_den),
        delta_bd=delta_bd,
    )


def monomial(coeff, order):
    """c * z^order."""
    return rational(coeff, roots=[(0.0, order)] if order else [])


def multiply(f: RationalFactored, g: RationalFactored) -> RationalFactored:
    """f * g with every root kept where f or g has it.

    The constructor merges roots closer than ROOT_MERGE_TOL, which would move a
    root of f onto a nearby root of g, so that h(z) != f(z) g(z) next to them;
    here only equal roots are merged, so h may hold roots closer than ROOT_MERGE_TOL.
    """
    h = RationalFactored(leading=f.leading * g.leading, delta_bd=min(f.delta_bd, g.delta_bd))
    for name in ("interior_roots", "unit_num", "unit_den"):
        object.__setattr__(h, name, _merge_roots(getattr(f, name) + getattr(g, name), tol=0.0))
    return h


def root_at(f: RationalFactored, z) -> tuple:
    """(r, multiplicity) of the stored interior root r that z lies at, or (z, 0)."""
    z = complex(z)
    return next(((r, m) for r, m in f.interior_roots if abs(r - z) < AT_ROOT_TOL), (z, 0))


def order_at(f: RationalFactored, z) -> int:
    """Multiplicity of the stored interior root that z lies at (0 if none)."""
    return root_at(f, z)[1]


def winding_count(f: RationalFactored, center, radius) -> int:
    """(1/2 pi i) * contour integral of f'/f over the circle, rounded to int.

    Trapezoid quadrature of the periodic analytic integrand converges
    geometrically; node count doubles until two consecutive estimates agree.
    """
    center = complex(center)
    radius = float(radius)
    clearance = []
    for r, _ in f.interior_roots + f.unit_num + f.unit_den:
        clearance.append(abs(abs(r - center) - radius))
    if clearance and min(clearance) < CONTOUR_GUARD:
        raise RootOnContour(f"root within {CONTOUR_GUARD} of the contour")

    prev = None
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        z = center + radius * np.exp(1j * th)
        vals = f.log_derivative(z) * (1j * radius * np.exp(1j * th))
        est = np.mean(vals) / 1j  # the 2*pi of dtheta and of 1/(2*pi*i) cancel
        if prev is not None and abs(est - prev) < 1e-10:
            break
        prev = est
    k = round(est.real)
    if abs(est - k) > 0.25:
        raise NonIntegerWinding(f"winding estimate {est} not near an integer")
    return int(k)
