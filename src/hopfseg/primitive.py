"""The primitive F(z) = 2 * int f^{1/2} on the slit disk.

All integrations are anchored at a fixed reference point z_ref (never a root,
never on a cut) where the square root takes its principal value.  Values are
then F(target) - F(base), which both fixes one global determination per slit
system and lets paths start at a point where the branch is well defined even
when the base itself is a zero of f.

The rim is handled here too, by the one march that also finds the seeds
round a critical point (nodal): circle_march integrates all the chords of a
circle in one batch and composes them from one value at angle 0, and
circle_zeros refines each sign change of Re F by Newton steps kept in its
sample gap (rtsafe), on values integrated along the chord from the sample
before it.  The rim march starts from one routed value at 1 and never
restarts: where f is admissible, continuing F across the cut of an odd zero
flips the sign of Re F and nothing else, so the march needs no cut ends.
One memoised march per sample count gives the boundary values of F, the
boundary scale, and the boundary zeros of Re F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet, Unreachable
from .quadrature import SqrtSegmentIntegrator, branch_sign, rtsafe
from .rational import RationalFactored
from .slits import GOLDEN_ANGLE, SlitDisk, route_between

_REF_CANDIDATES = (
    0.3722 + 0.1107j,
    -0.2613 + 0.3461j,
    0.1291 - 0.4222j,
    -0.4027 - 0.2154j,
    0.0533 + 0.5411j,
    0.5348 - 0.0729j,
    -0.1294 - 0.5037j,
)


def pick_reference(f: RationalFactored, slit: SlitDisk) -> complex:
    """Deterministic reference point clear of roots and cuts."""

    def ok(z, root_gap, cut_gap):
        if abs(z) > 0.85:
            return False
        if f.min_root_distance(z) < root_gap:
            return False
        return slit.distance_to_cuts(z) >= cut_gap

    for z in _REF_CANDIDATES:
        if ok(z, 0.04, 0.01):
            return z
    for k in range(1, 800):
        rho = 0.12 + 0.7 * ((k * 0.6180339887498949) % 1.0)
        z = rho * np.exp(1j * GOLDEN_ANGLE * k)
        if ok(z, 0.02, 0.005):
            return z
    raise Unreachable("no reference point found (pathological root clustering)")


@dataclass(frozen=True)
class PrimitiveValue:
    value: complex
    sheet_end: int
    est_error: float


class PathEngine:
    """Caches routing and reference-anchored values of F for one (f, slit)."""

    def __init__(self, f: RationalFactored, slit: SlitDisk, tol: float = 1e-10):
        if tol < 1e-12:
            raise ValueError("tolerance below 1e-12 is not supported")
        self.f = f
        self.slit = slit
        self.tol = tol
        self.z_ref = pick_reference(f, slit)
        self.v_ref = complex(np.sqrt(f.eval(self.z_ref)))
        self._integ = SqrtSegmentIntegrator(f, tol)
        self._cache: dict = {}
        self._marches: dict = {}
        self._base_err = 0.0     # _raw checks the base's own value alone
        self._F_base, _, self._base_err = self._raw(slit.base)

    @property
    def integrals(self) -> int:
        """Single-segment integrals so far (boundary-zero refinement)."""
        return self._integ.integrals

    # -- reference-anchored raw primitive -----------------------------------

    def _key(self, z: complex):
        return (round(z.real, 14), round(z.imag, 14))

    def _raw(self, target):
        """(2 * int_{z_ref}^{target} f^{1/2}, sheet value at target, err).

        The integral runs along slits.route_between's polyline as it comes,
        each leg at tol / (legs); the kernel refines a leg near the roots it
        passes.  Every routed value passes one check: ToleranceNotMet where
        err, with the base's, exceeds 10 tol.  A target on a cut takes the
        value of its counterclockwise side, from which slits.crosses lets the
        route arrive; |Re F| is continuous there whenever the admissibility
        condition holds, so consumers of U never notice.
        """
        target = complex(target)
        key = self._key(target)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        wps = route_between(self.slit, self.z_ref, target)
        vals, errs, v = self._integ.segments(wps[:-1], wps[1:], self.v_ref,
                                             tol=self.tol / max(1, len(wps) - 1), chained=True)
        err = 2.0 * float(errs.sum())
        if err + self._base_err > 10 * self.tol:
            raise ToleranceNotMet(f"estimated error {err + self._base_err} at {target} "
                                  f"above tolerance {self.tol}")
        res = (2.0 * complex(vals.sum()), v[-1] if len(v) else self.v_ref, err)
        if len(self._cache) < 4096:
            self._cache[key] = res
        return res

    # -- public values ----------------------------------------------------------

    def F(self, target) -> complex:
        raw, _, _ = self._raw(target)
        return raw - self._F_base

    def value_and_sqrt(self, target):
        """(F(target) - F(base), continued f^{1/2} at target)."""
        raw, v, _ = self._raw(target)
        return raw - self._F_base, v

    def primitive(self, target) -> PrimitiveValue:
        if self.slit.on_cut_interior(target):
            raise Unreachable(f"target {target} lies strictly inside a cut")
        raw, v, err = self._raw(target)
        sheet = 0 if v == 0 else int(branch_sign(v, np.sqrt(self.f.eval(target))))
        return PrimitiveValue(value=raw - self._F_base, sheet_end=sheet,
                              est_error=err + self._base_err)

    # -- the rim -------------------------------------------------------------

    def _march(self, samples: int):
        """circle_march round the rim from the routed value at 1, memoised per
        sample count; its values are anchored at z_ref, as _raw's are.

        Chords between consecutive samples are homotopic to the boundary arcs
        (all roots sit well inside, unit factors well outside, so no sample
        is a root).
        """
        hit = self._marches.get(samples)
        if hit is None:
            if samples < 16:
                raise ValueError("need at least 16 boundary samples")
            raw, v, _ = self._raw(1.0)
            hit = self._marches[samples] = circle_march(self._integ, 0.0, 1.0, samples, raw, v)
        return hit

    def boundary_values(self, samples: int):
        """F at equispaced boundary angles, continued along the rim from angle 0.

        Past a cut end the continued F may differ from the slit
        determination; |Re F| does not, to within the admissibility residual.
        """
        th, _, raws, _ = self._march(samples)
        return th[:samples].copy(), raws[:samples] - self._F_base

    def boundary_scale(self) -> float:
        return float(np.max(np.abs(self.boundary_values(32)[1])))

    def boundary_zeros(self, samples: int):
        """Increasing angles in [0, 2*pi) where Re F changes sign along the rim,
        refined to 1e-13 (circle_zeros)."""
        th, pts, raws, roots = self._march(samples)
        return [t for t, _ in circle_zeros(self._integ, 0.0, 1.0, th, pts, raws - self._F_base,
                                           roots, 1e-13)]


# -- one march round a circle, and the zeros of Re F on it -------------------------


def circle_march(integ, center, radius, samples, F0, v0):
    """(angles, points, F, carried f^{1/2}) at the samples + 1 equispaced points
    of the circle |w - center| = radius, from angle 0 through one full turn,
    where F is F0 and f^{1/2} is v0 at angle 0.

    All chords are integrated in one batch (integ.chords) and composed from
    (F0, v0): a chord from the root s*p at its start adds s*D and carries
    s*sigma*p to its end.  No sample may be a root.
    """
    th = 2.0 * np.pi * np.arange(samples + 1) / samples
    pts = center + radius * np.exp(1j * th)
    D, sigma = integ.chords(pts[:-1], pts[1:])
    p = np.sqrt(integ.f.eval(pts))
    s = branch_sign(v0, p[0]) * np.cumprod(np.concatenate(([1.0], sigma)))
    return th, pts, np.cumsum(np.concatenate(([F0], s[:-1] * D))), s * p


def chord_value(integ, center, radius, z, Fz, vz, t, tol=None):
    """(F, f^{1/2}) at angle t of the circle, along the chord from its point z,
    where F is Fz and f^{1/2} is vz."""
    val, _, v = integ.integrate(z, center + radius * np.exp(1j * t), vz, tol=tol)
    return Fz + 2.0 * val, v


def circle_zeros(integ, center, radius, th, pts, F, roots, xtol, tol=None):
    """(angle, k) for each zero of Re F along a circle march, in increasing
    angle in [0, 2*pi), with k the sample before it.

    A sample where Re F is exactly 0 is a zero.  Each sign change between
    samples k and k + 1 is refined to xtol by Newton steps kept in its gap
    (rtsafe), on values along the chord from sample k continuing its root
    (chord_value, at tolerance tol), with the slope
    dRe F/dtheta = Re(2 i (w - center) f^{1/2}(w)).  Where f is admissible,
    continuing F across the cut of an odd zero z_j maps it to 2 F(z_j) - F,
    so Re F only changes sign there, and its sign changes along the march
    are the zeros of U.  Zeros closer than half a sample gap, round the
    circle, are one zero.
    """
    re = F.real
    zeros = []
    for k in range(len(th) - 1):
        if re[k] == 0.0:
            zeros.append((th[k], k))
        elif re[k] * re[k + 1] <= 0.0:
            def value(t, k=k):
                Fw, v = chord_value(integ, center, radius, pts[k], F[k], roots[k], t, tol)
                return Fw.real, (2j * radius * np.exp(1j * t) * v).real

            t = rtsafe(value, th[k], th[k + 1], re[k], re[k + 1], xtol)
            zeros.append((t % (2 * np.pi), k))
    half_gap = np.pi / (len(th) - 1)
    merged = []
    for z in sorted(zeros):
        if not merged or z[0] - merged[-1][0] >= half_gap:
            merged.append(z)
    if len(merged) >= 2 and merged[0][0] + 2 * np.pi - merged[-1][0] < half_gap:
        merged.pop()
    return merged
