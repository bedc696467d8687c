"""The primitive F(z) = 2 * int f^{1/2} on the slit disk.

All integrations are anchored at a fixed reference point z_ref (never a root,
never on a cut) where the square root takes its principal value.  Values are
then F(target) - F(base), which both fixes one global determination per slit
system and lets paths start at a point where the branch is well defined even
when the base itself is a zero of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet, Unreachable
from .quadrature import SqrtSegmentIntegrator
from .rational import RationalFactored
from .slits import GOLDEN_ANGLE, SlitDisk, point_segment_distance, route_path

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
        self._F_base, _, self._base_err = self._raw(slit.base)
        self._scale = None

    # -- reference-anchored raw primitive -----------------------------------

    def _key(self, z: complex):
        return (round(z.real, 14), round(z.imag, 14))

    def _raw(self, target):
        """(2 * int_{z_ref}^{target} f^{1/2}, sheet value at target, err).

        Targets landing exactly on a cut interior are evaluated one-sided
        (counterclockwise nudge); |Re F| is continuous there whenever the
        admissibility condition holds, so consumers of U never notice.
        """
        target = complex(target)
        key = self._key(target)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.slit.on_cut_interior(target):
            for c in self.slit.cuts:
                if abs(target - c.anchor) > 1e-12 and \
                        abs(target - c.anchor) <= c.length + 1e-12:
                    if point_segment_distance(target, c.anchor, c.end) <= 1e-12:
                        target = target + 1e-9j * c.direction
                        break
        wps = route_path(self.slit, self.f, self.z_ref, target)
        total = 0.0 + 0.0j
        err = 0.0
        v = self.v_ref
        n_seg = max(1, len(wps) - 1)
        for a, b in zip(wps[:-1], wps[1:]):
            val, e, v = self._integ.integrate(a, b, v, tol=self.tol / n_seg)
            total += val
            err += e
        res = (2.0 * total, v, 2.0 * err)
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

    def primitive(self, target, tol=None) -> PrimitiveValue:
        if self.slit.on_cut_interior(target):
            raise Unreachable(f"target {target} lies strictly inside a cut")
        if tol is not None and tol < self.tol:
            raise ToleranceNotMet("engine built with a looser tolerance than requested")
        raw, v, err = self._raw(target)
        if v == 0:
            sheet = 0
        else:
            principal = np.sqrt(self.f.eval(target))
            sheet = 1 if abs(v - principal) <= abs(v + principal) else -1
        total_err = err + self._base_err
        want = self.tol if tol is None else tol
        if total_err > 10 * want:
            raise ToleranceNotMet(f"estimated error {total_err} above tolerance {want}")
        return PrimitiveValue(value=raw - self._F_base, sheet_end=sheet, est_error=total_err)

    # -- boundary trace ------------------------------------------------------

    def boundary_values(self, samples: int):
        """F at equispaced boundary angles, marching along boundary chords.

        Chords between consecutive samples are homotopic to the boundary arcs
        (all roots sit well inside), so the march only needs a fresh routed
        value when a cut meets the boundary inside the current gap.
        """
        if samples < 16:
            raise ValueError("need at least 16 boundary samples")
        th = 2.0 * np.pi * np.arange(samples) / samples
        cut_angles = sorted(np.angle(c.end) % (2 * np.pi) for c in self.slit.cuts)

        def gap_has_cut(a, b):
            # does any cut angle lie in (a, b], working mod 2*pi
            return any(1e-12 < (ca - a) % (2 * np.pi) <= (b - a) % (2 * np.pi)
                       for ca in cut_angles)

        pts = np.exp(1j * th)
        # nudge samples that sit exactly on a cut end: evaluate one-sided (ccw)
        for i, t in enumerate(th):
            for ca in cut_angles:
                if abs((t - ca + np.pi) % (2 * np.pi) - np.pi) < 1e-9:
                    pts[i] = np.exp(1j * (t + 1e-9))
        out = np.empty(samples, dtype=complex)
        raw, v, _ = self._raw(pts[0])
        out[0] = raw
        for i in range(1, samples):
            if gap_has_cut(th[i - 1], th[i]) or v == 0:
                raw, v, _ = self._raw(pts[i])
            else:
                val, _, v = self._integ.integrate(pts[i - 1], pts[i], v, tol=self.tol)
                raw = raw + 2.0 * val
            out[i] = raw
        return th, out - self._F_base

    def boundary_scale(self, samples: int = 32) -> float:
        if self._scale is None:
            _, vals = self.boundary_values(samples)
            self._scale = float(np.max(np.abs(vals)))
        return self._scale
