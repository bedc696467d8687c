"""The primitive F(z) = 2 * int f^{1/2} on the slit disk.

All integrations are anchored at a fixed reference point z_ref (never a root,
never on a cut) where the square root takes its principal value.  Values are
then F(target) - F(base), which both fixes one global determination per slit
system and lets paths start at a point where the branch is well defined even
when the base itself is a zero of f.

The rim is handled here too: one memoised march per sample count gives the
boundary values of F, the boundary scale, and the boundary zeros of Re F.
The march integrates all its chords in one batch and composes them along
each run of chords between cut ends; each zero is refined by Newton steps
kept in its sample gap (rtsafe), on values integrated along a chord from the
march's own samples rather than by fresh routed paths, with the slope
dRe F/dtheta = Re(2 i w f^{1/2}(w)) from the chord's end root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ToleranceNotMet, Unreachable
from .quadrature import SqrtSegmentIntegrator, branch_sign, rtsafe
from .rational import RationalFactored
from .slits import GOLDEN_ANGLE, SlitDisk, crosses, route_path

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

        A target on a cut takes the value of its counterclockwise side, from
        which slits.crosses lets the route arrive; |Re F| is continuous there
        whenever the admissibility condition holds, so consumers of U never
        notice.
        """
        target = complex(target)
        key = self._key(target)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        wps = route_path(self.slit, self.f, self.z_ref, target)
        vals, errs, v = self._integ.segments(wps[:-1], wps[1:], self.v_ref,
                                             tol=self.tol / max(1, len(wps) - 1), chained=True)
        res = (2.0 * complex(vals.sum()), v[-1] if len(v) else self.v_ref, 2.0 * float(errs.sum()))
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
        total_err = err + self._base_err
        if total_err > 10 * self.tol:
            raise ToleranceNotMet(f"estimated error {total_err} above tolerance {self.tol}")
        return PrimitiveValue(value=raw - self._F_base, sheet_end=sheet, est_error=total_err)

    # -- the rim -------------------------------------------------------------

    def _march(self, samples: int):
        """(angles, points, raw values, carried roots, cut ends per gap).

        Gap i runs from th[i] to the next sample, and holds a cut end exactly
        when its chord crosses that cut (slits.crosses: a sample on a cut end
        lies on its counterclockwise side, so the gap it ends holds the end).
        Chords between consecutive samples are homotopic to the boundary arcs
        (all roots sit well inside, unit factors well outside, so no sample
        is a root), so the march needs a fresh routed value only after a gap
        that holds a cut end.  Memoised per sample count.
        """
        hit = self._marches.get(samples)
        if hit is not None:
            return hit
        if samples < 16:
            raise ValueError("need at least 16 boundary samples")
        th = 2.0 * np.pi * np.arange(samples) / samples
        pts = np.exp(1j * th)
        nxt = np.roll(pts, -1)
        gap_cuts = [[] for _ in range(samples)]
        for c in self.slit.cuts:
            end = np.angle(c.end) % (2 * np.pi)
            for i in np.flatnonzero(crosses(pts, nxt, c.anchor, c.end)):
                gap_cuts[i].append(end + 2 * np.pi if end < th[i] else end)
        for cuts in gap_cuts:
            cuts.sort()
        # one batch of chords, composed along each run of gaps free of cut
        # ends: a chord from the root s*p at its start adds s*D and carries
        # s*sigma*p to its end; each run starts from a routed value
        D, sigma = self._integ.chords(pts[:-1], pts[1:])
        p = np.sqrt(self.f.eval(pts))
        starts = [0] + [i + 1 for i in range(samples - 1) if gap_cuts[i]]
        raws = np.empty(samples, dtype=complex)
        roots = np.empty(samples, dtype=complex)
        for lo, hi in zip(starts, starts[1:] + [samples]):
            raw, v, _ = self._raw(pts[lo])
            s = branch_sign(v, p[lo]) * np.cumprod(np.concatenate(([1.0], sigma[lo:hi - 1])))
            raws[lo:hi] = np.cumsum(np.concatenate(([raw], s[:-1] * D[lo:hi - 1])))
            roots[lo:hi] = s * p[lo:hi]
        hit = self._marches[samples] = (th, pts, raws, roots, gap_cuts)
        return hit

    def boundary_values(self, samples: int):
        """F at equispaced boundary angles, from the memoised boundary march."""
        th, _, raws, _, _ = self._march(samples)
        return th.copy(), raws - self._F_base

    def boundary_scale(self) -> float:
        return float(np.max(np.abs(self.boundary_values(32)[1])))

    def boundary_zeros(self, samples: int):
        """Increasing angles in [0, 2*pi) where Re F changes sign along the rim.

        Each gap of the march is split at the cut ends it holds (the sheet
        flips there without U vanishing).  Each sign change in a piece is
        refined by rtsafe to 1e-13, on values integrated along the chord from
        the sample on the same side of the gap's cut ends, continuing that
        sample's carried root; only a piece between two cut ends takes
        routed values.
        """
        th, pts, raws, roots, gap_cuts = self._march(samples)
        re = (raws - self._F_base).real

        def value(k, theta):
            """(Re F, dRe F/dtheta) at angle theta, along the chord from sample k
            (routed if None); F' = 2 f^{1/2} at the chord's end."""
            w = np.exp(1j * theta)
            if k is None:
                F, v = self.value_and_sqrt(w)
            else:
                val, _, v = self._integ.integrate(pts[k], w, roots[k])
                F = raws[k] + 2.0 * val - self._F_base
            return F.real, (2j * w * v).real

        zeros = []
        for i, cuts in enumerate(gap_cuts):
            j = (i + 1) % samples
            if re[i] == 0.0:
                zeros.append(th[i])
            pieces = [th[i]] + cuts + [th[j] if j else 2 * np.pi]
            for lo, hi in zip(pieces[:-1], pieces[1:]):
                if hi - lo < 3e-9:
                    continue
                lo_cut, hi_cut = lo in cuts, hi in cuts
                k = j if lo_cut else i
                if lo_cut and hi_cut:
                    k = None
                lo_in = lo + 1e-9 if lo_cut else lo
                hi_in = hi - 1e-9 if hi_cut else hi
                flo = value(k, lo_in)[0] if lo_cut else re[i]
                fhi = value(k, hi_in)[0] if hi_cut else re[j]
                if flo * fhi < 0:
                    zeros.append(rtsafe(partial(value, k), lo_in, hi_in, flo, fhi, 1e-13))
        half_gap = np.pi / samples
        merged = []
        for z in sorted(z % (2 * np.pi) for z in zeros):
            if not merged or z - merged[-1] >= half_gap:
                merged.append(z)
        if len(merged) >= 2 and (merged[0] + 2 * np.pi - merged[-1]) < half_gap:
            merged.pop()
        return merged
