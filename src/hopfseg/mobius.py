"""Disk automorphisms and the Hopf-differential pushforward.

phi_{alpha,theta}(z) = e^{i theta} (z + alpha) / (conj(alpha) z + 1) maps the
unit disk onto itself.  Composing a state with a disk automorphism transforms
its Hopf differential by the chain rule, f -> (f o phi) * (phi')^2, which
stays rational in factored form; the general-position search of the
desingularization pipeline lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RootTooCloseToBoundary, SearchExhausted
from .rational import RationalFactored
from .slits import GOLDEN_ANGLE, point_segment_distance, ray_exit, segment_segment_distance

GENERAL_POSITION_GAP = 1e-6


@dataclass(frozen=True)
class MobiusMap:
    alpha: complex
    theta: float = 0.0

    def __post_init__(self):
        if abs(self.alpha) >= 1.0:
            raise ValueError("|alpha| must be < 1")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))


def apply(m: MobiusMap, z):
    zz = np.asarray(z, dtype=complex)
    out = np.exp(1j * m.theta) * (zz + m.alpha) / (np.conj(m.alpha) * zz + 1.0)
    return complex(out) if out.shape == () else out


def invert(m: MobiusMap) -> MobiusMap:
    """The inverse automorphism, again in (alpha, theta) form.

    phi^{-1}(w) = e^{-i theta} (w - e^{i theta} alpha) / (1 - conj(alpha) e^{-i theta} w)
               = e^{i theta'} (w + alpha') / (conj(alpha') w + 1)
    with alpha' = -e^{i theta} alpha and theta' = -theta.
    """
    return MobiusMap(alpha=-np.exp(1j * m.theta) * m.alpha, theta=-m.theta)


def compose(outer: MobiusMap, inner: MobiusMap) -> MobiusMap:
    """The automorphism outer o inner."""
    e1 = np.exp(1j * inner.theta)
    a1, a2 = inner.alpha, outer.alpha
    beta = e1 + a2 * np.conj(a1)
    gamma = e1 * a1 + a2
    mu = np.conj(a2) * e1 * a1 + 1.0
    alpha = gamma / beta
    phase = np.exp(1j * outer.theta) * beta / mu
    theta = float(np.angle(phase))
    return MobiusMap(alpha=alpha, theta=theta)


def pushforward_hopf(f: RationalFactored, m: MobiusMap) -> RationalFactored:
    """Factored form of (f o phi_m) * (phi_m')^2.

    Each factor (phi(z) - r) rewrites as coeff * (z - phi^{-1}(r)) / (abar z + 1),
    and phi'(z) = e^{i theta}(1 - |alpha|^2) / (abar z + 1)^2, so the result is
    again rational with the Moebius denominator absorbed into the unit factors.
    """
    a = m.alpha
    ab = np.conj(a)
    eth = np.exp(1j * m.theta)
    lead = complex(f.leading) * eth**2 * (1.0 - abs(a) ** 2) ** 2
    den_pow = 4
    interior = []
    unit_num = []
    unit_den = []
    # a pole is a factor of power -mult
    factors = ([(r, mult, interior) for r, mult in f.interior_roots]
               + [(r, mult, unit_num) for r, mult in f.unit_num]
               + [(r, -mult, unit_den) for r, mult in f.unit_den])
    for r, power, bucket in factors:
        coeff = eth - r * ab
        if abs(coeff) < 1e-14:
            # r is the image of infinity; the factor becomes coeff'/(abar z + 1)
            lead *= (eth * a - r) ** power
            den_pow += power
            continue
        rho = complex(apply(invert(m), r))
        lead *= coeff**power
        den_pow += power
        if bucket is not interior and abs(rho) <= 1.0:
            kind = "pole" if power < 0 else "unit root"
            raise RootTooCloseToBoundary(f"{kind} {r} pulled into the disk")
        bucket.append((rho, abs(power)))

    # below |alpha| = 1e-12 the factor (abar z + 1)^p is 1 to within
    # |p| * 1e-12 on the disk and its bookkeeping (abar^p) would underflow,
    # so it is dropped; the roots above still move by the full map
    if abs(a) >= 1e-12 and den_pow != 0:
        # (abar z + 1)^p = abar^p (z - pole)^p with pole = -1/abar
        pole = -1.0 / ab
        lead /= ab**den_pow
        if den_pow > 0:
            unit_den.append((pole, den_pow))
        else:
            unit_num.append((pole, -den_pow))
    delta = f.delta_bd
    for rho, _ in interior:
        if abs(rho) > 1.0 - 0.5 * delta:
            raise RootTooCloseToBoundary(f"interior root pushed to |z| = {abs(rho):.6f}")
    margins = [abs(r) - 1.0 for r, _ in unit_num + unit_den]
    new_delta = min([delta] + [0.9 * g for g in margins if g < delta])
    if new_delta <= 1e-9:
        raise RootTooCloseToBoundary("pushed unit factors hug the boundary")
    return RationalFactored(
        leading=lead,
        interior_roots=tuple(interior),
        unit_num=tuple(unit_num),
        unit_den=tuple(unit_den),
        delta_bd=min(new_delta, 1.0 - max((abs(r) for r, _ in interior), default=0.0) - 1e-12)
        if interior
        else new_delta,
    )


def is_general_position(points, p0) -> bool:
    """Distinct distances from p0 and pairwise-disjoint outward half-lines.

    The half-line through p_j must also clear every other point of the
    configuration (it becomes a cut later on).  Gaps shrink proportionally
    for clustered configurations, where a fixed clearance would be
    structurally unsatisfiable.  Points equal to p0 are left out.
    """
    p0 = complex(p0)
    pts = [complex(p) for p in points if complex(p) != p0]
    dists = sorted(abs(p - p0) for p in pts)
    for d1, d2 in zip(dists[:-1], dists[1:]):
        if d2 - d1 < min(GENERAL_POSITION_GAP, 0.1 * d1):
            return False
    rays = [(p, ray_exit(p, (p - p0) / abs(p - p0))) for p in pts]
    for i in range(len(rays)):
        di = abs(pts[i] - p0)
        for j in range(i + 1, len(rays)):
            req = min(GENERAL_POSITION_GAP, 0.2 * min(di, abs(pts[j] - p0)))
            if segment_segment_distance(*rays[i], *rays[j]) < req:
                return False
        for k, q in enumerate(pts):
            if k == i:
                continue
            req = min(GENERAL_POSITION_GAP, 0.2 * min(di, abs(q - p0), abs(q - pts[i])))
            if point_segment_distance(q, *rays[i]) < req:
                return False
    return True


def make_general_position(points, p0) -> MobiusMap:
    """A disk automorphism putting the configuration in general position.

    Recentering phi_{-p0} sends p0 to the origin; then small alpha off the
    finitely many forbidden angles (bisectors of recentered argument pairs)
    make distances distinct and rays disjoint.  The search is deterministic:
    geometric growth in |alpha|, golden-angle stepping in its argument.
    """
    pts = [complex(p) for p in points]
    p0 = complex(p0)
    recenter = MobiusMap(alpha=-p0)
    q = [apply(recenter, p) for p in pts]
    candidate = recenter
    if is_general_position(q, 0.0):
        return candidate

    forbidden = []
    qs = [z for z in q if z != 0]
    for i in range(len(qs)):
        for j in range(i, len(qs)):
            forbidden.append(0.5 * (np.angle(qs[i]) + np.angle(qs[j])))
    tried = 0
    k = 0
    rho = 1e-3
    while tried < 10000:
        psi = (GOLDEN_ANGLE * k) % (2 * np.pi)
        k += 1
        if k % 97 == 0:
            rho = min(2 * rho, 0.45)
        bad = any(
            abs((psi - ang + 0.5 * np.pi) % np.pi - 0.5 * np.pi) < 1e-3 for ang in forbidden
        )
        if bad:
            continue
        tried += 1
        alpha = rho * np.exp(1j * psi)
        m = compose(MobiusMap(alpha=alpha), recenter)
        imgs = [apply(m, p) for p in pts]
        if max(abs(z) for z in imgs) > 1.0 - 1e-6:
            continue
        if is_general_position(imgs, apply(m, p0)):
            return m
    raise SearchExhausted("no Moebius map reached general position in 10^4 candidates")
