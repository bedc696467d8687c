"""Adaptive Gauss-Kronrod quadrature with square-root branch tracking.

The integrand everywhere in this package is f^{1/2} along straight segments,
with f rational in factored form.  The branch is fixed by continuity: a
subinterval is accepted only if the argument of f turns by less than pi/2
between consecutive nodes, which makes the nearest-sign choice against the
running reference value provably correct.  Segments ending at a root of any
order are integrated in a substituted parameter (t = s^2) so the integrand
is smooth there.  Both kinds of segment, and the plain real integrals of
adaptive_gk, run through the one adaptive GK15/G7 recursion _gk.
"""

from __future__ import annotations

import numpy as np

from .errors import ToleranceNotMet
from .rational import order_at

# QUADPACK 15-point Kronrod rule on [-1, 1]; Gauss nodes are every other one.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])
_WG7 = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_MAX_ARG_STEP = 0.45 * np.pi

GL6_X, GL6_W = np.polynomial.legendre.leggauss(6)


def nearest_sqrt(w, ref):
    """Square root of w closest to ref (elementwise for arrays)."""
    s = np.sqrt(w)
    flip = np.abs(s - ref) > np.abs(s + ref)
    if np.isscalar(flip) or flip.shape == ():
        return -s if flip else s
    return np.where(flip, -s, s)


def continue_sqrt_chain(fvals, v_start):
    """Assign continued sqrt values along an ordered node sequence.

    Requires the argument of f to rotate < pi/2 between consecutive nodes
    (the caller checks), so each principal root either agrees with the
    previous continued value or is its negation: the branch is a running
    product of sign flips.  A zero keeps the previous reference; v_start is
    the continued value just before the first node.
    """
    p = np.sqrt(fvals)
    nz = p != 0
    chain = np.concatenate(([v_start], p[nz]))
    flips = np.where((chain[1:] * np.conj(chain[:-1])).real < 0, -1.0, 1.0)
    out = np.zeros_like(p)
    out[nz] = np.cumprod(flips) * p[nz]
    return out


def _arg_steps_ok(fvals):
    """True if consecutive arguments differ by < pi/2 (nonzero values only)."""
    nz = fvals[np.abs(fvals) > 0]
    if len(nz) < 2:
        return True
    ratios = nz[1:] / nz[:-1]
    return bool(np.all(np.abs(np.angle(ratios)) < _MAX_ARG_STEP))


def _winding_safe(f, z_pts, exclude_root=None):
    """Node gaps must stay below half the distance to the nearest root.

    The argument-ratio test alone can alias a full 2*pi*k turn of f between
    consecutive nodes to a small angle; bounding the step by the root
    distance caps the possible turn of (z - r)^n well under 2*pi, making the
    ratio test sound.
    """
    roots = [r for r, _ in f.interior_roots
             if exclude_root is None or abs(r - exclude_root) > 1e-13]
    if not roots:
        return True
    z = np.asarray(z_pts)
    gaps = np.abs(np.diff(z))
    if not gaps.size:
        return True
    d = np.full(z.shape, np.inf)
    for r in roots:
        d = np.minimum(d, np.abs(z - r))
    if np.min(d) > 2.1 * np.max(gaps):
        return True
    return bool(np.all(gaps <= 0.5 * np.minimum(d[:-1], d[1:])))


def _gk(panel, a, b, carry, tol, max_depth, depth=0):
    """Adaptive GK15/G7 over the parameter interval [a, b].

    panel(a, b, nodes, carry) sees the 15 Kronrod nodes of [a, b] and the
    value carried into a; it returns (integrand at the nodes, value carried
    to b), or None when the panel must be split whatever its error.  A panel
    is accepted once its Kronrod-Gauss difference meets tol or it is narrower
    than roundoff resolves.  Returns (integral, error estimate, carry at b).
    """
    half = 0.5 * (b - a)
    mid = a + half
    out = panel(a, b, mid + half * _XGK, carry)
    if out is not None:
        w, carry_b = out
        i15 = half * np.sum(_WGK * w)
        i7 = half * np.sum(_WG7 * w[_GAUSS_IDX])
        err = abs(i15 - i7)
        if err <= tol or abs(half) < 1e-15:
            return i15, err, carry_b
    if depth >= max_depth:
        raise ToleranceNotMet(f"panel [{a}, {b}] stuck above tol {tol}")
    lval, lerr, carry_m = _gk(panel, a, mid, carry, 0.5 * tol, max_depth, depth + 1)
    rval, rerr, carry_b = _gk(panel, mid, b, carry_m, 0.5 * tol, max_depth, depth + 1)
    return lval + rval, lerr + rerr, carry_b


class SqrtSegmentIntegrator:
    """Integrates f^{1/2} dz along straight segments with branch continuity."""

    def __init__(self, f, tol=1e-10, max_depth=52):
        self.f = f
        self.tol = tol
        self.max_depth = max_depth

    def integrate(self, za, zb, v_start, tol=None):
        """Integral of f^{1/2} from za to zb; v_start continues the branch at za.

        Returns (value, err_estimate, v_end).  za must not be a root (v_start
        nonzero); zb may be a root of any order, in which case the integration
        runs in the substituted parameter from the za side.
        """
        tol = self.tol if tol is None else tol
        if za == zb:
            return 0.0 + 0.0j, 0.0, v_start
        f = self.f
        if order_at(f, zb, tol=1e-13) > 0:
            # z = zb + (za - zb) s^2 turns the local factor (z - zb)^{n/2}
            # into s^n times a smooth function, so the s-integrand is
            # analytic at s = 0 for every order n.  s runs from 1 (za) down
            # to 0 (the root); the branch is carried by the last node.
            d = za - zb

            def into_root(sa, sb, s, v_a):
                z = zb + d * s * s
                fv = f.eval(z)
                if not (_winding_safe(f, z, exclude_root=zb)
                        and _arg_steps_ok(np.concatenate(([v_a**2], fv)))):
                    return None
                v = continue_sqrt_chain(fv, v_a)
                return v * (2.0 * d * s), v[-1]

            val, err, _ = _gk(into_root, 1.0, 0.0, v_start, tol, self.max_depth)
            return val, err, 0.0 + 0.0j

        def chord(a, b, z, v_a):
            z_chain = np.concatenate(([a], z, [b]))
            fv = f.eval(z_chain[1:])
            if not (_arg_steps_ok(np.concatenate(([v_a**2], fv)))
                    and _winding_safe(f, z_chain)):
                return None
            v = continue_sqrt_chain(fv, v_a)
            return v[:-1], v[-1]

        return _gk(chord, za, zb, v_start, tol, self.max_depth)


def adaptive_gk(fn, a, b, tol=1e-11, max_depth=50):
    """Plain adaptive Gauss-Kronrod for a smooth (vectorized) scalar integrand."""
    val, _, _ = _gk(lambda lo, hi, x, _: (fn(x), None), a, b, None, tol, max_depth)
    return val
