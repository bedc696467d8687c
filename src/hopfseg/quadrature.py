"""Adaptive Gauss-Kronrod quadrature with square-root branch tracking.

The integrand everywhere in this package is f^{1/2} along straight segments,
with f rational in factored form.  The branch is fixed by continuity: a
subinterval is accepted only if the argument of f turns by less than pi/2
between consecutive nodes, which makes the nearest-sign choice against the
running reference value provably correct.  Segments ending at a root of any
order are integrated in a substituted parameter (t = s^2) so the integrand
is smooth there.  Both kinds of segment, and the plain real integrals of
adaptive_gk, run through the one adaptive GK15/G7 recursion _gk.  Many
chords at once (the boundary march) take one GK15 panel each in a single
vectorised pass under the same acceptance rules, and a chord that fails them
goes through the recursion.  rtsafe refines a sign change of such integrals
by Newton steps kept inside its bracket, or by secant steps where no slope
is known.
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


def _fill_zeros(x):
    """x with each zero replaced by the last nonzero before it on its row, or
    by the first nonzero where none comes before."""
    nz = x != 0
    if nz.all():
        return x
    idx = np.maximum.accumulate(np.where(nz, np.arange(x.shape[-1]), 0), axis=-1)
    idx = np.maximum(idx, np.argmax(nz, axis=-1)[..., None])
    return np.take_along_axis(x, idx, axis=-1)


def continue_sqrt_chain(fvals, v_start):
    """Assign continued sqrt values along an ordered node sequence.

    Requires the argument of f to rotate < pi/2 between consecutive nodes
    (the caller checks), so each principal root either agrees with the
    previous continued value or is its negation: the branch is a running
    product of sign flips.  A zero keeps the previous reference; v_start is
    the continued value just before the first node.  Rows of a 2-D fvals are
    chains continued apart, each from its own entry of v_start.
    """
    p = np.sqrt(fvals)
    chain = np.empty(p.shape[:-1] + (p.shape[-1] + 1,), dtype=complex)
    chain[..., 0] = v_start
    chain[..., 1:] = p
    chain = _fill_zeros(chain)
    flips = np.where((chain[..., 1:] * np.conj(chain[..., :-1])).real < 0, -1.0, 1.0)
    return np.cumprod(flips, axis=-1) * p


def _arg_steps_ok(fvals):
    """Consecutive nonzero values turn by < 0.45 pi in argument (per row)."""
    x = _fill_zeros(fvals)
    return np.all(np.abs(np.angle(x[..., 1:] / x[..., :-1])) < _MAX_ARG_STEP, axis=-1)


def _winding_safe(f, z_pts, exclude_root=None):
    """Node gaps must stay below half the distance to the nearest root.

    The argument-ratio test alone can alias a full 2*pi*k turn of f between
    consecutive nodes to a small angle; bounding the step by the root
    distance caps the possible turn of (z - r)^n well under 2*pi, making the
    ratio test sound.  Rows of a 2-D z_pts are node sequences checked apart.
    """
    roots = [r for r, _ in f.interior_roots
             if exclude_root is None or abs(r - exclude_root) > 1e-13]
    z = np.asarray(z_pts)
    if not roots or z.shape[-1] < 2:
        return np.ones(z.shape[:-1], dtype=bool)
    gaps = np.abs(np.diff(z, axis=-1))
    d = np.full(z.shape, np.inf)
    for r in roots:
        d = np.minimum(d, np.abs(z - r))
    far = np.min(d, axis=-1) > 2.1 * np.max(gaps, axis=-1)
    return far | np.all(gaps <= 0.5 * np.minimum(d[..., :-1], d[..., 1:]), axis=-1)


def _chord_ok(f, z, fv):
    """A chord panel's branch rule: z runs from the chord's start through the
    Kronrod nodes to its end, fv holds f there (per row)."""
    return _arg_steps_ok(fv) & _winding_safe(f, z)


def _kronrod(half, w):
    """GK15 integral and |I15 - I7| of node values w over half-width half (per row)."""
    i15 = half * np.sum(_WGK * w, axis=-1)
    i7 = half * np.sum(_WG7 * w[..., _GAUSS_IDX], axis=-1)
    return i15, np.abs(i15 - i7)


def _converged(err, half, tol):
    """A panel is done once it meets tol or is narrower than roundoff resolves."""
    return (err <= tol) | (np.abs(half) < 1e-15)


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
        i15, err = _kronrod(half, w)
        if _converged(err, half, tol):
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
            fv = np.concatenate(([v_a**2], f.eval(z_chain[1:])))
            if not _chord_ok(f, z_chain, fv):
                return None
            v = continue_sqrt_chain(fv[1:], v_a)
            return v[:-1], v[-1]

        return _gk(chord, za, zb, v_start, tol, self.max_depth)

    def chords(self, za, zb):
        """Increments D = 2 * int f^{1/2} over the chords za[i] -> zb[i], in one pass.

        Each chord starts on the principal root at za[i]; returns (D, sigma),
        where sigma[i] = +-1 is the root carried to zb[i] against the principal
        root there.  A chord is one GK15 panel, accepted by the rules of a
        chord panel of integrate; a rejected chord runs through the adaptive
        integrate.  No endpoint may be a root.
        """
        za = np.asarray(za, dtype=complex)
        zb = np.asarray(zb, dtype=complex)
        half = 0.5 * (zb - za)
        z = np.column_stack((za, (za + half)[:, None] + half[:, None] * _XGK, zb))
        fv = self.f.eval(z)
        p_a, p_b = np.sqrt(fv[:, 0]), np.sqrt(fv[:, -1])
        v = continue_sqrt_chain(fv[:, 1:], p_a)
        i15, err = _kronrod(half, v[:, :-1])
        ok = _chord_ok(self.f, z, fv) & _converged(err, half, self.tol)
        D = 2.0 * i15
        sigma = np.where(v[:, -1] == p_b, 1.0, -1.0)
        for i in np.flatnonzero(~ok):
            val, _, v_end = self.integrate(za[i], zb[i], p_a[i])
            D[i] = 2.0 * val
            sigma[i] = 1.0 if abs(v_end - p_b[i]) <= abs(v_end + p_b[i]) else -1.0
        return D, sigma


def rtsafe(fn, lo, hi, flo, fhi, xtol):
    """Zero of fn in the closed bracket [lo, hi], by Newton steps kept inside it.

    fn(x) returns (value, slope); flo and fhi are the values at lo and hi, of
    opposite signs or zero.  Where fn gives the slope None, the slope of the
    secant through the last two points evaluated (lo first) stands in for
    it.  The search starts at the secant point of the bracket.  A Newton step
    that would leave the bracket, or that is longer than half the step
    before last, is replaced by a bisection step.  The search stops once a
    step or the bracket is narrower than xtol, or after 100 steps.  The
    bracket is closed, so a Newton step onto one of its ends (a zero on a
    sample angle) is taken, not bisected.
    """
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    neg, pos = (lo, hi) if flo < 0 else (hi, lo)
    x = lo - flo * (hi - lo) / (fhi - flo)
    dx_old = dx = abs(hi - lo)
    x_last, f_last = lo, flo
    for _ in range(100):
        fx, dfx = fn(x)
        if fx == 0:
            return x
        if dfx is None:
            dfx = (fx - f_last) / (x - x_last) if x != x_last else 0.0
        x_last, f_last = x, fx
        if fx < 0:
            neg = x
        else:
            pos = x
        a, b = min(neg, pos), max(neg, pos)
        newton = fx / dfx if dfx != 0 else np.inf
        if a <= x - newton <= b and abs(2.0 * newton) <= abs(dx_old):
            dx_old, dx = dx, newton
            x -= newton
        else:
            dx_old, dx = dx, 0.5 * (pos - neg)
            x = neg + dx
        if abs(dx) < xtol or b - a < xtol:
            return x
    return x


def adaptive_gk(fn, a, b, tol=1e-11, max_depth=50):
    """Plain adaptive Gauss-Kronrod for a smooth (vectorized) scalar integrand."""
    val, _, _ = _gk(lambda lo, hi, x, _: (fn(x), None), a, b, None, tol, max_depth)
    return val
