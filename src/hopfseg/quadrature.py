"""Breadth-first adaptive Gauss-Kronrod quadrature with square-root branch tracking.

One kernel, _breadth_first, integrates many intervals at once with
QUADPACK's GK15/G7 pair: each round evaluates every open panel in one call,
accepts a panel at depth k once it meets tol 2^-k, and halves the rest.  The
integrand is mostly f^{1/2} along straight segments (f rational in factored
form), its branch fixed by continuity: a panel is accepted only if the
argument of f turns by less than 0.45 pi from its start through its nodes to
its end, which makes the nearest-sign choice provably correct.  Each panel
starts on the principal root at its own start, and the signs are composed
along each segment afterwards.  A segment ending at a root of any order runs
in a parameter in which the integrand is smooth there.  sqrt_segments runs
the kernel on f^{1/2}, each segment with its own f, and SqrtSegmentIntegrator
binds it to one f; gk15 runs it on plain integrands; rtsafe refines a sign
change of such integrals.
"""

from __future__ import annotations

import numpy as np

from .errors import ToleranceNotMet
from .rational import AT_ROOT_TOL

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
# the weights of I15 and of I15 - I7 over the 15 nodes, as the rows of one matrix
_W15D = np.array([_WGK, _WGK])
_W15D[1, 1::2] -= _WG7

_MAX_ARG_STEP = 0.45 * np.pi
# the depth at which an interval's panels stop halving
_MAX_DEPTH = 52
# a panel's chain in half-widths from its start: the start, the Kronrod nodes, the end
_U17 = np.concatenate(([0.0], _XGK + 1.0, [2.0]))

GL6_X, GL6_W = np.polynomial.legendre.leggauss(6)


def branch_sign(v, ref):
    """+1 where v, -1 where -v, lies nearer ref (the sign of Re(v conj(ref)),
    +1 on a tie): the one rule for which of +-v continues a branch through
    ref.  Elementwise for arrays, a float for scalars."""
    # adding 0.0 turns a product of -0.0 into +0.0, so a tie gives +1
    return np.copysign(1.0, (v * np.conj(ref)).real + 0.0)


def nearest_sqrt(w, ref):
    """Square root of w closest to ref (elementwise for arrays)."""
    s = np.sqrt(w)
    flip = branch_sign(s, ref) < 0
    if np.ndim(flip) == 0:
        return -s if flip else s
    return np.where(flip, -s, s)


def _principal_chain(fvals):
    """Continued square roots along rows of f values from the principal root
    at the first one, and whether each row turns by < 0.45 pi from one value
    to the next.  Principal roots of consecutive values lie on opposite sides
    exactly where their principal arguments differ by more than pi, so the
    branch is a running product of sign flips there; that continues it where
    each turn is < pi/2.  Only the last value of a row may be zero (the root
    a segment ends at); it takes the value before it.
    """
    x = fvals
    if not x[..., -1].all():
        x = x.copy()
        x[..., -1] = np.where(x[..., -1] == 0, x[..., -2], x[..., -1])
    a = np.arctan2(x.imag, x.real)
    # the turn is pi - |excess| whether or not the roots flip
    excess = np.abs(a[..., 1:] - a[..., :-1]) - np.pi
    v = np.sqrt(fvals)
    np.negative(v[..., 1:], out=v[..., 1:], where=np.logical_xor.accumulate(excess > 0, axis=-1))
    return v, (np.abs(excess) > np.pi - _MAX_ARG_STEP).all(axis=-1)


def _winding_safe(z, roots, skip=None):
    """Node gaps must stay below half the distance to the nearest root.

    The argument-ratio test alone can alias a full 2*pi*k turn of f between
    consecutive nodes to a small angle; bounding the step by the root
    distance caps the possible turn of (z - r)^n well under 2*pi, making the
    ratio test sound.  Rows of z are node sequences checked apart against
    their rows of roots (inf pads a row; 1-d roots serve every row); a row
    ignores the roots its row of skip marks (the root its segment ends at).
    """
    if not roots.shape[-1]:
        return np.ones(len(z), dtype=bool)
    gaps = np.abs(z[:, 1:] - z[:, :-1])
    d = np.abs(z[..., None] - roots[..., None, :])
    if skip is not None:
        d = np.where(skip[:, None, :], np.inf, d)
    d = d.min(axis=-1)
    far = d.min(axis=-1) > 2.1 * gaps.max(axis=-1)
    if far.all():
        return far
    return far | (gaps <= 0.5 * np.minimum(d[:, :-1], d[:, 1:])).all(axis=-1)


def _kronrod(half, w):
    """GK15 integral and |I15 - I7| of node values w over half-width half (per row)."""
    i15, diff = (w[:, None, :] * _W15D).sum(axis=-1).T
    return half * i15, np.abs(half * diff)


def _converged(err, half, tol):
    """A panel is done once it meets tol or is narrower than roundoff resolves."""
    return (err <= tol) | (np.abs(half) < 1e-15)


def _breadth_first(panel, lo, hi, tol):
    """Adaptive GK15/G7 over the intervals [lo[i], hi[i]], all at once.

    panel(seg, lo, half) sees the open panels [lo, lo + 2 half] of the
    intervals seg and returns (integrand at their Kronrod nodes, whether each
    may be accepted or None, the factor from half-width to the width the
    roundoff floor reads, data or None).  A panel at depth k is accepted once
    it may be and meets tol 2^-k; the rest are halved.  Returns the accepted
    panels' (seg, lo, integral, error, data), in order if all in one round.
    """
    seg = np.arange(len(lo))
    parts = []
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        w, ok, scale, data = panel(seg, lo, half)
        i15, err = _kronrod(half, w)
        done = _converged(err, half * scale, tol * 0.5 ** depth)
        if ok is not None:
            done &= ok
        if done.all():
            parts.append((seg, lo, i15, err, data))
            if len(parts) == 1:
                return parts[0]
            return tuple(None if x[0] is None else np.concatenate(x) for x in zip(*parts))
        parts.append((seg[done], lo[done], i15[done], err[done],
                      None if data is None else data[done]))
        rest = ~done
        seg, lo, hi = np.repeat(seg[rest], 2), lo[rest], hi[rest]
        mid = lo + half[rest]
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
    raise ToleranceNotMet(f"panels stuck above tol at depth {_MAX_DEPTH}")


def _per_interval(seg, x, n):
    """Sums of the complex x over the panels of each of n intervals."""
    return np.bincount(seg, x.real, n) + 1j * np.bincount(seg, x.imag, n)


def gk15(fn, a, b, tol):
    """Integrals of a smooth integrand over the intervals [a[i], b[i]], in one pass.

    fn(i, x) returns the integrand of the intervals i (one entry per row) at
    the points x (one row of 15 nodes per entry of i); a and b are float
    arrays, and tol applies to each interval.
    """
    if not len(a):
        return np.zeros(0, complex)
    def panel(seg, lo, half):
        return fn(seg, (lo + half)[:, None] + half[:, None] * _XGK), None, 1.0, None

    seg, _, i15, _, _ = _breadth_first(panel, a, b, tol)
    return _per_interval(seg, i15, len(a))


def sqrt_segments(fn, roots, za, zb, v_start=None, tol=1e-10, chained=False):
    """Integrals of f^{1/2} dz along the segments za[i] -> zb[i], in one pass.

    Each segment has its own f: fn(i, z) returns f of the segments i (one
    entry per row) at the points z (one row per entry of i), and roots[i]
    holds the roots of segment i's f, padded with inf (a 1-d roots serves
    every segment).
    v_start[i] continues the branch at za[i] (None: the principal root);
    chained, each segment continues the one before from v_start at za[0].
    Returns (values, error estimates, continued f^{1/2} at each zb).  No za
    may be a root.  A segment runs in z = za + (zb - za) t, t from 0 to 1; one
    whose zb lies at one of its roots (rational.AT_ROOT_TOL) ends there and runs
    in z = zb + (za - zb) t^2, t from 1 down to exactly 0 (panel ends are
    dyadic), where the local factor (z - zb)^{n/2} is t^n times a smooth
    function for every order n, carrying 0 to zb.
    """
    za = np.asarray(za, dtype=complex).reshape(-1)
    zb = np.asarray(zb, dtype=complex).reshape(-1)
    n = len(za)
    near = np.abs(zb[:, None] - roots) < AT_ROOT_TOL
    quad = near.any(axis=1) if near.any() else None
    if quad is None:
        P, Q, t0 = za, zb - za, np.zeros(n)
        scale = np.abs(Q)
    else:
        idx = near.argmax(axis=1)
        zb = np.where(quad, roots[idx] if roots.ndim == 1 else roots[np.arange(n), idx], zb)
        P, Q = np.where(quad, zb, za), np.where(quad, za - zb, zb - za)
        t0, scale = quad.astype(float), np.where(quad, 1.0, np.abs(Q))

    def panel(seg, lo, half):
        t = lo[:, None] + half[:, None] * _U17
        q = Q[seg][:, None]
        r = roots if roots.ndim == 1 else roots[seg]
        if quad is None:
            z = P[seg][:, None] + q * t
            v, ok = _principal_chain(fn(seg, z))
            ok &= _winding_safe(z, r)
            return v[:, 1:-1] * q, ok, scale[seg], v
        sq = quad[seg][:, None]
        z = P[seg][:, None] + q * np.where(sq, t * t, t)
        v, ok = _principal_chain(fn(seg, z))
        ok &= _winding_safe(z, r, near[seg])
        return v[:, 1:-1] * q * np.where(sq, 2.0 * t[:, 1:-1], 1.0), ok, scale[seg], v

    seg, lo, i15, err, v = _breadth_first(panel, t0, 1.0 - t0, tol)
    if len(seg) == n and (n < 2 or not chained):
        # one panel per segment, continued from the root given at za
        sign = 1.0 if v_start is None else branch_sign(v_start, v[:, 0])
        return sign * i15, err, sign * v[:, -1]
    # the panels in order along each segment (t runs down on a root's)
    order = np.lexsort((lo if quad is None else np.where(quad[seg], -lo, lo), seg))
    seg, i15, err, v = seg[order], i15[order], err[order], v[order]
    # each panel's start root against the one carried into it: the end
    # root of the panel before, or v_start where a segment starts (only
    # the first, chained); a running product composes them, restarted at
    # each segment start (a product of signs divides as it multiplies)
    new = np.r_[True, (seg[1:] != seg[:-1]) & (not chained)]
    start = v[:, 0] if v_start is None else np.broadcast_to(v_start, n)[seg]
    prev = np.where(new, start, np.roll(v[:, -1], 1))
    s = np.cumprod(branch_sign(prev, v[:, 0]))
    s = s * np.r_[1.0, s][np.flatnonzero(new)][np.cumsum(new) - 1]
    last = np.r_[seg[1:] != seg[:-1], True]
    return _per_interval(seg, s * i15, n), np.bincount(seg, err, n), (s * v[:, -1])[last]


class SqrtSegmentIntegrator:
    """Integrates f^{1/2} dz along straight segments: sqrt_segments bound to one f."""

    def __init__(self, f, tol=1e-10):
        self.f = f
        self.tol = tol
        self.integrals = 0      # calls of integrate
        self.roots = np.array([r for r, _ in f.interior_roots], dtype=complex)

    def segments(self, za, zb, v_start=None, tol=None, chained=False):
        """sqrt_segments of this f (see there); tol defaults to the integrator's."""
        return sqrt_segments(lambda _, z: self.f.eval(z), self.roots, za, zb, v_start,
                             self.tol if tol is None else tol, chained)

    def integrate(self, za, zb, v_start, tol=None):
        """Integral of f^{1/2} from za to zb; v_start continues the branch at za.

        Returns (value, err_estimate, v_end): segments on a batch of one.
        """
        self.integrals += 1
        val, err, v_end = self.segments(za, zb, v_start, tol)
        return val[0], err[0], v_end[0]

    def chords(self, za, zb):
        """Increments D = 2 * int f^{1/2} over the chords za[i] -> zb[i], in one pass.

        Each chord starts on the principal root at za[i]; returns (D, sigma),
        where sigma[i] = +-1 is the root carried to zb[i] (an array, like za)
        against the principal root there.  No endpoint may be a root.
        """
        val, _, v_end = self.segments(za, zb)
        return 2.0 * val, branch_sign(v_end, np.sqrt(self.f.eval(zb)))


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
