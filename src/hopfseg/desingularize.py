"""Splitting a critical zero of order m0+1 into order m0 plus a simple zero.

The perturbed function is

    z^{m0} (z - w0) h^2(z) q^2(z, W) prod_j (z - w_j)^{q_j},      q = 1 + sum_l W_l z^{lR},

recentred at the zero being split.  The weights W kill the real parts of the
primitive at the untouched zeros (a linear system built from radial-path
integrals), and the direction of w0 solves a one-dimensional angular
equation whose eps -> 0 limit is an explicit sine.  That limit vanishes at
theta_k = (-arg a + 2 k pi) / (n0 + 2), a the leading Taylor coefficient of
f at the zero of order n0, with no chart; branch k starts its Newton search
from the k-th theta_k in [0, 2 pi).  Every square root in the system
integrals is evaluated through a fixed star-shaped determination (angles
lifted against a chart cut), so entries are branch-safe pointwise and need
no continuation bookkeeping; a split uses one chart.  The system and K
integrals take an array of offsets, so each Newton step integrates K at
theta and theta +- 1e-6 in one pass per kind, and keeps the converged
step's weights.  The zero that `hopfseg desingularize` splits, and that
reduce_to_simple splits next, is zero_to_split's: of highest order, then
the most isolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchLost,
    ClosenessFailed,
    DeterminantFloor,
    HopfSegError,
    NotAdmissible,
    RootTooCloseToBoundary,
    SingularSolve,
    SplitOrderMismatch,
)
from .mobius import apply, invert, is_general_position, make_general_position, pushforward_hopf
from .primitive import PathEngine
from .quadrature import gk15
from .rational import ROOT_MERGE_TOL, RationalFactored, order_at, root_at
from .slits import build_slit_disk
from .states import admissibility, grid_state

R_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)
DET_FLOOR = 1e-8
INTEGRAL_TOL = 1e-12         # the tolerance of every system and K integral
NEWTON_TOL = 1e-9            # |K| at which the search for the new zero's angle stops
# the resolution of the states whose distance bounds a split
STATE_RESOLUTION = 96


def beta_moment(m0: int) -> float:
    """c_{m0} = int_0^1 t^{m0/2} sqrt(1-t) dt, in closed Gamma form."""
    return 0.5 * math.sqrt(math.pi) * math.exp(
        math.lgamma(1.0 + 0.5 * m0) - math.lgamma(0.5 * (5.0 + m0))
    )


def gamma_moment(k: float, q: float) -> float:
    """int_0^1 t^k (1-t)^{q/2} dt = Gamma(1+k) Gamma(1+q/2) / Gamma(2+k+q/2)."""
    return math.exp(
        math.lgamma(1.0 + k) + math.lgamma(1.0 + 0.5 * q) - math.lgamma(2.0 + k + 0.5 * q)
    )


def _lift(angle, gamma_arg: float):
    """Lift angles into the chart window (gamma_arg, gamma_arg + 2*pi]."""
    d = (angle - gamma_arg) % (2.0 * np.pi)
    return gamma_arg + d + 2.0 * np.pi * (d == 0.0)


def _pow_chart(zeta, p: float, gamma_arg: float):
    """zeta^p with arg(zeta) lifted against the chart cut (window (g, g+2pi])."""
    zeta = np.asarray(zeta, dtype=complex)
    return np.exp(p * (np.log(np.abs(zeta)) + 1j * _lift(np.angle(zeta), gamma_arg)))


def _halfpow_star(zeta, w, q: int, lift_w):
    """(zeta - w)^{q/2} continued from zeta = 0 along straight rays.

    Single valued off the radial cut {t w : t >= 1}; the constant branch
    choice assigns angle lift_w + pi to (-w).  w and lift_w broadcast
    against zeta (one w per row of zeta, say).
    """
    zeta = np.asarray(zeta, dtype=complex)
    const = 0.5 * q * (np.log(np.abs(w)) + 1j * (lift_w + np.pi))
    return np.exp(const + 0.5 * q * np.log((zeta - w) / (-w)))


@dataclass
class PerturbationContext:
    """Recentred data for one splitting step."""

    f: RationalFactored
    z0: complex
    m0: int
    omegas: tuple            # other zeros relative to z0, |w_1| < ... strictly
    qs: tuple
    gamma_arg: float
    R: int = 0
    B0: np.ndarray | None = None
    det_fallback: bool = False   # choose_R accepted a determinant below DET_FLOOR

    @property
    def M(self) -> int:
        return len(self.omegas)

    def h(self, zeta):
        """Square root of the nonvanishing factor (leading and unit part)."""
        return self.f.unit_sqrt(np.asarray(zeta, dtype=complex) + self.z0)

    def H(self, zeta):
        """h(zeta) * prod_j (zeta - w_j)^{q_j/2} in the star determination."""
        out = self.h(zeta)
        for w, q in zip(self.omegas, self.qs):
            out = out * _halfpow_star(zeta, w, q, _lift(np.angle(w), self.gamma_arg))
        return out

    def sqrt_core(self, zeta, omega0):
        """zeta^{m0/2} (zeta - omega0)^{1/2} H(zeta), chart determination.

        omega0 broadcasts against zeta (one offset per row, say); where it
        is 0 the core is the plain chart branch zeta^{(m0+1)/2} H(zeta).
        """
        g = self.gamma_arg
        at0 = np.asarray(omega0) == 0
        if at0.all():
            base = _pow_chart(zeta, 0.5 * (self.m0 + 1), g)
        else:
            w = np.where(at0, 1.0, omega0)     # a stand-in where omega0 = 0
            base = _pow_chart(zeta, 0.5 * self.m0, g) * _halfpow_star(
                zeta, w, 1, _lift(np.angle(w), g))
            if at0.any():
                base = np.where(at0, _pow_chart(zeta, 0.5 * (self.m0 + 1), g), base)
        return base * self.H(zeta)


def _unit_integrals(g, n: int):
    """int_0^1 g(j, t) dt for j = 0, ..., n-1, all in one pass of the kernel.

    g(j, t) takes an integer array j and one row of t per entry.  The
    substitutions t = s^2 on [0, 1/2] and t = 1 - s^2 on [1/2, 1] keep the
    integrand smooth at fractional powers of t and of 1 - t.
    """
    def E(i, s):
        t = np.where((i < n)[:, None], s * s, 1.0 - s * s)
        return g(i % n, t) * 2.0 * s

    halves = gk15(E, np.zeros(2 * n), np.full(2 * n, math.sqrt(0.5)), INTEGRAL_TOL)
    return halves[:n] + halves[n:]


def _ray_integral(ctx: PerturbationContext, endpoints, omega0, powers):
    """2 * int_0^{w} zeta^{k} core(zeta) dzeta along the radial path to each
    entry w of the complex array endpoints, with k the entry of the integer
    array powers and the core's offset the entry of omega0 (a scalar serves
    every entry).
    """
    omega0 = np.broadcast_to(np.asarray(omega0, dtype=complex), np.shape(endpoints))

    def g(j, t):
        zeta = t * endpoints[j][:, None]
        return ctx.sqrt_core(zeta, omega0[j][:, None]) * zeta ** powers[j][:, None]

    return 2.0 * endpoints * _unit_integrals(g, len(endpoints))


def make_context(f: RationalFactored, z0, gamma_arg: float | None = None) -> PerturbationContext:
    """The recentred data of f at the zero z0 lies at.  The chart cut keeps 0.02
    from every other zero's ray (stepping on by 0.013); gamma_arg=None starts
    it in the middle of the widest gap between those rays."""
    z0, n0 = root_at(f, z0)
    if n0 < 2:
        raise ValueError(f"zero at {z0} must have order >= 2 (got {n0})")
    others = [(z - z0, m) for z, m in f.interior_roots if z != z0]
    others.sort(key=lambda p: abs(p[0]))
    if gamma_arg is None:
        if others:
            angs = sorted(np.angle(w) % (2 * np.pi) for w, _ in others)
            gaps = [
                ((angs[(i + 1) % len(angs)] - angs[i]) % (2 * np.pi)) or 2 * np.pi
                for i in range(len(angs))
            ]
            i = int(np.argmax(gaps))
            gamma_arg = float((angs[i] + 0.5 * gaps[i]) % (2 * np.pi))
        else:
            gamma_arg = 0.1
    for _ in range(64):
        if all(abs((gamma_arg - np.angle(w)) % (2 * np.pi)) > 0.02
               and abs((np.angle(w) - gamma_arg) % (2 * np.pi)) > 0.02
               for w, _ in others):
            break
        gamma_arg = (gamma_arg + 0.013) % (2 * np.pi)
    return PerturbationContext(
        f=f, z0=z0, m0=n0 - 1,
        omegas=tuple(w for w, _ in others),
        qs=tuple(q for _, q in others),
        gamma_arg=gamma_arg,
    )


def _limit_signs(ctx: PerturbationContext, theta) -> np.ndarray:
    """Per-ray signs of the omega0 -> 0 limit of the (zeta - omega0)^{1/2} factor.

    The radial cut hanging off omega0 sweeps the chart as omega0 shrinks
    along angle theta; rays whose lifted angle does not exceed the lifted
    theta pick up a factor -1 relative to the plain zeta^{1/2} chart branch.
    An array of angles gives one row of signs per angle.
    """
    lifted = _lift(np.angle(ctx.omegas), ctx.gamma_arg)
    return np.where(lifted <= _lift(np.asarray(theta), ctx.gamma_arg)[..., None], -1.0, 1.0)


def assemble_system(ctx: PerturbationContext, omega0, R: int | None = None):
    """System matrix and vector: entries are radial-path integrals to each w_j.

    At omega0 = 0 the entries are on the plain chart branch; _limit_signs
    gives the limit of the omega0-system along a direction.  An array of
    offsets omega0 gives one system per entry, stacked along the leading
    axes, all from one pass of the kernel.
    """
    R = ctx.R if R is None else R
    M = ctx.M
    omega0 = np.asarray(omega0, dtype=complex)
    # row j holds the ray integrals to w_j with the powers 0, R, ..., M R
    ends = np.tile(np.repeat(np.asarray(ctx.omegas, dtype=complex), M + 1), omega0.size)
    rows = _ray_integral(ctx, ends, np.repeat(omega0.ravel(), M * (M + 1)),
                         np.tile(R * np.arange(M + 1), M * omega0.size))
    rows = rows.reshape(omega0.shape + (M, M + 1))
    return rows[..., 1:], rows[..., 0]


def _normalized_det(A: np.ndarray) -> float:
    """|det A| with every row scaled to unit length; 0 when a row vanishes."""
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        return 0.0
    return float(abs(np.linalg.det(A / norms[:, None])))


def choose_R(ctx: PerturbationContext) -> int:
    """Smallest R of 1, 2, 4, ..., 64 whose row-normalized system determinant
    clears 1e-8, stored in ctx with the system vector B0 at omega0 = 0.

    R = 1 comes first: the q-weights scale like eps / |w_1|^{lR+1}, so the
    least R keeps the q-polynomial's roots farthest from the disk.  B0 is
    the power-0 column, the same for every R, and with M = 0 there are no
    weights, so R has no effect there.
    """
    best = None
    for R in R_CANDIDATES:
        A0, B0 = assemble_system(ctx, 0.0, R=R)
        det = _normalized_det(A0)
        if det >= DET_FLOOR:
            ctx.R = R
            ctx.B0 = B0
            return R
        if best is None or det > best[0]:
            best = (det, R, B0)
    # the normalized determinant is only a conditioning proxy; nearly
    # coincident satellite zeros (deep splitting chains) push it below the
    # floor while the system stays consistent.  Fall back to the best scale
    # and let the solve residual and the independent admissibility check of
    # the result act as the certificate.
    if best[0] >= 1e-12:
        ctx.R = best[1]
        ctx.B0 = best[2]
        ctx.det_fallback = True
        return ctx.R
    raise DeterminantFloor("no exponent scale R <= 64 gave a usable determinant")


def normalized_det(ctx: PerturbationContext, R: int) -> float:
    return _normalized_det(assemble_system(ctx, 0.0, R=R)[0])


def solve_weights(A: np.ndarray, B: np.ndarray, B0: np.ndarray) -> np.ndarray:
    """W = A^{-1} (B0 - B); the imaginary parts Lambda are fixed by B0 itself.

    Systems stacked along leading axes are solved in one call, and each
    must meet the residual bound.
    """
    rhs = B0 - B
    if rhs.shape[-1] == 0:
        return np.zeros(rhs.shape, dtype=complex)
    try:
        W = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    resid = np.linalg.norm((A @ W[..., None])[..., 0] - rhs, axis=-1)
    if np.any(resid > 1e-10 * np.maximum(1.0, np.linalg.norm(rhs, axis=-1))):
        raise SingularSolve(f"solve residual {np.max(resid)}")
    return W


def _K_and_weights(ctx: PerturbationContext, omega0, theta):
    """K and the weights W at the offsets omega0 = eps e^{i theta}, one per
    entry of the arrays omega0 and theta: one pass of the kernel for the
    stacked systems, one stacked solve, and one pass for the K integrals."""
    A, B = assemble_system(ctx, omega0)
    W = solve_weights(A, B, _limit_signs(ctx, theta) * ctx.B0)
    return _K_scaled(ctx, omega0, W), W


def K_value(ctx: PerturbationContext, eps: float, theta):
    """Scaled real part of the primitive at the candidate simple zero.

    K(eps, theta) = eps^{-(m0+3)/2} * Re F(w0) / 2 with w0 = eps e^{i theta};
    at eps = 0 the closed form -|H(0)| c_{m0} sin((3+m0)/2 lift(theta) - phi)
    with phi = -Arg H(0).  A float for one angle; an array of angles gives
    the array of their K, all from one pass (one angle is an array of one).
    """
    m0 = ctx.m0
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if eps == 0.0:
        H0 = complex(ctx.H(np.array([0.0 + 0.0j]))[0])
        phi = -np.angle(H0)
        th = _lift(thetas, ctx.gamma_arg)
        K = -abs(H0) * beta_moment(m0) * np.sin(0.5 * (3 + m0) * th - phi)
    else:
        K = _K_and_weights(ctx, eps * np.exp(1j * thetas), thetas)[0]
    return float(K[0]) if np.ndim(theta) == 0 else K


def _K_scaled(ctx: PerturbationContext, omega0, W):
    """Re(i e^{i(m0+3) lift(theta)/2} * int t^{m0/2} sqrt(1-t) H(t w0) q(t w0) dt)
    for each entry w0 of the array omega0, with the weights of its row of W.

    The eps powers are factored out analytically, so the value never
    underflows however small |w0| is.
    """
    m0 = ctx.m0
    lift0 = _lift(np.angle(omega0), ctx.gamma_arg)

    def g(j, t):
        zeta = t * omega0[j][:, None]
        q = np.ones_like(zeta)
        for ell in range(W.shape[-1]):
            q = q + W[j, ell][:, None] * zeta ** ((ell + 1) * ctx.R)
        return np.power(t, 0.5 * m0) * np.sqrt(1.0 - t) * ctx.H(zeta) * q

    I = _unit_integrals(g, len(omega0))
    return np.real(1j * np.exp(0.5j * (m0 + 3) * lift0) * I)


def limit_angles(f: RationalFactored, z0):
    """The n0+2 zeros theta_k = (-arg a + 2 k pi) / (n0 + 2) of K(0, .) at the
    zero z0 of order n0 >= 2, sorted in [0, 2*pi): H(0)^2 is f's leading
    Taylor coefficient a at z0 in every chart, read off the factored form."""
    z0, n0 = root_at(f, z0)
    if n0 < 2:
        raise ValueError(f"zero at {z0} must have order >= 2 (got {n0})")
    a = f.leading
    for r, n in f.interior_roots + f.unit_num + tuple((d, -p) for d, p in f.unit_den):
        if r != z0:
            a *= (z0 - r) ** n
    m = n0 + 2
    return sorted(((-np.angle(a) + 2 * k * np.pi) / m) % (2 * np.pi) for k in range(m))


@dataclass(frozen=True)
class DesingularizationResult:
    f_new: RationalFactored
    z0: complex
    omega0: complex          # offset of the new simple zero, relative to z0
    W: tuple
    R: int
    epsilon: float
    theta: float
    branch: int
    sup_dist: float
    h1_dist: float
    admissibility: object
    # deterministic counters of the search: attempts, backtracks by reason,
    # Newton passes over all attempts, the final R, and det_fallback
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def new_zero(self) -> complex:
        return self.z0 + self.omega0


def _q_factors(ctx: PerturbationContext, W: np.ndarray):
    """The leading coefficient, the unit factors and the boundary margin of
    f times q^2, q = 1 + sum_l W_l (z - z0)^{lR}; RootTooCloseToBoundary
    when a root of q lies too close to the disk."""
    f = ctx.f
    z0 = ctx.z0
    lead = f.leading
    unit_num = list(f.unit_num)
    if len(W) and np.max(np.abs(W)) > 1e-300:
        coeffs = np.zeros(len(W) * ctx.R + 1, dtype=complex)
        coeffs[0] = 1.0
        for ell, w in enumerate(W, start=1):
            coeffs[ell * ctx.R] = w
        qroots = np.roots(coeffs[::-1])
        wM = coeffs[-1]
        lead = lead * wM**2
        for rho in qroots:
            unit_num.append((complex(rho) + z0, 2))
    min_outside = min((abs(r) for r, _ in unit_num), default=np.inf)
    delta = min(f.delta_bd, 0.9 * (min_outside - 1.0)) if unit_num else f.delta_bd
    if delta <= 1e-9:
        raise RootTooCloseToBoundary("q-polynomial roots too close to the disk")
    return lead, tuple(unit_num), delta


def _assemble_f_new(ctx: PerturbationContext, omega0: complex, W: np.ndarray):
    """Factored form of z^{m0}(z - w0) h^2 q^2 prod (z - w_j)^{q_j}, recentred back."""
    z0 = ctx.z0
    roots = [(z0 + omega0, 1)]
    if ctx.m0 >= 1:
        roots.append((z0, ctx.m0))
    for w, q in zip(ctx.omegas, ctx.qs):
        roots.append((z0 + w, q))
    lead, unit_num, delta = _q_factors(ctx, W)
    return RationalFactored(
        leading=lead,
        interior_roots=tuple(roots),
        unit_num=unit_num,
        unit_den=ctx.f.unit_den,
        delta_bd=delta,
    )


def _state_distances(st1, st2):
    """Sup and H1 distances between two states on the same grid."""
    d = st1.u - st2.u
    inside = st1.inside & st2.inside
    sup = float(np.nanmax(np.abs(d[inside])))
    h = st1.h
    dd = np.where(inside, d, 0.0)
    gx = np.diff(dd, axis=1) / h
    gy = np.diff(dd, axis=0) / h
    l2 = float(np.sum(dd * dd) * h * h)
    semi = float((np.sum(gx * gx) + np.sum(gy * gy)) * h * h)
    return sup, math.sqrt(l2 + semi)


def split_zero(f: RationalFactored, z0, eps_target: float = 0.05, branch: int = 0,
               eps0: float | None = None) -> DesingularizationResult:
    """One application of the zero-splitting construction, with verification.

    Preconditions: ord(f, z0) >= 2, the full admissibility of f at z0, and
    general position of the remaining zeros seen from z0 (arrange via the
    Moebius helpers first if needed).  Backtracks eps by halving when Newton
    leaves its branch basin or the new state strays beyond eps_target, and
    by quartering when a q-polynomial root comes too close to the disk: at
    convergence, or already with the weights of the first Newton pass.
    Each function gets one PathEngine, which serves both its admissibility
    check and its resolution-96 grid state (grid_state: the distances read
    no species labels); the split works in one chart, whose cut lies half a
    branch spacing past the branch's seed angle, and chooses R once
    (choose_R: R = 1 unless its determinant is too small).  The result's
    diagnostics count the attempts, the backtracks by reason and the Newton
    passes; a typed error raised on the way carries the counters gathered
    so far as its diagnostics attribute.
    """
    return _split(f, z0, eps_target, branch, eps0)[0]


def _split(f, z0, eps_target=0.05, branch=0, eps0=None, state=None):
    """split_zero, and the resolution-96 grid state of f_new it built; a
    result does not hold it, or every caller that keeps results would keep
    grids.  state, if given, is a resolution-96 grid state of f already
    built at an interior zero of f: once f is admissible at z0, Re F
    vanishes at every zero, so U = |Re F| is the same from any of them."""
    if not eps_target > 0.0:
        raise ValueError("eps_target must be positive")
    if eps0 is not None and not 0.0 < eps0 < math.inf:
        raise ValueError("eps0 must be finite and positive")
    # z0 is the stored root it lies at, so that roots compare by equality
    z0 = root_at(f, z0)[0]
    if state is not None and (state.f is not f or state.resolution != STATE_RESOLUTION
                              or order_at(f, state.base) == 0):
        raise ValueError(f"state was not built for this f at resolution {STATE_RESOLUTION}"
                         " and an interior zero")
    # the search's counters, attached to the result or to a typed error
    diag = {"attempts": 0,
            "backtracks": dict.fromkeys(("BranchLost", "ClosenessFailed",
                                         "RootTooCloseToBoundary"), 0),
            "newton_passes": 0, "R": 0, "det_fallback": False}
    try:
        return _search(f, z0, eps_target, branch, eps0, state, diag)
    except HopfSegError as exc:
        exc.diagnostics = diag
        raise


def _search(f, z0, eps_target, branch, eps0, old_state, diag):
    """The body of _split, counting into diag as it goes; old_state, built
    on first need when not given, serves every attempt."""
    eng = PathEngine(f, build_slit_disk(f, z0))
    rep = admissibility(f, z0, engine=eng)
    if not rep.admissible:
        raise NotAdmissible(f"input not admissible at {z0}: {rep.residuals}")
    pts = [z for z, _ in f.interior_roots]
    if not is_general_position(pts, z0):
        raise ValueError("zeros not in general position with respect to z0")

    angles = limit_angles(f, z0)
    m = len(angles)
    if not 0 <= branch < m:
        raise ValueError(f"branch must lie in [0, {m})")
    th_seed = angles[branch]
    # one chart, its cut half a branch spacing past the seed
    ctx = make_context(f, z0, gamma_arg=(th_seed + np.pi / m) % (2 * np.pi))
    diag["R"] = choose_R(ctx)
    diag["det_fallback"] = ctx.det_fallback
    scale_b = float(np.max(np.abs(ctx.B0), initial=0.0))
    bad = float(np.max(np.abs(ctx.B0.real), initial=0.0))
    if bad > max(1e-8, 1e-7 * scale_b):
        raise NotAdmissible(f"system vector at 0 not purely imaginary: {bad}")

    w1 = abs(ctx.omegas[0]) if ctx.M else None
    eps = eps0 if eps0 is not None else (0.01 * w1 if w1 else 0.01)
    if w1:
        eps = min(eps, 0.45 * w1)

    basin = np.pi / m
    last_exc = None
    backtracks = diag["backtracks"]
    for attempt in range(1, 37):
        diag["attempts"] = attempt
        try:
            theta = th_seed
            # one pass per step gives K at theta, its central difference, and
            # at convergence the weights
            for npass in range(31):
                thetas = theta + np.array([0.0, 1e-6, -1e-6])
                omegas = eps * np.exp(1j * thetas)
                K, W = _K_and_weights(ctx, omegas, thetas)
                diag["newton_passes"] += 1
                if abs(K[0]) <= NEWTON_TOL:
                    break
                if npass == 0:
                    # the seed angle's weights already settle representability:
                    # a q-root they put too close to the disk, the converged
                    # weights put there too (so on all 922 attempts of the
                    # seed 11-13 reduction sweeps), and the search stops here
                    _q_factors(ctx, W[0])
                dK = (K[1] - K[2]) / 2e-6
                if dK == 0:
                    raise BranchLost("flat K derivative")
                step = -K[0] / dK
                step = max(-0.3 * basin, min(0.3 * basin, step))
                theta += step
                if abs((theta - th_seed + np.pi) % (2 * np.pi) - np.pi) > basin:
                    raise BranchLost("Newton left the branch basin")
            else:
                raise BranchLost(f"Newton stalled at |K| = {abs(K[0])}")

            omega0, W = omegas[0], W[0]
            f_new = _assemble_f_new(ctx, omega0, W)

            want = (ctx.m0, 1) + tuple(ctx.qs)
            got = tuple(order_at(f_new, z0 + w) for w in (0.0, omega0) + tuple(ctx.omegas))
            if got != want:
                raise SplitOrderMismatch(f"zero orders {got} at eps = {eps:.3g}, not {want}: roots "
                                         f"closer than ROOT_MERGE_TOL = {ROOT_MERGE_TOL:g} merge")
            eng_new = PathEngine(f_new, build_slit_disk(f_new, z0))
            rep_new = admissibility(f_new, z0, engine=eng_new)
            if not rep_new.admissible:
                raise ClosenessFailed(f"perturbed function failed admissibility: {rep_new.residuals}")
            if old_state is None:
                old_state = grid_state(f, z0, resolution=STATE_RESOLUTION, engine=eng)
            new_state = grid_state(f_new, z0, resolution=STATE_RESOLUTION, engine=eng_new)
            sup, h1 = _state_distances(old_state, new_state)
            if sup + h1 > eps_target:
                raise ClosenessFailed(f"state moved by {sup + h1} > {eps_target}")
            return DesingularizationResult(
                f_new=f_new, z0=z0, omega0=omega0, W=tuple(W), R=ctx.R,
                epsilon=eps, theta=theta, branch=branch,
                sup_dist=sup, h1_dist=h1, admissibility=rep_new,
                diagnostics=diag,
            ), new_state
        except RootTooCloseToBoundary as exc:
            # representability failure: the weights scale like
            # eps / |w_1|^{lR+1}, so shrink hard
            last_exc = exc
            backtracks[type(exc).__name__] += 1
            eps *= 0.25
        except (BranchLost, ClosenessFailed) as exc:
            last_exc = exc
            backtracks[type(exc).__name__] += 1
            eps *= 0.5
    raise ClosenessFailed(f"backtracking exhausted: {last_exc}")


def excess_index(f: RationalFactored) -> int:
    """Total multiplicity excess over triple junctions: sum of (order - 1)."""
    return sum(n - 1 for _, n in f.interior_roots)


def _isolation(f: RationalFactored, z) -> float:
    """Distance from the stored root z of f to its nearest other root (1 if none)."""
    return min((abs(w - z) for w, _ in f.interior_roots if w != z), default=1.0)


def zero_to_split(f: RationalFactored):
    """The stored zero to split next: of highest order, then the most isolated,
    then of least |z|, then of least angle.  Splitting the same center twice
    in a row parks two fresh zeros at nearly equal distances from every later
    center, which is exactly the degeneracy the system determinant cannot
    absorb."""
    top = max(m for _, m in f.interior_roots)
    return min((z for z, m in f.interior_roots if m == top),
               key=lambda z: (-_isolation(f, z), abs(z), np.angle(z)))


def reduce_to_simple(f: RationalFactored, eps_budget: float = 0.2) -> RationalFactored:
    """Split zeros (zero_to_split) until all are simple, one excess unit per step.

    Each step may first move the configuration into general position by a
    disk automorphism (the state distance then carries that map's condition
    factor).  The initial eps per step is a quarter of the nearest-zero
    distance (backtracking shrinks it as needed), which keeps the produced
    zeros as separated as the budget allows; a conservative eps = 0.01 |w_1|
    makes later splits exponentially harder to represent because the
    q-weights scale like eps / |w_1|^{R+1}.  A step with no automorphism
    reuses the state that the step before built for the same function.
    """
    if not eps_budget > 0.0:
        raise ValueError("eps_budget must be positive")
    alpha0 = excess_index(f)
    if alpha0 == 0:
        return f
    per_step = eps_budget / alpha0

    cur, state = f, None
    while excess_index(cur):
        z0 = zero_to_split(cur)
        pts = [z for z, _ in cur.interior_roots]
        if is_general_position(pts, z0):
            res, state = _split(cur, z0, eps_target=per_step, eps0=0.25 * _isolation(cur, z0),
                                state=state)
            cur = res.f_new
        else:
            mob = make_general_position(pts, z0)
            g = pushforward_hopf(cur, invert(mob))
            gz0 = root_at(g, apply(mob, z0))[0]
            res = split_zero(g, gz0, eps_target=per_step, eps0=0.25 * _isolation(g, gz0))
            cur, state = pushforward_hopf(res.f_new, mob), None
    return cur
