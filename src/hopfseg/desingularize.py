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
no continuation bookkeeping; a split uses one chart.  The zero that
`hopfseg desingularize` splits, and that reduce_to_simple splits next, is
zero_to_split's: of highest order, then the most isolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchLost,
    ClosenessFailed,
    DeterminantFloor,
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
from .states import admissibility, reconstruct

R_CANDIDATES = (2, 4, 8, 16, 32, 64)
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


def _halfpow_star(zeta, w: complex, q: int, lift_w: float):
    """(zeta - w)^{q/2} continued from zeta = 0 along straight rays.

    Single valued off the radial cut {t w : t >= 1}; the constant branch
    choice assigns angle lift_w + pi to (-w).
    """
    zeta = np.asarray(zeta, dtype=complex)
    const = 0.5 * q * (np.log(abs(w)) + 1j * (lift_w + np.pi))
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

    def sqrt_core(self, zeta, omega0: complex):
        """zeta^{m0/2} (zeta - omega0)^{1/2} H(zeta), chart determination."""
        if omega0 == 0:
            base = _pow_chart(zeta, 0.5 * (self.m0 + 1), self.gamma_arg)
        else:
            lift0 = _lift(np.angle(omega0), self.gamma_arg)
            base = _pow_chart(zeta, 0.5 * self.m0, self.gamma_arg) * _halfpow_star(
                zeta, omega0, 1, lift0
            )
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


def _ray_integral(ctx: PerturbationContext, endpoints, omega0: complex, powers):
    """2 * int_0^{w} zeta^{k} core(zeta) dzeta along the radial path to each
    entry w of the complex array endpoints, with k the entry of the integer
    array powers.
    """
    def g(j, t):
        zeta = t * endpoints[j][:, None]
        return ctx.sqrt_core(zeta, omega0) * zeta ** powers[j][:, None]

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


def _limit_signs(ctx: PerturbationContext, theta: float) -> np.ndarray:
    """Per-ray signs of the omega0 -> 0 limit of the (zeta - omega0)^{1/2} factor.

    The radial cut hanging off omega0 sweeps the chart as omega0 shrinks
    along angle theta; rays whose lifted angle does not exceed the lifted
    theta pick up a factor -1 relative to the plain zeta^{1/2} chart branch.
    """
    lifted = _lift(np.angle(ctx.omegas), ctx.gamma_arg)
    return np.where(lifted <= _lift(theta, ctx.gamma_arg), -1.0, 1.0)


def assemble_system(ctx: PerturbationContext, omega0, R: int | None = None):
    """System matrix and vector: entries are radial-path integrals to each w_j.

    At omega0 = 0 the entries are on the plain chart branch; _limit_signs
    gives the limit of the omega0-system along a direction.
    """
    R = ctx.R if R is None else R
    M = ctx.M
    # row j holds the ray integrals to w_j with the powers 0, R, ..., M R
    ends = np.repeat(np.asarray(ctx.omegas, dtype=complex), M + 1)
    rows = _ray_integral(ctx, ends, omega0, np.tile(R * np.arange(M + 1), M))
    rows = rows.reshape(M, M + 1)
    return rows[:, 1:], rows[:, 0]


def _normalized_det(A: np.ndarray) -> float:
    """|det A| with every row scaled to unit length; 0 when a row vanishes."""
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        return 0.0
    return float(abs(np.linalg.det(A / norms[:, None])))


def choose_R(ctx: PerturbationContext) -> int:
    """Smallest doubling R whose row-normalized system determinant clears 1e-8."""
    best = None
    for R in R_CANDIDATES + (1,):
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
        return ctx.R
    raise DeterminantFloor("no exponent scale R <= 64 gave a usable determinant")


def normalized_det(ctx: PerturbationContext, R: int) -> float:
    return _normalized_det(assemble_system(ctx, 0.0, R=R)[0])


def solve_weights(A: np.ndarray, B: np.ndarray, B0: np.ndarray) -> np.ndarray:
    """W = A^{-1} (B0 - B); the imaginary parts Lambda are fixed by B0 itself."""
    if len(B) == 0:
        return np.zeros(0, dtype=complex)
    try:
        W = np.linalg.solve(A, B0 - B)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    resid = np.linalg.norm(A @ W - (B0 - B))
    if resid > 1e-10 * max(1.0, float(np.linalg.norm(B0 - B))):
        raise SingularSolve(f"solve residual {resid}")
    return W


def _weights(ctx: PerturbationContext, omega0: complex, theta: float):
    """The weights W at omega0 = eps e^{i theta}."""
    A, B = assemble_system(ctx, omega0)
    return solve_weights(A, B, _limit_signs(ctx, theta) * ctx.B0)


def K_value(ctx: PerturbationContext, eps: float, theta: float) -> float:
    """Scaled real part of the primitive at the candidate simple zero.

    K(eps, theta) = eps^{-(m0+3)/2} * Re F(w0) / 2 with w0 = eps e^{i theta};
    at eps = 0 the closed form -|H(0)| c_{m0} sin((3+m0)/2 lift(theta) - phi)
    with phi = -Arg H(0).
    """
    m0 = ctx.m0
    if eps == 0.0:
        H0 = complex(ctx.H(np.array([0.0 + 0.0j]))[0])
        phi = -np.angle(H0)
        th = _lift(theta, ctx.gamma_arg)
        return float(-abs(H0) * beta_moment(m0) * math.sin(0.5 * (3 + m0) * th - phi))
    omega0 = eps * np.exp(1j * theta)
    return _K_scaled(ctx, omega0, _weights(ctx, omega0, theta))


def _K_scaled(ctx: PerturbationContext, omega0: complex, W) -> float:
    """Re(i e^{i(m0+3) lift(theta)/2} * int t^{m0/2} sqrt(1-t) H(t w0) q(t w0) dt).

    The eps powers are factored out analytically, so the value never
    underflows however small |w0| is.
    """
    m0 = ctx.m0
    lift0 = _lift(np.angle(omega0), ctx.gamma_arg)

    def g(j, t):
        zeta = t * omega0
        q = np.ones_like(zeta)
        for ell, w in enumerate(W, start=1):
            q = q + w * zeta ** (ell * ctx.R)
        return np.power(t, 0.5 * m0) * np.sqrt(1.0 - t) * ctx.H(zeta) * q

    I = _unit_integrals(g, 1)[0]
    return float(np.real(1j * np.exp(0.5j * (m0 + 3) * lift0) * I))


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

    @property
    def new_zero(self) -> complex:
        return self.z0 + self.omega0


def _assemble_f_new(ctx: PerturbationContext, omega0: complex, W: np.ndarray):
    """Factored form of z^{m0}(z - w0) h^2 q^2 prod (z - w_j)^{q_j}, recentred back."""
    f = ctx.f
    z0 = ctx.z0
    roots = [(z0 + omega0, 1)]
    if ctx.m0 >= 1:
        roots.append((z0, ctx.m0))
    for w, q in zip(ctx.omegas, ctx.qs):
        roots.append((z0 + w, q))
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
    return RationalFactored(
        leading=lead,
        interior_roots=tuple(roots),
        unit_num=tuple(unit_num),
        unit_den=f.unit_den,
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
    by quartering when a q-polynomial root comes too close to the disk.
    Each function gets one PathEngine, which serves both its admissibility
    check and its resolution-96 state; the split works in one chart, whose
    cut lies half a branch spacing past the branch's seed angle, and chooses
    R once.
    """
    return _split(f, z0, eps_target, branch, eps0)[0]


def _split(f, z0, eps_target=0.05, branch=0, eps0=None, state=None):
    """split_zero, and the resolution-96 state of f_new it built; a result
    does not hold it, or every caller that keeps results would keep grids.
    state, if given, is a resolution-96 state of f already built at an
    interior zero of f: once f is admissible at z0, Re F vanishes at every
    zero, so U = |Re F| is the same from any of them."""
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
    choose_R(ctx)
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
    old_state = state         # built on first need, shared by every attempt
    tried_small_R = False
    for _ in range(36):
        try:
            theta = th_seed
            K = K_value(ctx, eps, theta)
            for _ in range(30):
                if abs(K) <= NEWTON_TOL:
                    break
                dK = (K_value(ctx, eps, theta + 1e-6) - K_value(ctx, eps, theta - 1e-6)) / 2e-6
                if dK == 0:
                    raise BranchLost("flat K derivative")
                step = -K / dK
                step = max(-0.3 * basin, min(0.3 * basin, step))
                theta += step
                if abs((theta - th_seed + np.pi) % (2 * np.pi) - np.pi) > basin:
                    raise BranchLost("Newton left the branch basin")
                K = K_value(ctx, eps, theta)
            if abs(K) > NEWTON_TOL:
                raise BranchLost(f"Newton stalled at |K| = {abs(K)}")

            omega0 = eps * np.exp(1j * theta)
            W = _weights(ctx, omega0, theta)
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
                old_state = reconstruct(f, z0, resolution=STATE_RESOLUTION, engine=eng)
            new_state = reconstruct(f_new, z0, resolution=STATE_RESOLUTION, engine=eng_new)
            sup, h1 = _state_distances(old_state, new_state)
            if sup + h1 > eps_target:
                raise ClosenessFailed(f"state moved by {sup + h1} > {eps_target}")
            return DesingularizationResult(
                f_new=f_new, z0=z0, omega0=omega0, W=tuple(W), R=ctx.R,
                epsilon=eps, theta=theta, branch=branch,
                sup_dist=sup, h1_dist=h1, admissibility=rep_new,
            ), new_state
        except RootTooCloseToBoundary as exc:
            # representability failure: the weights scale like
            # eps / |w_1|^{lR+1}, so shrink hard, and prefer the
            # smallest exponent scale the determinant floor allows
            last_exc = exc
            if not tried_small_R and ctx.M and ctx.R > 1:
                tried_small_R = True
                if normalized_det(ctx, 1) >= DET_FLOOR:
                    ctx.R = 1
                    continue
            eps *= 0.25
        except (BranchLost, ClosenessFailed) as exc:
            last_exc = exc
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
