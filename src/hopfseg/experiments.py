"""Reusable experiment drivers: the rigidity scan, phase-tuned configurations,
and generators for the index-formula suite.

The rigidity scan integrates f^{1/2} along the straight segment from 0 to w
(split at w / 2, so that both pieces end at a root), for every angle of its
grid in one batch of the square-root kernel; its refinement integrates one
angle per call of the same kernel.

The phase-tuning trick: rotating the leading coefficient by e^{2 i gamma}
rotates F by e^{i gamma}, so a single residual condition Re F(r) = 0 at one
chosen zero is solved exactly by gamma = pi/2 - Arg F(r) (mod pi).  That is
how even-order zeros are placed on the nodal set by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .desingularize import reduce_to_simple, split_zero
from .errors import HopfSegError, SearchExhausted, SheetLost
from .nodal import boundary_zeros, trace, verify_index
from .primitive import PathEngine
from .quadrature import branch_sign, rtsafe, sqrt_segments
from .rational import DELTA_BD_DEFAULT, RationalFactored, monomial, rational
from .slits import build_slit_disk
from .states import ADMISSIBILITY_REL_TOL, analytic_state, find_base_point, grid_state

MAX_DRAW_ATTEMPTS = 200
RIGIDITY_TOL = 1e-11         # the tolerance of the rigidity integrals
TUNED_LEADING = 0.25         # a tuned configuration's leading coefficient, before rotation


# -- the rigidity scan (one-parameter family z (z - w)^2 / 4) -----------------


def rigidity_values(radius: float, phis) -> np.ndarray:
    """F(w) - F(0) for f = z (z - w)^2 / 4 at w = radius e^{i phi}, for every
    angle in phis, each up to sign, in one pass of the square-root kernel.

    F(w) - F(0) = 2 (int_m^w - int_m^0) f^{1/2} with m = w / 2: two straight
    segments from the same root at m, each ending at a root.  The segment
    from 0 to w is a path of the slit disk, since it leaves the only branch
    point (the anchor of the cut) and the cut clears w, so the value equals
    the PathEngine's up to the sign of the root at m.
    """
    w = radius * np.exp(1j * np.asarray(phis, dtype=float).reshape(-1))
    n = len(w)
    ws = np.concatenate((w, w))
    vals, _, _ = sqrt_segments(
        lambda i, z: 0.25 * z * (z - ws[i, None]) ** 2,
        np.column_stack((np.zeros(2 * n), ws)),
        np.concatenate((0.5 * w, 0.5 * w)), np.concatenate((w, np.zeros(n))), tol=RIGIDITY_TOL)
    return 2.0 * (vals[:n] - vals[n:])


def rigidity_value(radius: float, phi: float) -> complex:
    """F(w) - F(0) for f = z (z - w)^2 / 4, w = radius e^{i phi}, up to sign."""
    return complex(rigidity_values(radius, [phi])[0])


@dataclass(frozen=True)
class RigidityScan:
    radius: float
    step: float
    phis: np.ndarray
    residuals: np.ndarray      # signed Re F(w), on one sheet across the scan
    admissible: np.ndarray     # |residual| <= tol at the grid angles
    zeros: tuple               # refined angles where admissibility holds
    tol: float
    refined: tuple             # the angles the refinement evaluated, in order


def rigidity_scan(radius: float = 0.1, step: float = 1e-3) -> RigidityScan:
    """Scan the family over phi in [0, 2 pi), locating the admissible angles.

    The grid values come from one call of rigidity_values.  F(w) turns by
    5 step / 2 from one scan angle to the next, so taking at each the sign
    nearer the value before keeps one sheet (hence 0 < step < pi/5), and
    every sign change of Re F is a zero, refined by secant steps in its
    bracket (quadrature.rtsafe, xtol 1e-12) on values continued from the
    bracket's start; a refined residual above tol, ADMISSIBILITY_REL_TOL
    times the boundary scale of F, raises SheetLost.  The radius must leave
    w inside the disk's margin, 0 < radius <= 1 - delta_bd.
    """
    if not 0.0 < step < np.pi / 5:
        raise ValueError(f"step {step} outside (0, pi/5): the sheet rule needs a turn "
                         f"5 step / 2 < pi/2 between scan angles")
    if not 0.0 < radius <= 1.0 - DELTA_BD_DEFAULT:
        raise ValueError(f"radius {radius} outside (0, {1.0 - DELTA_BD_DEFAULT}]")
    # boundary scale of F is ~ 2/5 + O(radius); one engine probe fixes it
    f0 = rational(0.25, roots=[(0.0, 1), (radius, 2)])
    eng0 = PathEngine(f0, build_slit_disk(f0, 0.0))
    tol = ADMISSIBILITY_REL_TOL * eng0.boundary_scale()
    phis = np.arange(0.0, 2 * np.pi, step)
    vals = rigidity_values(radius, phis)
    # the scan closes on its first angle, one turn on
    ends, vals = np.append(phis, 2 * np.pi), np.append(vals, vals[0])
    vals[1:] *= np.cumprod(branch_sign(vals[1:], vals[:-1]))
    zeros, refined = [], []
    for a, Fa, b, Fb in zip(ends[:-1], vals[:-1], ends[1:], vals[1:]):
        if Fa.real == 0.0:
            zeros.append(a)
        if Fa.real * Fb.real >= 0:
            continue
        known = {a: Fa.real, b: Fb.real}

        def residual(phi, Fa=Fa):
            if phi not in known:
                refined.append(phi)
                F = rigidity_value(radius, phi)
                known[phi] = branch_sign(F, Fa) * F.real
            return known[phi]

        m = rtsafe(lambda phi: (residual(phi), None), a, b, Fa.real, Fb.real, 1e-12)
        if abs(residual(m)) > tol:
            raise SheetLost(f"Re F changes sign on [{a}, {b}] but is {residual(m)} at {m}")
        zeros.append(m % (2 * np.pi))
    return RigidityScan(
        radius=radius, step=step, phis=phis, residuals=vals.real[:-1],
        admissible=np.abs(vals.real[:-1]) <= tol, zeros=tuple(sorted(zeros)), tol=tol,
        refined=tuple(refined),
    )


# -- phase-tuned configurations --------------------------------------------------


def tune_phase(roots, base, tune_root) -> RationalFactored:
    """Rotate the leading coefficient so Re F vanishes at one chosen zero."""
    f0 = rational(TUNED_LEADING, roots=roots)
    eng = PathEngine(f0, build_slit_disk(f0, complex(base)))
    F0 = eng.F(complex(tune_root))
    gamma = (0.5 * np.pi - np.angle(F0)) % np.pi
    return rational(TUNED_LEADING * np.exp(2j * gamma), roots=roots)


def figure5_function() -> tuple[RationalFactored, complex]:
    """A handcrafted state with counts M = 7, N = 6, T = 2.

    One 3-point (the odd base zero), one 4-point (phase-tuned double zero) in
    a separate nodal component, and one non-critical double zero.
    """
    a = -0.4 - 0.3j
    r = 0.5 + 0.0j
    s = -0.05 + 0.55j
    f = tune_phase([(a, 1), (r, 2), (s, 2)], a, r)
    return f, a


# -- configuration generators for the index-formula suite ------------------------


def random_even_function(rng) -> RationalFactored:
    """Even-only-root function with well-separated structure, base origin.

    Draws are filtered on generator preconditions (root separation, roots
    clearly off the nodal set, separated boundary zeros) so the traced graph
    is meaningful at moderate resolutions; the counting identities are never
    part of the filter.  Raises SearchExhausted after MAX_DRAW_ATTEMPTS
    rejected draws.
    """
    for _ in range(MAX_DRAW_ATTEMPTS):
        k = int(rng.integers(1, 4))
        roots = []
        for _ in range(k):
            z = (rng.uniform(-0.55, 0.55) + 1j * rng.uniform(-0.55, 0.55))
            roots.append((z, 2))
        if any(
            abs(roots[i][0] - roots[j][0]) < 0.25
            for i in range(k) for j in range(i + 1, k)
        ):
            continue
        c = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        try:
            f = rational(c, roots=roots)
            eng = PathEngine(f, build_slit_disk(f, 0.0))
            scale = eng.boundary_scale()
            if any(abs(eng.F(z).real) < 1e-2 * scale for z, _ in roots):
                continue
            bz = boundary_zeros(analytic_state(f, 0.0, resolution=96, engine=eng))
            gaps = np.diff(sorted(bz) + [sorted(bz)[0] + 2 * np.pi]) if bz else []
            # shallow boundary caps (close zero pairs) are invisible at
            # working resolutions; keep the arcs well separated
            if len(bz) and min(gaps) < 0.35:
                continue
            return f
        except HopfSegError:
            continue
    raise SearchExhausted(f"no acceptable draw in {MAX_DRAW_ATTEMPTS} attempts")


def splitting_outputs() -> list[tuple[RationalFactored, complex]]:
    """Admissible states produced by the zero-splitting pipeline."""
    out = []
    for branch in range(5):
        res = split_zero(monomial(0.25, 3), 0.0, eps_target=1e9, branch=branch, eps0=0.01)
        out.append((res.f_new, 0.0 + 0.0j))
    for branch in range(4):
        res = split_zero(monomial(0.25, 2), 0.0, eps_target=1e9, branch=branch, eps0=0.01)
        out.append((res.f_new, 0.0 + 0.0j))
    g = reduce_to_simple(monomial(0.25, 3), eps_budget=3.0)
    out.append((g, None))
    return out


def admissible_fw(k: int = 0) -> tuple[RationalFactored, complex]:
    """The rigidity family at one of its five admissible angles."""
    phi = np.pi / 5 + 2 * k * np.pi / 5
    w = 0.1 * np.exp(1j * phi)
    return rational(0.25, roots=[(0.0, 1), (w, 2)]), 0.0 + 0.0j


def tuned_multizero(a, b, na: int, nb: int) -> RationalFactored:
    """(z-a)^{na} (z-b)^{nb} with the phase tuned so both zeros are critical.

    Base at a handles its own residual (F(a) = 0 by definition); the single
    remaining condition at b is solved by the phase rotation.
    """
    return tune_phase([(complex(a), na), (complex(b), nb)], a, b)


def random_multizero(rng) -> RationalFactored:
    """tuned_multizero(a, b, na, nb) with a and b uniform in [-0.5, 0.5]^2,
    drawn until they lie more than 0.3 apart, and na, nb uniform in {2, 3}."""
    while True:
        a = complex(*rng.uniform(-0.5, 0.5, 2))
        b = complex(*rng.uniform(-0.5, 0.5, 2))
        if abs(a - b) > 0.3:
            break
    na, nb = rng.integers(2, 4, 2)
    return tuned_multizero(a, b, int(na), int(nb))


def reduction_sweep(seed: int, count: int, resolution: int = 128):
    """Yields (f, outcome, routed) for the first count draws f of
    random_multizero(default_rng(seed)).  outcome is (M, N, T, clean trace,
    identities and Euler's relation hold) for reduce_to_simple(f, 8.0) at the
    resolution, from find_base_point, or the name of the typed error raised
    on the way; routed counts the state's routed fill cells (None on error).
    """
    rng = np.random.default_rng(seed)
    for f in [random_multizero(rng) for _ in range(count)]:
        try:
            g = reduce_to_simple(f, eps_budget=8.0)
            st = grid_state(g, find_base_point(g), resolution=resolution)
            gr = trace(st)
        except HopfSegError as exc:
            yield f, type(exc).__name__, None
            continue
        rep = verify_index(gr)
        yield f, (gr.M, gr.N, gr.T, gr.clean, rep.formula_check and rep.euler_check), st.routed
