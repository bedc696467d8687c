"""Property-based checks of the structural invariants."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hopfseg.mobius import MobiusMap, apply, compose, invert, pushforward_hopf
from hopfseg.primitive import PathEngine
from hopfseg.rational import multiply, rational, winding_count
from hopfseg.slits import build_slit_disk, route_between

cx = st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False)
small_alpha = st.complex_numbers(max_magnitude=0.35, allow_nan=False, allow_infinity=False)


def roots_strategy(max_roots=3, max_mult=3):
    return st.lists(
        st.tuples(cx, st.integers(1, max_mult)), min_size=1, max_size=max_roots,
    )


@st.composite
def factored_functions(draw, max_roots=3, max_mult=3):
    roots = draw(roots_strategy(max_roots, max_mult))
    lead_angle = draw(st.floats(0.0, 2 * np.pi))
    lead_mag = draw(st.floats(0.2, 2.0))
    return rational(lead_mag * np.exp(1j * lead_angle), roots=roots)


@given(factored_functions(), st.floats(0.55, 0.95))
@settings(max_examples=20, deadline=None)
def test_winding_equals_enclosed_multiplicity(f, radius):
    if any(abs(abs(z) - radius) < 1e-3 for z, _ in f.interior_roots):
        return
    expected = sum(m for z, m in f.interior_roots if abs(z) < radius)
    assert winding_count(f, 0.0, radius) == expected


@given(factored_functions(max_roots=2), factored_functions(max_roots=2), cx)
@settings(max_examples=20, deadline=None)
def test_eval_multiplicative(f, g, z):
    h = multiply(f, g)
    lhs = h.eval(z)
    rhs = f.eval(z) * g.eval(z)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-300)


@given(factored_functions(max_roots=2, max_mult=2), cx)
@settings(max_examples=10, deadline=None)
def test_sheet_consistency_everywhere(f, target):
    if f.min_root_distance(target) < 1e-3:
        return
    base = 0.7j
    if f.min_root_distance(base) < 1e-3:
        return
    slit = build_slit_disk(f, base)
    if slit.on_cut_interior(target):
        return
    eng = PathEngine(f, slit, tol=1e-11)
    wps = route_between(slit, base, target)
    for a, b in zip(wps[:-1], wps[1:]):
        for z in a + (b - a) * np.linspace(0.0, 1.0, 9)[1:]:
            _, v = eng.value_and_sqrt(z)
            w = f.eval(z)
            assert abs(v * v - w) <= 1e-11 * max(abs(w), 1e-300)


@given(factored_functions(max_roots=2, max_mult=2), small_alpha,
       st.floats(0, 2 * np.pi), cx)
@example(f=rational(1.0, roots=[(0.25j, 1)]), alpha=1e-13 + 0j, theta=0.0, z=1e-6 + 0.25j)
# z = 0.25 is within an ulp of g's root, phi^{-1}(0.25) rounded to a double
@example(f=rational(1.0, roots=[(0.25, 1)]), alpha=2.220446049250313e-16 + 0j, theta=0.0,
         z=0.25 + 0j)
@settings(max_examples=15, deadline=None)
def test_pushforward_chain_rule_random(f, alpha, theta, z):
    m = MobiusMap(alpha=alpha, theta=theta)
    try:
        g = pushforward_hopf(f, m)
    except Exception:
        return
    eps = np.finfo(float).eps
    # f(phi(z)) phi'(z)^2 from the same double inputs at 2,200 bits, which
    # hold z + alpha exactly however small z is, so that phi(z) - r does not
    # cancel to noise and only g's own rounding is measured
    with mp.workprec(2200):
        a, zz = mp.mpc(alpha), mp.mpc(z)
        rot = mp.expj(theta)
        den = mp.conj(a) * zz + 1
        phi = rot * (zz + a) / den
        dphi = rot * (1 - abs(a) ** 2) / den**2
        fphi = mp.mpc(f.leading)
        for r, k in f.interior_roots:
            fphi *= (phi - mp.mpc(r)) ** k
            # g's roots are the phi^{-1}(r) rounded to doubles; the numerator
            # r e^{-i theta} - alpha may cancel, so the error scales with the
            # inputs (down to subnormal ones)
            w = mp.mpc(r) / rot
            exact = (w - a) / (1 - mp.conj(a) * w)
            miss = min(abs(mp.mpc(rho) - exact) for rho, _ in g.interior_roots)
            assert miss <= 4 * eps * max(abs(r) + abs(alpha), 1e-300)
        rhs = complex(fphi * dphi**2)
    lhs = g.eval(z)
    # so g(z) carries that rounding amplified by the condition number
    # sum_k m_k / |z - rho_k|, which is unbounded as z nears a root
    spread = 4 * eps * (abs(alpha) + max(abs(r) for r, _ in f.interior_roots))
    cond = sum(k / max(abs(z - rho), 1e-300) for rho, k in g.interior_roots)
    assert abs(lhs - rhs) <= (1e-10 + spread * cond) * max(abs(rhs), 1e-280)


@given(small_alpha, st.floats(0, 2 * np.pi), small_alpha, st.floats(0, 2 * np.pi), cx)
@settings(max_examples=25, deadline=None)
def test_compose_is_group_operation(a1, t1, a2, t2, z):
    m1 = MobiusMap(alpha=a1, theta=t1)
    m2 = MobiusMap(alpha=a2, theta=t2)
    m = compose(m2, m1)
    assert abs(apply(m, z) - apply(m2, apply(m1, z))) < 1e-12
    mi = compose(invert(m1), m1)
    assert abs(apply(mi, z) - z) < 1e-12


@given(st.integers(0, 4))
@settings(max_examples=5, deadline=None)
def test_split_preserves_total_order(k):
    from hopfseg.desingularize import split_zero
    from hopfseg.rational import monomial, order_at

    res = split_zero(monomial(0.25, 3), 0.0, eps_target=1.0, branch=k, eps0=0.01)
    assert order_at(res.f_new, 0.0) == 2
    assert order_at(res.f_new, res.new_zero) == 1
    assert sum(m for _, m in res.f_new.interior_roots) == 3


@given(st.floats(0.1, 0.85), st.integers(8, 64))
@settings(max_examples=10, deadline=None)
def test_constant_primitive_is_identity(r, n):
    f = rational(0.25)
    slit = build_slit_disk(f, 0.0)
    eng = PathEngine(f, slit, tol=1e-11)
    z = r * np.exp(2j * np.pi / n)
    assert abs(eng.F(z) - z) < 1e-9
