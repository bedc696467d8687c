import numpy as np
import pytest

from hopfseg.errors import PoleHit, RootHit, RootOnContour
from hopfseg.nodal import JET_CAP
from hopfseg.rational import (
    AT_ROOT_TOL,
    ROOT_MERGE_TOL,
    RationalFactored,
    monomial,
    multiply,
    order_at,
    rational,
    winding_count,
)


def test_eval_examples():
    f = monomial(0.25, 3)
    assert f(1.0) == pytest.approx(0.25, rel=1e-14)
    assert f(0.0) == 0
    g = rational(0.25, roots=[(0, 1), (0.1, 2)])
    assert g(0.2) == pytest.approx(0.2 * 0.1**2 / 4, rel=1e-13)


def test_eval_vectorized_matches_scalar():
    f = rational(0.5 - 0.25j, roots=[(0.2 + 0.1j, 2), (-0.3, 1)],
                 unit_num=[(1.4, 1)], unit_den=[(-1.7 + 0.4j, 2)])
    z = np.array([0.1, -0.2 + 0.3j, 0.7j])
    vec = f.eval(z)
    for i, zi in enumerate(z):
        assert vec[i] == pytest.approx(f.eval(complex(zi)), rel=1e-14)


def test_pole_hit():
    f = rational(1.0, unit_den=[(1.5, 1)])
    with pytest.raises(PoleHit):
        f.eval(1.5)


def test_log_derivative_examples():
    f = monomial(0.25, 3)
    assert f.log_derivative(1.0) == pytest.approx(3.0, rel=1e-14)
    g = rational(1.0, roots=[(0, 1), (0.3, 2)])
    assert g.log_derivative(1.0) == pytest.approx(1 + 2 / 0.7, rel=1e-14)
    c = rational(0.25)
    assert c.log_derivative(0.37 + 0.1j) == 0
    with pytest.raises(RootHit):
        g.log_derivative(0.3)


def test_log_derivative_prime_matches_differences():
    f = rational(0.5 - 0.25j, roots=[(0.2 + 0.1j, 2), (-0.3, 1)],
                 unit_num=[(1.4, 1)], unit_den=[(-1.7 + 0.4j, 2)])
    z = np.array([0.1, -0.2 + 0.3j, 0.7j, 0.25 + 0.1j])
    h = 1e-6
    diff = (f.log_derivative(z + h) - f.log_derivative(z - h)) / (2 * h)
    assert np.allclose([f.jet(w, 2)[3][1] for w in z], diff, rtol=1e-7, atol=0)
    assert f.jet(complex(z[1]), 2)[3][1] == pytest.approx(diff[1], rel=1e-7)
    assert np.allclose([f.jet(w, 1)[3][0] for w in z], f.log_derivative(z), rtol=1e-14, atol=0)
    # every coefficient up to the tracer's cap: l_k = (-1)^k n / z^(k+1) for c z^n
    w = 0.4 + 0.3j
    ell = monomial(0.25, 3).jet(w, JET_CAP)[3]
    assert len(ell) == JET_CAP
    for k, lk in enumerate(ell):
        assert lk == pytest.approx((-1) ** k * 3 / w ** (k + 1), rel=1e-14)
    with pytest.raises(RootHit):
        f.jet(-0.3, 2)
    with pytest.raises(RootHit):
        f.jet(1.4, 2)
    with pytest.raises(PoleHit):
        f.jet(-1.7 + 0.4j, 2)


def test_growth_disk_bounds_f():
    f = rational(0.5 - 0.25j, roots=[(0.2 + 0.1j, 2), (-0.3, 1)],
                 unit_num=[(1.4, 1)], unit_den=[(-1.7 + 0.4j, 2)])
    for z in (0.1, -0.2 + 0.3j, 0.7j, 0.25 + 0.1j):
        rho, g, droot, _, fz = f.jet(z, 1)
        assert fz == pytest.approx(f.eval(z), rel=1e-14)
        assert rho == pytest.approx(0.75 * min(abs(z - r) for r in (0.2 + 0.1j, -0.3, 1.4, -1.7 + 0.4j)))
        assert droot == pytest.approx(f.min_root_distance(z), rel=1e-15)
        w = z + rho * np.sqrt(np.linspace(0, 1, 9))[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.abs(f.eval(w)).max() <= g * abs(f.eval(z))
    # a root factor reaches 7/4 of itself on the disk's edge, pointing away from the root
    rho, g, _, _, fz = monomial(0.25, 3).jet(0.4, 1)
    assert (rho, g) == (pytest.approx(0.3), pytest.approx(1.75 ** 3))
    assert abs(monomial(0.25, 3).eval(0.4 + rho)) == pytest.approx(g * abs(fz), rel=1e-14)
    assert rational(0.25).jet(0.3, 1)[:3] == (np.inf, 1.0, np.inf)


def test_order_at_examples():
    f = monomial(0.25, 3)
    assert order_at(f, 0.0) == 3
    assert order_at(f, 0.5) == 0
    g = rational(0.25, roots=[(0, 1), (0.1, 2)])
    assert order_at(g, 0.1) == 2


def test_order_at_tells_close_roots_apart():
    # roots 5e-11 apart are kept apart (the constructor merges below
    # ROOT_MERGE_TOL = 1e-12), and a point lies at one of them at most
    a, b = 0.1, 0.1 + 5e-11
    f = rational(0.25, roots=[(a, 3), (b, 1)])
    assert len(f.interior_roots) == 2
    assert (order_at(f, a), order_at(f, b)) == (3, 1)
    assert order_at(f, a + 0.5 * AT_ROOT_TOL) == 3
    assert order_at(f, a + 2.0 * AT_ROOT_TOL) == 0
    assert AT_ROOT_TOL < 0.5 * ROOT_MERGE_TOL


def test_order_matches_log_slope():
    # ord agrees with the limit exponent of log|f| along shrinking circles
    f = rational(0.3 + 0.1j, roots=[(0.2 + 0.2j, 3)], unit_num=[(1.3, 1)])
    z0 = 0.2 + 0.2j
    slopes = []
    for r in (1e-3, 1e-4):
        th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        vals = np.abs(f.eval(z0 + r * np.exp(1j * th))).max()
        slopes.append((np.log(vals), np.log(r)))
    est = (slopes[0][0] - slopes[1][0]) / (slopes[0][1] - slopes[1][1])
    assert abs(est - 3) < 0.1


def test_winding_examples():
    h = rational(1.0, roots=[(0, 1), (0.3, 2)])
    assert winding_count(h, 0.0, 0.5) == 3
    assert winding_count(h, 0.0, 0.1) == 1
    f = monomial(0.25, 3)
    assert winding_count(f, 0.0, 0.9) == 3


def test_winding_root_on_contour():
    h = rational(1.0, roots=[(0.5, 1)])
    with pytest.raises(RootOnContour):
        winding_count(h, 0.0, 0.5)


def test_root_merging_and_validation():
    f = rational(1.0, roots=[(0.1, 1), (0.1 + 1e-14, 2)])
    assert f.interior_roots == ((0.1 + 0j, 3),)
    with pytest.raises(ValueError):
        rational(0.0, roots=[(0, 1)])
    with pytest.raises(ValueError):
        rational(1.0, roots=[(0.99, 1)])       # inside the boundary band
    with pytest.raises(ValueError):
        rational(1.0, unit_num=[(1.01, 1)])    # unit factor too close


def test_multiply_closure(rng):
    for _ in range(5):
        f = rational(
            rng.normal() + 1j * rng.normal() or 1.0,
            roots=[(0.5 * (rng.random() + 1j * rng.random()) - 0.25 - 0.25j,
                    int(rng.integers(1, 3)))],
        )
        g = rational(1.3, roots=[(0.3j, 2)], unit_den=[(2.0, 1)])
        h = multiply(f, g)
        z = 0.3 - 0.2j
        assert h.eval(z) == pytest.approx(f.eval(z) * g.eval(z), rel=1e-12)


def test_winding_counts_stored_multiplicities(rng):
    for _ in range(6):
        k = int(rng.integers(1, 4))
        roots = [
            (0.8 * (rng.random() + 1j * rng.random()) - 0.4 - 0.4j, int(rng.integers(1, 4)))
            for _ in range(k)
        ]
        f = rational(1.0 + 0.5j, roots=roots)
        r = 0.9
        if any(abs(abs(z) - r) < 1e-3 for z, _ in f.interior_roots):
            continue
        expected = sum(m for z, m in f.interior_roots if abs(z) < r)
        assert winding_count(f, 0.0, r) == expected


def test_immutability():
    f = monomial(1.0, 2)
    with pytest.raises(Exception):
        f.leading = 2.0


def test_self_check_winding_oracle(rng):
    for _ in range(4):
        k = int(rng.integers(1, 4))
        roots = [
            (0.9 * (rng.random() + 1j * rng.random()) - 0.45 - 0.45j, int(rng.integers(1, 3)))
            for _ in range(k)
        ]
        f = rational(0.8 + 0.3j, roots=roots, unit_den=[(1.9 - 0.5j, 1)])
        assert f.self_check()
