import numpy as np
import pytest

from hopfseg.errors import RootTooCloseToBoundary
from hopfseg.mobius import (
    MobiusMap,
    apply,
    compose,
    invert,
    is_general_position,
    make_general_position,
    pushforward_hopf,
)
from hopfseg.rational import monomial, order_at, rational, winding_count


def test_map_examples():
    m = MobiusMap(alpha=0.3)
    assert apply(m, 0.0) == pytest.approx(0.3)
    assert apply(m, -0.3) == pytest.approx(0.0, abs=1e-15)
    rot = MobiusMap(alpha=0.0, theta=0.7)
    z = 0.2 + 0.4j
    assert apply(rot, z) == pytest.approx(np.exp(0.7j) * z, rel=1e-14)


def test_invert_roundtrip(rng):
    for _ in range(5):
        m = MobiusMap(alpha=0.6 * (rng.random() + 1j * rng.random()) - 0.3 - 0.3j,
                      theta=rng.uniform(-np.pi, np.pi))
        z = 0.8 * (rng.random() + 1j * rng.random()) - 0.4 - 0.4j
        assert apply(invert(m), apply(m, z)) == pytest.approx(z, abs=1e-13)


def test_alpha_must_be_inside():
    with pytest.raises(ValueError):
        MobiusMap(alpha=1.0)


def test_pushforward_identity_map():
    f = monomial(0.25, 3)
    g = pushforward_hopf(f, MobiusMap(alpha=0.0, theta=0.0))
    z = 0.3 - 0.2j
    assert g.eval(z) == pytest.approx(f.eval(z), rel=1e-13)


def test_pushforward_rotation():
    f = monomial(0.25, 3)
    th = 0.9
    g = pushforward_hopf(f, MobiusMap(alpha=0.0, theta=th))
    assert g.interior_roots == ((0j, 3),)
    # leading rotated by e^{i 3 theta} e^{2 i theta}
    assert g.leading == pytest.approx(0.25 * np.exp(1j * 5 * th), rel=1e-13)
    rng = np.random.default_rng(1)
    z = 0.7 * (rng.random(10) + 1j * rng.random(10)) - 0.35 - 0.35j
    phi = np.exp(1j * th) * z
    assert np.allclose(g.eval(z), f.eval(phi) * np.exp(2j * th), rtol=1e-12)


def test_pushforward_moves_root_to_preimage():
    f = monomial(0.25, 3)
    g = pushforward_hopf(f, MobiusMap(alpha=0.1))
    assert order_at(g, -0.1) == 3
    assert winding_count(g, -0.1, 0.05) == 3


def test_pushforward_chain_rule(rng):
    f = rational(0.5 + 0.2j, roots=[(0.2, 1), (-0.3 + 0.1j, 2)],
                 unit_num=[(1.4, 1)], unit_den=[(-1.8, 1)])
    m = MobiusMap(alpha=0.12 - 0.07j, theta=0.9)
    g = pushforward_hopf(f, m)
    zs = 0.6 * (rng.random(12) + 1j * rng.random(12)) - 0.3 - 0.3j
    phi = apply(m, zs)
    dphi = np.exp(1j * m.theta) * (1 - abs(m.alpha) ** 2) / (np.conj(m.alpha) * zs + 1) ** 2
    assert np.allclose(g.eval(zs), f.eval(phi) * dphi**2, rtol=1e-12)


@pytest.mark.parametrize("bucket", ["unit_num", "unit_den"])
def test_pushforward_factor_at_the_image_of_infinity(rng, bucket):
    # phi maps infinity to e^{i theta} / conj(alpha): a unit root or a pole
    # there leaves only the Moebius denominator behind
    m = MobiusMap(alpha=0.3 + 0.2j, theta=0.7)
    r_inf = np.exp(1j * m.theta) / np.conj(m.alpha)
    f = rational(0.5 - 0.1j, roots=[(0.1, 2), (-0.2 + 0.3j, 1)], **{bucket: [(r_inf, 2)]})
    g = pushforward_hopf(f, m)
    zs = 0.6 * (rng.random(12) + 1j * rng.random(12)) - 0.3 - 0.3j
    phi = apply(m, zs)
    dphi = np.exp(1j * m.theta) * (1 - abs(m.alpha) ** 2) / (np.conj(m.alpha) * zs + 1) ** 2
    assert np.allclose(g.eval(zs), f.eval(phi) * dphi**2, rtol=1e-12)
    assert [r for r, _ in g.unit_num + g.unit_den] == [pytest.approx(-1.0 / np.conj(m.alpha))]


@pytest.mark.parametrize("bucket, kind", [("unit_num", "unit root"), ("unit_den", "pole")])
def test_pushforward_rejects_a_factor_pulled_into_the_disk(bucket, kind):
    # a factor on the unit circle stays on it, and its preimage rounds to |z| <= 1
    m = MobiusMap(alpha=0.3 + 0.2j, theta=0.7)
    f = rational(0.5, roots=[(0.1, 2)], delta_bd=1e-16, **{bucket: [(1.0, 1)]})
    assert abs(apply(invert(m), 1.0)) <= 1.0
    with pytest.raises(RootTooCloseToBoundary, match=f"{kind} .* pulled into the disk"):
        pushforward_hopf(f, m)


@pytest.mark.parametrize("alpha", [4.7e-103, 1e-20 - 3e-21j, 5e-13j])
def test_pushforward_tiny_alpha_moves_the_root(alpha):
    # below |alpha| = 1e-12 the Moebius denominator is dropped, but the root
    # of z must still move to phi^{-1}(0) = -alpha: g(0) = f(phi(0)) = alpha
    m = MobiusMap(alpha=alpha, theta=0.4)
    g = pushforward_hopf(rational(1.0, roots=[(0.0, 1)]), m)
    want = apply(m, 0.0) * np.exp(0.8j) * (1 - abs(alpha) ** 2) ** 2
    assert g.eval(0.0) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_pushforward_functorial(rng):
    f = rational(0.3, roots=[(0.25, 2)])
    m1 = MobiusMap(alpha=0.1 + 0.05j, theta=0.3)
    m2 = MobiusMap(alpha=-0.08j, theta=-0.5)
    g1 = pushforward_hopf(pushforward_hopf(f, m1), m2)
    g2 = pushforward_hopf(f, compose(m1, m2))
    zs = 0.5 * (rng.random(8) + 1j * rng.random(8)) - 0.25 - 0.25j
    assert np.allclose(g1.eval(zs), g2.eval(zs), rtol=1e-10)


def test_general_position_checks():
    assert not is_general_position([0.5, 0.5j], 0.0)      # equal distances
    assert is_general_position([0.5], 0.0)                # single point
    assert is_general_position([0.5], 0.3j)
    # collinear through p0: the two rays overlap
    assert not is_general_position([0.3, 0.6], 0.0)


def test_make_general_position():
    pts = [0.0, 0.5, 0.5j]
    m = make_general_position(pts, 0.0)
    imgs = [apply(m, p) for p in pts]
    assert is_general_position(imgs, imgs[0])
    pts2 = [0.0, 0.3, -0.4]
    m2 = make_general_position(pts2, 0.0)
    imgs2 = [apply(m2, p) for p in pts2]
    assert is_general_position(imgs2, imgs2[0])


def test_admissibility_is_moebius_invariant():
    from hopfseg.states import admissibility

    k = 1
    w = 0.1 * np.exp(1j * (np.pi / 5 + 2 * k * np.pi / 5))
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    assert admissibility(f, 0.0).admissible
    m = MobiusMap(alpha=0.15 - 0.1j, theta=0.4)
    g = pushforward_hopf(f, m)
    base_g = complex(apply(invert(m), 0.0))
    rep = admissibility(g, base_g, tol=1e-7)
    assert rep.admissible
