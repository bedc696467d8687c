import numpy as np
import pytest

from hopfseg.errors import NotAdmissible, NotOnNodalSet
from hopfseg.experiments import figure5_function
from hopfseg.rational import monomial, rational
from hopfseg.states import (
    admissibility,
    dirichlet_energy,
    export_grid_csv,
    find_base_point,
    hopf_l1,
    local_exponent,
    multiplicity_at,
    reconstruct,
)


@pytest.fixture(scope="module")
def cubic_state():
    return reconstruct(monomial(0.25, 3), 0.0, resolution=256)


def test_admissibility_examples():
    f = monomial(0.25, 3)
    rep = admissibility(f, 0.0)
    assert rep.admissible and rep.residuals == ((0j, 0.0),)

    w = 0.1 * np.exp(1j * np.pi / 5)
    fw = rational(0.25, roots=[(0, 1), (w, 2)])
    assert admissibility(fw, 0.0).admissible

    w2 = 0.1 * np.exp(0.2j)
    fw2 = rational(0.25, roots=[(0, 1), (w2, 2)])
    rep2 = admissibility(fw2, 0.0)
    assert not rep2.admissible
    res_w = dict(rep2.residuals)[w2]
    assert res_w == pytest.approx((4 / 15) * 0.1**2.5 * abs(np.cos(0.5)), rel=1e-6)


def test_find_base_point():
    assert find_base_point(monomial(0.25, 3)) == 0
    assert find_base_point(monomial(0.25, 2)) == 0  # no odd zeros: origin
    # Re F need not vanish at the non-critical double zero w: the simple zero
    # is a base although full admissibility (every zero critical) fails there
    w = 0.1 * np.exp(0.2j)
    f = rational(0.25, roots=[(0, 1), (w, 2)])
    assert find_base_point(f) == 0
    assert not admissibility(f, 0.0).admissible


def test_find_base_point_figure5():
    # |Re F| = 0.069 at the double zero -0.05+0.55j, which is not critical
    f, base = figure5_function()
    assert find_base_point(f) == base == -0.4 - 0.3j


def test_reconstruct_constant():
    st = reconstruct(rational(0.25), 0.0, resolution=128)
    assert st.n_species == 2
    assert st.criticals == ()
    c = st.cell_centers
    X, _ = np.meshgrid(c, c)
    assert np.nanmax(np.abs(st.u - np.abs(X))[st.inside]) < 1e-10


def test_reconstruct_cubic(cubic_state):
    st = cubic_state
    assert st.n_species == 5
    assert st.criticals == ((0j, 3, 5),)
    # nodal rays where cos(5 theta / 2) = 0
    for k in range(5):
        th = np.pi / 5 + 2 * k * np.pi / 5
        z = 0.5 * np.exp(1j * th)
        assert st.value_at(z) < 1e-10


def test_reconstruct_square_closed_form():
    st = reconstruct(monomial(0.25, 2), 0.0, resolution=256)
    assert st.n_species == 4
    assert st.criticals == ((0j, 2, 4),)
    c = st.cell_centers
    X, Y = np.meshgrid(c, c)
    assert np.nanmax(np.abs(st.u - np.abs(X**2 - Y**2) / 2)[st.inside]) < 1e-10


def test_reconstruct_not_admissible():
    w = 0.3
    f = rational(0.25, roots=[(w, 1)])   # odd zero off the base's nodal set
    with pytest.raises(NotAdmissible):
        reconstruct(f, 0.5j, resolution=96)


def test_species_touch_boundary(cubic_state):
    st = cubic_state
    G = st.resolution
    c = st.cell_centers
    X, Y = np.meshgrid(c, c)
    rim = np.hypot(X, Y) > 1 - 3 * st.h
    for lab in range(1, st.n_species + 1):
        assert ((st.species == lab) & rim).any()


def test_multiplicity_examples(cubic_state):
    assert multiplicity_at(cubic_state, 0.0) == 5
    w = 0.1 * np.exp(1j * np.pi / 5)
    st = reconstruct(rational(0.25, roots=[(0, 1), (w, 2)]), 0.0, resolution=128)
    assert multiplicity_at(st, w) == 4
    assert multiplicity_at(st, 0.0) == 3
    stc = reconstruct(rational(0.25), 0.0, resolution=128)
    assert multiplicity_at(stc, 0.5j) == 2
    with pytest.raises(NotOnNodalSet):
        multiplicity_at(stc, 0.5)


def test_local_exponents(cubic_state):
    assert local_exponent(cubic_state, 0.0, [0.1, 0.05, 0.025]) == pytest.approx(2.5, abs=0.05)
    st1 = reconstruct(monomial(0.25, 1), 0.0, resolution=128)
    assert local_exponent(st1, 0.0, [0.1, 0.05, 0.025]) == pytest.approx(1.5, abs=0.05)
    stc = reconstruct(rational(0.25), 0.0, resolution=128)
    assert local_exponent(stc, 0.5j, [0.1, 0.05, 0.025]) == pytest.approx(1.0, abs=0.05)


def test_energy_identity_closed_forms(cubic_state):
    st = reconstruct(rational(0.25), 0.0, resolution=256)
    assert dirichlet_energy(st) == pytest.approx(np.pi / 2, rel=0.02)
    assert hopf_l1(rational(0.25)) == pytest.approx(np.pi / 2, rel=1e-6)

    st2 = reconstruct(monomial(0.25, 2), 0.0, resolution=256)
    assert dirichlet_energy(st2) == pytest.approx(np.pi / 4, rel=0.02)
    assert hopf_l1(monomial(0.25, 2)) == pytest.approx(np.pi / 4, rel=1e-4)

    assert dirichlet_energy(cubic_state) == pytest.approx(np.pi / 5, rel=0.02)
    assert hopf_l1(monomial(0.25, 3)) == pytest.approx(np.pi / 5, rel=1e-4)


def test_perfect_square_oracle(rng):
    # U = |Re P| with P the polynomial antiderivative, for f = p^2
    r1, r2 = 0.3 + 0.2j, -0.25 + 0.1j
    c = 0.7
    # p(z) = c (z - r1)(z - r2); f = p^2; P = 2 int p vanishing at base
    base = 0.0
    coeffs = np.polynomial.polynomial.polyfromroots([r1, r2]) * c
    P = np.polynomial.polynomial.polyint(coeffs) * 2.0
    P0 = np.polynomial.polynomial.polyval(base, P)
    f = rational(c * c, roots=[(r1, 2), (r2, 2)])
    st = reconstruct(f, base, resolution=128)
    cgrid = st.cell_centers
    X, Y = np.meshgrid(cgrid, cgrid)
    Z = X + 1j * Y
    exact = np.abs(np.real(np.polynomial.polynomial.polyval(Z, P) - P0))
    err = np.abs(st.u - exact)[st.inside]
    assert np.nanmax(err) < 1e-8


def test_fiber_structure_and_hopf_identity(rng):
    # distinct bases give genuinely different states, all with I(U) = f
    f = monomial(0.25, 2)
    b1, b2 = 0.0, 0.4 + 0.2j
    st1 = reconstruct(f, b1, resolution=96)
    st2 = reconstruct(f, b2, resolution=96)
    diff = np.nanmax(np.abs(st1.u - st2.u)[st1.inside & st2.inside])
    assert diff > 1e-3
    # finite-difference U_z^2 at random interior points away from the nodal set
    for st in (st1, st2):
        checked = 0
        tries = 0
        while checked < 50 and tries < 400:
            tries += 1
            z = 0.7 * (rng.random() + 1j * rng.random()) - 0.35 - 0.35j
            if st.value_at(z) < 1e-2:
                continue
            h = 1e-5
            ux = (st.value_at(z + h) - st.value_at(z - h)) / (2 * h)
            uy = (st.value_at(z + 1j * h) - st.value_at(z - 1j * h)) / (2 * h)
            uz2 = (0.5 * (ux - 1j * uy)) ** 2
            assert abs(uz2 - f.eval(z)) < 1e-4
            checked += 1
        assert checked == 50


def test_interface_gradient_reflection(rng):
    # one-sided gradients from the two species at a regular interface point
    st = reconstruct(rational(0.25), 0.0, resolution=128)
    for y0 in (-0.4, 0.1, 0.5):
        z = 1j * y0     # on the nodal line x = 0
        h = 1e-5
        gplus = (st.value_at(z + 2 * h) - st.value_at(z + h)) / h
        gminus = (st.value_at(z - 2 * h) - st.value_at(z - h)) / h
        assert abs(gplus) > 0.5
        assert gplus == pytest.approx(gminus, rel=0.05)


def test_grid_matches_routed_primitive(cubic_state, rng):
    st = cubic_state
    c = st.cell_centers
    idx = rng.integers(0, st.resolution, size=(40, 2))
    for iy, ix in idx:
        if not st.inside[iy, ix]:
            continue
        z = c[ix] + 1j * c[iy]
        if st.slit.distance_to_cuts(z) < 1e-6:
            continue
        assert st.u[iy, ix] == pytest.approx(abs(st.engine.F(z).real), abs=1e-8)


def test_csv_export(tmp_path, cubic_state):
    text = export_grid_csv(cubic_state, tmp_path / "grid.csv")
    lines = text.splitlines()
    assert lines[0] == "x,y,u,species"
    assert len(lines) == 1 + int(cubic_state.inside.sum())
    x, y, u, s = lines[1].split(",")
    float(x), float(y), float(u), int(s)
