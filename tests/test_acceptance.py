"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from hopfseg.desingularize import (
    beta_moment,
    gamma_moment,
    reduce_to_simple,
    split_zero,
)
from hopfseg.diffusion import boundary_from_state, interface_distance, solve
from hopfseg.experiments import (
    admissible_fw,
    figure5_function,
    random_even_function,
    rigidity_scan,
    splitting_outputs,
    tuned_multizero,
)
from hopfseg.nodal import trace, verify_index
from hopfseg.primitive import PathEngine
from hopfseg.rational import monomial, order_at, rational, winding_count
from hopfseg.slits import build_slit_disk
from hopfseg.states import (
    admissibility,
    analytic_state,
    dirichlet_energy,
    find_base_point,
    hopf_l1,
    local_exponent,
    reconstruct,
)


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_rigidity_scan():
    t0 = time.time()
    scan = rigidity_scan(radius=0.1, step=1e-3)
    elapsed = time.time() - t0
    targets = np.array([np.pi / 5 + 2 * k * np.pi / 5 for k in range(5)])
    zeros = np.array(scan.zeros)
    ok = len(zeros) == 5
    if ok:
        errs = np.abs(np.sort(zeros) - targets)
        ok = np.all(errs <= 1e-3)
    # admissibility fails at every grid angle away from the five targets
    far = np.ones(len(scan.phis), dtype=bool)
    for t in targets:
        far &= np.abs((scan.phis - t + np.pi) % (2 * np.pi) - np.pi) > 1e-3
    ok = ok and not np.any(scan.admissible & far)
    res0 = abs(scan.residuals[0])
    target0 = (4 / 15) * 0.1**2.5
    ok = ok and abs(res0 - target0) <= 1e-6 * target0
    ok = ok and elapsed < 30.0
    _line(1, ok, f"five angles within 1e-3, residual(0)={res0:.9e} "
                 f"(target {target0:.9e}), t={elapsed:.1f}s")


def test_criterion_2_primitive_golden_value():
    t0 = time.time()
    f = monomial(0.25, 3)
    eng = PathEngine(f, build_slit_disk(f, 0.0), tol=1e-12)
    val = eng.primitive(1.0).value
    elapsed = time.time() - t0
    ok = abs(val - 0.4) <= 1e-9 and elapsed < 1.0
    _line(2, ok, f"F(1) = {val:.12f} (target 0.4 +- 1e-9), t={elapsed:.2f}s")


def test_criterion_3_index_formula_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    configs = []
    for _ in range(38):
        configs.append((random_even_function(rng), 0.0 + 0.0j))
    configs.extend(splitting_outputs())          # 9 splits + 1 chain output
    configs.append(admissible_fw(0))
    configs.append(admissible_fw(2))
    f5, base5 = figure5_function()
    configs.append((f5, base5))

    n_pass = 0
    fig5_counts = None
    for f, base in configs:
        if base is None:
            base = find_base_point(f)
        st = reconstruct(f, base, resolution=256)
        g = trace(st)
        rep = verify_index(g)
        assert rep.formula_check, f"index formulas failed: {rep} for {f}"
        assert rep.euler_check, f"Euler relation failed: {rep}"
        assert g.clean, f"unclean trace for {f}"
        assert g.N == st.n_species, f"{g.N} faces, {st.n_species} grid species for {f}"
        n_pass += 1
        if f is f5:
            fig5_counts = (g.M, g.N, g.T)
    elapsed = time.time() - t0
    ok = n_pass >= 50 and fig5_counts == (7, 6, 2) and elapsed < 300.0
    _line(3, ok, f"{n_pass} configurations verified, figure-5 counts {fig5_counts}, "
                 f"t={elapsed:.0f}s")


def test_criterion_4_desingularization():
    t0 = time.time()
    f = monomial(0.25, 3)
    thetas = []
    ok = True
    for k in range(5):
        res = split_zero(f, 0.0, eps_target=1e9, branch=k, eps0=0.01)
        ok &= res.epsilon == 0.01
        ok &= order_at(res.f_new, 0.0) == 2
        ok &= order_at(res.f_new, res.new_zero) == 1
        ok &= max(v for _, v in res.admissibility.residuals) <= 1e-8
        thetas.append(res.theta % (2 * np.pi))
    thetas = np.sort(thetas)
    gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2 * np.pi]]))
    ok &= bool(np.all(np.abs(gaps - 2 * np.pi / 5) <= 1e-3))

    g = reduce_to_simple(f, eps_budget=3.0)
    ok &= all(m == 1 for _, m in g.interior_roots)
    ok &= len(g.interior_roots) == 3
    st = reconstruct(g, find_base_point(g), resolution=256)
    gr = trace(st)
    rep = verify_index(gr)
    mults = sorted(v.multiplicity for v in gr.vertices if v.kind == "interior-critical")
    ok &= mults == [3, 3, 3] and rep.formula_check
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _line(4, ok, f"5 branches verified, spacing 2pi/5 +- 1e-3, chain gives "
                 f"three 3-points (M={gr.M} N={gr.N} T={gr.T}), t={elapsed:.0f}s")


def test_criterion_5_energy_identity():
    t0 = time.time()
    cases = [
        (rational(0.25), np.pi / 2),
        (monomial(0.25, 2), np.pi / 4),
        (monomial(0.25, 3), np.pi / 5),
    ]
    details = []
    ok = True
    for f, target in cases:
        st = reconstruct(f, 0.0, resolution=256)
        e_grid = dirichlet_energy(st)
        e_hopf = hopf_l1(f)
        ok &= abs(e_grid - e_hopf) <= 0.02 * e_hopf
        ok &= abs(e_hopf - target) <= 1e-3 * target
        details.append(f"{e_grid:.4f}/{e_hopf:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _line(5, ok, f"grid/hopf energies {details} vs pi/2, pi/4, pi/5; t={elapsed:.0f}s")


def test_criterion_6_local_exponent():
    t0 = time.time()
    st3 = reconstruct(monomial(0.25, 3), 0.0, resolution=128)
    e3 = local_exponent(st3, 0.0, [0.1, 0.05, 0.025])
    st1 = reconstruct(monomial(0.25, 1), 0.0, resolution=128)
    e1 = local_exponent(st1, 0.0, [0.1, 0.05, 0.025])
    elapsed = time.time() - t0
    ok = abs(e3 - 2.5) <= 0.05 and abs(e1 - 1.5) <= 0.05 and elapsed < 30.0
    _line(6, ok, f"exponents {e3:.4f} (5-point), {e1:.4f} (3-point), t={elapsed:.0f}s")


def test_criterion_7_gamma_moments():
    ok = abs(beta_moment(2) - 4 / 15) <= 1e-10
    ok &= abs(beta_moment(1) - np.pi / 8) <= 1e-10
    ok &= abs(gamma_moment(2, 2) - 1 / 12) <= 1e-10
    # quadrature oracle for the same moments (mpmath's tanh-sinh rule, which
    # copes with the square-root end)
    c2 = float(mp.quad(lambda t: t * mp.sqrt(1 - t), [0, 1]))
    c1 = float(mp.quad(lambda t: mp.sqrt(t) * mp.sqrt(1 - t), [0, 1]))
    ok &= abs(c2 - 4 / 15) <= 1e-10
    ok &= abs(c1 - np.pi / 8) <= 1e-10
    m22 = float(mp.quad(lambda t: t**2 * (1 - t), [0, 1]))
    ok &= abs(m22 - 1 / 12) <= 1e-10
    _line(7, ok, f"c2={beta_moment(2):.12f}, c1={beta_moment(1):.12f}, "
                 f"M(2,2)={gamma_moment(2, 2):.12f}, quadrature oracles agree to 1e-10")


def test_criterion_8_diffusion_cross_validation():
    results = []
    ok = True
    for f, n_exp in ((rational(0.25), 2), (monomial(0.25, 3), 5)):
        t0 = time.time()
        st = analytic_state(f, 0.0, resolution=256)
        g = trace(st)
        cfg = boundary_from_state(st, g, samples=1024)
        assert cfg.g.shape[0] == n_exp
        fld = solve(cfg, mu=1e4)
        dist = interface_distance(fld, g)
        elapsed = time.time() - t0
        ok &= dist <= 2.0 and elapsed < 120.0
        results.append(f"N={n_exp}: dist={dist:.2f} cells t={elapsed:.0f}s")
        # monotone segregation defect over the mu sweep (coarser grid)
        st_c = analytic_state(f, 0.0, resolution=128)
        cfg_c = boundary_from_state(st_c, trace(st_c), samples=512)
        defects = [solve(cfg_c, mu=mu).defect for mu in (1e2, 1e3, 1e4)]
        ok &= defects[0] > defects[1] > defects[2]
        results.append(f"defects {defects[0]:.2e}>{defects[1]:.2e}>{defects[2]:.2e}")
    _line(8, ok, "; ".join(results))


def test_criterion_9_residuality_probes():
    # (a) openness: small coefficient noise preserves the per-circle winding
    g = reduce_to_simple(monomial(0.25, 3), eps_budget=3.0)
    roots = [z for z, _ in g.interior_roots]
    coeffs = g.leading * np.polynomial.polynomial.polyfromroots(roots)
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        noise = 1 + 1e-3 * (rng.random(len(coeffs)) - 0.5 + 1j * (rng.random(len(coeffs)) - 0.5))
        pert = coeffs * noise
        new_roots = np.polynomial.polynomial.polyroots(pert)
        fp = rational(pert[-1], roots=[(complex(r), 1) for r in new_roots])
        for z in roots:
            sep = min(abs(z - w) for w in roots if w != z)
            ok &= winding_count(fp, z, min(0.45 * sep, 0.05)) == 1
    # (b) density: the reduction succeeds on every generated input, alpha <= 4
    inputs = [
        monomial(0.3, 2),                                   # alpha 1
        monomial(0.25, 3),                                  # alpha 2
        tuned_multizero(-0.35, 0.4 + 0.1j, 2, 2),           # alpha 2
        tuned_multizero(-0.35, 0.4 + 0.1j, 3, 2),           # alpha 3
        tuned_multizero(-0.3 - 0.1j, 0.42 + 0.05j, 3, 3),   # alpha 4
    ]
    alphas = []
    for f in inputs:
        from hopfseg.desingularize import excess_index

        alphas.append(excess_index(f))
        out = reduce_to_simple(f, eps_budget=8.0)
        ok &= all(m == 1 for _, m in out.interior_roots)
        base = find_base_point(out)
        ok &= base is not None and admissibility(out, base).admissible
    ok &= max(alphas) == 4
    _line(9, ok, f"openness probe: windings stable under 1e-3 noise; "
                 f"density probe: reductions succeeded for alpha={alphas}")
