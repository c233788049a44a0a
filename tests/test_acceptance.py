"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The three benchmark runs shared across criteria are session fixtures, so the
whole suite performs each expensive run once.  All tolerances are fixed
constants of this module; nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from afem_lab.analysis import (fit_rate_loglog, quasi_error_sequence,
                               random_criterion_instance,
                               rates_complexity_bounds, rates_equals_complexity,
                               rlinear_constants_from_criterion,
                               tailsum_rlinear_equivalence, verify_axioms)
from afem_lab.driver import run_exact, run_nested, run_single, run_uniform
from afem_lab.fem import (Space, assemble_a, energy_gram, energy_norm,
                          solve_galerkin_exact)
from afem_lab.iteration import (ZarantonelloConfig, zarantonello_rhs,
                                zarantonello_contraction_bound)
from afem_lab.mesh import uniform_refine
from afem_lab.problems import kellogg, lshape_convection, zshape_nonlinear
from afem_lab.solvers import solve_direct


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rates(history):
    lv = history.level_summary()
    return (fit_rate_loglog(lv["n_dof"], lv["eta"]),
            fit_rate_loglog(lv["cum_cost"], lv["eta"]))


@pytest.fixture(scope="session")
def kellogg_single():
    prob, mesh = kellogg()
    return run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                      solver_kind="local_multigrid", max_dofs=5e4)


@pytest.fixture(scope="session")
def lshape_nested():
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)
    return run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                      solver_kind="local_multigrid", max_dofs=5e4)


@pytest.fixture(scope="session")
def zshape_nested():
    prob, mesh = zshape_nonlinear()
    cfg = ZarantonelloConfig(delta=1.0 / prob.L, lambda_sym=0.7,
                             lambda_alg=0.7, alpha=prob.alpha, L=prob.L)
    return run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                      solver_kind="local_multigrid", max_dofs=5e4)


def test_criterion_1_kellogg_adaptive_rate(kellogg_single):
    s_dof, s_cost = rates(kellogg_single)
    ok = abs(s_dof + 0.5) <= 0.1 and abs(s_cost + 0.5) <= 0.1
    assert report(1, ok, f"slope_dofs={s_dof:+.3f}, slope_cost={s_cost:+.3f},"
                  f" target -0.5 +/- 0.1")


def test_criterion_2_kellogg_uniform_baseline():
    prob, mesh = kellogg()
    hist = run_uniform(prob, mesh, p=1, max_dofs=5e4)
    lv = hist.level_summary()
    slope = fit_rate_loglog(lv["n_dof"], lv["eta"])
    ok = abs(slope + 0.1) <= 0.03
    assert report(2, ok, f"slope={slope:+.4f}, target -0.1 +/- 0.03")


def test_criterion_3_kellogg_p2_exact_rate():
    prob, mesh = kellogg()
    hist = run_exact(prob, mesh, theta=0.5, p=2, max_dofs=1e5)
    lv = hist.level_summary()
    slope = fit_rate_loglog(lv["n_dof"], lv["eta"])
    ok = abs(slope + 1.0) <= 0.15
    assert report(3, ok, f"slope={slope:+.4f}, target -1.0 +/- 0.15")


def test_criterion_4_lshape_nested_rate(lshape_nested):
    s_dof, s_cost = rates(lshape_nested)
    ok = abs(s_dof + 0.5) <= 0.1 and abs(s_cost + 0.5) <= 0.1
    assert report(4, ok, f"slope_dofs={s_dof:+.3f}, slope_cost={s_cost:+.3f},"
                  f" target -0.5 +/- 0.1")


def test_criterion_5_zshape_nested_rate(zshape_nested):
    lv = zshape_nested.level_summary()
    slope = fit_rate_loglog(lv["n_dof"], lv["eta"])
    ok = abs(slope + 0.5) <= 0.1
    assert report(5, ok, f"slope={slope:+.4f}, target -0.5 +/- 0.1")


def test_criterion_6_full_rlinear_convergence(kellogg_single, lshape_nested,
                                              zshape_nested):
    oks, details = [], []
    for name, hist in [("kellogg", kellogg_single), ("lshape", lshape_nested),
                       ("zshape", zshape_nested)]:
        H = quasi_error_sequence(hist)
        eq = tailsum_rlinear_equivalence(H)
        ok = eq.q_lin < 1.0 and eq.violation_rlinear <= 1 + 1e-9
        oks.append(ok)
        details.append(f"{name}: q_lin={eq.q_lin:.4f}")

    # verification run with the true quasi-error from exact discrete
    # references, at most 2e4 DOFs
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                      solver_kind="local_multigrid", max_dofs=2e4,
                      store_artifacts=True)
    iterates = hist.meta["iterates"]
    spaces = {art["space"].mesh.n_elements: art["space"]
              for art in hist.meta["artifacts"]}
    stars, H_true = {}, []
    for rec, it in zip(hist.records, iterates):
        space = spaces[rec["n_elem"]]
        if rec["ell"] not in stars:
            stars[rec["ell"]] = solve_galerkin_exact(space, prob)
        err = energy_norm(space, prob, stars[rec["ell"]] - it)
        H_true.append(err + rec["eta"])
    eq = tailsum_rlinear_equivalence(np.array(H_true))
    ok = eq.q_lin < 1.0 and eq.violation_rlinear <= 1 + 1e-9
    oks.append(ok)
    details.append(f"true-H: q_lin={eq.q_lin:.4f}")
    assert report(6, all(oks), "; ".join(details))


def test_criterion_7_sequence_lemma_suites():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(500):
        a, b, q, C1, C2, delta = random_criterion_instance(rng)
        fit = rlinear_constants_from_criterion(a, b, q, C1, C2, delta)
        eq = tailsum_rlinear_equivalence(a)
        if not (fit.ok() and eq.ok()):
            violations += 1
    # closed-form geometric case: C1 = q/(1-q) = 1, C_lin = 1 + C1 = 2
    geo = tailsum_rlinear_equivalence(0.5 ** np.arange(120))
    exact = geo.C_tail == 1.0 and geo.C_lin == 2.0 and geo.q_lin == 0.5
    ok = violations == 0 and exact
    assert report(7, ok, f"500 instances, violations={violations}, "
                  f"geometric constants exact={exact}")


def test_criterion_8_rates_equals_complexity(kellogg_single):
    out = rates_equals_complexity(kellogg_single, 0.5)
    ok1 = 1.0 <= out["ratio"] <= out["C_cost"]
    r = np.arange(40)
    synth = rates_complexity_bounds(2.0 ** -r, 2.0 ** r, 0.5)
    expect_cost = float(((2.0 ** (r + 1) - 1) ** 0.5 * 2.0 ** -r).max())
    ok2 = (abs(synth["M_dofs"] - 1.0) <= 1e-9
           and abs(synth["M_cost"] - expect_cost) <= 1e-9)
    assert report(8, ok1 and ok2,
                  f"ratio={out['ratio']:.3f} <= C_cost={out['C_cost']:.3f}; "
                  f"synthetic closed form within 1e-9: {ok2}")


def test_criterion_9_axiom_suite():
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                      solver_kind="local_multigrid", max_dofs=8000,
                      store_artifacts=True)
    rep = verify_axioms(hist, prob)
    ok = rep["a2_pass"] and rep["pythagoras_pass"] and rep["a4_pass"]
    assert report(9, ok, f"A2 worst={rep['a2_worst']:.4f} (<= 2^-1/4), "
                  f"pythagoras={rep['pythagoras_worst']:.2e} (<= 1e-9), "
                  f"A4={rep['a4_const']:.4f} (<= 1.05)")


def test_criterion_10_zarantonello_contraction():
    prob, mesh = zshape_nonlinear()
    mesh = uniform_refine(uniform_refine(mesh))
    space = Space(mesh, 1)
    delta = 1.0 / prob.L
    q_star = zarantonello_contraction_bound(prob.alpha, prob.L, delta)
    assert abs(q_star - 0.870) <= 1e-3
    u_star = solve_galerkin_exact(space, prob)
    A_red = assemble_a(space, prob)
    A_full = energy_gram(space, prob)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        u = u_star.copy()
        u[space.free] += rng.standard_normal(space.n_free)
        G = zarantonello_rhs(space, prob, delta, u)
        rhs = (G - A_full @ (u * space.dirichlet_mask))[space.free]
        phi = u.copy()
        phi[space.free] = solve_direct(A_red, rhs)
        num = energy_norm(space, prob, phi - u_star)
        den = energy_norm(space, prob, u - u_star)
        worst = max(worst, num / den)
    ok = worst <= q_star * (1 + 1e-6)
    assert report(10, ok, f"worst ratio={worst:.4f} <= "
                  f"q_sym*={q_star:.4f} over 100 starts")
