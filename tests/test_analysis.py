import dataclasses
import math

import numpy as np
import pytest

from afem_lab.analysis import (CriterionError, fit_rate_loglog,
                               max_rlinear_violation,
                               rates_complexity_bounds, rates_equals_complexity,
                               rlinear_constants_from_criterion,
                               tailsum_rlinear_equivalence, verify_axioms)


def test_criterion_geometric():
    q = 0.5
    a = q ** np.arange(80)
    b = np.zeros(80)
    fit = rlinear_constants_from_criterion(a, b, q, C1=1.0, C2=1.0, delta=1.0)
    assert fit.ok()
    assert fit.q_lin >= 0.5
    assert 0 < fit.q_lin < 1 and fit.C_lin > 0


def test_criterion_perturbed_geometric():
    q = 0.5
    a = q ** np.arange(200)
    b = 0.1 * a
    # C2: sum of b^2 over a tail is 0.01 * a_l^2 / (1 - q^2)
    fit = rlinear_constants_from_criterion(a, b, q, C1=0.1,
                                           C2=0.011 / (1 - q ** 2), delta=1.0)
    assert fit.ok()
    assert max_rlinear_violation(a, fit.C_lin, fit.q_lin) <= 1 + 1e-9


def _max_rlinear_violation_all_pairs(a, C_lin, q_lin):
    worst = 0.0
    for m in range(len(a)):
        for l in range(m):
            if a[l] > 0:
                worst = max(worst, a[m] / (C_lin * q_lin ** (m - l) * a[l]))
    return worst


def test_max_rlinear_violation_matches_all_pairs():
    rng = np.random.default_rng(3)
    cases = [np.zeros(7), np.array([2.0]), np.array([0.0]),
             np.array([0.0, 0.0, 1.0, 3.0])]
    for _ in range(200):
        n = int(rng.integers(1, 30))
        a = rng.uniform(0, 2, n) * 0.7 ** np.arange(n)
        a[rng.random(n) < 0.3] = 0.0
        cases.append(a)
    for a in cases:
        C, q = 1.5, 0.6
        assert math.isclose(max_rlinear_violation(a, C, q),
                            _max_rlinear_violation_all_pairs(a, C, q),
                            rel_tol=1e-12)
    assert max_rlinear_violation(np.zeros(7), 1.0, 0.5) == 0.0
    assert max_rlinear_violation(np.array([2.0]), 1.0, 0.5) == 0.0


def test_tail_equivalence_ok_is_the_violation_tolerance():
    # TailEquivalence and RLinearFit hold their violations to one tolerance
    a = 0.5 ** np.arange(40)
    eq = tailsum_rlinear_equivalence(a)
    fit = rlinear_constants_from_criterion(a, np.zeros(40), 0.5, C1=1.0,
                                           C2=1.0, delta=1.0)
    assert eq.ok() and fit.ok()
    for result, field in ((eq, "violation_rlinear"), (eq, "violation_tail"),
                          (fit, "max_violation")):
        assert dataclasses.replace(result, **{field: 1 + 1e-9}).ok()
        assert not dataclasses.replace(result, **{field: 1 + 2e-9}).ok()
        assert not dataclasses.replace(result, **{field: math.nan}).ok()


def test_criterion_sublinear_delta():
    q = 0.6
    a = q ** np.arange(150)
    b = 0.05 * a
    fit = rlinear_constants_from_criterion(a, b, q, C1=0.05, C2=0.01,
                                           delta=0.5)
    assert fit.ok()


def test_criterion_rejects_increasing_sequence():
    a = np.linspace(1.0, 2.0, 30)
    b = np.zeros(30)
    with pytest.raises(CriterionError, match="contraction fails at l=0"):
        rlinear_constants_from_criterion(a, b, 0.5, 1.0, 1.0, 1.0)


def test_criterion_reports_failing_hypothesis():
    q = 0.5
    a = q ** np.arange(30)
    b = np.zeros(30)
    b[10] = 50.0  # breaks boundedness (and contraction is still fine)
    a = np.minimum(a, 1.0)
    with pytest.raises(CriterionError):
        rlinear_constants_from_criterion(a, b, q, C1=0.1, C2=1.0, delta=1.0)


def test_equivalence_geometric_exact_constants():
    a = 0.5 ** np.arange(120)
    eq = tailsum_rlinear_equivalence(a, m=1.0)
    assert eq.C_tail == 1.0          # q/(1-q) for q = 1/2, exact in doubles
    assert eq.C_lin == 2.0
    assert eq.q_lin == 0.5
    assert eq.violation_rlinear <= 1 + 1e-12
    assert eq.violation_tail <= 1 + 1e-12


def test_equivalence_finite_support():
    a = np.array([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    eq = tailsum_rlinear_equivalence(a)
    assert eq.violation_rlinear <= 1 + 1e-12
    assert math.isfinite(eq.C_tail)


def test_equivalence_m2_reduces_to_squared_sequence():
    rng = np.random.default_rng(0)
    a = 0.7 ** np.arange(60) * (1 + 0.1 * rng.random(60))
    eq2 = tailsum_rlinear_equivalence(a, m=2.0)
    eq1 = tailsum_rlinear_equivalence(a ** 2, m=1.0)
    assert np.isclose(eq2.C_tail, eq1.C_tail, rtol=1e-12)
    assert np.isclose(eq2.q_lin ** 2, eq1.q_lin, rtol=1e-12)


def test_equivalence_roundtrip_no_false_tightening():
    for q in (0.3, 0.5, 0.8):
        a = q ** np.arange(100)
        eq = tailsum_rlinear_equivalence(a)
        assert eq.C_tail_back >= eq.C_tail * (1 - 1e-12)


def test_rates_complexity_synthetic_closed_form():
    r = np.arange(40)
    a = 0.5 ** r
    t = 2.0 ** r
    out = rates_complexity_bounds(a, t, 0.5)
    # closed forms: sup (2^r)^(1/2) 2^-r = 1 at r = 0; cost_r = 2^(r+1) - 1
    expect_cost = ((2.0 ** (r + 1) - 1) ** 0.5 * a).max()
    assert abs(out["M_dofs"] - 1.0) <= 1e-9
    assert abs(out["M_cost"] - expect_cost) <= 1e-9
    assert out["M_dofs"] <= out["M_cost"]
    assert out["ratio"] <= out["C_cost"]
    # C2 = 2 and q_lin = 1/2 give s0 = 1
    assert np.isclose(out["s0"], 1.0, rtol=1e-9)


def test_rates_complexity_single_record():
    out = rates_complexity_bounds([3.0], [7.0], 0.5)
    assert out["ratio"] == 1.0


def test_rates_complexity_supercritical_growth():
    # s > s0: the dof-weighted supremum grows with the sequence length
    r20 = np.arange(20)
    r40 = np.arange(40)
    s = 1.5
    m20 = rates_complexity_bounds(0.5 ** r20, 2.0 ** r20, s)["M_dofs"]
    m40 = rates_complexity_bounds(0.5 ** r40, 2.0 ** r40, s)["M_dofs"]
    assert m40 > 10 * m20


def test_fit_rate_loglog():
    x = np.linspace(10, 1000, 60)
    assert abs(fit_rate_loglog(x, x ** -0.5) + 0.5) <= 1e-12
    assert abs(fit_rate_loglog(x, 3.0 * x ** -1.0) + 1.0) <= 1e-12
    rng = np.random.default_rng(1)
    noisy = x ** -0.5 * (1 + 0.05 * (2 * rng.random(60) - 1))
    assert abs(fit_rate_loglog(x, noisy) + 0.5) <= 0.05
    with pytest.raises(ValueError):
        fit_rate_loglog([1.0, 2.0], [1.0, 2.0])


_GEOMETRIC = [1.0, 0.5, 0.25, 0.125]


def _with(value, at=1):
    seq = list(_GEOMETRIC)
    seq[at] = value
    return seq


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: max_rlinear_violation(_with(v), 1.0, 0.5),
    lambda v: rlinear_constants_from_criterion(_with(v), np.zeros(4), 0.5,
                                               1.0, 1.0, 1.0),
    lambda v: rlinear_constants_from_criterion(_GEOMETRIC, _with(v, 2), 0.5,
                                               1.0, 1.0, 1.0),
    lambda v: tailsum_rlinear_equivalence(_with(v)),
    lambda v: fit_rate_loglog([1.0, 2.0, 3.0, 4.0], _with(v)),
    lambda v: fit_rate_loglog(_with(v), _GEOMETRIC),
    lambda v: rates_complexity_bounds(_with(v), [1.0, 2.0, 4.0, 8.0], 0.5),
    lambda v: rates_complexity_bounds(_GEOMETRIC, _with(v), 0.5),
], ids=["violation", "criterion-a", "criterion-b", "tailsum", "fit-y",
        "fit-x", "rates-a", "rates-t"])
def test_sequence_inputs_must_be_finite(call, bad):
    # a NaN fails every comparison, so it passed each check as if it were 0
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_criterion_property_sample():
    from afem_lab.analysis import random_criterion_instance
    rng = np.random.default_rng(42)
    for _ in range(60):
        a, b, q, C1, C2, delta = random_criterion_instance(rng)
        fit = rlinear_constants_from_criterion(a, b, q, C1, C2, delta)
        assert fit.ok(), (q, C1, C2, delta)


def test_verify_axioms_small_kellogg():
    from afem_lab.driver import run_single
    from afem_lab.problems import kellogg
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                      solver_kind="local_multigrid", max_dofs=800,
                      store_artifacts=True)
    report = verify_axioms(hist, prob)
    assert report["a2_pass"], report["a2_worst"]
    assert report["pythagoras_pass"], report["pythagoras_worst"]
    assert report["a4_pass"], report["a4_const"]
    assert report["a1_const"] < 100.0
    assert report["a3_const"] > 0.0
    assert report["qm_const"] > 0.0


def test_verify_axioms_nonlinear_a4():
    from afem_lab.driver import run_nested
    from afem_lab.iteration import ZarantonelloConfig
    from afem_lab.problems import zshape_nonlinear
    prob, mesh = zshape_nonlinear()
    cfg = ZarantonelloConfig(delta=1.0 / prob.L, lambda_sym=0.7,
                             lambda_alg=0.7, alpha=prob.alpha, L=prob.L)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1, max_dofs=500,
                      store_artifacts=True)
    report = verify_axioms(hist, prob)
    # the partial-sum bound uses C = 1.1 L / alpha in the nonlinear case
    assert np.isclose(report["a4_bound"], 1.1 * prob.L / prob.alpha)
    assert report["a4_pass"], report["a4_const"]
    assert report["a2_pass"], report["a2_worst"]


def test_verify_axioms_on_a_uniform_run():
    # a uniform level is two refine calls, so its parent is no artifact
    from afem_lab.driver import run_uniform
    from afem_lab.problems import kellogg
    prob, mesh = kellogg()
    hist = run_uniform(prob, mesh, max_dofs=300, store_artifacts=True)
    report = verify_axioms(hist, prob)
    assert report["a2_pass"], report["a2_worst"]
    assert 0.0 < report["a2_worst"] < 1.0

def test_broken_estimator_fails_a2(monkeypatch):
    # mutation check: inflating the indicators on finer meshes must be
    # caught by the reduction axiom
    import afem_lab.analysis as ana
    from afem_lab.driver import run_single
    from afem_lab.estimator import Indicators
    from afem_lab.problems import kellogg

    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.1, p=1,
                      solver_kind="direct", max_dofs=400,
                      store_artifacts=True)
    orig = ana.compute_indicators

    def broken(space, v, prob):
        ind = orig(space, v, prob)
        return Indicators(ind.per_element * space.mesh.n_elements)

    monkeypatch.setattr(ana, "compute_indicators", broken)
    report = ana.verify_axioms(hist, prob)
    assert not report["a2_pass"]


def test_quasi_error_and_history_rates():
    from afem_lab.driver import run_single
    from afem_lab.problems import kellogg
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.1, p=1,
                      solver_kind="direct", max_dofs=500)
    out = rates_equals_complexity(hist, 0.5)
    assert out["M_dofs"] <= out["M_cost"]
    assert out["ratio"] >= 1.0
