import io
import math
import time
import warnings
import weakref

import numpy as np
import pytest

from afem_lab import driver, solvers
from afem_lab.analysis import quasi_error_sequence, tailsum_rlinear_equivalence
from afem_lab.driver import (COLUMNS, CSV_HEADER, TIME_COLUMNS, run_exact,
                             run_nested, run_single, run_uniform,
                             weighted_cost_table)
from afem_lab.fem import (ProblemDef, SolverError, energy_norm,
                          prolongation_matrix, solve_galerkin_exact)
from afem_lab.iteration import ZarantonelloConfig
from afem_lab.problems import kellogg, lshape_convection, zshape_nonlinear

ZERO_PROB = ProblemDef(name="zero")


def test_zero_data_terminates_immediately(square2):
    hist = run_single(ZERO_PROB, square2, theta=0.5, lam=1.0, p=1,
                      solver_kind="direct", max_dofs=1000)
    assert hist.meta["stop_reason"] == "converged"
    assert [r["ell"] for r in hist.records] == [0]
    assert hist.records[0]["eta"] == 0.0


def test_run_exact_kellogg_smoke():
    prob, mesh = kellogg()
    hist = run_exact(prob, mesh, theta=0.5, p=1, max_dofs=500)
    hist.check_invariants()
    lv = hist.level_summary()
    assert (np.diff(lv["n_dof"]) > 0).all()
    assert lv["eta"][-1] < lv["eta"][0]
    # exact runs leave k and j blank
    assert all(r["k"] is None and r["j"] is None for r in hist.records)


@pytest.mark.parametrize("entry, blank_k, blank_j", [
    ("exact", True, True), ("uniform", True, True),
    ("single", False, True), ("nested", False, False),
    ("single-direct", False, True), ("nested-direct", False, False)])
def test_every_entry_point_keeps_the_ledger_invariants(entry, blank_k,
                                                       blank_j):
    prob, mesh = kellogg()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)
    run = dict(
        exact=lambda: run_exact(prob, mesh, theta=0.5, max_dofs=200),
        uniform=lambda: run_uniform(prob, mesh, max_dofs=200),
        single=lambda: run_single(prob, mesh, theta=0.5, lam=0.1,
                                  solver_kind="local_multigrid",
                                  max_dofs=200),
        nested=lambda: run_nested(prob, mesh, theta=0.5, cfg=cfg,
                                  solver_kind="local_multigrid",
                                  max_dofs=200),
        **{"single-direct": lambda: run_single(prob, mesh, theta=0.5,
                                               lam=0.1, solver_kind="direct",
                                               max_dofs=200),
           "nested-direct": lambda: run_nested(prob, mesh, theta=0.5,
                                               cfg=cfg, solver_kind="direct",
                                               max_dofs=200)})[entry]
    hist = run()
    assert hist.check_invariants()
    assert hist.meta["stop_reason"] == "max_dofs"
    assert len(hist.level_summary()["ell"]) >= 2
    assert all((r["k"] is None) == blank_k and (r["j"] is None) == blank_j
               for r in hist.records)


def test_theta_one_marks_everything():
    prob, mesh = kellogg()
    hist = run_exact(prob, mesh, theta=1.0, p=1, max_dofs=300)
    lv = hist.level_summary()
    # every element has a positive indicator here, so theta = 1 forces
    # refinement of all of them: near-uniform growth
    assert (np.diff(lv["n_elem"]) >= lv["n_elem"][:-1]).all()


def test_run_single_direct_tiny_lambda():
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=1e-12, p=1,
                      solver_kind="direct", max_dofs=300)
    hist.check_invariants()
    for ell, k in hist.k_stop.items():
        assert k == 1
    # final iterate equals the exact Galerkin solution
    art_hist = run_single(prob, mesh, theta=0.5, lam=1e-12, p=1,
                          solver_kind="direct", max_dofs=300,
                          store_artifacts=True)
    last = art_hist.meta["artifacts"][-1]
    u_star = solve_galerkin_exact(last["space"], prob)
    err = energy_norm(last["space"], prob, last["final"] - u_star)
    assert err <= 1e-10


def test_run_single_huge_lambda_one_step_levels():
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=1e9, p=1,
                      solver_kind="local_multigrid", max_dofs=500)
    for ell, k in hist.k_stop.items():
        assert k == 1
    # certified contraction recorded per level, all below 1
    qs = hist.meta["q_alg_levels"]
    assert len(qs) == len(hist.k_stop)
    assert all(0.0 <= q < 1.0 for q in qs)


def test_run_single_rejects_nonsymmetric():
    prob, mesh = lshape_convection()
    with pytest.raises(ValueError):
        run_single(prob, mesh, theta=0.5, lam=0.1, p=1)


def test_run_single_rejects_a_nan_lambda():
    prob, mesh = kellogg()
    with pytest.raises(ValueError, match="positive"):
        run_single(prob, mesh, theta=0.5, lam=math.nan, p=1)


@pytest.mark.parametrize("max_dofs", [None, math.nan])
def test_a_run_without_a_finite_stop_is_rejected(max_dofs, monkeypatch):
    prob, mesh = kellogg()

    def refuse(*args):
        raise AssertionError("a run without a finite stop started")

    with monkeypatch.context() as mp:
        mp.setattr(driver, "Space", refuse)
        with pytest.raises(ValueError, match="finite max_dofs"):
            run_exact(prob, mesh, theta=0.5, max_dofs=max_dofs)
    # a tolerance alone is a stop
    hist = run_exact(prob, mesh, theta=0.5, max_dofs=max_dofs,
                     eta_tol=math.inf)
    assert hist.meta["stop_reason"] == "eta_tol" and len(hist) == 1


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, 5.0, math.nan])
def test_a_theta_outside_the_unit_interval_is_rejected(theta, monkeypatch):
    prob, mesh = kellogg()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)

    def refuse(*args):
        raise AssertionError("a run with a bad theta started")

    monkeypatch.setattr(driver, "Space", refuse)
    for run in (lambda: run_exact(prob, mesh, theta=theta, max_dofs=1),
                lambda: run_single(prob, mesh, theta=theta, lam=0.1,
                                   max_dofs=1),
                lambda: run_nested(prob, mesh, theta=theta, cfg=cfg,
                                   max_dofs=1)):
        with pytest.raises(ValueError, match="theta"):
            run()


def test_lambda_alg_zero_needs_the_direct_solver(monkeypatch):
    # only an exact step meets the algebraic stop with lambda_alg = 0, so
    # the local multigrid would run into MAX_INNER on its first sparse level
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.0)

    def refuse(*args):
        raise AssertionError("a run that cannot stop started")

    with monkeypatch.context() as mp:
        mp.setattr(driver, "Space", refuse)
        with pytest.raises(ValueError, match="lambda_alg = 0"):
            run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                       solver_kind="local_multigrid", max_dofs=60)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                      solver_kind="direct", max_dofs=60)
    assert len(hist.k_stop) > 3 and set(hist.j_stop.values()) == {1}


def test_stop_rule_reads_the_structure_not_the_certificate(monkeypatch):
    # a state of several levels steps inexactly whatever it certified, so
    # its loop runs to the stopping inequality even on a certificate of 0
    prob, mesh = kellogg()

    def run():
        hist = run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                          max_dofs=2000)
        return hist, [(r["ell"], r["k"], r["n_elem"], r["n_dof"], r["eta"])
                      for r in hist.records]

    _, want = run()
    assert max(k for _, k, *_ in want) > 1
    lanczos = solvers._lanczos
    monkeypatch.setattr(solvers, "_lanczos",
                        lambda *args: (0.0,) + lanczos(*args)[1:])
    hist, got = run()
    assert set(hist.meta["q_alg_levels"]) == {0.0}
    assert got == want


def test_index_bookkeeping_and_cost_law_nested():
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.05, lambda_alg=0.05)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                      solver_kind="local_multigrid", max_dofs=400)
    hist.check_invariants()
    # k runs 1..k_stop and j runs 1..j_stop with no gaps
    seen = {}
    for rec in hist.records:
        seen.setdefault((rec["ell"], rec["k"]), []).append(rec["j"])
    for (ell, k), js in seen.items():
        assert js == list(range(1, hist.j_stop[(ell, k)] + 1))
    for ell in {r["ell"] for r in hist.records}:
        ks = sorted({r["k"] for r in hist.records if r["ell"] == ell})
        assert ks == list(range(1, hist.k_stop[ell] + 1))
    # record index equals the total step counter
    assert all(rec["cum_cost"] == sum(r["n_elem"]
                                      for r in hist.records[:i + 1])
               for i, rec in enumerate(hist.records))


def test_nested_iteration_carries_prolongated_iterate():
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1, max_dofs=600,
                      store_artifacts=True)
    arts = hist.meta["artifacts"]
    assert len(arts) >= 3
    for coarse, fine in zip(arts, arts[1:]):
        P = prolongation_matrix(coarse["space"], fine["space"])
        diff = P @ coarse["final"] - fine["initial"]
        # interior values carried over exactly; boundary DOFs hold the fresh
        # boundary interpolation instead
        assert np.linalg.norm(diff[fine["space"].free]) <= 1e-12


def _zshape_config(prob, lam):
    return ZarantonelloConfig(delta=1.0 / prob.L, lambda_sym=lam,
                              lambda_alg=lam, alpha=prob.alpha, L=prob.L)


def _assert_stop_flags_reproduce_inequalities(hist, cfg):
    # a level whose certified q is 0 (the one-level multigrid) solves exactly
    outer = hist.meta["outer_increments"]
    q = hist.meta["q_alg_levels"]
    for rec, oinc in zip(hist.records, outer):
        lhs = rec["increment"]
        stop_in = (lhs <= cfg.lambda_alg * (cfg.lambda_sym * rec["eta"] + oinc)
                   or q[rec["ell"]] == 0.0)
        assert stop_in == rec["stop_inner"]
        if rec["stop_inner"]:
            assert rec["stop_outer"] == (oinc <= cfg.lambda_sym * rec["eta"])


def test_stop_flags_reproduce_inequalities():
    prob, mesh = zshape_nonlinear()
    cfg = _zshape_config(prob, 0.7)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1, max_dofs=400)
    hist.check_invariants()
    _assert_stop_flags_reproduce_inequalities(hist, cfg)


def test_nested_stopping_rules_bind_on_zshape():
    # lambda_sym = lambda_alg = 0.1 makes both loops run past one step on
    # some levels; the ledger and the measured R-linear certificate hold
    prob, mesh = zshape_nonlinear()
    cfg = _zshape_config(prob, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1, eta_tol=0.07)
    hist.check_invariants()
    _assert_stop_flags_reproduce_inequalities(hist, cfg)
    assert max(hist.k_stop.values()) >= 2
    assert max(hist.j_stop.values()) >= 2
    assert hist.meta["lambda_constraint_ok"]
    cert = tailsum_rlinear_equivalence(quasi_error_sequence(hist))
    assert cert.violation_rlinear <= 1.0


def test_lambda_alg_warning_fires_once_when_q_sym_reaches_one():
    prob, mesh = zshape_nonlinear()
    with pytest.warns(UserWarning) as caught:
        hist = run_nested(prob, mesh, theta=0.3, cfg=_zshape_config(prob, 5),
                          p=1, max_dofs=400)
    assert len(caught) == 1
    assert "lambda_alg*" in str(caught[0].message)
    assert caught[0].filename == __file__
    assert hist.meta["q_sym"] >= 1.0
    assert not hist.meta["lambda_constraint_ok"]
    # the classical product bound rejected lambda = 0.7; q_sym < 1 holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = run_nested(prob, mesh, theta=0.3, cfg=_zshape_config(prob, 0.7),
                          p=1, eta_tol=0.07)
    assert hist.meta["q_sym"] < 1.0
    assert hist.meta["lambda_constraint_ok"]


def test_nested_symmetric_delta_one_degenerates_to_single(square2):
    prob = ProblemDef(load=lambda x: np.ones(len(x)), name="poisson")
    cfg = ZarantonelloConfig(delta=1.0, lambda_sym=0.5, lambda_alg=1e-3)
    hist_n = run_nested(prob, square2, theta=0.5, cfg=cfg, p=1,
                        solver_kind="direct", max_dofs=200)
    hist_s = run_single(prob, square2, theta=0.5, lam=0.5, p=1,
                        solver_kind="direct", max_dofs=200)
    # with delta = 1 and b = a the Zarantonello system is the original one:
    # both runs see the same meshes and estimator values per level
    lv_n, lv_s = hist_n.level_summary(), hist_s.level_summary()
    assert np.array_equal(lv_n["n_elem"], lv_s["n_elem"])
    assert np.allclose(lv_n["eta"], lv_s["eta"], rtol=1e-10)
    assert all(k == 1 for k in hist_n.k_stop.values())


def test_safety_cap_raises(square2, monkeypatch):
    from afem_lab import driver
    from afem_lab.mesh import uniform_refine
    monkeypatch.setattr(driver, "MAX_INNER", 10)
    prob = ProblemDef(load=lambda x: np.ones(len(x)))
    mesh = uniform_refine(uniform_refine(uniform_refine(square2)))
    with pytest.raises(SolverError, match="exceeded 10 iterations"):
        run_single(prob, mesh, theta=0.5, lam=1e-14, p=1,
                   solver_kind="local_multigrid", max_dofs=5000)


def test_csv_schema(square2, tmp_path):
    prob, mesh = kellogg()
    hist = run_single(prob, mesh, theta=0.5, lam=0.1, p=1,
                      solver_kind="direct", max_dofs=100)
    buf = io.StringIO()
    hist.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == ("ell,k,j,n_elem,n_dof,eta,increment,stop_outer,"
                        "stop_inner,t_solve,t_estimate,t_mark,t_refine,"
                        "cum_cost,t_setup,t_certify")
    first = lines[1].split(",")
    assert first[2] == ""  # j blank for the single-solver run
    assert len(first) == 16
    hist_e = run_exact(prob, mesh, theta=0.5, p=1, max_dofs=100)
    buf = io.StringIO()
    hist_e.to_csv(buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[1] == "" and row[2] == ""  # k and j blank for run_exact


@pytest.mark.parametrize("entry", ["exact", "uniform", "single", "nested"])
def test_each_record_carries_the_work_since_the_previous_one(entry):
    prob, mesh = kellogg()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.1, lambda_alg=0.1)
    run = dict(
        exact=lambda **stop: run_exact(prob, mesh, theta=0.5, **stop),
        uniform=lambda **stop: run_uniform(prob, mesh, **stop),
        single=lambda **stop: run_single(prob, mesh, theta=0.5, lam=0.01,
                                         solver_kind="local_multigrid",
                                         **stop),
        nested=lambda **stop: run_nested(prob, mesh, theta=0.5, cfg=cfg,
                                         solver_kind="local_multigrid",
                                         **stop))[entry]
    start = time.perf_counter()
    hist = run(max_dofs=300)
    wall = time.perf_counter() - start
    ell = hist.column("ell")
    first = np.r_[True, ell[1:] != ell[:-1]]
    solver = entry in ("single", "nested")
    assert first.all() != solver  # a solver run takes several steps somewhere
    # the transition to a level, and for level 0 the initial space, lands on
    # the level's first record
    assert ((hist.column("t_refine") > 0) == first).all()
    marked = first & (ell > 0) & (entry != "uniform")
    assert ((hist.column("t_mark") > 0) == marked).all()
    for name in ("t_setup", "t_certify"):
        assert ((hist.column(name) > 0) == (first & solver)).all()
    ledger = sum(hist.column(name).sum() for name in TIME_COLUMNS)
    assert 0.9 * wall <= ledger <= wall
    # a run stopped by eta_tol at the eta of a level does the longer run's
    # work up to that level
    lv = hist.level_summary()
    stop = max(e for e in lv["ell"][1:-1]
               if lv["eta"][e] < lv["eta"][:e].min())
    short = run(max_dofs=300, eta_tol=lv["eta"][stop])
    assert short.meta["stop_reason"] == "eta_tol"
    assert short.records[-1]["ell"] == stop
    fields = [name for name, _ in COLUMNS if name not in TIME_COLUMNS]
    assert [[r[f] for f in fields] for r in short.records] \
        == [[r[f] for f in fields] for r in hist.records[:len(short)]]
    assert hist.records[len(short)]["ell"] == stop + 1


def test_tolerance_met_at_the_dof_cap_stops_by_eta_tol():
    prob, mesh = kellogg()
    capped = run_exact(prob, mesh, theta=0.5, max_dofs=300)
    assert capped.meta["stop_reason"] == "max_dofs"
    eta = capped.level_summary()["eta"]
    assert eta[-1] < eta[:-1].min()  # no earlier level meets the tolerance
    hist = run_exact(prob, mesh, theta=0.5, max_dofs=300, eta_tol=eta[-1])
    assert hist.meta["stop_reason"] == "eta_tol"
    assert len(hist) == len(capped)


def test_inexact_zarantonello_contraction_lemma():
    # with tight stopping parameters, the inexact outer iterates contract
    # with factor q_sym for all 1 <= k < k_stop (checked post-hoc against
    # exact discrete references)
    from afem_lab.iteration import check_lambda_constraint
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.05, lambda_alg=1e-3,
                             alpha=1.0, L=1.84)
    hist = run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                      solver_kind="local_multigrid", max_dofs=800,
                      store_artifacts=True)
    q_sym, ok = check_lambda_constraint(cfg, hist.meta["q_alg"])
    assert ok and q_sym < 1.0
    checked = 0
    for art in hist.meta["artifacts"]:
        space = art["space"]
        outer = art["outer"]
        if len(outer) < 2:
            continue
        u_star = solve_galerkin_exact(space, prob)
        errs = [energy_norm(space, prob, u - u_star)
                for u in [art["initial"]] + outer]
        # errs[k] = |||u* - u^(k, jbar)|||; contraction for k < k_stop
        for k in range(1, len(outer)):
            assert errs[k] <= q_sym * errs[k - 1] * (1 + 1e-6)
            checked += 1
    assert checked > 0


def test_weighted_cost_table():
    prob, mesh = kellogg()
    h1 = run_single(prob, mesh, theta=0.5, lam=0.5, p=1,
                    solver_kind="direct", max_dofs=800)
    # threshold at eta_initial: already satisfied at the first level
    table = weighted_cost_table({(0.5, 0.5): h1}, 1.0)
    e = table["entries"][(0.5, 0.5)]
    assert e["complete"]
    lv = h1.level_summary()
    assert np.isclose(e["dofs"], lv["eta"][0] * lv["cum_cost"][0])
    # identical histories give identical dof-weighted entries
    table2 = weighted_cost_table({(0.5, 0.3): h1, (0.5, 0.7): h1}, 0.5)
    vals = [v["dofs"] for v in table2["entries"].values()]
    assert np.isclose(vals[0], vals[1])
    # unreachable threshold marks incomplete
    table3 = weighted_cost_table({(0.5, 0.5): h1}, 1e-9)
    assert not table3["entries"][(0.5, 0.5)]["complete"]
    assert table3["entries"][(0.5, 0.5)]["time"] is None


def _corrupted_history():
    from afem_lab.driver import History
    hist = History("exact")
    hist.append(1, n_elem=8, n_dof=5, eta=1.0)
    hist.append(0, n_elem=16, n_dof=9, eta=0.5)
    hist.records[-1]["cum_cost"] = 999
    return hist


@pytest.mark.parametrize("entry", ["single", "nested"])
def test_ledger_rejects_a_record_after_the_last_stop(entry):
    # one more step after the final level stopped: its flags stay false,
    # so the stop no longer falls on the level's last record
    from afem_lab.driver import LedgerError
    prob, mesh = kellogg()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)
    if entry == "single":
        hist = run_single(prob, mesh, theta=0.5, lam=0.1,
                          solver_kind="direct", max_dofs=100)
    else:
        hist = run_nested(prob, mesh, theta=0.5, cfg=cfg,
                          solver_kind="direct", max_dofs=100)
    assert hist.check_invariants()
    last = hist.records[-1]
    step = (last["k"] + 1,) if entry == "single" else (last["k"],
                                                       last["j"] + 1)
    hist.append(last["ell"], *step, n_elem=last["n_elem"],
                n_dof=last["n_dof"], eta=last["eta"], increment=0.0)
    with pytest.raises(LedgerError, match="stop flag inconsistent"):
        hist.check_invariants()
    # the stop indices follow the records
    assert hist.k_stop[last["ell"]] == step[0]


def test_ledger_violation_raises_ledger_error():
    from afem_lab.driver import LedgerError
    assert issubclass(LedgerError, AssertionError)
    with pytest.raises(LedgerError, match="cost law"):
        _corrupted_history().check_invariants()


def test_ledger_check_survives_python_O():
    # under -O the check must still raise, not return True
    import os
    import subprocess
    import sys
    from pathlib import Path
    code = ("import test_driver as t\n"
            "from afem_lab.driver import LedgerError\n"
            "try:\n"
            "    t._corrupted_history().check_invariants()\n"
            "except LedgerError as exc:\n"
            "    print('raised', exc)\n"
            "else:\n"
            "    print('passed')\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=f"{here.parent / 'src'}:{here}")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised cost law violated"), out.stdout


def test_nested_run_factorizes_only_the_coarsest_level(monkeypatch):
    from afem_lab import driver
    states = []
    for name in ("setup_solver", "extend_solver"):
        fn = getattr(driver, name)
        monkeypatch.setattr(driver, name,
                            lambda *a, fn=fn: states.append(fn(*a))
                            or states[-1])
    prob, mesh = lshape_convection()
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.7, lambda_alg=0.7)
    run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1, max_dofs=300)
    levels = states[-1].levels
    assert len(levels) >= 3
    # only the coarsest level holds an exact solve
    assert [lvl.solve is not None for lvl in levels] \
        == [True] + [False] * (len(levels) - 1)


@pytest.mark.parametrize("entry", ["single", "nested"])
def test_the_loop_frees_superseded_meshes(entry, monkeypatch):
    # a mesh holds its ancestors' parent maps, not the ancestors, so at
    # each refinement at most the mesh being refined and its parent live
    from afem_lab import driver
    refine, refined, alive = driver.refine, [], []

    def tracked(mesh, marked):
        alive.append(sum(r() is not None for r in refined))
        fine = refine(mesh, marked)
        refined.append(weakref.ref(fine))
        return fine

    monkeypatch.setattr(driver, "refine", tracked)
    if entry == "single":
        prob, mesh = kellogg()
        run_single(prob, mesh, theta=0.5, lam=0.01,
                   solver_kind="local_multigrid", max_dofs=2000)
    else:
        prob, mesh = zshape_nonlinear()
        run_nested(prob, mesh, theta=0.3, cfg=_zshape_config(prob, 0.7),
                   max_dofs=2000)
    assert len(refined) >= 20
    assert max(alive) <= 2, alive
