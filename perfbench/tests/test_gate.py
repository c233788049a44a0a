"""The correctness gate, the same-work verdict and the benchmark contract."""

import dataclasses
import json
from pathlib import Path

from afem_lab.driver import MG_CEILING, History

import run
from spans import PER_LAYER
from workloads import WORKLOADS, fingerprint, gate, same_work

MG = WORKLOADS["kellogg-mg"]


def optimal_history(levels=8):
    """Ledger of an exact-solver run with eta ~ n_dof^(-1/2)."""
    history = History("exact", meta=dict(stop_reason="eta_tol", q_alg=0.5))
    for ell in range(levels):
        n_dof = 100 * 2 ** ell
        history.append(ell, n_elem=2 * n_dof, n_dof=n_dof, eta=n_dof ** -0.5)
    return history


def test_gate_accepts_an_optimal_run():
    assert gate(optimal_history(), MG) == []


def test_gate_rejects_a_broken_cost_law():
    history = optimal_history()
    history.records[3]["cum_cost"] += 1
    reasons = gate(history, MG)
    assert len(reasons) == 1 and "cost law" in reasons[0]


def test_gate_rejects_a_run_stopped_by_the_dof_cap():
    history = optimal_history()
    history.meta["stop_reason"] = "max_dofs"
    assert len(gate(history, MG)) == 1


def test_gate_rejects_a_suboptimal_rate():
    history = optimal_history()
    for rec in history.records:
        rec["eta"] = rec["n_dof"] ** -0.3
    reasons = gate(history, MG)
    assert len(reasons) == 1 and "slope" in reasons[0]


def test_gate_rejects_contraction_at_the_ceiling_for_multigrid_only():
    history = optimal_history()
    history.meta["q_alg"] = MG_CEILING
    assert len(gate(history, MG)) == 1
    assert gate(history, dataclasses.replace(MG, algo="exact")) == []


def test_same_work_is_exact_on_counts_and_tight_on_eta():
    ref = fingerprint(optimal_history())
    assert same_work(ref, ref)
    nudged = [[ne, nd, eta * (1 + 1e-12)] for ne, nd, eta in ref]
    assert same_work(nudged, ref)
    drifted = [[ne, nd, eta * (1 + 1e-9)] for ne, nd, eta in ref]
    assert not same_work(drifted, ref)
    assert not same_work(ref[:-1], ref)
    recount = [row[:] for row in ref]
    recount[2][0] += 1
    assert not same_work(recount, ref)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, *unit_better) for name, unit_better in PER_LAYER.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
