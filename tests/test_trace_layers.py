"""The layer trace must find every name it wraps and leave it as it was.

``perfbench/spans.py`` records layer spans by replacing module globals such
as ``solvers.assemble_a`` and ``driver.energy_gram`` from outside the
program, and reads ``_Level.matrix`` of the traced hierarchy.  A change that
deletes or renames one of them breaks the trace, which only a traced
benchmark run would show otherwise.  A single-loop and a nested-loop run
are traced, so the spans of ``iteration`` and ``fem.nonlinear_form`` fire.
"""

import importlib.util
from pathlib import Path

from afem_lab import driver
from afem_lab.iteration import ZarantonelloConfig
from afem_lab.problems import kellogg, zshape_nonlinear

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", PERFBENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

SOLVER_SPANS = {"fem.assemble_a", "fem.prolongation_matrix",
                "solvers.solver_step", "solvers.extend_solver",
                "solvers.certify_contraction"}


def _single():
    prob, mesh = kellogg()
    return lambda: driver.run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                                     solver_kind="local_multigrid",
                                     max_dofs=300)


def _nested():
    # the zshape-nested workload's configuration on a small run
    prob, mesh = zshape_nonlinear()
    cfg = ZarantonelloConfig(delta=1.0 / prob.L, lambda_sym=0.7,
                             lambda_alg=0.7, alpha=prob.alpha, L=prob.L)
    return lambda: driver.run_nested(prob, mesh, theta=0.3, cfg=cfg, p=1,
                                     solver_kind="local_multigrid",
                                     max_dofs=300)


def _layer_objects():
    return [getattr(spans._owner(path), attr)
            for path, attr, _, _ in spans.LAYERS]


def _check_traced_run(run, expected):
    before = _layer_objects()
    with spans.installed(spans.Tracer()) as tracer:
        history = tracer.wrap("driver", run)()
    assert all(a is b for a, b in zip(_layer_objects(), before))
    recorded = {name for name, _, _, _ in tracer.spans}
    assert expected <= recorded
    metrics = spans.layer_metrics(tracer, history)
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_s"}
    assert metrics["solvers.mg_depth"] == len(tracer.state.levels) > 1


def test_traced_run_wraps_and_restores_every_layer():
    _check_traced_run(_single(), SOLVER_SPANS)


def test_traced_nested_run_wraps_and_restores_every_layer():
    _check_traced_run(_nested(), SOLVER_SPANS | {
        "fem.nonlinear_form", "iteration.zarantonello_rhs",
        "fem.load_vector", "fem.energy_gram"})
