"""The layer trace must find every name it wraps and leave it as it was.

``perfbench/spans.py`` records layer spans by replacing module globals such
as ``solvers.assemble_a`` and ``driver.energy_gram`` from outside the
program, and reads ``_Level.matrix`` of the traced hierarchy.  A change that
deletes or renames one of them breaks the trace, which only a traced
benchmark run would show otherwise.
"""

import importlib.util
from pathlib import Path

from afem_lab import driver
from afem_lab.problems import kellogg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", PERFBENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _layer_objects():
    return [getattr(spans._owner(path), attr)
            for path, attr, _, _ in spans.LAYERS]


def test_traced_run_wraps_and_restores_every_layer():
    before = _layer_objects()
    prob, mesh = kellogg()
    with spans.installed(spans.Tracer()) as tracer:
        run = tracer.wrap("driver", driver.run_single)
        history = run(prob, mesh, theta=0.5, lam=0.01, p=1,
                      solver_kind="local_multigrid", max_dofs=300)
    assert all(a is b for a, b in zip(_layer_objects(), before))
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"fem.assemble_a", "fem.prolongation_matrix",
            "solvers.solver_step", "solvers.extend_solver",
            "solvers.certify_contraction"} <= recorded
    metrics = spans.layer_metrics(tracer, history)
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_s"}
    assert metrics["solvers.mg_depth"] == len(tracer.state.levels) > 1
