"""Self-time arithmetic and layer attribution on synthetic spans."""

import pytest
from afem_lab.driver import History

from spans import Tracer, layer_metrics, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["driver", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["x", 2.0, 6.0, 0],
        ["y", 4.0, 8.0, 0],      # overlaps x by 2 s
        ["z", 9.0, 12.0, 0],     # runs 2 s past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrap_records_nesting_and_self_times_add_up():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["top", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1, 1, 0]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


def test_solver_steps_split_between_certification_and_loop():
    tracer = Tracer()
    tracer.spans = [
        ["driver", 0.0, 10.0, -1],
        ["solvers.certify_contraction", 1.0, 5.0, 0],
        ["solvers.solver_step", 1.0, 2.0, 1],
        ["solvers.solver_step", 2.0, 4.0, 1],
        ["solvers.solver_step", 6.0, 9.0, 0],
    ]
    history = History("exact")
    history.append(0, n_elem=4, n_dof=1, eta=1.0, t_solve=5.0)
    m = layer_metrics(tracer, history)
    assert m["solvers.solver_step.calls.certify"] == 2
    assert m["solvers.solver_step.calls.loop"] == 1
    assert m["solvers.solver_step.self_s.certify"] == pytest.approx(3.0)
    assert m["solvers.solver_step.self_s.loop"] == pytest.approx(3.0)
    assert m["solvers.certify_contraction.self_s"] == pytest.approx(1.0)
    assert m["driver.self_s"] == pytest.approx(3.0)
    assert m["trace.layer_coverage"] == pytest.approx(0.7)
    assert m["driver.ledger_coverage"] == pytest.approx(0.5)
