"""The benchmark workloads must do the recorded work.

Each workload of ``perfbench/workloads.py`` is run to its tolerance and its
per-level (n_elem, n_dof, eta) is compared with ``perfbench/reference``:
counts exactly, eta to ``SAME_WORK_RTOL`` relative.  A kernel change that
moves a Doerfler tie or the estimator shows here, not only in a benchmark
run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_does_the_recorded_work(name):
    history = workloads.build(workloads.WORKLOADS[name])()
    levels = workloads.fingerprint(history)
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json")
                           .read_text())
    assert workloads.same_work(levels, reference), next(
        (f"level {i}: {got} != {ref}" for i, (got, ref)
         in enumerate(zip(levels, reference))
         if not workloads.same_work([got], [ref])),
        f"{len(levels)} levels, {len(reference)} recorded")
