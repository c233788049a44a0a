"""Layer spans recorded from outside the program, and their self times.

A span is recorded around a public function of ``afem_lab`` by replacing the
name where its caller looks it up: the globals of the ``driver``, ``solvers``,
``iteration`` and ``fem`` modules, and ``Mesh.edge_tables``.  Spans are kept
in memory as ``[name, start, end, parent]`` lists (``parent`` is the index of
the enclosing span, -1 for none) and written out once, after the run.

A span's self time is its duration minus the part of its interval that its
direct child spans cover.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

__all__ = ["Tracer", "installed", "self_times", "layer_metrics", "PER_LAYER"]


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.meshes = set()
        self.state = None

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, args, result)``
        runs outside the span to update counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced


def _count_elements(tracer, args, result):
    tracer.counts["estimator.elements"] += args[0].mesh.n_elements


def _count_marked(tracer, args, result):
    tracer.counts["marking.marked"] += len(result)
    tracer.counts["marking.elements"] += len(args[0].per_element)


def _count_mesh(tracer, args, result):
    # meshes stay alive through the refinement chain, so ids are not reused
    tracer.meshes.add(id(args[0]))


def _keep_state(tracer, args, result):
    tracer.state = result


# (owner, attribute, span name, counter hook); the owner is a module, or
# "module:Class" for a method
LAYERS = (
    ("afem_lab.driver", "Space", "fem.Space", None),
    ("afem_lab.driver", "solve_galerkin_exact", "fem.solve_galerkin_exact",
     None),
    ("afem_lab.driver", "assemble_rhs", "fem.assemble_rhs", None),
    ("afem_lab.driver", "dirichlet_values", "fem.dirichlet_values", None),
    ("afem_lab.driver", "energy_gram", "fem.energy_gram", None),
    ("afem_lab.driver", "prolongation_matrix", "fem.prolongation_matrix",
     None),
    ("afem_lab.driver", "compute_indicators", "estimator.compute_indicators",
     _count_elements),
    ("afem_lab.driver", "doerfler_mark", "marking.doerfler_mark",
     _count_marked),
    ("afem_lab.driver", "refine", "mesh.refine", None),
    ("afem_lab.driver", "zarantonello_rhs", "iteration.zarantonello_rhs",
     None),
    ("afem_lab.driver", "setup_solver", "solvers.setup_solver", _keep_state),
    ("afem_lab.driver", "extend_solver", "solvers.extend_solver",
     _keep_state),
    ("afem_lab.driver", "certify_contraction", "solvers.certify_contraction",
     None),
    ("afem_lab.driver", "solver_step", "solvers.solver_step", None),
    ("afem_lab.solvers", "solver_step", "solvers.solver_step", None),
    ("afem_lab.solvers", "assemble_a", "fem.assemble_a", None),
    ("afem_lab.solvers", "prolongation_matrix", "fem.prolongation_matrix",
     None),
    ("afem_lab.iteration", "energy_gram", "fem.energy_gram", None),
    ("afem_lab.iteration", "load_vector", "fem.load_vector", None),
    ("afem_lab.iteration", "assemble_b", "fem.assemble_b", None),
    ("afem_lab.iteration", "nonlinear_form", "fem.nonlinear_form", None),
    ("afem_lab.fem", "assemble_a", "fem.assemble_a", None),
    ("afem_lab.fem", "assemble_b", "fem.assemble_b", None),
    ("afem_lab.fem", "assemble_rhs", "fem.assemble_rhs", None),
    ("afem_lab.fem", "load_vector", "fem.load_vector", None),
    ("afem_lab.fem", "dirichlet_values", "fem.dirichlet_values", None),
    ("afem_lab.fem", "nonlinear_form", "fem.nonlinear_form", None),
    ("afem_lab.mesh:Mesh", "edge_tables", "mesh.edge_tables", _count_mesh),
)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def installed(tracer):
    """Every name in ``LAYERS`` replaced by a traced wrapper of the original,
    restored on exit."""
    originals = []
    try:
        for path, attr, name, after in LAYERS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, after))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def _under(spans, i, name):
    """True when span ``i`` has an ancestor called ``name``."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# name -> (unit, better); the names a traced run reports, in order
PER_LAYER = {
    "solvers.solver_step.self_s.loop": ("s", "lower"),
    "solvers.solver_step.self_s.certify": ("s", "lower"),
    "solvers.solver_step.calls.loop": ("count", "lower"),
    "solvers.solver_step.calls.certify": ("count", "lower"),
    "solvers.certify_contraction.self_s": ("s", "lower"),
    "solvers.extend_solver.self_s": ("s", "lower"),
    "solvers.setup_solver.self_s": ("s", "lower"),
    "solvers.mg_depth": ("count", "lower"),
    "solvers.hierarchy_ratio": ("ratio", "lower"),
    "solvers.q_alg_max": ("ratio", "lower"),
    "estimator.compute_indicators.self_s": ("s", "lower"),
    "estimator.elements_per_s": ("1/s", "higher"),
    "fem.assemble_a.self_s": ("s", "lower"),
    "fem.assemble_b.self_s": ("s", "lower"),
    "fem.assemble_rhs.self_s": ("s", "lower"),
    "fem.energy_gram.self_s": ("s", "lower"),
    "fem.load_vector.self_s": ("s", "lower"),
    "fem.dirichlet_values.self_s": ("s", "lower"),
    "fem.solve_galerkin_exact.self_s": ("s", "lower"),
    "fem.nonlinear_form.self_s": ("s", "lower"),
    "iteration.zarantonello_rhs.self_s": ("s", "lower"),
    "mesh.refine.self_s": ("s", "lower"),
    "mesh.edge_tables.self_s": ("s", "lower"),
    "mesh.edge_tables.calls_per_mesh": ("ratio", "lower"),
    "fem.Space.self_s": ("s", "lower"),
    "fem.prolongation_matrix.self_s": ("s", "lower"),
    "marking.doerfler_mark.self_s": ("s", "lower"),
    "marking.marked_fraction": ("ratio", "lower"),
    "driver.self_s": ("s", "lower"),
    "driver.levels": ("count", "lower"),
    "driver.steps": ("count", "lower"),
    "driver.ledger_coverage": ("ratio", "higher"),
    "trace.layer_coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer, history):
    """Per-layer numbers of one traced run whose root span is ``driver``.

    ``trace.overhead_s`` needs an untraced run and is filled in by the caller.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_s, calls = defaultdict(float), defaultdict(int)
    total = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        if name == "solvers.solver_step":
            certify = _under(spans, i, "solvers.certify_contraction")
            name += ".certify" if certify else ".loop"
        self_s[name] += selfs[i]
        calls[name] += 1
        total[name] += end - start
    wall = total["driver"]
    out = {f"{name}.self_s": self_s[name] for name in (
        "solvers.certify_contraction", "solvers.extend_solver",
        "solvers.setup_solver", "estimator.compute_indicators",
        "fem.assemble_a", "fem.assemble_b", "fem.assemble_rhs",
        "fem.energy_gram", "fem.load_vector", "fem.dirichlet_values",
        "fem.solve_galerkin_exact", "fem.nonlinear_form",
        "iteration.zarantonello_rhs", "mesh.refine", "mesh.edge_tables",
        "fem.Space", "fem.prolongation_matrix", "marking.doerfler_mark")}
    for part in ("loop", "certify"):
        out[f"solvers.solver_step.self_s.{part}"] = \
            self_s[f"solvers.solver_step.{part}"]
        out[f"solvers.solver_step.calls.{part}"] = \
            calls[f"solvers.solver_step.{part}"]

    levels = tracer.state.levels if tracer.state is not None else []
    sizes = [lvl.matrix.shape[0] for lvl in levels]
    out["solvers.mg_depth"] = len(sizes)
    out["solvers.hierarchy_ratio"] = sum(sizes) / sizes[-1] if sizes else 0.0
    out["solvers.q_alg_max"] = history.meta.get("q_alg", 0.0)

    t_ind = total["estimator.compute_indicators"]
    out["estimator.elements_per_s"] = (
        tracer.counts["estimator.elements"] / t_ind if t_ind > 0 else 0.0)
    n_mesh = len(tracer.meshes)
    out["mesh.edge_tables.calls_per_mesh"] = (
        calls["mesh.edge_tables"] / n_mesh if n_mesh else 0.0)
    n_marking = tracer.counts["marking.elements"]
    out["marking.marked_fraction"] = (
        tracer.counts["marking.marked"] / n_marking if n_marking else 0.0)

    ledger = float(history.cumulative_times()[-1])
    out["driver.self_s"] = self_s["driver"]
    out["driver.levels"] = len(history.level_summary()["ell"])
    out["driver.steps"] = len(history)
    out["driver.ledger_coverage"] = ledger / wall
    out["trace.layer_coverage"] = 1.0 - self_s["driver"] / wall
    return out
