"""The adaptive workloads, their correctness gate and the same-work check.

Each workload is one deterministic adaptive run that stops at a stated
estimator tolerance ``eta_tol``.  ``max_dofs`` is only a safety stop: a run
that reaches it before ``eta_tol`` fails the gate.

Why these three:

* ``kellogg-mg`` stresses the ``solvers`` layer.  The 161:1 coefficient jump
  drives the certified contraction of the local multigrid to about 0.7, so
  every level builds a deep V-cycle hierarchy and certification costs several
  extra solver steps.
* ``kellogg-p2`` stresses the ``fem`` and ``estimator`` kernels (Hessians,
  per-point gradients, ``einsum``) and bypasses ``solvers`` and ``iteration``.
* ``zshape-nested`` has the largest meshes (the memory workload) and is the
  only one that runs ``iteration`` and ``fem.nonlinear_form``.  It uses the
  same local multigrid as ``kellogg-mg`` but lightly (q_alg about 0.02, one
  algebraic step per level), so a ``solvers`` change that helps one and costs
  the other shows up.
"""

import math
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "build", "gate", "fingerprint",
           "same_work", "SAME_WORK_RTOL"]

# relative tolerance on eta for the same-work verdict
SAME_WORK_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    algo: str
    p: int
    theta: float
    eta_tol: float
    max_dofs: float
    # tier-1 acceptance rate and tolerance for the eta-vs-DOF slope
    # (tests/test_acceptance.py, criteria 1, 3 and 5)
    slope: float
    slope_tol: float

    @property
    def multigrid(self):
        return self.algo in ("single", "nested")


WORKLOADS = {w.name: w for w in (
    Workload("kellogg-mg", "kellogg", "single", p=1, theta=0.5,
             eta_tol=2.2, max_dofs=2e4, slope=-0.5, slope_tol=0.1),
    Workload("kellogg-p2", "kellogg", "exact", p=2, theta=0.5,
             eta_tol=3.4, max_dofs=1e4, slope=-1.0, slope_tol=0.15),
    Workload("zshape-nested", "zshape-nonlinear", "nested", p=1, theta=0.3,
             eta_tol=0.07, max_dofs=5e4, slope=-0.5, slope_tol=0.1),
)}


# afem_lab is imported inside the functions: the benchmark's parent process
# reads only the workload table and never imports the program


def build(workload):
    """Problem construction: returns a zero-argument callable that runs the
    adaptive driver and returns its ``History``."""
    from afem_lab import driver
    from afem_lab.iteration import ZarantonelloConfig
    from afem_lab.problems import by_name

    w = workload
    prob, mesh = by_name(w.problem)
    if w.algo == "exact":
        return lambda: driver.run_exact(prob, mesh, theta=w.theta, p=w.p,
                                        max_dofs=w.max_dofs, eta_tol=w.eta_tol)
    if w.algo == "single":
        return lambda: driver.run_single(
            prob, mesh, theta=w.theta, lam=0.01, p=w.p,
            solver_kind="local_multigrid", max_dofs=w.max_dofs,
            eta_tol=w.eta_tol)
    cfg = ZarantonelloConfig(delta=1.0 / prob.L, lambda_sym=0.7,
                             lambda_alg=0.7, alpha=prob.alpha, L=prob.L)
    return lambda: driver.run_nested(
        prob, mesh, theta=w.theta, cfg=cfg, p=w.p,
        solver_kind="local_multigrid", max_dofs=w.max_dofs, eta_tol=w.eta_tol)


def gate(history, workload):
    """Reasons why a run is not correct; an empty list means it passed.

    A run passes when it stopped by ``eta_tol``, its ledger passes
    ``History.check_invariants``, its eta-vs-DOF slope is within the tier-1
    acceptance tolerance, and (multigrid only) its maximum certified
    contraction is below ``MG_CEILING``.
    """
    from afem_lab.analysis import fit_rate_loglog
    from afem_lab.driver import MG_CEILING

    reasons = []
    stop = history.meta.get("stop_reason")
    if stop != "eta_tol":
        reasons.append(f"stopped by {stop!r}, not by eta_tol")
    try:
        history.check_invariants()
    except AssertionError as exc:
        reasons.append(f"ledger invariants: {exc}")
    lv = history.level_summary()
    try:
        slope = fit_rate_loglog(lv["n_dof"], lv["eta"])
    except ValueError as exc:
        reasons.append(f"eta-vs-DOF slope: {exc}")
    else:
        if not abs(slope - workload.slope) <= workload.slope_tol:
            reasons.append(f"eta-vs-DOF slope {slope:+.4f} outside "
                           f"{workload.slope} +/- {workload.slope_tol}")
    if workload.multigrid:
        q = history.meta.get("q_alg", math.inf)
        if not q < MG_CEILING:
            reasons.append(f"q_alg_max {q} not below MG_CEILING {MG_CEILING}")
    return reasons


def fingerprint(history):
    """Per-level (n_elem, n_dof, eta) at each level's final record."""
    lv = history.level_summary()
    return [[int(ne), int(nd), float(eta)]
            for ne, nd, eta in zip(lv["n_elem"], lv["n_dof"], lv["eta"])]


def same_work(levels, reference):
    """True when the per-level counts match exactly and every eta agrees
    with the reference to ``SAME_WORK_RTOL`` relative."""
    if len(levels) != len(reference):
        return False
    for (ne, nd, eta), (ne_r, nd_r, eta_r) in zip(levels, reference):
        if ne != ne_r or nd != nd_r:
            return False
        if abs(eta - eta_r) > SAME_WORK_RTOL * abs(eta_r):
            return False
    return True
