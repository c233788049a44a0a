"""The adaptive loop: solve, estimate, mark, refine.

One loop, ``_adapt``, runs all four entry points.  They differ only in how a
level is solved (exactly, by one solver loop k, or by Zarantonello steps k
around an algebraic solver loop j) and in how the mesh is refined (Doerfler
marking, or uniformly in ``run_uniform``).

Each run returns a History: the ordered ledger of all solver steps with
their (ell, k, j) indices, element/DOF counts, estimator values, energy
increments, stop flags, per-phase timings (monotonic clock), and the
cumulative cost counter (running sum of element counts over all records,
the mesh-size proxy for total work).

Index bookkeeping follows the sequential loop structure: records are
appended in lexicographic (ell, k, j) order with k = 1..k_stop[ell] and
j = 1..j_stop[ell, k]; the record index equals the total step counter.

Stop-flag semantics: a flag is the literal stopping inequality evaluated at
the recorded iterate, OR-ed with "the solver step was exact" (certified
contraction factor 0), in which case one step settles the algebraic system
and further iterations would only duplicate it.

Timing: solve and estimate are timed per step; mark and refine (building the
next level's space and carrying the iterate over included) land on a level's
last record, and so do the setup (``t_setup``: ``extend_solver``) and the
certification (``t_certify``) of the next level's solver.  The initial
level's ``setup_solver`` and certification land on the first record.
"""

import itertools
import math
import time
import warnings

import numpy as np

from .estimator import compute_indicators
from .fem import (DiscreteFunction, Space, assemble_rhs, dirichlet_values,
                  energy_gram, prolongation_matrix, solve_direct,
                  solve_galerkin_exact)
from .iteration import (check_lambda_constraint, inner_stop, outer_stop,
                        zarantonello_rhs)
from .marking import doerfler_mark
from .mesh import refine, uniform_refine
from .solvers import (certify_contraction, extend_solver, setup_solver,
                      solver_step)

__all__ = ["History", "LedgerError", "run_exact", "run_uniform", "run_single",
           "run_nested", "weighted_cost_table", "CSV_HEADER"]

CSV_HEADER = ("ell,k,j,n_elem,n_dof,eta,increment,stop_outer,stop_inner,"
              "t_solve,t_estimate,t_mark,t_refine,cum_cost,t_setup,t_certify")

TIME_COLUMNS = ("t_solve", "t_estimate", "t_mark", "t_refine", "t_setup",
                "t_certify")

MG_CEILING = 0.9


class LedgerError(AssertionError):
    """A History violates its index, cost-law or stop-flag invariants."""


class History:
    """Ordered (ell, k, j) ledger of one adaptive run."""

    def __init__(self, algo, meta=None):
        self.algo = algo
        self.meta = meta or {}
        self.records = []
        self.k_stop = {}
        self.j_stop = {}
        self.cumulative_cost = 0

    def append(self, ell, k=None, j=None, *, n_elem, n_dof, eta,
               increment=None, stop_outer=False, stop_inner=False,
               t_solve=0.0, t_estimate=0.0, t_mark=0.0, t_refine=0.0):
        self.cumulative_cost += int(n_elem)
        self.records.append(dict(
            ell=ell, k=k, j=j, n_elem=int(n_elem), n_dof=int(n_dof),
            eta=float(eta),
            increment=None if increment is None else float(increment),
            stop_outer=bool(stop_outer), stop_inner=bool(stop_inner),
            t_solve=float(t_solve), t_estimate=float(t_estimate),
            t_mark=float(t_mark), t_refine=float(t_refine),
            cum_cost=self.cumulative_cost, t_setup=0.0, t_certify=0.0))

    def __len__(self):
        return len(self.records)

    def column(self, name):
        vals = [r[name] for r in self.records]
        if name in ("ell", "k", "j", "increment"):
            return np.array([math.nan if v is None else v for v in vals])
        if name in ("stop_outer", "stop_inner"):
            return np.array(vals, dtype=bool)
        return np.array(vals)

    def cumulative_times(self):
        t = sum(self.column(name) for name in TIME_COLUMNS)
        return np.cumsum(t)

    def level_summary(self):
        """Per-level values at each level's final record."""
        cum_t = self.cumulative_times()
        idx = {}
        for r, rec in enumerate(self.records):
            idx[rec["ell"]] = r
        rows = sorted(idx.items())
        take = [r for _, r in rows]
        return dict(
            ell=np.array([e for e, _ in rows]),
            n_dof=np.array([self.records[r]["n_dof"] for r in take]),
            n_elem=np.array([self.records[r]["n_elem"] for r in take]),
            eta=np.array([self.records[r]["eta"] for r in take]),
            cum_cost=np.array([self.records[r]["cum_cost"] for r in take]),
            cum_time=cum_t[take],
        )

    def to_csv(self, fileobj):
        fileobj.write(CSV_HEADER + "\n")
        for r in self.records:
            fields = [
                str(r["ell"]),
                "" if r["k"] is None else str(r["k"]),
                "" if r["j"] is None else str(r["j"]),
                str(r["n_elem"]), str(r["n_dof"]),
                f"{r['eta']:.16e}",
                "" if r["increment"] is None else f"{r['increment']:.16e}",
                str(int(r["stop_outer"])), str(int(r["stop_inner"])),
                f"{r['t_solve']:.6e}", f"{r['t_estimate']:.6e}",
                f"{r['t_mark']:.6e}", f"{r['t_refine']:.6e}",
                str(r["cum_cost"]),
                f"{r['t_setup']:.6e}", f"{r['t_certify']:.6e}",
            ]
            fileobj.write(",".join(fields) + "\n")

    def check_invariants(self):
        """Index-set consistency, cost law, and stop-flag placement; raises
        LedgerError (also under ``python -O``) on the first violation."""
        def as_key(rec):
            return tuple(0 if v is None else v
                         for v in (rec["ell"], rec["k"], rec["j"]))

        def require(ok, msg):
            if not ok:
                raise LedgerError(msg)

        cost = 0
        prev = None
        for r, rec in enumerate(self.records):
            cost += rec["n_elem"]
            require(rec["cum_cost"] == cost, "cost law violated")
            key = as_key(rec)
            require(prev is None or key > prev,
                    f"records out of lexicographic order at {r}")
            prev = key
        for r, rec in enumerate(self.records):
            ell, k, j = rec["ell"], rec["k"], rec["j"]
            if k is not None:
                is_last_outer = (k == self.k_stop.get(ell) and (
                    j is None or j == self.j_stop.get((ell, k))))
                require(rec["stop_outer"] == is_last_outer,
                        f"outer stop flag inconsistent at record {r}")
            if j is not None:
                require(rec["stop_inner"] == (j == self.j_stop.get((ell, k))),
                        f"inner stop flag inconsistent at record {r}")
        return True


def _stop_reason(n_dof, eta, max_dofs, eta_tol):
    if eta == 0.0:
        return "converged"
    if max_dofs is not None and n_dof >= max_dofs:
        return "max_dofs"
    if eta_tol is not None and eta <= eta_tol:
        return "eta_tol"
    return None


# ---------------------------------------------------------------------------
# the adaptive loop


def _adapt(history, prob, mesh, p, theta, solve_level, max_dofs, eta_tol,
           store_artifacts, solver_kind=None, cfg=None):
    """Solve, estimate, mark, refine until a stopping criterion holds.

    ``solve_level(ell, space, state, u, art)`` runs the solver loop of one
    level from the full coefficient vector ``u``, appends its records, and
    returns the final iterate and its indicators; it may add entries to the
    level's artifact dict ``art``.  Without a ``solver_kind`` levels are
    solved exactly: there is no solver state and no iterate to carry over.
    With ``theta=None`` every level is refined uniformly.
    """
    space = Space(mesh, p)
    state = u = None
    initial = dict(t_setup=0.0, t_certify=0.0)  # charged to the first record
    if solver_kind is not None:
        state, initial["t_setup"] = _timed(setup_solver, solver_kind, space,
                                           prob)
        _, initial["t_certify"] = _timed(_certify, history, state, cfg)
        u = dirichlet_values(space, prob)
        history.meta["eta_initial"] = compute_indicators(space, u, prob).total
    artifacts = []
    for ell in itertools.count():
        art = dict(space=space)
        u, ind = solve_level(ell, space, state, u, art)
        if ell == 0:
            for name, t in initial.items():
                history.records[0][name] += t
        eta = ind.total
        history.meta.setdefault("eta_initial", eta)
        if store_artifacts:
            art.update(final=DiscreteFunction(space, u), ind=ind)
            artifacts.append(art)

        reason = _stop_reason(space.n_free, eta, max_dofs, eta_tol)
        if reason is not None:
            history.meta["stop_reason"] = reason
            break
        t0 = time.perf_counter()
        t_mark = 0.0
        if theta is None:
            mesh = uniform_refine(mesh)
        else:
            marked = doerfler_mark(ind, theta)
            t_mark = time.perf_counter() - t0
            t0 = time.perf_counter()
            mesh = refine(mesh, marked)
        new_space = Space(mesh, p)
        if state is not None:
            u = prolongation_matrix(space, new_space) @ u
            u[new_space.dirichlet_mask] = dirichlet_values(
                new_space, prob)[new_space.dirichlet_mask]
        t_refine = time.perf_counter() - t0
        last = history.records[-1]
        last["t_mark"] += t_mark
        last["t_refine"] += t_refine
        # the superseded mesh stays alive through the refinement chain, but
        # nothing consults its edge tables again
        space.mesh.release_edge_tables()
        if state is not None:
            state, t_setup = _timed(extend_solver, state, new_space)
            _, t_certify = _timed(_certify, history, state, cfg)
            last["t_setup"] += t_setup
            last["t_certify"] += t_certify
        space = new_space
    if store_artifacts:
        history.meta["artifacts"] = artifacts
    return history


def _timed(fn, *args):
    """``fn(*args)`` and the time it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _steps(max_inner, loop):
    """1, 2, ..., max_inner; asking for one more raises RuntimeError."""
    yield from range(1, max_inner + 1)
    raise RuntimeError(f"{loop} exceeded {max_inner} iterations; the solver "
                       "does not contract fast enough")


def _solver_step(state, rhs, space, u):
    """One solver step from ``u``: the new iterate and the energy norm of
    the increment."""
    new_free = solver_step(state, rhs, u[space.free])
    increment = state.energy_norm(new_free - u[space.free])
    u = u.copy()
    u[space.free] = new_free
    return u, increment


def _estimate(space, u, prob):
    """Indicators of ``u`` and the time they took."""
    return _timed(compute_indicators, space, u, prob)


def _certify(history, state, cfg):
    """Certify the solver of the current level.  With a Zarantonello
    ``cfg``, recheck q_sym < 1 of the inexact iteration against the running
    maximum q_alg; q_sym can only grow, so warn once, when it reaches 1."""
    ceiling = MG_CEILING if state.kind == "local_multigrid" else None
    q = certify_contraction(state, ceiling=ceiling)
    history.meta.setdefault("q_alg_levels", []).append(q)
    q_alg = history.meta["q_alg"] = max(history.meta["q_alg_levels"])
    if cfg is None or cfg.q_sym_star is None:
        return
    was_ok = history.meta.get("lambda_constraint_ok", True)
    q_sym, ok = check_lambda_constraint(cfg, q_alg)
    history.meta["q_sym"] = q_sym
    history.meta["lambda_constraint_ok"] = ok
    if was_ok and not ok:
        star = (1.0 - q_alg) * (1.0 - cfg.q_sym_star) / (4.0 * q_alg)
        warnings.warn(f"lambda_alg = {cfg.lambda_alg:g} >= lambda_alg* = "
                      f"{star:.3g}: the inexact Zarantonello iteration need "
                      f"not contract (q_sym = {q_sym:.3f})", stacklevel=5)


# ---------------------------------------------------------------------------
# entry points


def run_exact(prob, mesh0, theta, p=1, max_dofs=5e4, eta_tol=None,
              store_artifacts=False):
    """AFEM with exact solver: solve / estimate / mark / refine."""
    history = History("exact", meta=dict(problem=prob.name, theta=theta, p=p))
    return _adapt(history, prob, mesh0, p, theta,
                  _exact_level(history, prob), max_dofs, eta_tol,
                  store_artifacts)


def run_uniform(prob, mesh0, p=1, max_dofs=5e4, eta_tol=None,
                store_artifacts=False):
    """Uniform-refinement baseline with exact solves per level."""
    history = History("uniform", meta=dict(problem=prob.name, p=p))
    return _adapt(history, prob, mesh0, p, None,
                  _exact_level(history, prob), max_dofs, eta_tol,
                  store_artifacts)


def _exact_level(history, prob):
    def solve_level(ell, space, state, u, art):
        t0 = time.perf_counter()
        u = solve_galerkin_exact(space, prob).coeffs
        t_solve = time.perf_counter() - t0
        ind, t_estimate = _estimate(space, u, prob)
        history.append(ell, n_elem=space.mesh.n_elements, n_dof=space.n_free,
                       eta=ind.total, t_solve=t_solve, t_estimate=t_estimate)
        return u, ind
    return solve_level


def run_single(prob, mesh0, theta, lam, p=1, solver_kind="local_multigrid",
               max_dofs=5e4, eta_tol=None, store_artifacts=False,
               max_inner=500):
    """AFEM with one contractive solver; requires the symmetric case b = a.

    The solver loop repeats until |||u^k - u^(k-1)||| <= lam * eta(u^k)
    (or immediately after one step of an exact solver); nested iteration
    carries the final iterate to the next mesh.
    """
    if not prob.is_symmetric:
        raise ValueError("the single-solver loop needs the symmetric case "
                         "b(.,.) = a(.,.); use run_nested otherwise")
    if lam <= 0:
        raise ValueError("solver-stopping parameter must be positive")
    history = History("single", meta=dict(
        problem=prob.name, theta=theta, lam=lam, p=p, solver=solver_kind))

    def solve_level(ell, space, state, u, art):
        art["initial"] = u
        t0 = time.perf_counter()
        rhs = assemble_rhs(space, prob)
        t_assemble = time.perf_counter() - t0
        for k in _steps(max_inner, f"solver loop on level {ell}"):
            t0 = time.perf_counter()
            u, inc = _solver_step(state, rhs, space, u)
            t_solve = time.perf_counter() - t0 + t_assemble
            t_assemble = 0.0
            ind, t_estimate = _estimate(space, u, prob)
            stop = outer_stop(inc, ind.total, lam) or state.certified_q == 0
            history.append(ell, k, n_elem=space.mesh.n_elements,
                           n_dof=space.n_free, eta=ind.total, increment=inc,
                           stop_outer=stop, t_solve=t_solve,
                           t_estimate=t_estimate)
            if store_artifacts:
                history.meta.setdefault("iterates", []).append(u.copy())
            if stop:
                history.k_stop[ell] = k
                return u, ind

    return _adapt(history, prob, mesh0, p, theta, solve_level, max_dofs,
                  eta_tol, store_artifacts, solver_kind)


def run_nested(prob, mesh0, theta, cfg, p=1, solver_kind="local_multigrid",
               max_dofs=5e4, eta_tol=None, store_artifacts=False,
               max_inner=500, compute_kstar=False):
    """AFEM with nested contractive solvers (symmetrization + algebraic).

    Inner stop:  |||u^(k,j) - u^(k,j-1)||| <=
                 lambda_alg [lambda_sym eta(u^(k,j)) + |||u^(k,j) - u^(k-1,J)|||]
    Outer stop:  |||u^(k,J) - u^(k-1,J)||| <= lambda_sym eta(u^(k,J))

    ``compute_kstar`` additionally materializes the exact Zarantonello
    iterates u^(k,*) (verification only; never used by the production path).
    When ``cfg`` carries q_sym_star, each certification records q_sym and
    whether lambda_alg < lambda_alg* keeps it below 1 (``meta["q_sym"]``,
    ``meta["lambda_constraint_ok"]``), and the run warns once if not.
    """
    history = History("nested", meta=dict(
        problem=prob.name, theta=theta, p=p, solver=solver_kind,
        delta=cfg.delta, lambda_sym=cfg.lambda_sym, lambda_alg=cfg.lambda_alg))
    outer_increments = history.meta["outer_increments"] = []

    def solve_level(ell, space, state, u, art):
        lift = u * space.dirichlet_mask
        lift_term = (energy_gram(space, prob) @ lift)[space.free]
        art.update(initial=u, outer=[], kstar=[])
        for k in _steps(max_inner, f"symmetrization loop on level {ell}"):
            u_prev = u
            t0 = time.perf_counter()
            rhs = zarantonello_rhs(space, prob, cfg.delta, u)[space.free] \
                - lift_term
            t_assemble = time.perf_counter() - t0
            if compute_kstar:
                kstar = u.copy()
                kstar[space.free] = solve_direct(state.matrix, rhs)
                art["kstar"].append(kstar)
            for j in _steps(max_inner, f"algebraic loop on level {ell}, "
                                       f"outer step {k}"):
                t0 = time.perf_counter()
                u, inc = _solver_step(state, rhs, space, u)
                outer_inc = state.energy_norm(
                    u[space.free] - u_prev[space.free])
                t_solve = time.perf_counter() - t0 + t_assemble
                t_assemble = 0.0
                ind, t_estimate = _estimate(space, u, prob)
                stop_in = inner_stop(inc, ind.total, outer_inc, cfg) \
                    or state.certified_q == 0
                history.append(ell, k, j, n_elem=space.mesh.n_elements,
                               n_dof=space.n_free, eta=ind.total,
                               increment=inc, stop_inner=stop_in,
                               t_solve=t_solve, t_estimate=t_estimate)
                outer_increments.append(outer_inc)
                if store_artifacts:
                    history.meta.setdefault("iterates", []).append(u.copy())
                if stop_in:
                    history.j_stop[(ell, k)] = j
                    break
            stop_out = outer_stop(outer_inc, ind.total, cfg.lambda_sym)
            history.records[-1]["stop_outer"] = stop_out
            art["outer"].append(u)
            if stop_out:
                history.k_stop[ell] = k
                return u, ind

    return _adapt(history, prob, mesh0, p, theta, solve_level, max_dofs,
                  eta_tol, store_artifacts, solver_kind, cfg)


# ---------------------------------------------------------------------------
# parameter-sweep cost table


def weighted_cost_table(histories, eta_stop_factor):
    """Final-estimator-weighted cumulative time and cost per parameter choice.

    ``histories`` maps (lambda-ish, theta) keys to History objects.  For each
    run the first level whose final estimator drops below
    eta_stop_factor * eta_initial defines the entry
    eta * (cumulative time)  and  eta * (cumulative cost); runs that never
    reach the threshold are marked incomplete (None entries).
    """
    entries = {}
    for key, hist in histories.items():
        thr = eta_stop_factor * hist.meta["eta_initial"]
        lv = hist.level_summary()
        hit = np.nonzero(lv["eta"] <= thr)[0]
        if len(hit) == 0:
            entries[key] = dict(time=None, dofs=None, complete=False)
        else:
            r = hit[0]
            entries[key] = dict(
                time=float(lv["eta"][r] * lv["cum_time"][r]),
                dofs=float(lv["eta"][r] * lv["cum_cost"][r]),
                complete=True)
    lam_keys = sorted({k[0] for k in entries})
    thetas = sorted({k[1] for k in entries})
    flags = {}
    for which in ("time", "dofs"):
        best_row = {lam: _argmin_key(entries, [(lam, t) for t in thetas], which)
                    for lam in lam_keys}
        best_col = {t: _argmin_key(entries, [(lam, t) for lam in lam_keys], which)
                    for t in thetas}
        flags[which] = dict(row=best_row, col=best_col)
    return dict(entries=entries, lam_keys=lam_keys, thetas=thetas, flags=flags)


def _argmin_key(entries, keys, which):
    vals = [(entries[k][which], k) for k in keys
            if k in entries and entries[k][which] is not None]
    return min(vals)[1] if vals else None
