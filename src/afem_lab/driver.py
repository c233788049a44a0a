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
the recorded iterate, OR-ed with "the state steps exactly" (a solver of
one level), in which case one step settles the algebraic system and further
iterations would only duplicate it.

Timing: every phase of the loop runs under ``History.clock``, which charges
its time to the next record appended, so a record's time columns hold all
the loop's work since the previous record.  Record 0 carries the initial
space (``t_refine``), the initial lift's estimate (``t_estimate``), the
solver setup (``t_setup``: ``setup_solver``, which for the ``direct`` kind
factors the level's matrix) and its certification (``t_certify``).  The
first record of each later level carries the transition to it: marking,
refining, building its space and carrying the iterate over, extending the
solver and certifying it.  The cumulative time at a level's last record is
thus the time of a run that stops at that level.
"""

import contextlib
import itertools
import math
import time
import warnings

import numpy as np

from .estimator import compute_indicators
from .fem import (SolverError, Space, assemble_rhs, dirichlet_values,
                  energy_gram, prolongation_matrix, solve_galerkin_exact)
from .iteration import (check_lambda_constraint, inner_stop,
                        lambda_alg_star, outer_stop, zarantonello_rhs)
from .marking import doerfler_mark
from .mesh import refine, uniform_refine
from .solvers import (certify_contraction, extend_solver, setup_solver,
                      solver_step)

__all__ = ["History", "LedgerError", "run_exact", "run_uniform", "run_single",
           "run_nested", "weighted_cost_table", "CSV_HEADER"]

# (name, CSV format) of each ledger column, in CSV order; None is written
# as an empty field
COLUMNS = (("ell", "d"), ("k", "d"), ("j", "d"), ("n_elem", "d"),
           ("n_dof", "d"), ("eta", ".16e"), ("increment", ".16e"),
           ("stop_outer", "d"), ("stop_inner", "d"), ("t_solve", ".6e"),
           ("t_estimate", ".6e"), ("t_mark", ".6e"), ("t_refine", ".6e"),
           ("cum_cost", "d"), ("t_setup", ".6e"), ("t_certify", ".6e"))

CSV_HEADER = ",".join(name for name, _ in COLUMNS)

TIME_COLUMNS = tuple(name for name, _ in COLUMNS if name.startswith("t_"))

MG_CEILING = 0.9
MAX_INNER = 500  # steps of one solver loop before the run is abandoned


class LedgerError(AssertionError):
    """A History violates its index, cost-law or stop-flag invariants."""


class History:
    """Ordered (ell, k, j) ledger of one adaptive run.

    Records are only appended.  Time spent under ``clock(column)`` is held
    until the next ``append``, which adds it to that record's ``column``.
    """

    def __init__(self, algo, meta=None):
        self.algo = algo
        self.meta = meta or {}
        self.records = []
        self.cumulative_cost = 0
        self._pending = dict.fromkeys(TIME_COLUMNS, 0.0)

    @contextlib.contextmanager
    def clock(self, column):
        """A context manager that adds the wall time of the block it wraps
        to the time column ``column`` of the next record appended."""
        start = time.perf_counter()
        yield
        self._pending[column] += time.perf_counter() - start

    def append(self, ell, k=None, j=None, *, n_elem, n_dof, eta,
               increment=None, stop_outer=False, stop_inner=False,
               t_solve=0.0, t_estimate=0.0, t_mark=0.0, t_refine=0.0):
        """Append the record of one step; each time column is the given
        ``t_*`` value plus the time clocked to it since the last append."""
        self.cumulative_cost += int(n_elem)
        t = self._pending
        self.records.append(dict(
            ell=ell, k=k, j=j, n_elem=int(n_elem), n_dof=int(n_dof),
            eta=float(eta),
            increment=None if increment is None else float(increment),
            stop_outer=bool(stop_outer), stop_inner=bool(stop_inner),
            t_solve=t["t_solve"] + float(t_solve),
            t_estimate=t["t_estimate"] + float(t_estimate),
            t_mark=t["t_mark"] + float(t_mark),
            t_refine=t["t_refine"] + float(t_refine),
            cum_cost=self.cumulative_cost, t_setup=t["t_setup"],
            t_certify=t["t_certify"]))
        t.update(dict.fromkeys(t, 0.0))

    def __len__(self):
        return len(self.records)

    @property
    def k_stop(self):
        """The last k of each level, {ell: k}, read from the records."""
        return {r["ell"]: r["k"] for r in self.records if r["k"] is not None}

    @property
    def j_stop(self):
        """The last j of each (ell, k), read from the records."""
        return {(r["ell"], r["k"]): r["j"] for r in self.records
                if r["j"] is not None}

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
            fileobj.write(",".join(
                "" if r[name] is None else format(r[name], fmt)
                for name, fmt in COLUMNS) + "\n")

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
        # a solver run stops its outer loop on the last record of each
        # level and its inner loop on the last j of each (ell, k)
        for r, rec in enumerate(self.records):
            nxt = self.records[r + 1] if r + 1 < len(self.records) else None
            last_of_level = nxt is None or nxt["ell"] != rec["ell"]
            last_of_k = last_of_level or nxt["k"] != rec["k"]
            require(rec["stop_outer"] == (rec["k"] is not None
                                          and last_of_level),
                    f"outer stop flag inconsistent at record {r}")
            require(rec["stop_inner"] == (rec["j"] is not None and last_of_k),
                    f"inner stop flag inconsistent at record {r}")
        return True


def _stop_reason(n_dof, eta, max_dofs, eta_tol):
    if eta == 0.0:
        return "converged"
    if eta_tol is not None and eta <= eta_tol:
        return "eta_tol"
    if max_dofs is not None and n_dof >= max_dofs:
        return "max_dofs"
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
    if not (max_dofs is not None and max_dofs < math.inf
            or eta_tol is not None and eta_tol > 0):
        raise ValueError("a run needs a finite max_dofs or a positive eta_tol")
    with history.clock("t_refine"):
        space = Space(mesh, p)
        u = None if solver_kind is None else dirichlet_values(space, prob)
    state = None
    if solver_kind is not None:
        with history.clock("t_setup"):
            state = setup_solver(solver_kind, space, prob)
        with history.clock("t_certify"):
            _certify(history, state, cfg)
        with history.clock("t_estimate"):
            history.meta["eta_initial"] = compute_indicators(
                space, u, prob).total
    artifacts = []
    for ell in itertools.count():
        art = dict(space=space)
        u, ind = solve_level(ell, space, state, u, art)
        eta = ind.total
        history.meta.setdefault("eta_initial", eta)
        if store_artifacts:
            art.update(final=u, ind=ind)
            artifacts.append(art)

        reason = _stop_reason(space.n_free, eta, max_dofs, eta_tol)
        if reason is not None:
            history.meta["stop_reason"] = reason
            break
        if theta is not None:
            with history.clock("t_mark"):
                marked = doerfler_mark(ind, theta)
        with history.clock("t_refine"):
            mesh = uniform_refine(mesh) if theta is None \
                else refine(mesh, marked)
            new_space = Space(mesh, p)
            if state is not None:
                u = prolongation_matrix(space, new_space) @ u
                u[new_space.dirichlet_mask] = dirichlet_values(
                    new_space, prob)[new_space.dirichlet_mask]
        if state is not None:
            with history.clock("t_setup"):
                state = extend_solver(state, new_space)
            with history.clock("t_certify"):
                _certify(history, state, cfg)
        space = new_space
    if store_artifacts:
        history.meta["artifacts"] = artifacts
    return history


def _steps(loop):
    """1, 2, ..., MAX_INNER; asking for one more raises SolverError."""
    yield from range(1, MAX_INNER + 1)
    raise SolverError(f"{loop} exceeded {MAX_INNER} iterations; the solver "
                      "does not contract fast enough")


def _solver_step(state, rhs, space, u):
    """One solver step from ``u``: the new iterate and the energy norm of
    the increment."""
    new_free = solver_step(state, rhs, u[space.free])
    increment = state.energy_norm(new_free - u[space.free])
    u = u.copy()
    u[space.free] = new_free
    return u, increment


def _certify(history, state, cfg):
    """Certify the solver of the current level.  With a Zarantonello
    ``cfg``, recheck q_sym < 1 of the inexact iteration against the running
    maximum q_alg; q_sym can only grow, so warn once, when it reaches 1."""
    q = certify_contraction(state, ceiling=MG_CEILING)
    history.meta.setdefault("q_alg_levels", []).append(q)
    history.meta.setdefault("certify_cycles", []).append(state.certify_cycles)
    q_alg = history.meta["q_alg"] = max(history.meta["q_alg_levels"])
    if cfg is None or cfg.q_sym_star is None:
        return
    was_ok = history.meta.get("lambda_constraint_ok", True)
    q_sym, ok = check_lambda_constraint(cfg, q_alg)
    history.meta["q_sym"] = q_sym
    history.meta["lambda_constraint_ok"] = ok
    if was_ok and not ok:
        star = lambda_alg_star(cfg, q_alg)
        warnings.warn(f"lambda_alg = {cfg.lambda_alg:g} >= lambda_alg* = "
                      f"{star:.3g}: the inexact Zarantonello iteration need "
                      f"not contract (q_sym = {q_sym:.3f})", stacklevel=4)


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
        with history.clock("t_solve"):
            u = solve_galerkin_exact(space, prob)
        with history.clock("t_estimate"):
            ind = compute_indicators(space, u, prob)
        history.append(ell, n_elem=space.mesh.n_elements, n_dof=space.n_free,
                       eta=ind.total)
        return u, ind
    return solve_level


def run_single(prob, mesh0, theta, lam, p=1, solver_kind="local_multigrid",
               max_dofs=5e4, eta_tol=None, store_artifacts=False):
    """AFEM with one contractive solver; requires the symmetric case b = a.

    The solver loop repeats until |||u^k - u^(k-1)||| <= lam * eta(u^k)
    (or immediately after one step of an exact solver); nested iteration
    carries the final iterate to the next mesh.
    """
    if not prob.is_symmetric:
        raise ValueError("the single-solver loop needs the symmetric case "
                         "b(.,.) = a(.,.); use run_nested otherwise")
    if not lam > 0:
        raise ValueError("solver-stopping parameter must be positive")
    history = History("single", meta=dict(
        problem=prob.name, theta=theta, lam=lam, p=p, solver=solver_kind))

    def solve_level(ell, space, state, u, art):
        art["initial"] = u
        with history.clock("t_solve"):
            rhs = assemble_rhs(space, prob)
        for k in _steps(f"solver loop on level {ell}"):
            with history.clock("t_solve"):
                u, inc = _solver_step(state, rhs, space, u)
            with history.clock("t_estimate"):
                ind = compute_indicators(space, u, prob)
            stop = outer_stop(inc, ind.total, lam) or state.exact
            history.append(ell, k, n_elem=space.mesh.n_elements,
                           n_dof=space.n_free, eta=ind.total, increment=inc,
                           stop_outer=stop)
            if store_artifacts:
                history.meta.setdefault("iterates", []).append(u.copy())
            if stop:
                return u, ind

    return _adapt(history, prob, mesh0, p, theta, solve_level, max_dofs,
                  eta_tol, store_artifacts, solver_kind)


def run_nested(prob, mesh0, theta, cfg, p=1, solver_kind="local_multigrid",
               max_dofs=5e4, eta_tol=None, store_artifacts=False):
    """AFEM with nested contractive solvers (symmetrization + algebraic).

    Inner stop:  |||u^(k,j) - u^(k,j-1)||| <=
                 lambda_alg [lambda_sym eta(u^(k,j)) + |||u^(k,j) - u^(k-1,J)|||]
    Outer stop:  |||u^(k,J) - u^(k-1,J)||| <= lambda_sym eta(u^(k,J))

    When ``cfg`` carries q_sym_star, each certification records q_sym and
    whether lambda_alg < lambda_alg* keeps it below 1 (``meta["q_sym"]``,
    ``meta["lambda_constraint_ok"]``), and the run warns once if not.
    """
    history = History("nested", meta=dict(
        problem=prob.name, theta=theta, p=p, solver=solver_kind,
        delta=cfg.delta, lambda_sym=cfg.lambda_sym, lambda_alg=cfg.lambda_alg))
    outer_increments = history.meta["outer_increments"] = []

    def solve_level(ell, space, state, u, art):
        with history.clock("t_solve"):
            lift = u * space.dirichlet_mask
            lift_term = (energy_gram(space, prob) @ lift)[space.free]
        art.update(initial=u, outer=[])
        for k in _steps(f"symmetrization loop on level {ell}"):
            u_prev = u
            with history.clock("t_solve"):
                rhs = zarantonello_rhs(space, prob, cfg.delta,
                                       u)[space.free] - lift_term
            for j in _steps(f"algebraic loop on level {ell}, outer step {k}"):
                with history.clock("t_solve"):
                    u, inc = _solver_step(state, rhs, space, u)
                    outer_inc = state.energy_norm(
                        u[space.free] - u_prev[space.free])
                with history.clock("t_estimate"):
                    ind = compute_indicators(space, u, prob)
                stop_in = inner_stop(inc, ind.total, outer_inc, cfg) \
                    or state.exact
                # the outer test reads the iterate that ends the inner loop
                stop_out = stop_in and outer_stop(outer_inc, ind.total,
                                                  cfg.lambda_sym)
                history.append(ell, k, j, n_elem=space.mesh.n_elements,
                               n_dof=space.n_free, eta=ind.total,
                               increment=inc, stop_outer=stop_out,
                               stop_inner=stop_in)
                outer_increments.append(outer_inc)
                if store_artifacts:
                    history.meta.setdefault("iterates", []).append(u.copy())
                if stop_in:
                    break
            art["outer"].append(u)
            if stop_out:
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
    reach the threshold are marked incomplete (None entries).  The
    cumulative time is the ledger time up to that level's last record: the
    time of the run that stops at that level, with no work on the next.
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
