"""Contractive algebraic solvers for the SPD (energy) systems.

Three kinds:

* ``direct``: one step is ``solve_direct`` (contraction factor 0).
* ``damped_richardson``: x <- x + omega D^-1 (rhs - A x) with omega from a
  power-iteration estimate of the largest eigenvalue of D^-1/2 A D^-1/2.
  Contractive but not mesh-robust; intended for p >= 2 experiments.
* ``local_multigrid`` (p = 1 only): multiplicative V-cycles over the
  adaptive mesh hierarchy.  Smoothing is Gauss-Seidel restricted to the DOFs
  created on each level plus their edge neighbours (two forward sweeps on
  descent, two backward on ascent, so the cycle is symmetric and contracts
  in the energy norm); the coarsest level is solved directly.  One solver
  step applies two V-cycles: checkerboard-type coefficient jumps degrade the
  single-cycle factor towards the certification ceiling at desk scale, and
  squaring it buys the needed margin at the same cost per unit of progress.

All vectors are reduced (free DOFs only); the energy norm of a reduced error
vector e is (e' A e)^(1/2) with A the reduced SPD matrix.  A state holds
the space of its finest level only.  ``extend_solver`` never modifies the
state it is given: it returns a new state for the next refinement level that
shares the coarser levels.  The one field set after construction is
``certified_q``, written by ``certify_contraction``.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fem import SolverError, assemble_a, prolongation_matrix, solve_direct

__all__ = ["SolverState", "setup_solver", "extend_solver", "solver_step",
           "certify_contraction", "solve_direct", "SolverError",
           "NonContractiveError"]

KINDS = ("direct", "damped_richardson", "local_multigrid")


class NonContractiveError(RuntimeError):
    """A measured per-step energy-error ratio reached 1: setup rejected."""


class _Level:
    """Per-level data: reduced SPD matrix, smoother factors, prolongation."""

    def __init__(self, matrix, prol=None, smooth_dofs=None):
        self.matrix = matrix
        self.prol = prol          # reduced prolongation from previous level
        self.smooth_dofs = smooth_dofs
        self.prol_t = None if prol is None else prol.T.tocsr()
        self.lower = self.upper = self.cols = None
        if smooth_dofs is not None and len(smooth_dofs):
            sub = matrix[smooth_dofs][:, smooth_dofs].tocsc()
            self.lower = splu(sp.tril(sub).tocsc(), permc_spec="NATURAL")
            self.upper = splu(sp.triu(sub).tocsc(), permc_spec="NATURAL")
            self.cols = matrix[:, smooth_dofs].tocsr()
        self._lu = None

    @property
    def lu(self):
        if self._lu is None:
            self._lu = splu(self.matrix.tocsc())
        return self._lu


class SolverState:
    """Solver on the space of the finest level; only that space is held, so
    superseded spaces and their caches can be collected."""

    def __init__(self, kind, prob, space, levels, omega=None):
        if kind not in KINDS:
            raise ValueError(f"unknown solver kind {kind!r}")
        self.kind = kind
        self.prob = prob
        self.space = space
        self.levels = levels
        self.omega = omega
        self.certified_q = None

    @property
    def matrix(self):
        return self.levels[-1].matrix

    def energy_norm(self, e):
        return float(np.sqrt(max(e @ (self.matrix @ e), 0.0)))


def _check_spd(matrix):
    if matrix.nnz == 0:
        return
    if (abs(matrix - matrix.T)).max() > 1e-12 * max(abs(matrix).max(), 1.0):
        raise SolverError("solver needs a symmetric operator")
    d = matrix.diagonal()
    if (d <= 0).any():
        raise SolverError("solver needs a positive definite operator")


def _reduced_prolongation(coarse_space, fine_space):
    P = prolongation_matrix(coarse_space, fine_space)
    return P[fine_space.free][:, coarse_space.free].tocsr()


def _new_dof_block(coarse_space, fine_space):
    """Free fine DOFs created by the refinement plus their edge neighbours."""
    mesh = fine_space.mesh
    new_vertex0 = coarse_space.mesh.n_vertices
    edges, _, _ = mesh.edge_tables()
    is_new = np.zeros(mesh.n_vertices, dtype=bool)
    is_new[new_vertex0:] = True
    touched = is_new.copy()
    touch = is_new[edges[:, 0]] | is_new[edges[:, 1]]
    touched[edges[touch].ravel()] = True
    full = np.nonzero(touched & ~fine_space.dirichlet_mask)[0]
    # map to reduced indices
    pos = np.full(fine_space.n_dofs, -1, dtype=np.int64)
    pos[fine_space.free] = np.arange(fine_space.n_free)
    return pos[full]


def setup_solver(kind, space, prob):
    """Solver state on the initial level."""
    if kind == "local_multigrid" and space.degree != 1:
        raise SolverError("local multigrid is implemented for p = 1 only; "
                          "use damped_richardson or direct for p >= 2")
    return _new_state(kind, prob, space)


def extend_solver(state, space):
    """New state for the next refinement level of the same problem; the
    multigrid hierarchy shares the coarser levels of ``state``."""
    return _new_state(state.kind, state.prob, space, coarser=state)


def _new_state(kind, prob, space, coarser=None):
    A = assemble_a(space, prob)
    _check_spd(A)
    if kind == "local_multigrid" and coarser is not None:
        prev = coarser.space
        lvl = _Level(A, prol=_reduced_prolongation(prev, space),
                     smooth_dofs=_new_dof_block(prev, space))
        return SolverState(kind, prob, space, coarser.levels + [lvl])
    omega = _richardson_damping(A) if kind == "damped_richardson" else None
    return SolverState(kind, prob, space, [_Level(A)], omega=omega)


def _richardson_damping(A, iters=50, seed=0):
    if A.shape[0] == 0:
        return 1.0
    d = A.diagonal()
    dinv_sqrt = 1.0 / np.sqrt(d)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = dinv_sqrt * (A @ (dinv_sqrt * v))
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    return 1.0 / lam


SMOOTH_SWEEPS = 2
CYCLES_PER_STEP = 2
SAFETY = 1.05  # certified factor = worst measured energy ratio * SAFETY


def solver_step(state, rhs, iterate):
    """One iteration of the contractive solver towards A x = rhs."""
    rhs = np.asarray(rhs, dtype=float)
    x = np.asarray(iterate, dtype=float)
    if state.kind == "direct":
        return solve_direct(state.matrix, rhs)
    if state.kind == "damped_richardson":
        A = state.matrix
        return x + state.omega * (rhs - A @ x) / A.diagonal()
    levels = state.levels
    if len(levels) == 1:
        return levels[0].lu.solve(rhs)
    x = x.copy()
    for _ in range(CYCLES_PER_STEP):
        x = _vcycle(levels, len(levels) - 1, x, rhs - state.matrix @ x)
    return x


def _vcycle(levels, j, x, r):
    # x is corrected in place and r, its residual, is carried along and
    # updated after each local correction.  Levels below the top start from
    # x = 0 with the restricted residual, so a cycle costs one full matvec
    # per level below the top (two at the top) plus the local solves
    lvl = levels[j]
    if j == 0:
        return lvl.lu.solve(r)
    S = lvl.smooth_dofs
    if lvl.lower is not None:
        for _ in range(SMOOTH_SWEEPS):
            dx = lvl.lower.solve(r[S])
            x[S] += dx
            r -= lvl.cols @ dx
    e = _vcycle(levels, j - 1, np.zeros(levels[j - 1].matrix.shape[0]),
                lvl.prol_t @ r)
    corr = lvl.prol @ e
    x += corr
    r -= lvl.matrix @ corr
    if lvl.upper is not None:
        for _ in range(SMOOTH_SWEEPS):
            dx = lvl.upper.solve(r[S])
            x[S] += dx
            r -= lvl.cols @ dx
    return x


def certify_contraction(state, trials=1, ceiling=None):
    """Measured per-step energy contraction factor with a safety margin.

    A step is affine, so any error evolves as e <- solver_step(state, 0, e)
    whatever the right-hand side; no reference solution is needed.  Steps
    ``trials`` random errors and returns max ratio * SAFETY, clamped below 1.
    Raises NonContractiveError if any ratio reaches 1 (or exceeds ``ceiling``).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = state.matrix.shape[0]
    if state.kind == "direct" or n == 0:
        state.certified_q = 0.0
        return 0.0
    rng = np.random.default_rng(0)
    zero = np.zeros(n)
    worst = 0.0
    for _ in range(trials):
        # a trial starts from the second of two standard normal draws; the
        # recorded certificates were measured from these starts
        e = rng.standard_normal((2, n))[1]
        err = state.energy_norm(e)
        floor = 1e-8 * err
        # the error propagator is symmetric in the energy inner product, so
        # per-step ratios increase towards its norm; iterate until the
        # ratio plateaus or the error nears roundoff
        prev_ratio = None
        for it in range(8):
            e = solver_step(state, zero, e)
            err_new = state.energy_norm(e)
            ratio = err_new / err if err > 0 else 0.0
            worst = max(worst, ratio)
            if ratio >= 1.0:
                raise NonContractiveError(
                    f"{state.kind}: energy-error ratio {ratio:.4f} >= 1")
            err = err_new
            if err <= floor:
                break
            if it >= 2 and prev_ratio is not None \
                    and abs(ratio - prev_ratio) <= 0.01 * ratio:
                break
            prev_ratio = ratio
    q = min(worst * SAFETY, 1.0 - 1e-9)
    if ceiling is not None and q > ceiling:
        raise NonContractiveError(
            f"{state.kind}: certified contraction {q:.4f} exceeds the "
            f"ceiling {ceiling}")
    state.certified_q = q
    return q
