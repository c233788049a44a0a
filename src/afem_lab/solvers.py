"""Contractive algebraic solvers for the SPD (energy) systems.

Two kinds:

* ``direct``: one step is the exact solve (contraction factor 0).
* ``local_multigrid`` (p = 1 only): multiplicative V-cycles over the
  adaptive mesh hierarchy.  Smoothing is Gauss-Seidel restricted to the DOFs
  created on each level plus their edge neighbours (two forward sweeps on
  descent, two backward on ascent, so the cycle is symmetric and contracts
  in the energy norm); the coarsest level is solved exactly.  One solver
  step applies two V-cycles (``_cycle``): checkerboard-type coefficient
  jumps degrade the single-cycle factor towards the certification ceiling
  at desk scale, and squaring it buys the needed margin at the same cost
  per unit of progress.
A level with no coarser level holds its exact solve from
``fem.factorize``, made when the level is built: a state with one level
(``SolverState.exact``), that of the ``direct`` kind and level 0 of local
multigrid, steps with it and never factors again, and it is the V-cycle's
solve on level 0.

Each sparse level holds each operator once: A, the rows W of the
prolongation for the free DOFs the refinement created, ``rows`` = A[S, :]
for its smoothing block S and ``smoother``, one SuperLU factor that runs
all ``SMOOTH_SWEEPS`` sweeps as a single substitution.  With
L = tril(A[S, S]), U = triu(A[S, S], 1) and z_k the sum of the first k
corrections, forward sweep k solves L z_k = r[S] - U z_(k-1), z_0 = 0.  So
the m sweeps are one forward substitution with the block lower-bidiagonal
K of ``_sweep_matrix`` (L on the diagonal blocks, U below them) on r[S]
repeated m times, and the correction is the last block.  As A is
symmetric, the m backward sweeps are the transposed solve with K, whose
correction is the first block.  A level visit thus makes two SuperLU calls,
each on r[S] repeated m times, gathered by one index array, and the
residual updates r - A[:, S] z and r[S] - A[S, :] c are a transpose and a
plain product with ``rows``, both looping over the |S| block rows.  A level
is built from A's CSR arrays: ``fem.submatrix`` cuts W, ``rows`` and
A[S, S] by gathers, and K is assembled in one call from the entries of
A[S, S].  ``_smoother`` factors K exactly, as it is lower triangular, in
20 to 30 bytes per nonzero, where ``splu`` keeps several hundred.

``refine`` appends the new vertices and keeps the Dirichlet status of the
old ones, so the coarse free DOFs come first on the fine level, in order,
and the reduced prolongation is P = [I; W], with at most two weights 1/2
per row of W.  Every level's cycle, the top included, has one contract: it
is handed a zeroed x and a residual r and leaves in x its correction for
r.  It runs in place on prefixes: restriction adds W' r[n_c:] into
r[:n_c], after r[S] is saved for the ascent, the coarse level writes its
correction c straight into x[:n_c], and prolongation fills x[n_c:] with
W c, so that x = P c before the smoothing corrections are added.  The
transfers thus touch only the refinement patch, and no level below the top
allocates, copies or adds a vector of its length.

The V-cycle is linear in the residual it is handed, so from the finest level
k with at most ``DENSE_BOTTOM`` free DOFs down it is one dense matrix B_k:
the recursion has one base case, level k, where it adds B_k r, or level
0's exact solve when k = 0.  ``extend_solver`` builds B_j for each new
level up to that size by running the level's own cycle on the whole
identity in one call, over the bottom below it.  The method and its
iterates are those of the sparse recursion up to rounding.

All vectors are reduced (free DOFs only); the energy norm of a reduced error
vector e is (e' A e)^(1/2) with A the reduced SPD matrix.  Every sparse
product of a solver step is ``_product``, which calls the compiled kernel
that ``M @ x`` or ``M.T @ x`` ends in on the CSR arrays of M, without
scipy's per-call dispatch, so the operators of a ``_Level`` must be CSR.
It checks no shape: the kernel would read past the end of a short vector.
So shapes are checked where a vector enters from outside, by
``solver_step`` and ``SolverState.energy_norm``, and ``_new_state`` checks
W's shape against the level below once, when it builds the level.

Certification measures the norm of the error propagator E of a step (a
step with right-hand side 0).  A step is ``CYCLES_PER_STEP`` = 2 steps of
``_cycle``, so E = E1^2 with E1 = I - B A the one-cycle propagator.  The
V-cycle is symmetric, so E1 is self-adjoint in the energy product, and
|||E||| = |||E1|||^2.  Lanczos therefore runs on E1 in that product, with
full reorthogonalization, one V-cycle per step and at most
``LANCZOS_STEPS`` = 16 steps.  As K_m(E) lies in K_(2m-1)(E1), that
Krylov space holds the one of 8 steps on E, which take as many V-cycles.
The orthogonalization coefficients of the k steps so far, with each
step's residual norm below them, form a (k+1) x k matrix H with
E1 V = V H, so H'H is the Rayleigh-Ritz matrix of E on their span and
needs no vector more.  Its largest eigenvalue, the square of H's largest
singular value, is a lower bound of |||E||| and at least every
|||E1 v|||^2 on the span; times ``SAFETY`` it is the certified factor.
The run on a level starts from the prolongated dominant Ritz vector of the
level below, plus a small random part so that it cannot miss a new mode;
only such a warm start may stop early, when the bound settles.

A state holds the space of its finest level only, and levels are
write-once.  ``extend_solver`` never modifies the state it is given: it
returns a new state for the next refinement level that shares the coarser
levels and the read-only dense bottom, and hands it the given state's
dominant Ritz vector ``ritz`` as ``coarse_ritz``.  Certification sets
``ritz``, ``certified_q`` and ``certify_cycles``, the V-cycles it took.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import spilu

from .fem import (SolverError, assemble_a, factorize, prolongation_matrix,
                  solve_direct, submatrix)

__all__ = ["SolverState", "setup_solver", "extend_solver", "solver_step",
           "certify_contraction", "solve_direct", "SolverError",
           "NonContractiveError"]

KINDS = ("direct", "local_multigrid")


class NonContractiveError(SolverError):
    """A measured per-step energy-error ratio reached 1: setup rejected."""


class _Level:
    """Per-level data, write-once: set here and never changed.  The reduced
    SPD matrix A; on a level with no coarser level, ``solve``, its exact
    solve; on the others ``new_rows`` = W, the rows of the reduced
    prolongation P = [I; W] from the level below for the free DOFs the
    refinement created; the smoothing block S, ``rows`` = A[S, :],
    ``sweeps``, S repeated ``SMOOTH_SWEEPS`` times, and ``smoother``, the
    exact factor of the sweep matrix K of A[S, S] from ``_smoother``.  The
    block rows and A[S, S] are cut from A's CSR arrays by ``fem.submatrix``,
    and ``_product`` reads the CSR arrays of A, W and the block rows."""

    def __init__(self, matrix, new_rows=None, smooth_dofs=None):
        for op in (matrix, new_rows):
            if op is not None and not (sp.issparse(op) and op.format == "csr"):
                raise TypeError("solver levels need CSR operators")
        self.matrix = matrix
        self.new_rows = new_rows
        self.smooth_dofs = smooth_dofs
        self.solve = factorize(matrix) if new_rows is None else None
        self.smoother = self.rows = self.sweeps = None
        if smooth_dofs is not None and len(smooth_dofs):
            self.rows = submatrix(matrix, smooth_dofs)
            self.sweeps = np.tile(smooth_dofs, SMOOTH_SWEEPS)
            self.smoother = _smoother(
                _sweep_matrix(submatrix(self.rows, cols=smooth_dofs)))


class SolverState:
    """Solver on the space of the finest level; only that space is held, so
    superseded spaces and their caches can be collected.  Certification
    sets ``certified_q``, ``certify_cycles`` and ``ritz``; ``levels`` are
    write-once, and ``coarse_ritz`` is the Ritz vector handed down."""

    def __init__(self, kind, prob, space, levels, bottom=(0, None),
                 coarse_ritz=None):
        if kind not in KINDS:
            raise ValueError(f"unknown solver kind {kind!r}")
        self.kind = kind
        self.prob = prob
        self.space = space
        self.levels = levels
        # (k, B_k): the V-cycle from level k down is the dense B_k, or
        # level 0's exact solve for k = 0
        self.bottom = bottom
        self.coarse_ritz = coarse_ritz
        self.certified_q = self.certify_cycles = self.ritz = None

    @property
    def matrix(self):
        return self.levels[-1].matrix

    @property
    def exact(self):
        """A state of one level steps with its exact solve."""
        return len(self.levels) == 1

    def energy_norm(self, e):
        n = self.matrix.shape[0]
        e = np.asarray(e, dtype=float)
        if e.shape != (n,):
            # the kernel does not check: it would read past the end of e
            raise ValueError(f"energy norm on {n} DOFs got {e.shape}")
        return float(np.sqrt(max(e @ _product(self.matrix, e, np.zeros(n)),
                                 0.0)))


def _check_spd(matrix):
    """Rejects a CSR matrix with an entry of A - A' above 1e-12 times
    max(max |A|, 1), or with a nonpositive diagonal entry."""
    if matrix.nnz == 0:
        return
    T = matrix.tocsc()  # A' in CSR arrays, canonical if A is
    if (matrix.has_canonical_format and np.array_equal(matrix.indptr, T.indptr)
            and np.array_equal(matrix.indices, T.indices)):
        # one pattern: entry k of A and of A' is the same (i, j)
        gap = np.abs(matrix.data - T.data).max()
        top = np.abs(matrix.data).max()
    else:
        gap, top = abs(matrix - matrix.T).max(), abs(matrix).max()
    if gap > 1e-12 * max(top, 1.0):
        raise SolverError("solver needs a symmetric operator")
    d = matrix.diagonal()
    if (d <= 0).any():
        raise SolverError("solver needs a positive definite operator")


def _new_rows(coarse_space, fine_space):
    """W of the reduced prolongation P = [I; W]: ``refine`` appends the new
    vertices, and an old vertex keeps its Dirichlet status, so the fine free
    DOFs start with the coarse ones, in order, and interpolate them
    exactly."""
    P = prolongation_matrix(coarse_space, fine_space)
    return submatrix(P, fine_space.free[coarse_space.n_free:],
                     coarse_space.free)


def _new_dof_block(coarse_space, fine_space):
    """Reduced indices of the free DOFs of every fine element that holds a
    DOF the refinement created.  At p = 1 a DOF is its vertex, ``refine``
    appends the new vertices and the vertices of a triangle are pairwise
    edges, so these are the new DOFs plus their edge neighbours."""
    dofs = fine_space.elem_dofs
    # an element appears once per new DOF it holds
    holders = np.flatnonzero(dofs >= coarse_space.n_dofs) // dofs.shape[1]
    touched = np.zeros(fine_space.n_dofs, dtype=bool)
    touched[dofs[holders]] = True
    return np.flatnonzero(touched[fine_space.free])


def setup_solver(kind, space, prob):
    """Solver state on the initial level."""
    if kind == "local_multigrid" and space.degree != 1:
        raise SolverError("local multigrid is implemented for p = 1 only; "
                          "use direct for p >= 2")
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
        W, n_c = _new_rows(prev, space), coarser.matrix.shape[0]
        if W.shape != (A.shape[0] - n_c, n_c):
            # the V-cycle's unchecked products rely on these sizes
            raise ValueError(f"prolongation rows {W.shape} do not map "
                             f"{n_c} onto {A.shape[0]} DOFs")
        lvl = _Level(A, new_rows=W, smooth_dofs=_new_dof_block(prev, space))
        state = SolverState(kind, prob, space, coarser.levels + [lvl],
                            coarser.bottom, coarser.ritz)
        j = len(state.levels) - 1
        if A.shape[0] <= DENSE_BOTTOM and coarser.bottom[0] == j - 1:
            state.bottom = (j, _dense_cycle(state, j))
        return state
    return SolverState(kind, prob, space, [_Level(A)])


SMOOTH_SWEEPS = 2
CYCLES_PER_STEP = 2
DENSE_BOTTOM = 200  # free DOFs up to which a level's V-cycle is kept dense
SAFETY = 1.05  # certified factor = worst measured energy ratio * SAFETY
LANCZOS_STEPS = 16  # one V-cycle each
FLOOR = 1e-8   # a Lanczos residual this small spans an invariant subspace
WARM_NOISE = 0.1  # weight of the random part of a warm start


def _product(M, x, out, transpose=False):
    """``out += M @ x``, or ``M.T @ x`` if ``transpose``, for a CSR matrix M
    and a float vector or column block x, bit for bit with scipy's product
    when ``out`` is zero: the compiled kernel that it ends in (M.T is M's
    arrays read as CSC), without its per-call dispatch.  Unchecked: the
    caller guarantees the shapes and a C-contiguous float64 ``out``, which
    is returned."""
    n_row, n_col = M.shape[::-1] if transpose else M.shape
    args = (M.indptr, M.indices, M.data)
    if x.ndim == 1:
        kernel = (_sparsetools.csc_matvec if transpose
                  else _sparsetools.csr_matvec)
        kernel(n_row, n_col, *args, x, out)
    else:
        kernel = (_sparsetools.csc_matvecs if transpose
                  else _sparsetools.csr_matvecs)
        kernel(n_row, n_col, x.shape[1], *args, x.ravel(), out.ravel())
    return out


def _sweep_matrix(block):
    """K, in CSC, of the ``SMOOTH_SWEEPS`` = m Gauss-Seidel sweeps on the
    CSR ``block`` = A[S, S]: block lower bidiagonal, with L = tril(block) on
    the m diagonal blocks and U = triu(block, 1) on the m - 1 blocks below,
    built in one call from the block's entries."""
    s, m = block.shape[0], SMOOTH_SWEEPS
    i = np.repeat(np.arange(s), np.diff(block.indptr))
    j, low = block.indices, block.indices <= i
    up = ~low
    shift = s * np.arange(m)[:, None]
    rows = np.concatenate([(i[low] + shift).ravel(),
                           (i[up] + shift[1:]).ravel()])
    cols = np.concatenate([(j[low] + shift).ravel(),
                           (j[up] + shift[:-1]).ravel()])
    data = np.concatenate([np.tile(block.data[low], m),
                           np.tile(block.data[up], m - 1)])
    return sp.csc_matrix((data, (rows, cols)), shape=(m * s, m * s))


def _smoother(K):
    """The SuperLU factor of a sweep matrix K, by the incomplete (ILU)
    driver with nothing dropped, in the natural ordering without pivoting.
    K is lower triangular, so nothing fills in and the factor is exact: L
    holds K's entries, U its diagonal, and its solves are bit for bit those
    of ``splu``'s.  ``splu`` keeps the workspace it reserves for fill, a
    fixed multiple of K's nonzeros; this driver sizes it by ``fill_factor``
    = 1, so the factor holds about what L and U take.  No column of K
    updates another, so panels of one column suffice."""
    return spilu(K, drop_tol=0.0, fill_factor=1.0, drop_rule="basic",
                 permc_spec="NATURAL", diag_pivot_thresh=0, panel_size=1)


def solver_step(state, rhs, iterate):
    """One iteration of the contractive solver towards A x = rhs: the exact
    solve on a state of one level, else ``CYCLES_PER_STEP`` V-cycle
    steps."""
    rhs = np.asarray(rhs, dtype=float)
    x = np.asarray(iterate, dtype=float)
    n = state.matrix.shape[0]
    if x.shape != (n,) or rhs.shape != (n,):
        raise ValueError(f"solver step on {n} DOFs got rhs {rhs.shape} and "
                         f"iterate {x.shape}")
    if state.exact:
        return state.levels[0].solve(rhs)
    for _ in range(CYCLES_PER_STEP):
        x = _cycle(state, x, rhs - _product(state.matrix, x, np.zeros(n)))
    return x


def _cycle(state, x, r):
    """One V-cycle step from x, whose residual is r = rhs - A x: returns
    the new array x + B r, and uses r up.  On errors it acts as the
    one-cycle propagator E1 = I - B A; ``solver_step`` applies it
    ``CYCLES_PER_STEP`` times.  Unchecked, like ``_product``."""
    return x + _vcycle(state, len(state.levels) - 1, np.zeros(len(x)), r)


def _vcycle(state, j, x, r):
    """Level j's V-cycle for one residual r or, in its columns, several: x,
    zero on entry, leaves holding the correction and is returned, and r,
    C-contiguous, is used up.  The one base case is the bottom level k,
    which writes B_k r, or level 0's exact solve for k = 0."""
    # r is updated in place after each local correction, and restriction
    # leaves the coarse residual in its prefix, for which the coarse level
    # writes its correction into x's prefix.  So a level costs one product
    # with W and one with its transpose, one forward and one transposed
    # solve with its smoother and one product with its block rows and one
    # with their transpose
    k, B = state.bottom
    if j == k:
        x[...] = state.levels[0].solve(r) if k == 0 else B @ r
        return x
    lvl = state.levels[j]
    S, W = lvl.smooth_dofs, lvl.new_rows
    n_c = W.shape[1]
    if lvl.smoother is not None:
        z = lvl.smoother.solve(r[lvl.sweeps])
        z = z[-len(S):]  # the last block sums the corrections of all sweeps
        _product(lvl.rows, -z, r, transpose=True)
        # r[S] once per sweep, saved before restriction overwrites r[:n_c]
        post = r[lvl.sweeps]
    # P' r = r[:n_c] + W' r[n_c:], in place
    _product(W, r[n_c:], r[:n_c], transpose=True)
    _vcycle(state, j - 1, x[:n_c], r[:n_c])
    _product(W, x[:n_c], x[n_c:])  # x = P c = [c; W c]
    if lvl.smoother is not None:
        # the block rows only from here on; A[S, :] P c is the coarse
        # correction's residual, taken before z joins x
        Ac = _product(lvl.rows, x, np.zeros((len(S),) + r.shape[1:]))
        x[S] += z
        copies = post.reshape((-1,) + Ac.shape)  # one per sweep
        copies -= Ac
        z = lvl.smoother.solve(post, trans="T")
        x[S] += z[:len(S)]
    return x


def _dense_cycle(state, j):
    """B_j as a read-only dense matrix: level j's V-cycle run on all columns
    of the identity at once, over the state's bottom below j; with n_j at
    most ``DENSE_BOTTOM`` its temporaries stay small."""
    eye = np.eye(state.levels[j].matrix.shape[0])
    B = _vcycle(state, j, np.zeros_like(eye), eye)
    B.flags.writeable = False
    return B


def certify_contraction(state, ceiling=None):
    """Measured per-step energy contraction factor with a safety margin.

    A step is affine, so any error evolves as e <- E e = solver_step(state,
    0, e) whatever the right-hand side; no reference solution is needed.
    One Lanczos run on the one-cycle propagator E1 (see ``_lanczos``) yields
    a lower bound of |||E|||; returns it times SAFETY, clamped below 1, and
    sets ``state.certify_cycles`` to the V-cycles it took and
    ``state.ritz`` to its dominant Ritz vector.  An ``exact`` state steps
    with its exact solve: E = 0, it takes none, and its random draw is its
    Ritz vector.  The run starts warm from ``state.coarse_ritz`` if set, and
    from a random draw otherwise.  Only a warm start may stop when the bound
    settles: from a random start the dominant eigenvalue can hide behind a
    cluster that settles first.  Raises NonContractiveError if the bound
    reaches 1 (or q exceeds ``ceiling``).
    """
    n = state.matrix.shape[0]
    if n == 0:
        state.certified_q, state.certify_cycles = 0.0, 0
        return 0.0
    v = np.random.default_rng(0).standard_normal(n)
    v /= state.energy_norm(v)
    if state.exact:  # E = 0, so every vector is dominant
        worst, ritz, cycles = 0.0, v, 0
    else:
        warm = state.coarse_ritz is not None
        if warm:
            v = _warm_start(state) + WARM_NOISE * v
            v /= state.energy_norm(v)
        worst, ritz, cycles = _lanczos(state, v, warm)
    state.ritz, state.certify_cycles = ritz, cycles
    q = min(worst * SAFETY, 1.0 - 1e-9)
    if ceiling is not None and q > ceiling:
        raise NonContractiveError(
            f"{state.kind}: certified contraction {q:.4f} exceeds the "
            f"ceiling {ceiling}")
    state.certified_q = q
    return q


def _warm_start(state):
    """The prolongated ``coarse_ritz``, normalized in energy."""
    ritz = state.coarse_ritz
    v = np.zeros(state.matrix.shape[0])
    v[:len(ritz)] = ritz
    _product(state.levels[-1].new_rows, ritz, v[len(ritz):])  # P c = [c; W c]
    return v / state.energy_norm(v)


def _lanczos(state, v, settle):
    """Lanczos on E1 in the energy product from the energy-normalized ``v``.

    Step k applies one V-cycle, ``_cycle`` from V_k with residual -A V_k,
    which ``AV`` holds, and orthogonalizes the image against V_0..V_k
    twice; the coefficients and the energy norm b of what remains form
    column k of the (k+2) x (k+1) matrix H, so that E1 V = V H over the
    vectors so far.  Then the Rayleigh-Ritz matrix of E1^2 on their span is
    H'H, as E1 is self-adjoint, and its largest eigenvalue s^2, s the
    largest singular value of H, is a lower bound of |||E1|||^2; it is at
    least every |||E1 V_k|||^2, its diagonal.  Returns the lower bound
    s^m of |||E||| = |||E1|||^m, m = ``CYCLES_PER_STEP``, its Ritz vector
    (the top right singular vector of H through V) and the steps taken.
    Stops when b falls to ``FLOOR`` (an invariant subspace), after
    ``LANCZOS_STEPS`` steps, or, if ``settle``, when the bound moves by at
    most 1% relative after at least two steps.
    """
    A = state.matrix
    # Lanczos vectors and their images under A, one per row
    V = np.empty((LANCZOS_STEPS, len(v)))
    AV = np.empty_like(V)
    V[0], AV[0] = v, _product(A, v, np.zeros(len(v)))
    H = np.zeros((LANCZOS_STEPS + 1, LANCZOS_STEPS))
    worst = 0.0
    for k in range(LANCZOS_STEPS):
        w = _cycle(state, V[k], -AV[k])
        Aw = _product(A, w, np.zeros(len(w)))
        # full reorthogonalization in the energy product, done twice
        for _ in range(2):
            c = AV[:k + 1] @ w
            w -= c @ V[:k + 1]
            Aw -= c @ AV[:k + 1]
            H[:k + 1, k] += c
        b = H[k + 1, k] = float(np.sqrt(max(w @ Aw, 0.0)))
        _, s, right = np.linalg.svd(H[:k + 2, :k + 1])
        prev, worst = worst, s[0] ** CYCLES_PER_STEP
        if worst >= 1.0:
            raise NonContractiveError(
                f"{state.kind}: energy-error ratio {worst:.4f} >= 1")
        if b <= FLOOR or k + 1 == LANCZOS_STEPS \
                or (settle and k >= 1 and abs(worst - prev) <= 0.01 * worst):
            break
        V[k + 1], AV[k + 1] = w / b, Aw / b
    return worst, right[0] @ V[:k + 1], k + 1
