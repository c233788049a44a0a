import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu, spsolve_triangular

from afem_lab import solvers
from afem_lab.fem import (ProblemDef, Space, assemble_a, prolongation_matrix,
                          submatrix)
from afem_lab.mesh import Mesh, refine, uniform_refine
from afem_lab.problems import by_name, kellogg
from afem_lab.solvers import (NonContractiveError, SolverError,
                              certify_contraction, extend_solver, setup_solver,
                              solve_direct, solver_step)

POISSON = ProblemDef(load=lambda x: np.ones(len(x)))


def build_hierarchy(square2, kind, steps=4, seed=0):
    """The finest state and the spaces of all its levels."""
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(square2)
    spaces = [Space(mesh, 1)]
    state = setup_solver(kind, spaces[0], POISSON)
    for _ in range(steps):
        marked = rng.choice(mesh.n_elements, max(1, mesh.n_elements // 3),
                            replace=False)
        mesh = refine(mesh, marked)
        spaces.append(Space(mesh, 1))
        state = extend_solver(state, spaces[-1])
    return state, spaces


def reduced_prolongation(coarse, fine):
    """The full P from ``fem.prolongation_matrix``, cut to the free DOFs."""
    return prolongation_matrix(coarse, fine)[fine.free][:, coarse.free]


@pytest.mark.parametrize("kind", ["direct", "local_multigrid"])
def test_fixed_point(square2, kind):
    state, _ = build_hierarchy(square2, kind)
    rng = np.random.default_rng(1)
    n = state.matrix.shape[0]
    rhs = state.matrix @ rng.standard_normal(n)
    x_star = solve_direct(state.matrix, rhs)
    x1 = solver_step(state, rhs, x_star)
    assert state.energy_norm(x1 - x_star) <= 1e-13 * state.energy_norm(x_star)


@pytest.mark.parametrize("kind", ["local_multigrid"])
def test_contraction_on_random_starts(square2, kind):
    state, _ = build_hierarchy(square2, kind)
    q_hat = certify_contraction(state)
    assert 0.0 < q_hat < 1.0
    rng = np.random.default_rng(2)
    n = state.matrix.shape[0]
    for _ in range(50):
        rhs = state.matrix @ rng.standard_normal(n)
        x_star = solve_direct(state.matrix, rhs)
        x0 = x_star + rng.standard_normal(n)
        x1 = solver_step(state, rhs, x0)
        x2 = solver_step(state, rhs, x1)
        e0 = state.energy_norm(x_star - x0)
        e1 = state.energy_norm(x_star - x1)
        e2 = state.energy_norm(x_star - x2)
        assert e1 <= q_hat * e0 * (1 + 1e-12)
        assert e2 <= q_hat ** 2 * e0 * (1 + 1e-12)


def test_certify_direct_is_zero(square2):
    state, _ = build_hierarchy(square2, "direct")
    assert certify_contraction(state) == 0.0


def test_certify_rejects_nonconvergent(square2, monkeypatch):
    state, _ = build_hierarchy(square2, "local_multigrid")
    # a V-cycle that doubles the error: energy ratio 2, and 4 per step
    monkeypatch.setattr(solvers, "_cycle", lambda state, x, r: 2 * x)
    with pytest.raises(NonContractiveError):
        certify_contraction(state)


def test_the_driver_enforces_the_ceiling(monkeypatch):
    # certification measures, the driver rejects: the first level whose
    # factor exceeds MG_CEILING stops the run, and the same state certifies
    # without raising
    from afem_lab import driver

    certified = []

    def certify(state):
        certified.append(state)
        return certify_contraction(state)

    monkeypatch.setattr(driver, "MG_CEILING", 1e-6)
    monkeypatch.setattr(driver, "certify_contraction", certify)
    prob, mesh = kellogg()
    with pytest.raises(NonContractiveError) as caught:
        driver.run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                          max_dofs=2000)
    state = certified[-1]
    q = certify_contraction(state)
    assert len(certified) > 1 and q > 1e-6
    assert str(caught.value) == (f"local_multigrid: certified contraction "
                                 f"{q:.4f} exceeds the ceiling 1e-06")


def test_solver_step_is_linear(square2):
    state, _ = build_hierarchy(square2, "local_multigrid")
    rng = np.random.default_rng(3)
    n = state.matrix.shape[0]
    r1, r2 = rng.standard_normal((2, n))
    x1, x2 = rng.standard_normal((2, n))
    a, b = 0.7, -1.3
    lhs = solver_step(state, a * r1 + b * r2, a * x1 + b * x2)
    rhs = a * solver_step(state, r1, x1) + b * solver_step(state, r2, x2)
    assert np.allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(lhs).max()))


def test_solve_direct_examples(square2):
    assert np.allclose(solve_direct(sp.eye(5).tocsr(), np.arange(5.0)),
                       np.arange(5.0))
    assert np.isclose(solve_direct(sp.csr_matrix(np.array([[2.0]])),
                                   np.array([4.0]))[0], 2.0)
    # agreement with the iterated contractive solver
    state, _ = build_hierarchy(square2, "local_multigrid", steps=3)
    rng = np.random.default_rng(4)
    n = state.matrix.shape[0]
    rhs = state.matrix @ rng.standard_normal(n)
    x = np.zeros(n)
    for _ in range(200):
        x = solver_step(state, rhs, x)
    x_direct = solve_direct(state.matrix, rhs)
    assert state.energy_norm(x - x_direct) <= 1e-8


def test_one_solver_error_for_fem_and_solvers():
    from afem_lab import fem
    assert fem.SolverError is SolverError
    assert issubclass(NonContractiveError, SolverError)
    with pytest.raises(SolverError):
        solve_direct(sp.csr_matrix(np.ones((2, 2))), np.array([1.0, 2.0]))


def test_extend_solver_leaves_its_argument_alone(square2):
    state, _ = build_hierarchy(square2, "local_multigrid", steps=2)
    space, levels = state.space, list(state.levels)
    edges = space.mesh.edge_tables()
    fine = Space(refine(space.mesh, {0}), 1)
    new = extend_solver(state, fine)
    # a new level of at most DENSE_BOTTOM DOFs is a new base on its own
    below = levels if fine.n_free > solvers.DENSE_BOTTOM else []
    assert new.space is fine and new.levels[:-1] == below
    assert state.space is space and state.levels == levels
    assert space.mesh.edge_tables() is edges


def _new_dof_block_reference(coarse_space, fine_space):
    """The new vertices and their edge neighbours, from the edge table."""
    mesh = fine_space.mesh
    edges, _, _ = mesh.edge_tables()
    is_new = np.zeros(mesh.n_vertices, dtype=bool)
    is_new[coarse_space.mesh.n_vertices:] = True
    touched = is_new.copy()
    touched[edges[is_new[edges[:, 0]] | is_new[edges[:, 1]]].ravel()] = True
    full = np.nonzero(touched & ~fine_space.dirichlet_mask)[0]
    pos = np.full(fine_space.n_dofs, -1, dtype=np.int64)
    pos[fine_space.free] = np.arange(fine_space.n_free)
    return pos[full]


@pytest.mark.parametrize("name", ["kellogg", "zshape-nonlinear"])
def test_smoothing_block_is_the_edge_neighbour_patch(name):
    _, mesh = by_name(name)
    rng = np.random.default_rng(6)
    spaces = [Space(mesh, 1)]
    for _ in range(12):
        mesh = refine(mesh, rng.choice(mesh.n_elements,
                                       max(1, mesh.n_elements // 5),
                                       replace=False))
        spaces.append(Space(mesh, 1))
    for coarse, fine in zip(spaces, spaces[1:]):
        block = solvers._new_dof_block(coarse, fine)
        assert len(block)
        assert np.array_equal(block, _new_dof_block_reference(coarse, fine))


def test_extend_solver_does_not_read_the_edge_tables(monkeypatch):
    prob, mesh = kellogg()
    state = setup_solver("local_multigrid", Space(mesh, 1), prob)
    fine = Space(refine(mesh, [0, 3]), 1)
    calls = []
    edge_tables = Mesh.edge_tables
    monkeypatch.setattr(Mesh, "edge_tables",
                        lambda self: calls.append(self) or edge_tables(self))
    extend_solver(state, fine)
    assert calls == []


def test_check_spd_verdicts():
    # tridiagonal SPD with max |A| = 2: the symmetry tolerance is 2e-12
    n = 6
    base = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")
    solvers._check_spd(base)

    def perturbed(gap):
        A = base.tolil()
        A[0, 1] += gap
        return A.tocsr()

    solvers._check_spd(perturbed(0.9 * 2e-12))
    with pytest.raises(SolverError, match="symmetric"):
        solvers._check_spd(perturbed(1.1 * 2e-12))
    # an entry without its mirror entry
    A = base.tolil()
    A[0, 3] = 1e-3
    with pytest.raises(SolverError, match="symmetric"):
        solvers._check_spd(A.tocsr())
    for d in (0.0, -1.0):
        A = base.tolil()
        A[2, 2] = d
        with pytest.raises(SolverError, match="positive definite"):
            solvers._check_spd(A.tocsr())
    # [[4, 3], [3, 4]] with each 3 stored as two duplicates: the transpose
    # has the same index arrays, but its values in another order
    dup = sp.csr_matrix((np.array([4.0, 1.0, 2.0, 2.0, 1.0, 4.0]),
                         np.array([0, 1, 1, 0, 0, 1]),
                         np.array([0, 3, 6])), shape=(2, 2))
    assert not dup.has_canonical_format
    solvers._check_spd(dup)


def test_setup_rejects_non_spd(square2):
    # convection makes the b-form nonsymmetric; the SPD solver must refuse it
    space = Space(uniform_refine(uniform_refine(square2)), 1)
    state = setup_solver("local_multigrid", space, POISSON)
    bad = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    from afem_lab.solvers import _check_spd
    with pytest.raises(SolverError):
        _check_spd(bad)
    with pytest.raises(SolverError):
        setup_solver("local_multigrid", Space(uniform_refine(square2), 2),
                     POISSON)


def _vcycle_x_form(levels, spaces, j, x, b):
    """V-cycle that recomputes the residual b - A x on entry to every level,
    updates all of it with the full products, runs ``SMOOTH_SWEEPS``
    separate triangular solves with tril(A[S, S]) and its transpose and
    transfers with the full reduced prolongation of ``spaces``, the spaces
    of ``levels``, down to level 0: its exact solve, or x + B (b - A x) on
    a rebased base.  The sweep-by-sweep reference of the fused cycle."""
    lvl = levels[j]
    if j == 0:
        if lvl.new_rows is None:
            return solve_direct(lvl.matrix, b)
        return x + lvl.solve(b - lvl.matrix @ x)
    S = lvl.smooth_dofs
    lower = sp.tril(lvl.matrix[S][:, S], format="csr")
    x = x.copy()
    r = b - lvl.matrix @ x
    for _ in range(solvers.SMOOTH_SWEEPS):
        dx = spsolve_triangular(lower, r[S], lower=True)
        x[S] += dx
        r -= lvl.matrix[:, S] @ dx
    P = reduced_prolongation(spaces[j - 1], spaces[j])
    e = _vcycle_x_form(levels, spaces, j - 1,
                       np.zeros(levels[j - 1].matrix.shape[0]), P.T @ r)
    corr = P @ e
    x += corr
    r -= lvl.matrix @ corr
    for _ in range(solvers.SMOOTH_SWEEPS):
        dx = spsolve_triangular(lower.T.tocsr(), r[S], lower=False)
        x[S] += dx
        r -= lvl.matrix[:, S] @ dx
    return x


@pytest.mark.parametrize("steps", [2, 3, 4])
def test_vcycle_matches_x_form(square2, steps, monkeypatch):
    # a base of 3 DOFs, rebased on level 0, leaves sparse levels above it on
    # these hierarchies
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 3)
    rng = np.random.default_rng(6)
    for sweeps in (1, 2, 3):
        # the smoothers are built for the number of sweeps at setup
        monkeypatch.setattr(solvers, "SMOOTH_SWEEPS", sweeps)
        state, spaces = build_hierarchy(square2, "local_multigrid",
                                        steps=steps)
        top = len(state.levels) - 1
        assert top > 0 and state.levels[0].new_rows is not None
        spaces = spaces[-len(state.levels):]
        n = state.matrix.shape[0]
        for _ in range(3):
            rhs, x0 = rng.standard_normal((2, n))
            x = x0.copy()
            for _ in range(solvers.CYCLES_PER_STEP):
                x = _vcycle_x_form(state.levels, spaces, top, x, rhs)
            kept = rhs.tobytes(), x0.tobytes()
            step = solver_step(state, rhs, x0)
            assert state.energy_norm(step - x) \
                <= 1e-14 * state.energy_norm(x)
            # the cycle uses up its residual, not the caller's arrays
            assert (rhs.tobytes(), x0.tobytes()) == kept


def _after_identity(M):
    """[I, M] in CSR.  Its product with [y; u] sums, in row i, y[i] first
    and then M's row i in column order, as the cycle's kernels add M u into
    y; ``y + M @ u`` would round differently."""
    return sp.hstack([sp.identity(M.shape[0]), M], format="csr")


def _vcycle_reference(levels, j, x, r):
    """``solvers._vcycle`` before its level visit was trimmed: z negated
    into a new array, x[S] gathered and scattered once per correction and
    every product by scipy's ``@``."""
    lvl = levels[j]
    if j == 0:
        x[...] = lvl.solve(r)
        return x
    S, W = lvl.smooth_dofs, lvl.new_rows
    n_c = W.shape[1]
    if lvl.smoother is not None:
        z = lvl.smoother.solve(r[lvl.sweeps])[-len(S):]
        r = _after_identity(lvl.rows.T) @ np.concatenate([r, -z])
        post = r[lvl.sweeps]
    r[:n_c] = _after_identity(W.T) @ r  # P' r, P = [I; W]
    _vcycle_reference(levels, j - 1, x[:n_c], r[:n_c])
    x[n_c:] = W @ x[:n_c]
    if lvl.smoother is not None:
        Ac = lvl.rows @ x
        x[S] += z
        copies = post.reshape((-1,) + Ac.shape)
        copies -= Ac
        z = lvl.smoother.solve(post, trans="T")
        x[S] += z[:len(S)]
    return x


def test_vcycle_equals_the_untrimmed_level_visit(monkeypatch):
    # over a chain certified level by level, as the driver runs it, with
    # dense bases and without: for one residual, for a column block and
    # for the identity block of each dense base's build, bit for bit
    built = []
    dense_cycle = solvers._dense_cycle

    def record(levels):
        built.append((levels, dense_cycle(levels)))
        return built[-1][1]

    monkeypatch.setattr(solvers, "_dense_cycle", record)
    rng = np.random.default_rng(14)
    chain = list(_kellogg_states())
    for state in chain:
        certify_contraction(state)
    for state in chain + _sparse_kellogg_states(monkeypatch):
        levels, n = state.levels, state.matrix.shape[0]
        top = len(levels) - 1
        for r in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            got = solvers._vcycle(levels, top, np.zeros_like(r), r.copy())
            want = _vcycle_reference(levels, top, np.zeros_like(r),
                                     r.copy())
            assert got.tobytes() == want.tobytes()
    assert len(built) > 1
    for levels, B in built:
        eye = np.eye(levels[-1].matrix.shape[0])
        want = _vcycle_reference(levels, len(levels) - 1, np.zeros_like(eye),
                                 eye)
        assert B.tobytes() == want.tobytes()


def _forbid_factorization(monkeypatch):
    """Every SuperLU factorization routine that ``fem`` or ``solvers``
    imports fails the test when called."""
    from afem_lab import fem

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was factorized after construction")

    for module in (fem, solvers):
        names = [name for name, value in vars(module).items()
                 if value is splu or value is spilu]
        assert names, f"{module.__name__} imports no SuperLU factorization"
        for name in names:
            monkeypatch.setattr(module, name, refuse)


def test_certify_needs_no_reference_factorization(square2, monkeypatch):
    # a base of 3 DOFs leaves sparse levels, whose smoothers the cycles run
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 3)
    state, _ = build_hierarchy(square2, "local_multigrid")
    assert len(state.levels) > 1
    _forbid_factorization(monkeypatch)
    assert 0.0 < certify_contraction(state) < 1.0


@pytest.mark.parametrize("kind", ["direct", "local_multigrid"])
def test_one_level_state_steps_with_the_solve_it_was_built_with(
        square2, kind, monkeypatch):
    space = Space(uniform_refine(uniform_refine(square2)), 1)
    state = setup_solver(kind, space, POISSON)
    assert len(state.levels) == 1 and state.levels[0].solve is not None
    rhs = np.random.default_rng(10).standard_normal(state.matrix.shape[0])
    x_star = solve_direct(state.matrix, rhs)
    _forbid_factorization(monkeypatch)
    x = np.zeros_like(rhs)
    for _ in range(2):
        x = solver_step(state, rhs, x)
        assert x.tobytes() == x_star.tobytes()
    assert certify_contraction(state) == 0.0


def _kellogg_states(steps=24, seed=5):
    """Local-MG states on a hierarchy graded towards the Kellogg singular
    point: each step bisects the 8 elements nearest the origin and 4 random
    ones."""
    prob, mesh = kellogg()
    rng = np.random.default_rng(seed)
    state = setup_solver("local_multigrid", Space(mesh, 1), prob)
    yield state
    for _ in range(steps):
        mid = mesh.vertices[mesh.elements].mean(axis=1)
        near = np.argsort(np.hypot(*mid.T), kind="stable")[:8]
        extra = rng.choice(mesh.n_elements, 4, replace=False)
        mesh = refine(mesh, np.union1d(near, extra))
        state = extend_solver(state, Space(mesh, 1))
        yield state


def test_certified_q_matches_recorded_values():
    # recorded with the power-iteration plateau rule, which can stop below
    # |||E|||; the Lanczos certificate may only be higher
    recorded = json.loads((Path(__file__).parent / "data"
                           / "certified_q_reference.json").read_text())
    ref = np.array(recorded["kellogg-local-mg"])
    q = np.array([certify_contraction(s) for s in _kellogg_states()])
    assert q.shape == ref.shape and ref.max() > 0.3
    assert q[0] == ref[0] == 0.0
    assert np.all(q >= ref * (1 - 1e-4))


def _propagator_energy_norm(state):
    """|||E||| = ||L' E L^-T||_2 with A = L L', E built from unit vectors."""
    n = state.matrix.shape[0]
    zero = np.zeros(n)
    E = np.column_stack([solver_step(state, zero, e) for e in np.eye(n)])
    L = np.linalg.cholesky(state.matrix.toarray())
    return np.linalg.norm(L.T @ np.linalg.solve(L, E.T).T, 2)


def _assert_certifies(q, state):
    norm = _propagator_energy_norm(state)
    assert norm <= q <= solvers.SAFETY * norm * (1 + 1e-8)


def test_certificate_bounds_the_propagator_norm_on_graded_levels():
    # each level is certified in turn, so each starts warm from the last
    for state in _kellogg_states():
        _assert_certifies(certify_contraction(state), state)


def test_certificate_bounds_the_propagator_norm_from_a_cold_start():
    # without a Ritz vector from the level below, Lanczos starts from the
    # random draw alone and must not stop when the Ritz values settle
    for state in _kellogg_states():
        state.coarse_ritz = None
        _assert_certifies(certify_contraction(state), state)


def test_certification_starts_from_the_level_below():
    # as in the driver, each state is certified before the next one is
    # extended from it, which hands the next its Ritz vector
    states, kept = [], []
    for state in _kellogg_states(steps=6):
        certify_contraction(state)
        states.append(state)
        kept.append(state.ritz.tobytes())
    for coarse, fine, coarse_ritz in zip(states, states[1:], kept):
        assert fine.coarse_ritz is coarse.ritz
        # the warm start prolongates the Ritz vector below into a new array
        assert coarse.ritz.tobytes() == coarse_ritz
    for coarse, fine in zip(states, states[1:]):
        # built on the coarse hierarchy, or a new base on its own
        assert fine.levels[:-1] in (coarse.levels, [])
        ritz = fine.ritz
        assert ritz is not None and ritz.shape == (fine.matrix.shape[0],)
        assert np.isclose(ritz @ (fine.matrix @ ritz), 1.0)


def _level_contents(lvl):
    """Each attribute of a level: the object and, for an array or a sparse
    matrix, the bytes of its arrays."""
    def content(value):
        if sp.issparse(value):
            return tuple(a.tobytes()
                         for a in (value.data, value.indices, value.indptr))
        return value.tobytes() if isinstance(value, np.ndarray) else None
    return {name: (value, content(value)) for name, value in vars(lvl).items()}


def _assert_unchanged(lvl, contents):
    """``lvl`` holds the objects and bytes ``_level_contents`` recorded."""
    now = _level_contents(lvl)
    assert now.keys() == contents.keys()
    for name, (value, data) in contents.items():
        assert now[name][0] is value and now[name][1] == data, name


def test_levels_are_write_once(monkeypatch):
    # extending and certifying each state in turn, as the driver does,
    # changes no attribute of any level and no byte of its arrays
    built = {}
    for state in _kellogg_states():
        for lvl in state.levels:
            built.setdefault(id(lvl), (lvl, _level_contents(lvl)))
        certify_contraction(state)
    assert len(built) == 25
    for lvl, contents in built.values():
        _assert_unchanged(lvl, contents)
    # so a finished run holds the Ritz vectors of its top two levels only
    from afem_lab import driver

    last = []

    def extend(state, space):
        last[:] = [extend_solver(state, space)]
        return last[0]

    monkeypatch.setattr(driver, "extend_solver", extend)
    prob, mesh = kellogg()
    driver.run_single(prob, mesh, theta=0.5, lam=0.01, p=1, max_dofs=2000)
    state = last[0]
    assert len(state.levels) > 10
    ritz = {id(v): v for obj in (state, *state.levels)
            for name, v in vars(obj).items()
            if "ritz" in name and v is not None}
    assert sorted(len(v) for v in ritz.values()) == [
        lvl.matrix.shape[0] for lvl in state.levels[-2:]]


def test_certification_steps_per_level():
    # kellogg-mg: local MG to eta <= 2.2, 51 certified levels; Lanczos on
    # the two-cycle step took 5.84 top-level V-cycles per level, on the
    # one-cycle propagator 2.92
    from afem_lab import driver

    counts = dict(levels=0, cycles=0, inside=False)
    cycle, certify = solvers._cycle, driver.certify_contraction

    def counting_cycle(*args):
        if counts["inside"]:
            counts["cycles"] += 1
        return cycle(*args)

    def counting_certify(*args, **kwargs):
        counts["levels"] += 1
        counts["inside"] = True
        try:
            return certify(*args, **kwargs)
        finally:
            counts["inside"] = False

    prob, mesh = kellogg()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_cycle", counting_cycle)
        mp.setattr(driver, "certify_contraction", counting_certify)
        hist = driver.run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                                 max_dofs=2e4, eta_tol=2.2)
    assert hist.meta["stop_reason"] == "eta_tol"
    assert counts["levels"] == len(hist.meta["q_alg_levels"]) > 40
    assert counts["cycles"] <= 3.5 * counts["levels"]
    # the work counter: one entry per certified level, as the wrapper counts
    cycles = hist.meta["certify_cycles"]
    assert len(cycles) == counts["levels"]
    assert sum(cycles) == counts["cycles"] <= 160
    assert cycles[0] == 0  # level 0 steps with its exact solve


def test_solver_step_is_two_one_cycle_steps(monkeypatch):
    # so E = E1^2; a state of one level steps with its exact solve instead
    rng = np.random.default_rng(12)
    for states in (_kellogg_states(), _sparse_kellogg_states(monkeypatch)):
        for state in list(states)[1:]:
            A, n = state.matrix, state.matrix.shape[0]
            for rhs in (np.zeros(n), rng.standard_normal(n)):
                e = x = rng.standard_normal(n)
                for _ in range(2):
                    x = solvers._cycle(state, x, rhs - A @ x)
                assert solver_step(state, rhs, e).tobytes() == x.tobytes()


def test_one_cycle_propagator_is_self_adjoint_in_energy(monkeypatch):
    # the premise of Lanczos on E1 = I - B A: A E1 is symmetric
    for states in (_kellogg_states(), _sparse_kellogg_states(monkeypatch)):
        for state in list(states)[1:]:
            A = state.matrix.toarray()
            E1 = np.column_stack([solvers._cycle(state, e, -(A @ e))
                                  for e in np.eye(len(A))])
            AE1 = A @ E1
            assert abs(AE1 - AE1.T).max() <= 1e-12 * abs(AE1).max()


def test_vectors_are_checked_where_they_enter(square2, monkeypatch):
    # the cycle's kernels check no shape: a bad vector is refused before
    # it reaches them
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 0)
    state, _ = build_hierarchy(square2, "local_multigrid")
    n = state.matrix.shape[0]
    for bad in (np.zeros(n - 1), np.zeros(()), np.zeros((n, 1)),
                np.zeros((n, 1, 1))):
        with pytest.raises(ValueError):
            state.energy_norm(bad)
        with pytest.raises(ValueError):
            solver_step(state, np.zeros(n), bad)
        with pytest.raises(ValueError):
            solver_step(state, bad, np.zeros(n))


def test_vcycle_allocates_no_vector_of_a_level_below_the_top():
    # every level writes its correction into the prefix of the one above,
    # so a step holds the top level's iterate, residual, correction and one
    # product, each sparse level's smoothing work (a solve and the saved
    # r[S], m |S| floats each), the base's product and a few small objects
    # per level: ``budget``.  One vector per sparse level below the top, as
    # a cycle that zeroes a correction on each level allocates, would add
    # ``below`` floats; the peak stays within half of that
    import tracemalloc

    state = list(_kellogg_states(steps=80))[-1]
    top = len(state.levels) - 1
    sizes = [lvl.matrix.shape[0] for lvl in state.levels]
    below = sum(sizes[1:top])
    smooth = sum(len(lvl.smooth_dofs) for lvl in state.levels[1:])
    budget = (4 * sizes[top] + 2 * solvers.SMOOTH_SWEEPS * smooth + sizes[0]
              + 128 * top)
    assert top > 50 and below > budget
    rhs, x0 = np.random.default_rng(12).standard_normal((2, sizes[top]))
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solver_step(state, rhs, x0)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 8  # floats
            assert peak - budget < below / 2
    finally:
        tracemalloc.stop()


def _same_arrays(got, want):
    """Equal shape and byte-equal index and value arrays, dtypes included."""
    return got.shape == want.shape and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)))


def test_submatrix_matches_fancy_indexing(square2, monkeypatch):
    # no dense base: the top level is sparse
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 0)
    state, spaces = build_hierarchy(square2, "local_multigrid")
    assert len(state.levels) == 5
    coarse, fine = spaces[-2:]
    lvl = state.levels[-1]
    S = lvl.smooth_dofs
    full = assemble_a(fine, POISSON, reduced=False)
    P = prolongation_matrix(coarse, fine)
    new = fine.free[coarse.n_free:]
    none = np.array([], dtype=np.int64)
    # row 0 keeps none of the columns off its pattern, the last row some
    off = np.setdiff1d(np.arange(full.shape[1]), full[[0]].indices)
    cases = [(full, fine.free, fine.free), (P, new, coarse.free),
             (lvl.matrix, S, None), (lvl.rows, None, S),
             (full, none, fine.free), (full, none, None),
             (full, np.array([0, full.shape[0] - 1]), off),
             (full, fine.free, none), (full, None, none)]
    for M, rows, cols in cases:
        want = M if rows is None else M[rows]
        want = want if cols is None else want[:, cols]
        assert _same_arrays(submatrix(M, rows, cols), want)
    assert full[[0]][:, off].nnz == 0 < full[[-1]][:, off].nnz
    # the level holds what scipy's indexing gives
    assert _same_arrays(lvl.new_rows, P[new][:, coarse.free])
    assert _same_arrays(lvl.rows, lvl.matrix[S])


def _sweep_matrix_reference(block, m):
    """K from scipy's triangles and block assembly."""
    low, up = sp.tril(block), sp.triu(block, 1)
    return sp.bmat([[low if i == j else up if i == j + 1 else None
                     for j in range(m)] for i in range(m)], format="csc")


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_sweep_matrix_equals_the_block_form(sweeps, monkeypatch):
    monkeypatch.setattr(solvers, "SMOOTH_SWEEPS", sweeps)
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 0)  # 12 sparse levels
    state = list(_kellogg_states(steps=12))[-1]
    assert len(state.levels) == 13
    for lvl in state.levels[1:]:
        block = lvl.rows[:, lvl.smooth_dofs]
        K = solvers._sweep_matrix(block)
        want = _sweep_matrix_reference(block, sweeps)
        want.sort_indices()
        assert K.format == "csc" and _same_arrays(K, want)


def _arrays(value):
    """The arrays held in a value: a sparse matrix's, or any in a tuple,
    list or dict."""
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


def _array_bytes(values):
    unique = {id(a): a for v in values for a in _arrays(v)}
    return sum(a.nbytes for a in unique.values())


def test_levels_hold_each_operator_once(square2, monkeypatch):
    # one SuperLU factor per smoothing block and no other object but arrays;
    # of the CSR operators only the matrix, the prolongation's rows for the
    # new DOFs and the block's rows, and no array beside theirs, the sweep
    # indices' and S's, not even a negated copy of an operator
    from scipy.sparse.linalg import SuperLU

    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 0)  # four sparse levels
    state, _ = build_hierarchy(square2, "local_multigrid")
    assert len(state.levels) == 5
    for coarse, lvl in zip(state.levels, state.levels[1:]):
        assert len(lvl.smooth_dofs) > 0
        held = vars(lvl).values()
        others = [v for v in held if v is not None and not _arrays(v)]
        assert len(others) == 1 and isinstance(others[0], SuperLU)
        assert [id(v) for v in held if sp.issparse(v)] \
            == [id(lvl.matrix), id(lvl.new_rows), id(lvl.rows)]
        assert _array_bytes(held) == _array_bytes(
            [lvl.matrix, lvl.new_rows, lvl.rows, lvl.sweeps, lvl.smooth_dofs])
        n_c, n = coarse.matrix.shape[0], lvl.matrix.shape[0]
        assert lvl.new_rows.shape == (n - n_c, n_c)
        assert lvl.new_rows.nnz == lvl.new_rows.count_nonzero()
        assert lvl.rows.shape == (len(lvl.smooth_dofs), n)


def test_smoothers_are_pure_substitution(monkeypatch):
    # no pivoting, no reordering and no fill: L holds the entries of the
    # sweep matrix K and U its diagonal, and the zero-drop incomplete
    # factor solves bit for bit as the complete one, for a vector and for
    # the column blocks of a dense base's cycle
    rng = np.random.default_rng(4)
    monkeypatch.setattr(solvers, "DENSE_BOTTOM", 0)  # 12 sparse levels
    state = list(_kellogg_states(steps=12))[-1]
    assert len(state.levels) == 13
    for lvl in state.levels[1:]:
        S = lvl.smooth_dofs
        K = solvers._sweep_matrix(lvl.rows[:, S])
        N = solvers.SMOOTH_SWEEPS * len(S)
        f = lvl.smoother
        assert K.shape == f.shape == (N, N)
        assert np.array_equal(f.perm_r, np.arange(N))
        assert np.array_equal(f.perm_c, np.arange(N))
        assert f.L.nnz == K.nnz == K.count_nonzero()
        assert f.U.nnz == N
        assert np.array_equal(f.U.diagonal(), K.diagonal())
        lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0, panel_size=1)
        for b in (rng.standard_normal(N), rng.standard_normal((N, 3))):
            for trans in ("N", "T"):
                assert f.solve(b, trans=trans).tobytes() \
                    == lu.solve(b, trans=trans).tobytes()


def test_smoother_holds_no_spare_workspace():
    # splu keeps the workspace SuperLU reserves for fill, several hundred
    # bytes of address space per nonzero of K; the held smoother may take 64
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status")

    def vm_size():
        for line in status.read_text().splitlines():
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
        pytest.skip("/proc/self/status has no VmSize")

    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(194, 194))
    block = sp.kronsum(T, T, format="csr")  # 5-point Laplacian, 37636 rows
    # the first SuperLU call of a process maps its BLAS buffer once
    solvers._smoother(solvers._sweep_matrix(block[:50, :50]))
    K = solvers._sweep_matrix(block)
    assert 2.9e5 < K.nnz < 3.1e5
    before = vm_size()
    smoother = solvers._smoother(K)
    assert vm_size() - before <= 64 * K.nnz
    assert smoother.L.nnz == K.nnz


def test_prolongation_is_identity_on_old_free_dofs():
    # the premise of the transfers: on every level built on a coarser one,
    # the rebased base included, the reduced prolongation is [I; W], and W
    # averages at most two parents
    states = list(_kellogg_states())
    levels = states[-1].levels
    assert len(levels) > 1 and levels[0].new_rows is not None
    # the space below the base, then the space of each level
    spaces = [s.space for s in states[-len(levels) - 1:]]
    held = new = 0
    for lvl, coarse, fine in zip(levels, spaces, spaces[1:]):
        W = lvl.new_rows
        n_c = W.shape[1]
        P = reduced_prolongation(coarse, fine)
        assert P.shape == (n_c + W.shape[0], n_c)
        assert (P != sp.vstack([sp.identity(n_c), W])).nnz == 0
        assert np.diff(W.indptr).max() <= 2
        assert np.all(W.data == 0.5)
        held += W.nnz
        new += W.shape[0]
    assert held <= 2 * new


def test_error_propagator_is_self_adjoint_in_energy():
    # the premise of Lanczos certification: <E u, v>_A = <u, E v>_A
    rng = np.random.default_rng(9)
    for state in _kellogg_states():
        A, n = state.matrix, state.matrix.shape[0]
        zero = np.zeros(n)
        for _ in range(3):
            u, v = rng.standard_normal((2, n))
            Eu, Ev = solver_step(state, zero, u), solver_step(state, zero, v)
            gap = abs(Eu @ (A @ v) - u @ (A @ Ev))
            assert gap <= 1e-12 * state.energy_norm(u) * state.energy_norm(v)


def test_level_rejects_non_csr_operators():
    A = sp.identity(3, format="csr")
    solvers._Level(A, new_rows=A)
    for bad in (A.tocsc(), A.tocoo(), A.toarray()):
        with pytest.raises(TypeError):
            solvers._Level(bad)
        with pytest.raises(TypeError):
            solvers._Level(A, new_rows=bad)


def test_one_level_multigrid_certifies_exactly_zero(square2):
    state = setup_solver("local_multigrid", Space(uniform_refine(
        uniform_refine(square2)), 1), POISSON)
    assert len(state.levels) == 1 and state.matrix.shape[0] > 1
    assert certify_contraction(state) == 0.0


def _sparse_kellogg_states(monkeypatch):
    """``_kellogg_states`` without a dense base, each certified before the
    next is extended from it, as the driver does: every state's base is the
    initial level with its exact solve."""
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "DENSE_BOTTOM", 0)
        states = []
        for state in _kellogg_states():
            certify_contraction(state)
            states.append(state)
    assert all(s.levels[0].new_rows is None for s in states)
    return states


def _dense_base(state):
    """B of a rebased base, whose ``solve`` is B's product, else None."""
    base = state.levels[0]
    return None if base.new_rows is None else base.solve.__self__


def test_dense_bottom_is_the_finest_small_level():
    # the base is the finest level of at most DENSE_BOTTOM DOFs, and the
    # state holds it and the levels above it only
    sizes = []
    for state in _kellogg_states():
        sizes.append(state.matrix.shape[0])
        k = max(j for j, n in enumerate(sizes) if n <= solvers.DENSE_BOTTOM)
        assert [lvl.matrix.shape[0] for lvl in state.levels] == sizes[k:]
        B = _dense_base(state)
        if k == 0:
            assert B is None
        else:
            assert B.shape == (sizes[k], sizes[k]) and not B.flags.writeable
    # the last graded state has sparse levels above its dense base
    assert 0 < k < len(sizes) - 1


def test_dense_bottom_steps_match_the_sparse_cycle(monkeypatch):
    rng = np.random.default_rng(8)
    for dense, sparse in zip(_kellogg_states(),
                             _sparse_kellogg_states(monkeypatch)):
        n = dense.matrix.shape[0]
        rhs, x0 = rng.standard_normal((2, n))
        x = solver_step(dense, rhs, x0)
        assert dense.energy_norm(x - solver_step(sparse, rhs, x0)) \
            <= 1e-12 * dense.energy_norm(x)


def test_dense_bottom_certifies_as_the_sparse_cycle(monkeypatch):
    q = [certify_contraction(s) for s in _kellogg_states()]
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "DENSE_BOTTOM", 0)
        # each certified before the next is extended from it
        q_sparse = [certify_contraction(s) for s in _kellogg_states()]
    assert max(q) > 0.3
    assert np.allclose(q, q_sparse, rtol=1e-12, atol=0)


def test_steps_and_certification_leave_the_dense_bottom_alone():
    rng = np.random.default_rng(11)
    for state in _kellogg_states():
        B = _dense_base(state)
        if B is None:
            continue
        data = B.tobytes()
        n = state.matrix.shape[0]
        solver_step(state, *rng.standard_normal((2, n)))
        certify_contraction(state)
        assert _dense_base(state) is B and not B.flags.writeable
        assert B.tobytes() == data


def test_extend_solver_leaves_the_dense_bottom_alone():
    states = list(_kellogg_states(steps=20))
    for coarse, fine in zip(states, states[1:]):
        B = _dense_base(coarse)
        if B is None:
            continue
        data = B.tobytes()
        fresh = extend_solver(coarse, fine.space)
        assert _dense_base(coarse) is B and B.tobytes() == data
        if len(fresh.levels) > 1:
            assert _dense_base(fresh) is B


def test_a_rebased_one_level_state_is_not_exact():
    # its one level is the dense cycle B of the hierarchy it was built on:
    # a step is CYCLES_PER_STEP steps x + B (rhs - A x), not an exact solve,
    # and certification measures it
    state = list(_kellogg_states(steps=3))[-1]
    assert len(state.levels) == 1 and not state.exact
    A, B = state.matrix, _dense_base(state)
    rhs, x0 = np.random.default_rng(13).standard_normal((2, A.shape[0]))
    x = x0 + B @ (rhs - A @ x0)
    assert solvers._cycle(state, x0, rhs - A @ x0).tobytes() == x.tobytes()
    for _ in range(solvers.CYCLES_PER_STEP - 1):
        x = x + B @ (rhs - A @ x)
    assert solver_step(state, rhs, x0).tobytes() == x.tobytes()
    assert certify_contraction(state) > 0.0 and state.certify_cycles > 0


def test_no_state_holds_a_level_below_its_base():
    # extending each state in turn, across the rebases up to DENSE_BOTTOM
    # DOFs and past them, changes neither the list of levels it is given
    # nor a byte of any level; the new state holds its base, whose B is
    # read-only, and the sparse levels above it only
    states = list(_kellogg_states())
    for coarse, fine in zip(states, states[1:]):
        levels = list(coarse.levels)
        built = [_level_contents(lvl) for lvl in levels]
        fresh = extend_solver(coarse, fine.space)
        assert coarse.levels == levels
        for lvl, contents in zip(levels, built):
            _assert_unchanged(lvl, contents)
        rebased = fresh.matrix.shape[0] <= solvers.DENSE_BOTTOM
        assert fresh.levels[:-1] == ([] if rebased else levels)
        base, above = fresh.levels[0], fresh.levels[1:]
        assert base.matrix.shape[0] <= solvers.DENSE_BOTTOM
        assert base.smoother is None and base.new_rows is not None
        assert all(lvl.matrix.shape[0] > solvers.DENSE_BOTTOM
                   and lvl.solve is None for lvl in above)
        B = _dense_base(fresh)
        assert not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 0.0
    assert len(fresh.levels) > 1
