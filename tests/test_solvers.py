import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from afem_lab import solvers
from afem_lab.fem import ProblemDef, Space
from afem_lab.mesh import refine, uniform_refine
from afem_lab.problems import kellogg
from afem_lab.solvers import (NonContractiveError, SolverError,
                              certify_contraction, extend_solver, setup_solver,
                              solve_direct, solver_step)

POISSON = ProblemDef(load=lambda x: np.ones(len(x)))


def build_hierarchy(square2, kind, steps=4, seed=0):
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(square2)
    state = setup_solver(kind, Space(mesh, 1), POISSON)
    for _ in range(steps):
        marked = rng.choice(mesh.n_elements, max(1, mesh.n_elements // 3),
                            replace=False)
        mesh = refine(mesh, marked)
        state = extend_solver(state, Space(mesh, 1))
    return state


@pytest.mark.parametrize("kind", ["direct", "damped_richardson",
                                  "local_multigrid"])
def test_fixed_point(square2, kind):
    state = build_hierarchy(square2, kind)
    rng = np.random.default_rng(1)
    n = state.matrix.shape[0]
    rhs = state.matrix @ rng.standard_normal(n)
    x_star = state.levels[-1].lu.solve(rhs)
    x1 = solver_step(state, rhs, x_star)
    assert state.energy_norm(x1 - x_star) <= 1e-13 * state.energy_norm(x_star)


@pytest.mark.parametrize("kind", ["damped_richardson", "local_multigrid"])
def test_contraction_on_random_starts(square2, kind):
    state = build_hierarchy(square2, kind)
    q_hat = certify_contraction(state, trials=10)
    assert 0.0 < q_hat < 1.0
    rng = np.random.default_rng(2)
    n = state.matrix.shape[0]
    for _ in range(50):
        rhs = state.matrix @ rng.standard_normal(n)
        x_star = state.levels[-1].lu.solve(rhs)
        x0 = x_star + rng.standard_normal(n)
        x1 = solver_step(state, rhs, x0)
        x2 = solver_step(state, rhs, x1)
        e0 = state.energy_norm(x_star - x0)
        e1 = state.energy_norm(x_star - x1)
        e2 = state.energy_norm(x_star - x2)
        assert e1 <= q_hat * e0 * (1 + 1e-12)
        assert e2 <= q_hat ** 2 * e0 * (1 + 1e-12)


def test_richardson_scalar_system_exact(square2):
    # one interior DOF: the power-iteration damping makes one step exact
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    assert space.n_free == 1
    state = setup_solver("damped_richardson", space, POISSON)
    rhs = np.array([4.0])
    x1 = solver_step(state, rhs, np.array([17.0]))
    d = state.matrix.diagonal()[0]
    assert np.isclose(x1[0], 4.0 / d, rtol=1e-14)
    assert certify_contraction(state, trials=5) == pytest.approx(0.0, abs=1e-12)


def test_certify_direct_is_zero(square2):
    state = build_hierarchy(square2, "direct")
    assert certify_contraction(state, trials=3) == 0.0


def test_certify_rejects_nonconvergent(square2):
    state = build_hierarchy(square2, "damped_richardson")
    state.omega *= 2.5  # past the stability limit
    with pytest.raises(NonContractiveError):
        certify_contraction(state, trials=10)


def test_certify_ceiling(square2):
    state = build_hierarchy(square2, "damped_richardson")
    with pytest.raises(NonContractiveError):
        certify_contraction(state, trials=3, ceiling=1e-6)


def test_solver_step_is_linear(square2):
    state = build_hierarchy(square2, "local_multigrid")
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
    state = build_hierarchy(square2, "local_multigrid", steps=3)
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
    with pytest.raises(SolverError):
        solve_direct(sp.csr_matrix(np.ones((2, 2))), np.array([1.0, 2.0]))


def test_extend_solver_leaves_its_argument_alone(square2):
    state = build_hierarchy(square2, "local_multigrid", steps=2)
    space, levels = state.space, list(state.levels)
    edges = space.mesh.edge_tables()
    fine = Space(refine(space.mesh, {0}), 1)
    new = extend_solver(state, fine)
    assert new.space is fine and new.levels[:-1] == levels
    assert state.space is space and state.levels == levels
    assert space.mesh.edge_tables() is edges


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


def _vcycle_x_form(levels, j, x, b):
    """V-cycle that recomputes the residual b - A x on entry to every level
    (the reference the residual-passing cycle must match bit for bit)."""
    lvl = levels[j]
    if j == 0:
        return lvl.lu.solve(b)
    S = lvl.smooth_dofs
    x = x.copy()
    r = b - lvl.matrix @ x
    if lvl.lower is not None:
        for _ in range(solvers.SMOOTH_SWEEPS):
            dx = lvl.lower.solve(r[S])
            x[S] += dx
            r -= lvl.cols @ dx
    e = _vcycle_x_form(levels, j - 1,
                       np.zeros(levels[j - 1].matrix.shape[0]),
                       lvl.prol_t @ r)
    corr = lvl.prol @ e
    x += corr
    r -= lvl.matrix @ corr
    if lvl.upper is not None:
        for _ in range(solvers.SMOOTH_SWEEPS):
            dx = lvl.upper.solve(r[S])
            x[S] += dx
            r -= lvl.cols @ dx
    return x


@pytest.mark.parametrize("steps", [0, 1, 4])
def test_vcycle_matches_x_form_bit_for_bit(square2, steps):
    state = build_hierarchy(square2, "local_multigrid", steps=steps)
    rng = np.random.default_rng(6)
    n = state.matrix.shape[0]
    for _ in range(3):
        rhs, x0 = rng.standard_normal((2, n))
        x = x0.copy()
        for _ in range(solvers.CYCLES_PER_STEP):
            x = _vcycle_x_form(state.levels, len(state.levels) - 1, x, rhs)
        x0_before = x0.copy()
        assert solver_step(state, rhs, x0).tobytes() == x.tobytes()
        assert np.array_equal(x0, x0_before)  # the iterate is not modified


def test_certify_needs_no_reference_factorization(square2, monkeypatch):
    state = build_hierarchy(square2, "local_multigrid")
    state.levels[0].lu  # the coarse solve of the V-cycle

    def no_splu(*args, **kwargs):
        raise AssertionError("certification factorized a matrix")

    monkeypatch.setattr(solvers, "splu", no_splu)
    assert 0.0 < certify_contraction(state, trials=2) < 1.0


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
    # recorded from reference-solve certification (a direct solve for x*);
    # stepping the error itself only removes the roundoff of x*
    recorded = json.loads((Path(__file__).parent / "data"
                           / "certified_q_reference.json").read_text())
    ref = np.array(recorded["kellogg-local-mg"])
    q = np.array([certify_contraction(s) for s in _kellogg_states()])
    assert q.shape == ref.shape and ref.max() > 0.3
    assert q[0] == ref[0] == 0.0
    assert np.all(np.abs(q - ref) <= 1e-4 * ref)


def test_one_level_multigrid_certifies_exactly_zero(square2):
    state = setup_solver("local_multigrid", Space(uniform_refine(
        uniform_refine(square2)), 1), POISSON)
    assert len(state.levels) == 1 and state.matrix.shape[0] > 1
    assert certify_contraction(state, trials=3) == 0.0
    assert state.certified_q == 0.0
