import numpy as np
import pytest
import scipy.sparse as sp

from afem_lab.fem import ProblemDef, Space
from afem_lab.mesh import refine, uniform_refine
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
