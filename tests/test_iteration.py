import numpy as np
import pytest

from afem_lab.fem import (DiscreteFunction, ProblemDef, Space, energy_gram,
                          energy_norm, solve_galerkin_exact)
from afem_lab.iteration import (ZarantonelloConfig, check_lambda_constraint,
                                inner_stop, outer_stop,
                                zarantonello_contraction_bound,
                                zarantonello_rhs)
from afem_lab.mesh import uniform_refine
from afem_lab.problems import lshape_convection, zshape_nonlinear
from afem_lab.solvers import solve_direct
from afem_lab.fem import assemble_a


def zarantonello_apply(space, prob, delta, u):
    """Solve the SPD system for Phi(delta; u) exactly (test helper)."""
    G = zarantonello_rhs(space, prob, delta, u)
    A_full = energy_gram(space, prob)
    lift = u * space.dirichlet_mask
    rhs = (G - A_full @ lift)[space.free]
    out = lift.copy()
    out[space.free] = solve_direct(assemble_a(space, prob), rhs)
    return out


def test_contraction_bound_values():
    assert zarantonello_contraction_bound(1.0, 1.0, 1.0) == 0.0
    # the nonlinear benchmark constants with delta = 1/L
    alpha, L = 0.9582898017, 1.542343818
    q = zarantonello_contraction_bound(alpha, L, 1.0 / L)
    assert abs(q - 0.870) <= 1e-3
    # monotone limit: q -> 1 as delta -> 0+
    qs = [zarantonello_contraction_bound(alpha, L, d)
          for d in (0.5, 0.1, 0.01, 1e-4)]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    assert qs[-1] < 1.0
    with pytest.raises(ValueError):
        zarantonello_contraction_bound(alpha, L, 2 * alpha / L ** 2 + 0.1)


def test_inner_stop_arithmetic():
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.2, lambda_alg=0.5)
    assert inner_stop(0.0, 0.3, 0.1, cfg)
    assert not inner_stop(1.0, 0.0, 0.0,
                          ZarantonelloConfig(delta=1, lambda_sym=1e9,
                                             lambda_alg=1e9))
    # 0.1 <= 0.5 * (0.2 * 0.4 + 0.1) = 0.09 is false
    assert not inner_stop(0.1, 0.4, 0.1, cfg)


def test_outer_stop_arithmetic():
    assert outer_stop(0.0, 0.5, 0.1)
    assert not outer_stop(0.1, 0.0, 0.5)
    assert outer_stop(0.05, 0.6, 0.1)  # 0.05 <= 0.06


def test_check_lambda_constraint_examples():
    cfg = ZarantonelloConfig(delta=1.0, lambda_sym=0.3, lambda_alg=0.0,
                             q_sym_star=0.8)
    q_sym, ok = check_lambda_constraint(cfg, q_alg=0.5)
    assert q_sym == 0.8 and ok

    # lambda_alg* = (1 - 0.5)(1 - 0.8) / (4 * 0.5) = 0.05; t = 0.2
    cfg = ZarantonelloConfig(delta=1.0, lambda_sym=0.3, lambda_alg=0.1,
                             q_sym_star=0.8)
    q_sym, ok = check_lambda_constraint(cfg, q_alg=0.5)
    assert np.isclose(q_sym, 1.0 / 0.8) and not ok

    cfg = ZarantonelloConfig(delta=1.0, lambda_sym=1e-4, lambda_alg=0.05,
                             q_sym_star=0.5)
    q_sym, ok = check_lambda_constraint(cfg, q_alg=0.5)
    assert np.isclose(q_sym, 0.6 / 0.9)
    assert ok

    # q_sym < 1 although lambda_alg * lambda_sym = 0.07 exceeds 0.03125, the
    # product bound (1 - q_alg)(1 - q_sym*)(1 - q_θ) / (8 q_alg) of the
    # classical analysis at q_θ = 0.5; only lambda_alg* = 0.125 counts
    cfg = ZarantonelloConfig(delta=1.0, lambda_sym=0.7, lambda_alg=0.1,
                             q_sym_star=0.5)
    q_sym, ok = check_lambda_constraint(cfg, q_alg=0.5)
    assert np.isclose(q_sym, 0.7 / 0.8)
    assert ok


def test_zarantonello_fixed_point_linear(square2):
    prob, mesh0 = lshape_convection()
    space = Space(mesh0, 1)
    u_star = solve_galerkin_exact(space, prob)
    phi = zarantonello_apply(space, prob, 0.5, u_star.coeffs)
    err = energy_norm(space, prob, DiscreteFunction(space,
                                                    phi - u_star.coeffs))
    assert err <= 1e-10 * max(1.0, energy_norm(space, prob, u_star))


def test_zarantonello_delta_zero_identity(square2):
    prob, mesh0 = lshape_convection()
    space = Space(uniform_refine(mesh0), 1)
    rng = np.random.default_rng(0)
    u = np.zeros(space.n_dofs)
    u[space.free] = rng.standard_normal(space.n_free)
    phi = zarantonello_apply(space, prob, 0.0, u)
    assert np.allclose(phi, u, atol=1e-12)


def test_zarantonello_symmetric_delta_one_exact(square2):
    # b = a: one undamped step solves the system
    prob = ProblemDef(load=lambda x: np.ones(len(x)))
    space = Space(uniform_refine(square2), 1)
    u_star = solve_galerkin_exact(space, prob)
    rng = np.random.default_rng(1)
    u = np.zeros(space.n_dofs)
    u[space.free] = rng.standard_normal(space.n_free)
    phi = zarantonello_apply(space, prob, 1.0, u)
    assert np.allclose(phi, u_star.coeffs, atol=1e-11)


def test_exact_contraction_linear_nonsymmetric():
    # alpha = 1 exactly for conv = x, c = 1 (c - div(conv)/2 = 0); L bounded
    # through the Friedrichs constant of the L-shape
    prob, mesh = lshape_convection()
    mesh = uniform_refine(mesh)
    space = Space(mesh, 1)
    alpha, L = 1.0, 1.84
    delta = 0.5
    q_star = zarantonello_contraction_bound(alpha, L, delta)
    u_star = solve_galerkin_exact(space, prob)
    rng = np.random.default_rng(2)
    for _ in range(25):
        u = u_star.coeffs.copy()
        u[space.free] += rng.standard_normal(space.n_free)
        phi = zarantonello_apply(space, prob, delta, u)
        num = energy_norm(space, prob,
                          DiscreteFunction(space, phi - u_star.coeffs))
        den = energy_norm(space, prob,
                          DiscreteFunction(space, u - u_star.coeffs))
        assert num <= q_star * (1 + 1e-6) * den


def test_exact_contraction_nonlinear():
    prob, mesh = zshape_nonlinear()
    mesh = uniform_refine(mesh)
    space = Space(mesh, 1)
    delta = 1.0 / prob.L
    q_star = zarantonello_contraction_bound(prob.alpha, prob.L, delta)
    u_star = solve_galerkin_exact(space, prob)
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = u_star.coeffs.copy()
        u[space.free] += rng.standard_normal(space.n_free)
        phi = zarantonello_apply(space, prob, delta, u)
        num = energy_norm(space, prob,
                          DiscreteFunction(space, phi - u_star.coeffs))
        den = energy_norm(space, prob,
                          DiscreteFunction(space, u - u_star.coeffs))
        assert num <= q_star * (1 + 1e-6) * den


def test_config_validation():
    with pytest.raises(ValueError):
        ZarantonelloConfig(delta=0.0, lambda_sym=0.1, lambda_alg=0.1)
    with pytest.raises(ValueError):
        ZarantonelloConfig(delta=0.5, lambda_sym=-1.0, lambda_alg=0.1)
    cfg = ZarantonelloConfig(delta=0.5, lambda_sym=0.1, lambda_alg=0.1,
                             alpha=1.0, L=1.2)
    assert 0.0 < cfg.q_sym_star < 1.0
    for q_sym_star in (1.0, -0.1):
        with pytest.raises(ValueError, match="q_sym_star"):
            ZarantonelloConfig(delta=0.5, lambda_sym=0.1, lambda_alg=0.1,
                               q_sym_star=q_sym_star)
