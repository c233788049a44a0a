"""Zarantonello symmetrization/linearization and stopping predicates.

The damped mapping u -> Phi(delta; u) is defined through the SPD system

    a(Phi, v) = a(u, v) + delta * [F(v) - b(u, v)]     for all v,

where b(u, v) is the full (possibly nonsymmetric or nonlinear) form.  Its
fixed point is the Galerkin solution; for monotonicity constants
0 < alpha <= L and 0 < delta < 2 alpha / L^2 the map contracts in the energy
norm with factor q_sym* = [1 - delta (2 alpha - delta L^2)]^(1/2).

The nested loop solves each Phi step only inexactly; its outer iterates still
contract when lambda_alg stays below the bound that
``check_lambda_constraint`` checks.
"""

import math
from dataclasses import dataclass

from .fem import assemble_b, energy_gram, load_vector, nonlinear_form

__all__ = ["ZarantonelloConfig", "zarantonello_rhs",
           "zarantonello_contraction_bound", "inner_stop", "outer_stop",
           "check_lambda_constraint", "lambda_alg_star"]


def zarantonello_contraction_bound(alpha, L, delta):
    """q_sym* = [1 - delta(2 alpha - delta L^2)]^(1/2); needs delta < 2a/L^2."""
    if not 0.0 < delta < 2.0 * alpha / L ** 2:
        raise ValueError("damping must satisfy 0 < delta < 2 alpha / L^2")
    val = 1.0 - delta * (2.0 * alpha - delta * L ** 2)
    return math.sqrt(max(val, 0.0))


@dataclass
class ZarantonelloConfig:
    """Damping and stopping parameters of the nested solver loop.

    q_sym_star is derived from (alpha, L, delta) when those are given; it
    is needed only to check the inexact contraction q_sym < 1.
    """
    delta: float
    lambda_sym: float
    lambda_alg: float
    alpha: float = None
    L: float = None
    q_sym_star: float = None

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("damping delta must be positive")
        if not (self.lambda_sym > 0 and self.lambda_alg >= 0):
            raise ValueError("stopping parameters must be positive")
        if self.q_sym_star is None and self.alpha is not None \
                and self.L is not None:
            self.q_sym_star = zarantonello_contraction_bound(
                self.alpha, self.L, self.delta)
        if self.q_sym_star is not None and not 0 <= self.q_sym_star < 1:
            raise ValueError("q_sym_star must lie in [0, 1)")


def zarantonello_rhs(space, prob, delta, u):
    """Full load vector of the SPD system defining Phi(delta; u)."""
    coeffs = space.coefficients(u)
    A = energy_gram(space, prob)
    G = A @ coeffs
    F = load_vector(space, prob)
    if prob.is_nonlinear:
        Bu = nonlinear_form(space, prob, coeffs)
    else:
        Bu = assemble_b(space, prob, reduced=False) @ coeffs
    return G + delta * (F - Bu)


def inner_stop(increment_norm, eta, last_outer_increment, cfg):
    """Algebraic stop: |inc| <= lambda_alg (lambda_sym eta + |outer inc|)."""
    return increment_norm <= cfg.lambda_alg * (
        cfg.lambda_sym * eta + last_outer_increment)


def outer_stop(increment_norm, eta, lambda_sym):
    """Symmetrization stop: |inc| <= lambda_sym * eta."""
    return increment_norm <= lambda_sym * eta


def check_lambda_constraint(cfg, q_alg):
    """(q_sym, q_sym < 1): contraction of the inexact Zarantonello iteration.

    q_sym = (q_sym* + t) / (1 - t) with t = 2 q_alg lambda_alg / (1 - q_alg)
    bounds the outer contraction when each Phi step is solved by an
    algebraic solver with contraction q_alg stopped by ``inner_stop``.
    q_sym < 1 holds exactly when lambda_alg < ``lambda_alg_star``.
    """
    if cfg.q_sym_star is None:
        raise ValueError("config carries no contraction bound; set alpha/L "
                         "or q_sym_star")
    if q_alg == 0.0 or cfg.lambda_alg == 0.0:
        t = 0.0
    else:
        t = 2.0 * q_alg * cfg.lambda_alg / (1.0 - q_alg)
    if t >= 1.0:
        return math.inf, False
    q_sym = (cfg.q_sym_star + t) / (1.0 - t)
    return q_sym, q_sym < 1.0


def lambda_alg_star(cfg, q_alg):
    """The bound lambda_alg* = (1 - q_alg)(1 - q_sym*) / (4 q_alg)."""
    return math.inf if q_alg == 0.0 else \
        (1.0 - q_alg) * (1.0 - cfg.q_sym_star) / (4.0 * q_alg)
