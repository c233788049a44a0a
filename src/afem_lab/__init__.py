"""Adaptive 2D finite elements with contractive and nested iterative solvers.

Building blocks: newest-vertex-bisection meshes, Lagrange spaces with
residual error estimation and Doerfler marking, contractive algebraic
solvers, the Zarantonello symmetrization loop, adaptive drivers with full
cost accounting, and the sequence-lemma toolbox for R-linear convergence and
rates-vs-cost analysis.
"""

from .analysis import (RLinearFit, fit_rate_loglog, rates_equals_complexity,
                       rlinear_constants_from_criterion,
                       tailsum_rlinear_equivalence, verify_axioms)
from .driver import (History, run_exact, run_nested, run_single, run_uniform,
                     weighted_cost_table)
from .estimator import Indicators, compute_indicators, estimator_total
from .fem import (DiscreteFunction, Nonlinearity, ProblemDef, Space,
                  assemble_a, assemble_b, assemble_rhs, energy_inner,
                  energy_norm, prolongate, solve_galerkin_exact)
from .iteration import (ZarantonelloConfig, check_lambda_constraint,
                        inner_stop, outer_stop,
                        zarantonello_contraction_bound, zarantonello_rhs)
from .marking import doerfler_mark
from .mesh import Mesh, check_conforming, refine, uniform_refine
from .problems import by_name, kellogg, lshape_convection, zshape_nonlinear
from .solvers import (SolverState, certify_contraction, extend_solver,
                      setup_solver, solve_direct, solver_step)

__version__ = "0.1.0"
