import numpy as np
import pytest

from afem_lab.fem import (DiscreteFunction, Nonlinearity, ProblemDef, Space,
                          UnsupportedFormError, assemble_a, assemble_b,
                          assemble_rhs, energy_inner, energy_norm,
                          interpolate, load_vector,
                          nonlinear_energy, nonlinear_form, prolongate,
                          prolongation_matrix, solve_galerkin_exact)
from afem_lab.mesh import Mesh, refine, uniform_refine

POISSON = ProblemDef(load=lambda x: np.ones(len(x)))


def one_element_mesh():
    # the upper triangle of the 2-triangle square, as its own mesh
    verts = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    elements = np.array([[0, 1, 2]])
    boundary = np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]])
    return Mesh(verts, elements, boundary)


def test_p1_laplace_stiffness_hand_values(square2):
    space = Space(square2, 1)
    K = assemble_a(space, POISSON, reduced=False).toarray()
    # hand assembly: diag 1, -1/2 along the square sides, 0 across the diagonal
    expected = np.array([
        [1.0, -0.5, 0.0, -0.5],
        [-0.5, 1.0, -0.5, 0.0],
        [0.0, -0.5, 1.0, -0.5],
        [-0.5, 0.0, -0.5, 1.0],
    ])
    assert np.allclose(K, expected, atol=1e-14)


def test_convection_matrix_matches_symbolic_oracle():
    # sympy oracle on the element ((1,1),(0,0),(1,0)) with conv = x, c = 1:
    conv_exact = np.array([[1 / 12, -1 / 8, 1 / 24],
                           [1 / 24, -1 / 12, 1 / 24],
                           [1 / 24, -1 / 8, 1 / 12]])
    mass_exact = np.array([[1 / 12, 1 / 24, 1 / 24],
                           [1 / 24, 1 / 12, 1 / 24],
                           [1 / 24, 1 / 24, 1 / 12]])
    mesh = one_element_mesh()
    space = Space(mesh, 1)
    prob = ProblemDef(convection=lambda x: x,
                      reaction=lambda x: np.ones(len(x)))
    B = assemble_b(space, prob, reduced=False).toarray()
    A = assemble_a(space, prob, reduced=False).toarray()
    assert np.allclose(B - A, conv_exact + mass_exact, atol=1e-14)
    skew = B - B.T
    assert np.allclose(skew, (conv_exact - conv_exact.T), atol=1e-14)


def test_assembly_is_deterministic(square2):
    space = Space(uniform_refine(square2), 1)
    prob = ProblemDef(convection=lambda x: x,
                      reaction=lambda x: np.ones(len(x)))
    M1 = assemble_b(space, prob)
    space._cache.clear()
    M2 = assemble_b(space, prob)
    assert (M1 != M2).nnz == 0
    assert np.array_equal(M1.data, M2.data)


def test_stiffness_cache_never_serves_another_problem(square2):
    # a problem built after another was freed may get its id; the cache must
    # still assemble the new problem's own matrix
    space = Space(uniform_refine(square2), 1)
    K1 = assemble_a(space, POISSON).toarray()
    for _ in range(20):
        assemble_a(space, ProblemDef(diffusion=lambda x: np.ones(len(x))))
        K2 = assemble_a(space, ProblemDef(
            diffusion=lambda x: np.full(len(x), 2.0)))
        assert np.allclose(K2.toarray(), 2.0 * K1)


def test_prolongation_cache_never_serves_another_coarse_space(square2):
    # the same for a coarse space freed after use
    mesh1 = uniform_refine(square2)
    fine = Space(uniform_refine(mesh1), 1)
    for _ in range(20):
        prolongation_matrix(Space(square2, 1), fine)
        coarse = Space(mesh1, 1)
        P = prolongation_matrix(coarse, fine)
        assert P.shape == (fine.n_dofs, coarse.n_dofs)
        # a linear function is carried over exactly
        assert np.allclose(P @ coarse.dof_points[:, 0], fine.dof_points[:, 0])


def test_assemble_a_exact_symmetry_and_scaling(square2):
    space = Space(square2, 1)
    M = assemble_a(space, POISSON, reduced=False)
    assert (abs(M - M.T)).max() == 0.0
    scaled = ProblemDef(diffusion=lambda x: np.full(len(x), 7.0))
    M7 = assemble_a(space, scaled, reduced=False)
    assert np.allclose(M7.toarray(), 7.0 * M.toarray(), atol=1e-13)


def test_assemble_b_rejects_nonlinear(square2):
    nl = Nonlinearity(a=lambda t: 1 + t, da=lambda t: np.ones_like(t))
    prob = ProblemDef(nonlinearity=nl, alpha=1.0, L=2.0)
    with pytest.raises(UnsupportedFormError):
        assemble_b(Space(square2, 1), prob)


def test_rhs_interior_node_patch_area(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    F = load_vector(space, POISSON)
    areas = mesh.areas()
    for dof in space.free:
        patch = areas[(space.elem_dofs == dof).any(axis=1)].sum()
        assert np.isclose(F[dof], patch / 3.0, atol=1e-14)


def test_rhs_zero_data(square2):
    space = Space(square2, 1)
    assert np.allclose(assemble_rhs(space, ProblemDef()), 0.0)


def test_dirichlet_lift_reproduces_linear_solution(square2):
    # u(x, y) = x is harmonic and lies in every P1 space: the solve must
    # reproduce it exactly through the boundary lift
    mesh = uniform_refine(uniform_refine(square2))
    space = Space(mesh, 1)
    prob = ProblemDef(dirichlet=lambda x: x[:, 0])
    u = solve_galerkin_exact(space, prob)
    assert np.allclose(u.coeffs, space.dof_points[:, 0], atol=1e-12)


def test_galerkin_orthogonality_residual(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    u = solve_galerkin_exact(space, POISSON)
    B = assemble_b(space, POISSON)
    res = assemble_rhs(space, POISSON) - B @ u.coeffs[space.free]
    assert np.linalg.norm(res) <= 1e-10


def test_p2_reproduces_quadratics(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 2)
    exact = lambda x: x[:, 0] ** 2 + x[:, 1] ** 2
    prob = ProblemDef(load=lambda x: np.full(len(x), -4.0),
                      dirichlet=exact)
    u = solve_galerkin_exact(space, prob)
    assert np.allclose(u.coeffs, exact(space.dof_points), atol=1e-10)


def test_prolongation_preserves_function(square2):
    rng = np.random.default_rng(0)
    coarse_mesh = uniform_refine(square2)
    fine_mesh = refine(coarse_mesh, rng.choice(coarse_mesh.n_elements, 3,
                                               replace=False))
    for p in (1, 2):
        coarse = Space(coarse_mesh, p)
        fine = Space(fine_mesh, p)
        v = DiscreteFunction(coarse, rng.standard_normal(coarse.n_dofs))
        vf = prolongate(v, fine)
        nc = energy_norm(coarse, POISSON, v)
        nf = energy_norm(fine, POISSON, vf)
        assert abs(nc - nf) <= 1e-13 * max(nc, 1)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        assert np.allclose(v.eval(pts), vf.eval(pts), atol=1e-12)
        ones = DiscreteFunction(coarse, np.ones(coarse.n_dofs))
        assert np.allclose(prolongate(ones, fine).coeffs, 1.0, atol=1e-13)


def test_hat_function_dirichlet_energy(square2):
    # hand computation: the center hat of the once-refined square spans 8
    # right isosceles triangles with legs 1/2; each contributes |grad|^2 |T|
    # = 4 * 1/8, so the squared energy is 4
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    center = np.nonzero((space.dof_points == 0.5).all(axis=1))[0][0]
    hat = np.zeros(space.n_dofs)
    hat[center] = 1.0
    e2 = energy_norm(space, POISSON, DiscreteFunction(space, hat)) ** 2
    assert np.isclose(e2, 4.0, rtol=1e-14)


def test_energy_norm_properties(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    zero = DiscreteFunction(space, np.zeros(space.n_dofs))
    assert energy_norm(space, POISSON, zero) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(space.n_dofs)
        w = rng.standard_normal(space.n_dofs)
        nv = energy_norm(space, POISSON, DiscreteFunction(space, v))
        nw = energy_norm(space, POISSON, DiscreteFunction(space, w))
        ip = energy_inner(space, POISSON, v, w)
        assert abs(ip) <= nv * nw * (1 + 1e-12)
        # parallelogram law
        np_ = energy_norm(space, POISSON, DiscreteFunction(space, v + w))
        nm = energy_norm(space, POISSON, DiscreteFunction(space, v - w))
        assert np.isclose(np_ ** 2 + nm ** 2, 2 * nv ** 2 + 2 * nw ** 2,
                          rtol=1e-12, atol=1e-12)


def test_pythagoras_identity_nested_spaces(square2):
    # symmetric problem: |||u_h - v_H|||^2 = |||u_h - u_H|||^2 + |||u_H - v_H|||^2
    rng = np.random.default_rng(2)
    coarse_mesh = uniform_refine(square2)
    fine_mesh = refine(coarse_mesh, rng.choice(coarse_mesh.n_elements, 4,
                                               replace=False))
    coarse, fine = Space(coarse_mesh, 1), Space(fine_mesh, 1)
    uH = solve_galerkin_exact(coarse, POISSON)
    uh = solve_galerkin_exact(fine, POISSON)
    uHf = prolongate(uH, fine)
    for _ in range(5):
        z = np.zeros(coarse.n_dofs)
        z[coarse.free] = rng.standard_normal(coarse.n_free)
        vH = prolongate(DiscreteFunction(coarse, uH.coeffs + z), fine)
        lhs = energy_norm(fine, POISSON,
                          DiscreteFunction(fine, uh.coeffs - vH.coeffs)) ** 2
        t1 = energy_norm(fine, POISSON,
                         DiscreteFunction(fine, uh.coeffs - uHf.coeffs)) ** 2
        t2 = energy_norm(fine, POISSON,
                         DiscreteFunction(fine, uHf.coeffs - vH.coeffs)) ** 2
        assert abs(lhs - (t1 + t2)) <= 1e-9 * lhs


TEST_NL = Nonlinearity(a=lambda t: 2.0 + 1.0 / (1.0 + t),
                       da=lambda t: -1.0 / (1.0 + t) ** 2,
                       integral=lambda t: 2.0 * t + np.log1p(t))
TEST_NL_ALPHA, TEST_NL_L = 1.875, 3.0


def nonlinear_problem():
    return ProblemDef(load=lambda x: np.ones(len(x)), nonlinearity=TEST_NL,
                      alpha=TEST_NL_ALPHA, L=TEST_NL_L)


def test_nonlinear_monotonicity_and_lipschitz(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    prob = nonlinear_problem()
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = np.zeros(space.n_dofs)
        v = np.zeros(space.n_dofs)
        w = np.zeros(space.n_dofs)
        u[space.free] = rng.standard_normal(space.n_free)
        v[space.free] = rng.standard_normal(space.n_free)
        w[space.free] = rng.standard_normal(space.n_free)
        Nu, Nv = nonlinear_form(space, prob, u), nonlinear_form(space, prob, v)
        duv = DiscreteFunction(space, u - v)
        nuv = energy_norm(space, prob, duv)
        mono = (Nu - Nv) @ (u - v)
        assert mono >= TEST_NL_ALPHA * nuv ** 2 * (1 - 1e-10)
        nw = energy_norm(space, prob, DiscreteFunction(space, w))
        assert abs((Nu - Nv) @ w) <= TEST_NL_L * nuv * nw * (1 + 1e-10)


def test_nonlinear_energy_sandwich_and_decrease(square2):
    coarse_mesh = uniform_refine(square2)
    fine_mesh = uniform_refine(coarse_mesh)
    prob = nonlinear_problem()
    coarse, fine = Space(coarse_mesh, 1), Space(fine_mesh, 1)
    uH = solve_galerkin_exact(coarse, prob)
    uh = solve_galerkin_exact(fine, prob)
    EH = nonlinear_energy(coarse, prob, uH.coeffs)
    Eh = nonlinear_energy(fine, prob, uh.coeffs)
    assert Eh <= EH + 1e-12
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = np.zeros(coarse.n_dofs)
        z[coarse.free] = 0.3 * rng.standard_normal(coarse.n_free)
        v = uH.coeffs + z
        gap = nonlinear_energy(coarse, prob, v) - EH
        d = energy_norm(coarse, prob, DiscreteFunction(coarse, z)) ** 2
        assert TEST_NL_ALPHA / 2 * d * (1 - 1e-8) <= gap
        assert gap <= TEST_NL_L / 2 * d * (1 + 1e-8)


def test_nonlinear_galerkin_fixed_point(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    prob = nonlinear_problem()
    u = solve_galerkin_exact(space, prob)
    res = (load_vector(space, prob)
           - nonlinear_form(space, prob, u.coeffs))[space.free]
    assert np.linalg.norm(res) <= 1e-9


def test_p3_reproduces_harmonic_cubic(square2):
    # u = x^3 - 3xy^2 is harmonic and cubic; a P3 solve must reproduce it
    # exactly, which exercises the orientation of the two DOFs per edge
    rng = np.random.default_rng(5)
    mesh = uniform_refine(square2)
    mesh = refine(mesh, rng.choice(mesh.n_elements, 4, replace=False))
    space = Space(mesh, 3)
    exact = lambda x: x[:, 0] ** 3 - 3 * x[:, 0] * x[:, 1] ** 2
    prob = ProblemDef(dirichlet=exact)
    u = solve_galerkin_exact(space, prob)
    assert np.allclose(u.coeffs, exact(space.dof_points), atol=1e-9)


def test_p2_hessians_of_quadratic(square2):
    # v = x^2 + 3xy - 2y^2 has constant Hessian (2, 3, -4)
    from afem_lab.quadrature import triangle_rule
    rng = np.random.default_rng(11)
    mesh = uniform_refine(square2)
    mesh = refine(mesh, rng.choice(mesh.n_elements, 3, replace=False))
    space = Space(mesh, 2)
    v = interpolate(space, lambda x: x[:, 0] ** 2 + 3 * x[:, 0] * x[:, 1]
                    - 2 * x[:, 1] ** 2)
    pts, _ = triangle_rule(2)
    h = space.function_hessians(v.coeffs, pts)
    assert np.allclose(h[..., 0], 2.0, atol=1e-11)
    assert np.allclose(h[..., 1], 3.0, atol=1e-11)
    assert np.allclose(h[..., 2], -4.0, atol=1e-11)


def test_space_nested_dof_counts(square2):
    fine = uniform_refine(square2)
    for p in (1, 2, 3):
        space = Space(fine, p)
        edges, _, _ = fine.edge_tables()
        n_int = (p - 1) * (p - 2) // 2
        expected = fine.n_vertices + len(edges) * (p - 1) \
            + fine.n_elements * n_int
        assert space.n_dofs == expected


def distorted_mesh(square2, seed):
    """Uniformly refined square with jittered interior vertices, then
    refined locally."""
    rng = np.random.default_rng(seed)
    mesh = uniform_refine(uniform_refine(square2))
    verts = mesh.vertices.copy()
    interior = (verts > 0).all(axis=1) & (verts < 1).all(axis=1)
    verts[interior] += rng.uniform(-0.06, 0.06, (interior.sum(), 2))
    mesh = Mesh(verts, mesh.elements, mesh.boundary_edges)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.n_elements, 5, replace=False))
    return mesh


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_field_kernels_exact_on_polynomials(square2, p):
    # the interpolant of a degree-p polynomial is the polynomial itself, so
    # values, gradients and Hessians must match the analytic ones
    from afem_lab.quadrature import triangle_rule
    rng = np.random.default_rng(p)
    exps = [(a, b) for a in range(p + 1) for b in range(p + 1 - a)]
    c = rng.uniform(-1.0, 1.0, len(exps))

    def poly(x, da=0, db=0):
        out = np.zeros(len(x))
        for ck, (a, b) in zip(c, exps):
            if a >= da and b >= db:
                fa = np.prod(np.arange(a - da + 1, a + 1))
                fb = np.prod(np.arange(b - db + 1, b + 1))
                out += ck * fa * fb * x[:, 0] ** (a - da) * x[:, 1] ** (b - db)
        return out

    space = Space(distorted_mesh(square2, seed=p), p)
    v = interpolate(space, poly)
    pts, _ = triangle_rule(2 * p + 2)
    x = space.physical_points(pts).reshape(-1, 2)
    shape = (space.mesh.n_elements, len(pts))
    # 1e-11 relative to the size of each field: the reference basis comes
    # from an inverted Vandermonde matrix, so rounding grows with p (about
    # 5e-11 absolute on the P4 Hessians here, with the earlier kernels too)
    fields = [(space.function_values(v.coeffs, pts), [(0, 0)]),
              (space.function_gradients(v.coeffs, pts), [(1, 0), (0, 1)]),
              (space.function_hessians(v.coeffs, pts),
               [(2, 0), (1, 1), (0, 2)])]
    for got, derivs in fields:
        got = got.reshape(shape + (len(derivs),))
        exact = np.stack([poly(x, *d).reshape(shape) for d in derivs], -1)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(got - exact).max() <= 1e-11 * scale


def test_assembly_builds_no_hessians(square2, monkeypatch):
    from afem_lab import fem

    def no_hessians(self, pts):
        raise AssertionError("Hessian table built outside the estimator")

    monkeypatch.setattr(fem._RefElem, "hess", no_hessians)
    space = Space(distorted_mesh(square2, seed=0), 2)
    assemble_a(space, POISSON)
    load_vector(space, POISSON)
    tables = [a for v in space._cache.values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert tables and all(t.shape[-1] != 3 for t in tables if t.ndim >= 3)


def test_reduced_stiffness_is_cut_from_one_assembly(square2, monkeypatch):
    from afem_lab import fem
    calls = []
    local = fem._local_stiffness
    monkeypatch.setattr(fem, "_local_stiffness",
                        lambda *a: calls.append(1) or local(*a))
    mesh = distorted_mesh(square2, seed=1)
    for first in (True, False):
        space = Space(mesh, 2)
        K1 = assemble_a(space, POISSON, reduced=first)
        K2 = assemble_a(space, POISSON, reduced=not first)
        full, red = (K2, K1) if first else (K1, K2)
        cut = fem._reduce(space, full)
        assert (red != cut).nnz == 0
        assert np.array_equal(red.data, cut.data)
        assert np.array_equal(red.indices, cut.indices)
    assert len(calls) == 2


def _indicator_mesh(mesh):
    for r in range(4):
        mesh = refine(mesh, np.arange(r % 2, mesh.n_elements, 3))
    return mesh


@pytest.mark.parametrize("name, p", [
    ("kellogg", 2), ("zshape-nonlinear", 1), ("zshape-nonlinear", 2)])
def test_indicators_match_recorded_values(name, p):
    # recorded with the earlier table-based kernels on the same fixed mesh
    # and field; the contraction order changed, the values must not
    import json
    from pathlib import Path
    from afem_lab.estimator import compute_indicators
    from afem_lab.problems import by_name
    recorded = json.loads((Path(__file__).parent / "data"
                           / "indicators_reference.json").read_text())
    prob, mesh = by_name(name)
    space = Space(_indicator_mesh(mesh), p)
    v = interpolate(space, lambda x: np.sin(2 * x[:, 0] + 1)
                    * np.cos(3 * x[:, 1]) + x[:, 0] * x[:, 1] ** 2)
    eta2 = compute_indicators(space, v, prob).per_element
    ref = np.array(recorded[f"{name}-p{p}"])
    assert eta2.shape == ref.shape
    assert np.all(np.abs(eta2 - ref) <= 1e-12 * np.abs(ref))
