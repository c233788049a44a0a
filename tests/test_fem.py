import numpy as np
import pytest
import scipy.sparse as sp

from afem_lab.estimator import compute_indicators
from afem_lab.fem import (Nonlinearity, ProblemDef, SolverError, Space,
                          UnsupportedFormError, _diffusion_at, _gradient_rule,
                          _local_lower_order, _local_stiffness, assemble_a,
                          assemble_b, assemble_rhs, contract,
                          dirichlet_values, energy_error_exact, energy_inner,
                          energy_norm, factorize, load_vector,
                          nonlinear_energy, nonlinear_form,
                          prolongation_matrix, reference_element,
                          solve_galerkin_exact)
from afem_lab.iteration import zarantonello_rhs
from afem_lab.mesh import Mesh, ancestor_map, refine, uniform_refine
from afem_lab.problems import by_name, kellogg, zshape_nonlinear
from afem_lab.quadrature import triangle_rule

POISSON = ProblemDef(load=lambda x: np.ones(len(x)))


def one_element_mesh():
    # the upper triangle of the 2-triangle square, as its own mesh
    verts = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    elements = np.array([[0, 1, 2]])
    boundary = np.array([[0, 1], [1, 2], [2, 0]])
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


def test_nonlinear_problem_rejects_a_convection():
    # the nonlinear form, the Zarantonello step and the estimator have no
    # convection term, so the combination is refused where it is built
    import dataclasses

    prob, _ = zshape_nonlinear()
    with pytest.raises(ValueError, match="convection"):
        dataclasses.replace(prob, convection=lambda x: x)
    with pytest.raises(ValueError, match="convection"):
        ProblemDef(convection=lambda x: x, nonlinearity=prob.nonlinearity)


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


def test_prolongation_checks_the_degree_before_its_cache():
    # a p = 1 matrix kept for the coarse mesh must not be handed out for a
    # p = 2 coarse space of the same mesh
    _, mesh = kellogg()
    fine = Space(refine(mesh, [0]), 1)
    with pytest.raises(ValueError):
        prolongation_matrix(Space(mesh, 2), fine)
    P = prolongation_matrix(Space(mesh, 1), fine)
    assert P.shape == (fine.n_dofs, mesh.n_vertices)
    with pytest.raises(ValueError):
        prolongation_matrix(Space(mesh, 2), fine)


def _prolongation_reference(coarse, fine):
    """The matrix computed from every fine element's node coordinates, one
    node per DOF picked by ``np.unique``."""
    amap = ancestor_map(fine.mesh, coarse.mesh)
    phys = fine.physical_points(fine.ref.nodes)
    loc = np.einsum("eij,enj->eni", coarse.inv_jac[amap],
                    phys - coarse.origin[amap][:, None, :])
    flat_rows = fine.elem_dofs.ravel()
    _, first = np.unique(flat_rows, return_index=True)
    e_idx, l_idx = np.divmod(first, fine.ref.n_local)
    vals = coarse.ref.eval(loc[e_idx, l_idx])
    vals[np.abs(vals) < 1e-13] = 0.0
    rows = np.repeat(flat_rows[first], coarse.ref.n_local)
    cols = coarse.elem_dofs[amap[e_idx]].ravel()
    P = sp.coo_matrix((vals.ravel(), (rows, cols)),
                      shape=(fine.n_dofs, coarse.n_dofs)).tocsr()
    P.eliminate_zeros()
    return P


@pytest.mark.parametrize("name", ["kellogg", "zshape-nonlinear",
                                  "lshape-convection"])
def test_prolongation_matches_the_per_element_reference(name):
    _, mesh = by_name(name)
    rng = np.random.default_rng(4)
    meshes = [mesh]
    for step in range(5):
        m = meshes[-1]
        m = refine(m, rng.choice(m.n_elements, max(1, m.n_elements // 4),
                                 replace=False))
        meshes.append(uniform_refine(m) if step == 2 else m)
    pairs = list(zip(meshes, meshes[1:])) + [(meshes[0], meshes[-1])]
    for p, tol in ((1, 0.0), (2, 0.0), (3, 1e-12)):
        for coarse_mesh, fine_mesh in pairs:
            coarse, fine = Space(coarse_mesh, p), Space(fine_mesh, p)
            P = prolongation_matrix(coarse, fine)
            ref = _prolongation_reference(coarse, fine)
            if tol == 0.0:
                assert (P != ref).nnz == 0
            else:
                assert abs(P - ref).max() <= tol


def test_prolongation_leaves_an_unused_dof_row_empty():
    _, mesh = kellogg()
    with_unused = Mesh(np.vstack([mesh.vertices, [[0.25, 0.3]]]),
                       mesh.elements, mesh.boundary_edges)
    coarse = Space(with_unused, 1)
    fine = Space(refine(with_unused, [0, 3]), 1)
    P = prolongation_matrix(coarse, fine)
    unused = mesh.n_vertices
    assert P[unused].nnz == 0
    assert (P != _prolongation_reference(coarse, fine)).nnz == 0


def test_problem_objects_are_frozen():
    # the caches keyed on a problem object must not outlive its coefficients
    import dataclasses
    prob, _ = zshape_nonlinear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.diffusion = lambda x: np.full(len(x), 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.nonlinearity.a = prob.nonlinearity.da
    changed = dataclasses.replace(prob, reaction=None)
    assert changed.reaction is None and prob.reaction is not None


def test_assemble_a_exact_symmetry_and_scaling(square2):
    space = Space(square2, 1)
    M = assemble_a(space, POISSON, reduced=False)
    assert (abs(M - M.T)).max() == 0.0
    scaled = ProblemDef(diffusion=lambda x: np.full(len(x), 7.0))
    M7 = assemble_a(space, scaled, reduced=False)
    assert np.allclose(M7.toarray(), 7.0 * M.toarray(), atol=1e-13)


def test_assemble_b_rejects_nonlinear(square2):
    nl = Nonlinearity(a=lambda t: 1 + t, da=lambda t: np.ones_like(t),
                      integral=lambda t: t + 0.5 * t ** 2)
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
    assert np.allclose(u, space.dof_points[:, 0], atol=1e-12)


def test_dirichlet_data_is_evaluated_once_per_space():
    # the exact solve and its right-hand side share one interpolant per
    # level, so the boundary data sees each space's Dirichlet DOFs once
    import dataclasses
    from afem_lab.driver import run_exact
    prob, mesh = kellogg()
    seen = []

    def dirichlet(x):
        seen.append(np.array(x))
        return prob.dirichlet(x)
    h = run_exact(dataclasses.replace(prob, dirichlet=dirichlet), mesh,
                  theta=0.5, p=2, max_dofs=400, store_artifacts=True)
    # levels that leave the boundary alone share their Dirichlet points, so
    # the calls on some level's Dirichlet points are counted all together
    bnd = [a["space"].dof_points[a["space"].dirichlet_mask]
           for a in h.meta["artifacts"]]
    assert len(bnd) >= 3
    on_dofs = [x for x in seen if any(np.array_equal(x, b) for b in bnd)]
    assert len(on_dofs) == len(bnd)
    assert all(any(np.array_equal(x, b) for x in on_dofs) for b in bnd)


def test_dirichlet_values_are_read_only():
    prob, mesh = kellogg()
    space = Space(mesh, 2)
    lift = dirichlet_values(space, prob)
    assert lift is dirichlet_values(space, prob)
    with pytest.raises(ValueError):
        lift[0] = 1.0


def test_galerkin_orthogonality_residual(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    u = solve_galerkin_exact(space, POISSON)
    B = assemble_b(space, POISSON)
    res = assemble_rhs(space, POISSON) - B @ u[space.free]
    assert np.linalg.norm(res) <= 1e-10


def test_p2_reproduces_quadratics(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 2)
    exact = lambda x: x[:, 0] ** 2 + x[:, 1] ** 2
    prob = ProblemDef(load=lambda x: np.full(len(x), -4.0),
                      dirichlet=exact)
    u = solve_galerkin_exact(space, prob)
    assert np.allclose(u, exact(space.dof_points), atol=1e-10)


@pytest.mark.parametrize("name", ["kellogg", "zshape-nonlinear"])
def test_galerkin_solution_is_its_coefficient_vector(name):
    prob, mesh = by_name(name)
    space = Space(mesh, 1)
    u = solve_galerkin_exact(space, prob)
    assert type(u) is np.ndarray
    assert u.shape == (space.n_dofs,) and u.dtype == float


@pytest.mark.parametrize("shape", [lambda n: (n + 1,), lambda n: (n - 1,),
                                   lambda n: (n, 1)],
                         ids=["long", "short", "column"])
@pytest.mark.parametrize("call", [
    lambda space, prob, v: compute_indicators(space, v, prob),
    lambda space, prob, v: energy_norm(space, prob, v),
    lambda space, prob, v: zarantonello_rhs(space, prob, 0.5, v),
    lambda space, prob, v: energy_error_exact(space, prob, v),
], ids=["indicators", "energy-norm", "zarantonello-rhs", "exact-error"])
def test_space_rejects_a_coefficient_vector_of_another_shape(call, shape):
    # a vector that is too long would otherwise be indexed by the DOF map
    # and its tail ignored
    prob, mesh = kellogg()
    space = Space(mesh, 1)
    v = np.zeros(shape(space.n_dofs))
    with pytest.raises(ValueError,
                       match=f"on a space of {space.n_dofs} DOFs"):
        call(space, prob, v)


def _point_values(space, coeffs, points):
    """Reference point evaluation: each point is looked up by brute force
    in the first element that holds it (NaN where none does)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.full(len(points), np.nan)
    loc = np.einsum("eij,epj->epi", space.inv_jac,
                    points[None, :, :] - space.origin[:, None, :])
    lam = np.concatenate([1 - loc.sum(axis=2, keepdims=True), loc], axis=2)
    inside = (lam > -1e-10).all(axis=2)
    for pidx in range(len(points)):
        owners = np.nonzero(inside[:, pidx])[0]
        if len(owners) == 0:
            continue
        e = owners[0]
        N = space.ref.eval(loc[e, pidx][None, :])
        vals[pidx] = N[0] @ coeffs[space.elem_dofs[e]]
    return vals


def test_prolongation_preserves_function(square2):
    rng = np.random.default_rng(0)
    coarse_mesh = uniform_refine(square2)
    fine_mesh = refine(coarse_mesh, rng.choice(coarse_mesh.n_elements, 3,
                                               replace=False))
    for p in (1, 2, 3):
        coarse = Space(coarse_mesh, p)
        fine = Space(fine_mesh, p)
        P = prolongation_matrix(coarse, fine)
        assert P.nnz == P.count_nonzero()  # no stored zeros
        v = rng.standard_normal(coarse.n_dofs)
        vf = P @ v
        nc = energy_norm(coarse, POISSON, v)
        nf = energy_norm(fine, POISSON, vf)
        assert abs(nc - nf) <= 1e-13 * max(nc, 1)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        assert np.allclose(_point_values(coarse, v, pts),
                           _point_values(fine, vf, pts), atol=1e-12)
        assert np.allclose(P @ np.ones(coarse.n_dofs), 1.0, atol=1e-13)


def test_hat_function_dirichlet_energy(square2):
    # hand computation: the center hat of the once-refined square spans 8
    # right isosceles triangles with legs 1/2; each contributes |grad|^2 |T|
    # = 4 * 1/8, so the squared energy is 4
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    center = np.nonzero((space.dof_points == 0.5).all(axis=1))[0][0]
    hat = np.zeros(space.n_dofs)
    hat[center] = 1.0
    e2 = energy_norm(space, POISSON, hat) ** 2
    assert np.isclose(e2, 4.0, rtol=1e-14)


def test_energy_norm_properties(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    assert energy_norm(space, POISSON, np.zeros(space.n_dofs)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(space.n_dofs)
        w = rng.standard_normal(space.n_dofs)
        nv = energy_norm(space, POISSON, v)
        nw = energy_norm(space, POISSON, w)
        ip = energy_inner(space, POISSON, v, w)
        assert abs(ip) <= nv * nw * (1 + 1e-12)
        # parallelogram law
        np_ = energy_norm(space, POISSON, v + w)
        nm = energy_norm(space, POISSON, v - w)
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
    P = prolongation_matrix(coarse, fine)
    uHf = P @ uH
    for _ in range(5):
        z = np.zeros(coarse.n_dofs)
        z[coarse.free] = rng.standard_normal(coarse.n_free)
        vH = P @ (uH + z)
        lhs = energy_norm(fine, POISSON, uh - vH) ** 2
        t1 = energy_norm(fine, POISSON, uh - uHf) ** 2
        t2 = energy_norm(fine, POISSON, uHf - vH) ** 2
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
        nuv = energy_norm(space, prob, u - v)
        mono = (Nu - Nv) @ (u - v)
        assert mono >= TEST_NL_ALPHA * nuv ** 2 * (1 - 1e-10)
        nw = energy_norm(space, prob, w)
        assert abs((Nu - Nv) @ w) <= TEST_NL_L * nuv * nw * (1 + 1e-10)


def test_nonlinear_energy_sandwich_and_decrease(square2):
    coarse_mesh = uniform_refine(square2)
    fine_mesh = uniform_refine(coarse_mesh)
    prob = nonlinear_problem()
    coarse, fine = Space(coarse_mesh, 1), Space(fine_mesh, 1)
    uH = solve_galerkin_exact(coarse, prob)
    uh = solve_galerkin_exact(fine, prob)
    EH = nonlinear_energy(coarse, prob, uH)
    Eh = nonlinear_energy(fine, prob, uh)
    assert Eh <= EH + 1e-12
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = np.zeros(coarse.n_dofs)
        z[coarse.free] = 0.3 * rng.standard_normal(coarse.n_free)
        v = uH + z
        gap = nonlinear_energy(coarse, prob, v) - EH
        d = energy_norm(coarse, prob, z) ** 2
        assert TEST_NL_ALPHA / 2 * d * (1 - 1e-8) <= gap
        assert gap <= TEST_NL_L / 2 * d * (1 + 1e-8)


def test_nonlinear_galerkin_fixed_point(square2):
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    prob = nonlinear_problem()
    u = solve_galerkin_exact(space, prob)
    res = (load_vector(space, prob)
           - nonlinear_form(space, prob, u))[space.free]
    assert np.linalg.norm(res) <= 1e-9


def _nonlinear_form_reference(space, prob, coeffs):
    # reference: the flux contracted with the physical basis gradients
    # (elements x points x local DOFs x 2) at each point
    from afem_lab.quadrature import triangle_rule
    pts, w = triangle_rule(2 * space.degree + 4)
    g = space.function_gradients(coeffs, pts)
    flux = prob.nonlinearity.a((g ** 2).sum(axis=2))[:, :, None] * g
    wdet = space.wdet(w)
    grad_tab = space.ref.table("grad", pts)[None] @ space.inv_jac[:, None]
    local = np.einsum("eqi,eqli,eq->el", flux, grad_tab, wdet)
    phys = space.physical_points(pts).reshape(-1, 2)
    c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
    u = space.function_values(coeffs, pts)
    local += np.einsum("eq,ql,eq->el", c * u, space.ref.table("eval", pts),
                       wdet)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.elem_dofs.ravel(), local.ravel())
    return out


def _smooth_field(space):
    x, y = space.dof_points.T
    return np.sin(2 * x + 1) * np.cos(3 * y) + x * y ** 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_nonlinear_form_matches_the_per_point_contraction(p):
    prob, mesh = zshape_nonlinear()
    assert prob.reaction is not None
    space = Space(uniform_refine(uniform_refine(mesh)), p)
    v = _smooth_field(space)
    ref = _nonlinear_form_reference(space, prob, v)
    err = np.abs(nonlinear_form(space, prob, v) - ref).max()
    assert err <= 1e-13 * np.abs(ref).max()


def _nonlinear_energy_reference(space, prob, coeffs):
    # reference: B(|grad v|^2) and c v^2 summed over every point of the rule
    from afem_lab.quadrature import triangle_rule
    pts, w = triangle_rule(2 * space.degree + 4)
    g = space.function_gradients(coeffs, pts)
    wdet = space.wdet(w)
    phys = space.physical_points(pts).reshape(-1, 2)
    c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
    u = space.function_values(coeffs, pts)
    E = 0.5 * (prob.nonlinearity.integral((g ** 2).sum(axis=2)) * wdet).sum()
    E += 0.5 * (c * u ** 2 * wdet).sum()
    return E - load_vector(space, prob) @ coeffs


@pytest.mark.parametrize("p", [1, 2, 3])
def test_nonlinear_energy_matches_the_per_point_sum(p):
    prob, mesh = zshape_nonlinear()
    space = Space(uniform_refine(uniform_refine(mesh)), p)
    v = _smooth_field(space)
    ref = _nonlinear_energy_reference(space, prob, v)
    assert abs(nonlinear_energy(space, prob, v) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("p", [1, 2])
def test_p1_nonlinearity_is_evaluated_once_per_element(p):
    # a P1 gradient is constant on each element, so a and its antiderivative
    # are read at one point per element; at p >= 2 at every point of the rule
    from dataclasses import replace
    from afem_lab.quadrature import triangle_rule
    prob, mesh = zshape_nonlinear()
    counts = {"a": 0, "integral": 0}

    def counted(name):
        fn = getattr(prob.nonlinearity, name)

        def wrapper(t):
            counts[name] += np.size(t)
            return fn(t)
        return wrapper

    prob = replace(prob, nonlinearity=replace(
        prob.nonlinearity, a=counted("a"), integral=counted("integral")))
    space = Space(uniform_refine(mesh), p)
    v = _smooth_field(space)
    nonlinear_form(space, prob, v)
    nonlinear_energy(space, prob, v)
    nq = 1 if p == 1 else len(triangle_rule(2 * p + 4)[1])
    assert counts == {"a": space.mesh.n_elements * nq,
                      "integral": space.mesh.n_elements * nq}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_nonlinear_form_peak_memory_has_no_local_dof_axis(p):
    # the traced peak of one call, in units of one (elements x points x 2)
    # float64 array, must not grow with the number of local DOFs; at p = 1
    # the flux has one point per element, so only the reaction term reads
    # the full rule
    import tracemalloc
    from afem_lab.quadrature import triangle_rule
    prob, mesh = zshape_nonlinear()
    for _ in range(3):
        mesh = uniform_refine(mesh)
    space = Space(mesh, p)
    v = _smooth_field(space)
    nonlinear_form(space, prob, v)  # builds the reference tables
    tracemalloc.start()
    try:
        nonlinear_form(space, prob, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nq = len(triangle_rule(2 * p + 4)[1])
    assert mesh.n_elements == 895
    units = 4.5 if p == 1 else 8
    assert peak <= units * mesh.n_elements * nq * 2 * 8


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
    assert np.allclose(u, exact(space.dof_points), atol=1e-9)


def test_p2_hessians_of_quadratic(square2):
    # v = x^2 + 3xy - 2y^2 has constant Hessian (2, 3, -4)
    from afem_lab.quadrature import triangle_rule
    rng = np.random.default_rng(11)
    mesh = uniform_refine(square2)
    mesh = refine(mesh, rng.choice(mesh.n_elements, 3, replace=False))
    space = Space(mesh, 2)
    x = space.dof_points
    v = x[:, 0] ** 2 + 3 * x[:, 0] * x[:, 1] - 2 * x[:, 1] ** 2
    pts, _ = triangle_rule(2)
    h = space.function_hessians(v, pts)
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


@pytest.mark.parametrize("name", ["kellogg", "zshape-nonlinear"])
def test_physical_points_equal_the_two_step_map(name):
    # the affine map as origin + xi J^T, written from the element vertices;
    # the one GEMM with the (xi, eta, 1) rows must give the same bits
    from afem_lab.fem import reference_element
    from afem_lab.quadrature import triangle_rule
    _, mesh = by_name(name)
    rng = np.random.default_rng(7)
    mesh = uniform_refine(mesh)
    for _ in range(3):
        mesh = refine(mesh, rng.choice(mesh.n_elements,
                                       mesh.n_elements // 4, replace=False))
    c = mesh.element_coords()
    J = np.stack([c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]], axis=2)
    space = Space(mesh, 1)
    point_sets = [reference_element(p).nodes for p in (1, 2, 3)]
    point_sets += [triangle_rule(2)[0], triangle_rule(6)[0],
                   np.full((1, 2), 1.0 / 3.0)]
    for pts in point_sets:
        expected = c[:, 0][:, None, :] + pts @ J.transpose(0, 2, 1)
        assert np.array_equal(space.physical_points(pts), expected)


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
    v = poly(space.dof_points)
    pts, _ = triangle_rule(2 * p + 2)
    x = space.physical_points(pts).reshape(-1, 2)
    shape = (space.mesh.n_elements, len(pts))
    # 1e-11 relative to the size of each field: the reference basis comes
    # from an inverted Vandermonde matrix, so rounding grows with p (about
    # 5e-11 absolute on the P4 Hessians here, with the earlier kernels too)
    fields = [(space.function_values(v, pts), [(0, 0)]),
              (space.function_gradients(v, pts), [(1, 0), (0, 1)]),
              (space.function_hessians(v, pts),
               [(2, 0), (1, 1), (0, 2)])]
    for got, derivs in fields:
        got = got.reshape(shape + (len(derivs),))
        exact = np.stack([poly(x, *d).reshape(shape) for d in derivs], -1)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(got - exact).max() <= 1e-11 * scale


def test_assembly_builds_no_hessians(square2, monkeypatch):
    # assembly reads the value and gradient tables of the reference element
    # only; the Hessian table is the estimator's
    from afem_lab import fem

    def no_hessians(self, pts):
        raise AssertionError("Hessian table built outside the estimator")

    monkeypatch.setattr(fem._RefElem, "hess", no_hessians)
    ref = fem.reference_element(2)
    monkeypatch.setattr(ref, "_tables", {})
    space = Space(distorted_mesh(square2, seed=0), 2)
    assemble_a(space, POISSON)
    load_vector(space, POISSON)
    kinds = {key[0] for key in ref._tables}
    assert {"eval", "grad"} <= kinds and "hess" not in kinds


def test_assemble_b_matches_per_element_quadrature(square2):
    # oracle: a plain loop over elements and quadrature points with the
    # physical basis gradients dN K, for a varying scalar diffusion plus
    # convection and reaction on a jittered mesh
    from afem_lab.quadrature import triangle_rule
    prob = ProblemDef(diffusion=lambda x: 1.0 + x[:, 0] ** 2 + x[:, 1],
                      convection=lambda x: np.column_stack(
                          [np.sin(x[:, 1]), 1.0 - x[:, 0]]),
                      reaction=lambda x: 2.0 + x[:, 0] * x[:, 1])
    for p in (1, 2, 3):
        space = Space(distorted_mesh(square2, seed=p), p)
        pts, w = triangle_rule(2 * p)
        N, dN = space.ref.eval(pts), space.ref.grad(pts)
        expected = np.zeros((space.n_dofs, space.n_dofs))
        for e, dofs in enumerate(space.elem_dofs):
            x = space.physical_points(pts)[e]
            a, b, c = prob.diffusion(x), prob.convection(x), prob.reaction(x)
            local = np.zeros((len(dofs), len(dofs)))
            for q in range(len(pts)):
                G = dN[q] @ space.inv_jac[e]
                local += w[q] * space.det[e] * (
                    a[q] * G @ G.T + np.outer(N[q], G @ b[q])
                    + c[q] * np.outer(N[q], N[q]))
            expected[np.ix_(dofs, dofs)] += local
        got = assemble_b(space, prob, reduced=False).toarray()
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


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
        assert red.nnz == red.count_nonzero()
    assert len(calls) == 2


def test_reduced_stiffness_holds_no_stored_zero():
    # assembly stores exact zeros for edges opposite two right angles; the
    # full matrix keeps them, the reduced one that the solvers multiply by
    # drops them
    prob, mesh = kellogg()
    for _ in range(6):
        mid = mesh.vertices[mesh.elements].mean(axis=1)
        mesh = refine(mesh, np.argsort(np.hypot(*mid.T), kind="stable")[:8])
    space = Space(mesh, 1)
    full = assemble_a(space, prob, reduced=False)
    red = assemble_a(space, prob)
    assert full.nnz > full.count_nonzero()
    assert red.nnz == red.count_nonzero()
    assert (red != full[space.free][:, space.free]).nnz == 0


def test_symmetric_b_form_is_the_cached_stiffness():
    # for b = a the full b-form is the stiffness matrix itself, not a copy,
    # and the reduced one is cut from it with its stored zeros
    prob, mesh = kellogg()
    space = Space(uniform_refine(mesh), 1)
    full = assemble_a(space, prob, reduced=False)
    assert assemble_b(space, prob, reduced=False) is full
    cut = full[space.free][:, space.free]
    red = assemble_b(space, prob)
    assert np.array_equal(red.indices, cut.indices)
    assert np.array_equal(red.data, cut.data)


def test_nonlinear_exact_solve_factors_once_per_call(monkeypatch):
    # the Zarantonello loop reuses one factorization of the reduced a-form,
    # made by the one exact-solve routine
    from afem_lab import fem
    calls = []
    for name in ("factorize", "splu"):
        fn = getattr(fem, name)
        monkeypatch.setattr(fem, name, lambda *a, fn=fn, name=name, **kw:
                            calls.append(name) or fn(*a, **kw))
    prob, mesh = zshape_nonlinear()
    space = Space(uniform_refine(mesh), 1)
    for n in (1, 2):
        solve_galerkin_exact(space, prob)
        assert calls == ["factorize", "splu"] * n


def _indicator_mesh(mesh):
    for r in range(4):
        mesh = refine(mesh, np.arange(r % 2, mesh.n_elements, 3))
    return mesh


SYMMETRIC_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      relax=1, panel_size=1,
                      options=dict(SymmetricMode=True))


def _recording_splu(monkeypatch):
    # the keywords of each splu call that factorize makes
    from afem_lab import fem
    seen = []
    splu = fem.splu
    monkeypatch.setattr(fem, "splu",
                        lambda M, **kw: seen.append(kw) or splu(M, **kw))
    return seen


def _relative_residual(M, solve):
    rhs = np.cos(np.arange(M.shape[0]))
    return np.linalg.norm(rhs - M @ solve(rhs)) / np.linalg.norm(rhs)


@pytest.mark.parametrize("name, form, keywords", [
    ("kellogg", assemble_a, SYMMETRIC_SPLU),
    ("lshape-convection", assemble_b, {})])
def test_factorize_takes_the_symmetric_path_for_symmetric_matrices(
        monkeypatch, name, form, keywords):
    # the exact stiffness is ordered on A + A' without pivoting; the
    # convection b-form keeps COLAMD with partial pivoting
    seen = _recording_splu(monkeypatch)
    prob, mesh = by_name(name)
    M = form(Space(_indicator_mesh(mesh), 2), prob)
    solve = factorize(M)
    assert seen == [keywords]
    assert _relative_residual(M, solve) <= 1e-12


def test_factorize_takes_the_general_path_one_ulp_off_symmetry(monkeypatch):
    seen = _recording_splu(monkeypatch)
    prob, mesh = kellogg()
    M = assemble_a(Space(_indicator_mesh(mesh), 2), prob).copy()
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    k = np.nonzero(M.indices != row)[0][0]
    M.data[k] = np.nextafter(M.data[k], np.inf)
    solve = factorize(M)
    assert seen == [{}]
    assert _relative_residual(M, solve) <= 1e-12


def test_factorize_rejects_the_singular_full_stiffness(monkeypatch):
    # constants span the kernel of the stiffness without Dirichlet rows; the
    # no-pivoting path must still report it
    seen = _recording_splu(monkeypatch)
    prob, mesh = kellogg()
    M = assemble_a(Space(_indicator_mesh(mesh), 2), prob, reduced=False)
    with pytest.raises(SolverError):
        factorize(M)(np.cos(np.arange(M.shape[0])))
    assert seen == [SYMMETRIC_SPLU]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_dof_points_equal_the_row_wise_scatter(p):
    # the complex128 scatter writes each point as the (x, y) row copy would,
    # the last element to hold a DOF winning, bit for bit
    prob, mesh = kellogg()
    space = Space(_indicator_mesh(mesh), p)
    ref = np.zeros((space.n_dofs, 2))
    ref[space.elem_dofs.ravel()] = \
        space.physical_points(space.ref.nodes).reshape(-1, 2)
    assert np.array_equal(space.dof_points.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("name, p", [
    ("kellogg", 2), ("kellogg", 3), ("lshape-convection", 2),
    ("zshape-nonlinear", 1), ("zshape-nonlinear", 2),
    ("kellogg", 1), ("lshape-convection", 1)])
def test_indicators_match_recorded_values(name, p):
    # recorded with earlier kernels on the same fixed mesh and field (the
    # edge gradients at mapped points among them); the contraction order
    # changed, the values must not
    import json
    from pathlib import Path
    from afem_lab.problems import by_name
    recorded = json.loads((Path(__file__).parent / "data"
                           / "indicators_reference.json").read_text())
    prob, mesh = by_name(name)
    space = Space(_indicator_mesh(mesh), p)
    eta2 = compute_indicators(space, _smooth_field(space), prob).per_element
    ref = np.array(recorded[f"{name}-p{p}"])
    assert eta2.shape == ref.shape
    assert np.all(np.abs(eta2 - ref) <= 1e-12 * np.abs(ref))


# ---------------------------------------------------------------------------
# the element kernels as first written, on numpy's stacked products of tiny
# matrices (one BLAS call per element): the references of the kernels that
# are written on K's entries and of the point map's 2-D GEMM


def _stacked_points(space, pts):
    return np.column_stack([pts, np.ones(len(pts))]) @ space.affine


def _stacked_gradients(space, coeffs, pts):
    return contract(coeffs[space.elem_dofs],
                    space.ref.table("grad", pts)) @ space.inv_jac


def _stacked_local_stiffness(space, prob):
    pts, w = triangle_rule(2 * space.degree)
    a = _diffusion_at(prob, _stacked_points(space, pts).reshape(-1, 2))
    K = space.inv_jac
    metric = (space.wdet(w) * a.reshape(len(K), -1))[:, :, None, None] \
        * (K @ K.transpose(0, 2, 1))[:, None]
    nl = space.ref.n_local
    local = (metric.reshape(len(K), -1)
             @ space.ref.table("stiffness", pts)).reshape(-1, nl, nl)
    return 0.5 * (local + local.transpose(0, 2, 1))


def _stacked_local_lower_order(space, prob):
    pts, w = triangle_rule(2 * space.degree)
    phys = _stacked_points(space, pts).reshape(-1, 2)
    ne, nl = space.mesh.n_elements, space.ref.n_local
    wdet = space.wdet(w)
    bvec = np.asarray(prob.convection(phys)).reshape(ne, -1, 2)
    bref = (bvec @ space.inv_jac.transpose(0, 2, 1)) * wdet[:, :, None]
    local = bref.reshape(ne, -1) @ space.ref.table("convection", pts)
    c = np.asarray(prob.reaction(phys)).reshape(ne, -1)
    local += (c * wdet) @ space.ref.table("mass", pts)
    return local.reshape(ne, nl, nl)


def _stacked_nonlinear_form(space, prob, coeffs):
    nl = prob.nonlinearity
    pts, w = triangle_rule(2 * space.degree + 4)
    ne, n_local = space.mesh.n_elements, space.ref.n_local
    gpts, gw = _gradient_rule(space, pts, w)
    g = _stacked_gradients(space, coeffs, gpts)
    flux = (nl.a((g ** 2).sum(axis=2)) * space.wdet(gw))[:, :, None] * g
    dN = space.ref.table("grad", gpts).transpose(0, 2, 1).reshape(-1, n_local)
    local = (flux @ space.inv_jac.transpose(0, 2, 1)).reshape(ne, -1) @ dN
    phys = _stacked_points(space, pts).reshape(-1, 2)
    c = np.asarray(prob.reaction(phys)).reshape(ne, -1)
    u = space.function_values(coeffs, pts)
    local += (c * u * space.wdet(w)) @ space.ref.table("eval", pts)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.elem_dofs.ravel(), local.ravel())
    return out


def _einsum_prolongation(coarse, fine):
    owner = np.full(fine.n_dofs, -1)
    owner[fine.elem_dofs] = np.arange(fine.mesh.n_elements)[:, None]
    held = np.flatnonzero(owner >= 0)
    anc = ancestor_map(fine.mesh, coarse.mesh)[owner[held]]
    loc = np.einsum("dij,dj->di", coarse.inv_jac[anc],
                    fine.dof_points[held] - coarse.origin[anc])
    vals = coarse.ref.eval(loc)
    vals[np.abs(vals) < 1e-13] = 0.0
    rows = np.repeat(held, coarse.ref.n_local)
    cols = coarse.elem_dofs[anc].ravel()
    P = sp.coo_matrix((vals.ravel(), (rows, cols)),
                      shape=(fine.n_dofs, coarse.n_dofs)).tocsr()
    P.eliminate_zeros()
    return P


def _point_sets(p):
    return [reference_element(p).nodes, triangle_rule(2 * p)[0],
            triangle_rule(2 * p + 4)[0], np.full((1, 2), 1.0 / 3.0)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_point_map_equals_the_stacked_product(kernel_mesh, p):
    # the zeros of kron(X^T, I_2) add nothing, so the 2-D GEMM gives the
    # stacked product's bits on any geometry: the NVB mesh, the jittered
    # one and random affine data
    _, mesh, jittered = kernel_mesh
    for m in (mesh, jittered):
        space = Space(m, p)
        for pts in _point_sets(p):
            assert space.physical_points(pts).tobytes() \
                == _stacked_points(space, pts).tobytes()
    affine = np.random.default_rng(p).standard_normal((300, 3, 2))
    for pts in _point_sets(p):
        got = affine.reshape(300, 6) @ reference_element(p).table(
            "point_map", pts)
        want = np.column_stack([pts, np.ones(len(pts))]) @ affine
        assert got.reshape(want.shape).tobytes() == want.tobytes()


def _k_product_pairs(space, prob, v):
    """(kernel, stacked reference) for each kernel that multiplies by K."""
    nonlinear = zshape_nonlinear()[0]
    convection = by_name("lshape-convection")[0]
    pts = triangle_rule(2 * space.degree + 2)[0]
    centroid = np.full((1, 2), 1.0 / 3.0)  # one point: the sums on K
    return [
        (space.function_gradients(v, pts), _stacked_gradients(space, v, pts)),
        (space.function_gradients(v, centroid),
         _stacked_gradients(space, v, centroid)),
        (_local_stiffness(space, prob), _stacked_local_stiffness(space, prob)),
        (_local_lower_order(space, convection),
         _stacked_local_lower_order(space, convection)),
        (nonlinear_form(space, nonlinear, v),
         _stacked_nonlinear_form(space, nonlinear, v))]


# two-term sums v0 K_0j + v1 K_1j, rounded once per product or fused by
# BLAS, differ by an ulp of the larger term; carried through the element
# GEMMs the kernels stay within this many ulps of their largest entry
K_PRODUCT_ULPS = 8


@pytest.mark.parametrize("p", [1, 2, 3])
def test_k_products_equal_the_stacked_products(kernel_mesh, p):
    # NVB keeps K's entries at signed powers of two, so on the NVB mesh each
    # product is exact and every kernel equals its stacked reference bit for
    # bit; on the jittered mesh within K_PRODUCT_ULPS.  numpy's einsum fuses
    # no multiply-add, so the prolongation equals it on both meshes
    prob, mesh, jittered = kernel_mesh
    rng = np.random.default_rng(p)
    for m, ulps in ((mesh, 0), (jittered, K_PRODUCT_ULPS)):
        space = Space(m, p)
        for got, want in _k_product_pairs(space, prob, _smooth_field(space)):
            assert got.shape == want.shape
            if ulps == 0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.abs(got - want).max() \
                    <= ulps * np.finfo(float).eps * np.abs(want).max()
        fine = Space(refine(m, rng.choice(m.n_elements, m.n_elements // 3,
                                          replace=False)), p)
        assert _same_csr(prolongation_matrix(space, fine),
                         _einsum_prolongation(space, fine))


def _same_csr(got, want):
    return got.shape == want.shape and all(
        a.tobytes() == b.tobytes() for a, b in (
            (got.indptr, want.indptr), (got.indices, want.indices),
            (got.data, want.data)))
