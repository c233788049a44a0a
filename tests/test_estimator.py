import numpy as np
import pytest

from afem_lab.estimator import (Q_RED, Indicators, compute_indicators,
                                estimator_total)
from afem_lab.fem import (ProblemDef, Space, prolongation_matrix,
                          solve_galerkin_exact)
from afem_lab.mesh import refine, uniform_refine
from afem_lab.problems import by_name

POISSON = ProblemDef(load=lambda x: np.ones(len(x)))


def smooth_field(space):
    """The nodal interpolant of sin(x) + y^2 on the space."""
    x = space.dof_points
    return np.sin(x[:, 0]) + x[:, 1] ** 2


def test_zero_function_zero_data_gives_zero(square2):
    space = Space(square2, 1)
    ind = compute_indicators(space, np.zeros(space.n_dofs), ProblemDef())
    assert np.allclose(ind.per_element, 0.0)
    assert ind.total == 0.0


def test_p1_constant_load_volume_term(square2):
    # P1, f = 1, v = 0: residual is exactly -1, so the volume term is |T|^2
    # and there are no jumps; indicators equal |T|^2 elementwise
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    ind = compute_indicators(space, np.zeros(space.n_dofs), POISSON)
    assert np.allclose(ind.per_element, mesh.areas() ** 2, rtol=1e-13)


def test_reduction_axiom_a2(square2):
    # eta_fine(new elements, v) <= 2^(-1/4) eta_coarse(refined elements, v)
    # for the same function v carried to the refined mesh
    rng = np.random.default_rng(7)
    mesh = uniform_refine(square2)
    space = Space(mesh, 1)
    u = solve_galerkin_exact(space, POISSON)
    for _ in range(4):
        marked = set(rng.choice(mesh.n_elements,
                                max(1, mesh.n_elements // 4), replace=False))
        fine_mesh = refine(mesh, marked)
        fine = Space(fine_mesh, 1)
        uf = prolongation_matrix(space, fine) @ u
        ind_c = compute_indicators(space, u, POISSON)
        ind_f = compute_indicators(fine, uf, POISSON)
        refined = np.nonzero(np.bincount(
            fine_mesh.parent_elements, minlength=mesh.n_elements) > 1)[0]
        new_elems = np.nonzero(np.isin(
            fine_mesh.parent_elements, refined))[0]
        lhs = estimator_total(ind_f, new_elems)
        rhs = estimator_total(ind_c, refined)
        assert lhs <= Q_RED * rhs * (1 + 1e-6)
        mesh, space, u = fine_mesh, fine, solve_galerkin_exact(fine, POISSON)


def test_p2_volume_residual_of_quadratic(square2):
    # the interpolant of x^2 is the exact global quadratic: no jumps, and the
    # volume residual is -lap(v) - f = -4 exactly, so eta(T)^2 = 16 |T|^2
    rng = np.random.default_rng(3)
    mesh = uniform_refine(square2)
    mesh = refine(mesh, rng.choice(mesh.n_elements, 3, replace=False))
    space = Space(mesh, 2)
    prob = ProblemDef(load=lambda x: np.full(len(x), 2.0))
    v = space.dof_points[:, 0] ** 2
    ind = compute_indicators(space, v, prob)
    assert np.allclose(ind.per_element, 16.0 * mesh.areas() ** 2, rtol=1e-12)


def test_estimator_total_subsets(square2):
    space = Space(uniform_refine(square2), 1)
    u = solve_galerkin_exact(space, POISSON)
    ind = compute_indicators(space, u, POISSON)
    n = len(ind.per_element)
    assert estimator_total(ind, []) == 0.0
    assert np.isclose(estimator_total(ind), np.sqrt(ind.total2))
    left, right = range(0, n // 2), range(n // 2, n)
    assert np.isclose(estimator_total(ind, left) ** 2
                      + estimator_total(ind, right) ** 2,
                      ind.total2, rtol=1e-12)
    with pytest.raises(IndexError):
        estimator_total(ind, [n + 3])


def test_estimator_total_rejects_boolean_masks():
    # a mask read as indices would sum eta(0)^2 twice and eta(1)^2 once
    ind = Indicators([4.0, 9.0, 16.0])
    assert estimator_total(ind, np.array([2])) == 4.0
    with pytest.raises(TypeError):
        estimator_total(ind, np.array([False, False, True]))


def test_p1_indicators_build_no_second_order_tables(monkeypatch):
    # at p = 1 the gradient is constant per element and the Hessian is zero:
    # neither the per-edge gradient tables nor the Hessian table is built
    from afem_lab import fem

    def forbidden(self, pts):
        raise AssertionError("second-order table built at p = 1")

    monkeypatch.setattr(fem._RefElem, "edge_grad", forbidden)
    monkeypatch.setattr(fem._RefElem, "hess", forbidden)
    ref = fem.reference_element(1)
    monkeypatch.setattr(ref, "_tables", {})
    for name in ("kellogg", "lshape-convection", "zshape-nonlinear"):
        prob, mesh = by_name(name)
        space = Space(uniform_refine(mesh), 1)
        v = smooth_field(space)
        assert np.all(compute_indicators(space, v, prob).per_element > 0)
    kinds = {key[0] for key in ref._tables}
    assert "grad" in kinds and not kinds & {"edge_grad", "hess"}


@pytest.mark.parametrize("p", [1, 2])
def test_diffusion_read_once_per_element(monkeypatch, p):
    # the estimator takes the diffusion as constant inside each element: it
    # reads it at the centroids, once per space and problem object
    import dataclasses

    from afem_lab import estimator
    reads = []

    def counted(prob, pts, real=estimator._diffusion_at):
        reads.append(np.array(pts))
        return real(prob, pts)

    monkeypatch.setattr(estimator, "_diffusion_at", counted)
    prob, mesh = by_name("kellogg")
    mesh = uniform_refine(mesh)
    space = Space(mesh, p)
    v = smooth_field(space)
    for problem in (prob, prob, dataclasses.replace(prob)):
        compute_indicators(space, v, problem)
    assert len(reads) == 2
    centroids = mesh.element_coords().mean(axis=1)
    for pts in reads:
        assert pts.shape == (mesh.n_elements, 2)
        assert np.allclose(pts, centroids, rtol=0, atol=1e-14)


def test_indicator_caches_follow_the_problem_object(monkeypatch):
    # the element diffusion and the boundary oscillation are built once per
    # space and problem object; another problem on the same space builds
    # its own and gets the indicators a fresh space gives
    import dataclasses

    from afem_lab import estimator
    calls = {"_boundary_oscillation": 0, "_diffusion_at": 0}
    for name in calls:
        def counted(*args, real=getattr(estimator, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(estimator, name, counted)
    prob, mesh = by_name("kellogg")
    other = dataclasses.replace(
        prob, diffusion=lambda x: 3.0 * prob.diffusion(x),
        dirichlet=lambda x: np.sin(3 * x[:, 0]) * x[:, 1] ** 2,
        exact_solution=None)
    mesh = uniform_refine(mesh)
    space = Space(mesh, 1)
    first = compute_indicators(space, smooth_field(space), prob).per_element
    assert list(calls.values()) == [1, 1]
    again = compute_indicators(space, smooth_field(space), prob).per_element
    assert list(calls.values()) == [1, 1]
    assert again.tobytes() == first.tobytes()
    switched = compute_indicators(space, smooth_field(space),
                                  other).per_element
    assert list(calls.values()) == [2, 2]
    fresh = Space(mesh, 1)
    assert switched.tobytes() == compute_indicators(
        fresh, smooth_field(fresh), other).per_element.tobytes()
    assert not np.allclose(switched, first)


def test_stability_a1_recorded_ratio(square2):
    # |eta(S, v) - eta(S, w)| <= C |||v - w||| with a moderate recorded C
    from afem_lab.fem import energy_norm
    mesh = uniform_refine(uniform_refine(square2))
    space = Space(mesh, 1)
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(10):
        v = np.zeros(space.n_dofs)
        w = np.zeros(space.n_dofs)
        v[space.free] = rng.standard_normal(space.n_free)
        w[space.free] = rng.standard_normal(space.n_free)
        iv = compute_indicators(space, v, POISSON)
        iw = compute_indicators(space, w, POISSON)
        num = abs(iv.total - iw.total)
        den = energy_norm(space, POISSON, v - w)
        ratios.append(num / den)
    assert max(ratios) < 50.0


def test_dirichlet_oscillation_contributes(square2):
    # inhomogeneous data with nonpolynomial trace: boundary elements must
    # pick up an oscillation term even for the exact discrete solution of a
    # problem with zero load
    space = Space(square2, 1)
    prob = ProblemDef(dirichlet=lambda x: np.sin(3 * x[:, 0]) + x[:, 1] ** 3)
    u = solve_galerkin_exact(space, prob)
    ind = compute_indicators(space, u, prob)
    assert ind.total > 0.0


def test_oscillation_vanishes_for_linear_data(square2):
    # du_D/ds of an affine function is edgewise constant = its own projection
    space = Space(square2, 1)
    prob = ProblemDef(dirichlet=lambda x: 2.0 * x[:, 0] - x[:, 1])
    u = prob.dirichlet(space.dof_points)
    ind = compute_indicators(space, u, prob)
    assert ind.total <= 1e-10


def test_interior_edge_data_match_a_loop_over_local_edges():
    # the owners of each interior edge, and the (local edge, direction) of
    # each owner that picks its edge-gradient table, from a loop over every
    # element's local edges in the order the edge tables take them
    from afem_lab.estimator import _edge_geometry
    from afem_lab.mesh import Mesh
    rng = np.random.default_rng(11)
    _, mesh = by_name("kellogg")
    for _ in range(5):
        mesh = refine(mesh, rng.choice(mesh.n_elements,
                                       max(1, mesh.n_elements // 4),
                                       replace=False))
        # jittered, so that lengths and normals round as they do in general
        mesh = Mesh(mesh.vertices + 1e-4 * rng.random(mesh.vertices.shape),
                    mesh.elements, mesh.boundary_edges)
        edges = mesh.edge_tables()[0]
        index = {tuple(e): i for i, e in enumerate(edges.tolist())}
        owners = [[] for _ in edges]
        for k in range(3):
            for elem, tri in enumerate(mesh.elements.tolist()):
                a, b = tri[k], tri[(k + 1) % 3]
                owners[index[min(a, b), max(a, b)]].append(
                    (elem, 2 * k + (a > b)))
        inner = [pair for pair in owners if len(pair) == 2]
        interior = [i for i, pair in enumerate(owners) if len(pair) == 2]
        assert len(inner) + len(mesh.boundary_edges) == len(edges)
        for p in (1, 2):
            geom = _edge_geometry(Space(mesh, p), p + 4)
            for side in (0, 1):
                assert geom["inner_owners"][side].tolist() == \
                    [pair[side][0] for pair in inner]
                if p == 2:
                    assert geom["inner_pair"][side].tolist() == \
                        [pair[side][1] for pair in inner]
            assert (p == 2) == ("inner_pair" in geom)
            # lengths and unit normals as the full-edge formulas give them
            d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
            lengths = np.linalg.norm(d, axis=1)
            normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
            assert geom["inner_lengths"].tobytes() == \
                lengths[interior].tobytes()
            assert geom["inner_normals"].tobytes() == \
                normals[interior].tobytes()


@pytest.mark.parametrize("p", [1, 2])
def test_edge_data_stay_with_their_space(p):
    # the edge data kept for one space never serve another: after the
    # coarse space and another degree on the same mesh were estimated, the
    # indicators equal those of a fresh space on a fresh copy of the mesh
    from afem_lab.mesh import Mesh
    rng = np.random.default_rng(2)
    prob, mesh = by_name("kellogg")
    space = Space(mesh, p)
    compute_indicators(space, smooth_field(space), prob)
    for _ in range(3):
        mesh = refine(mesh, rng.choice(mesh.n_elements,
                                       max(1, mesh.n_elements // 3),
                                       replace=False))
        other = Space(mesh, 3 - p)
        compute_indicators(other, smooth_field(other), prob)
        space = Space(mesh, p)
        got = compute_indicators(space, smooth_field(space), prob)
        twin = Space(Mesh(mesh.vertices, mesh.elements, mesh.boundary_edges),
                     p)
        want = compute_indicators(twin, smooth_field(twin), prob)
        assert got.per_element.tobytes() == want.per_element.tobytes()
