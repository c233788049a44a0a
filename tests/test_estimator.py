import numpy as np
import pytest

from afem_lab import estimator
from afem_lab.estimator import (Q_RED, Indicators, compute_indicators,
                                estimator_total)
from afem_lab.fem import (ProblemDef, Space, contract, k_product,
                          prolongation_matrix, solve_galerkin_exact)
from afem_lab.mesh import refine, uniform_refine
from afem_lab.problems import by_name
from afem_lab.quadrature import triangle_rule

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


def _gradients_reference(space, coeffs, table, elems, stacked):
    """grad v of the elements ``elems`` from a reference gradient table: if
    ``stacked``, by numpy's stacked product with K, one BLAS call per
    element, else by ``fem.k_product``."""
    g = contract(coeffs[space.elem_dofs[elems]], table)
    K = space.inv_jac[elems]
    return g @ K if stacked else k_product(g, K)


def _indicators_reference(space, coeffs, prob, stacked):
    """``compute_indicators`` as first written: every short sum by
    ``.sum(axis=...)``, the edge rule's among them, and the gradients by
    ``_gradients_reference``."""
    every = np.arange(space.mesh.n_elements)
    nq = space.degree + 4
    geom = estimator._edge_geometry(space, nq)
    # volume terms
    pts, w = triangle_rule(2 * space.degree + (4 if prob.is_nonlinear else 2))
    flat = space.physical_points(pts).reshape(-1, 2)
    shape = (space.mesh.n_elements, len(w))
    g = _gradients_reference(space, coeffs, space.ref.table("grad", pts),
                             every, stacked)
    R = np.zeros(shape)
    if space.degree > 1:
        h = space.function_hessians(coeffs, pts)
        lap = h[..., 0] + h[..., 2]
        if prob.is_nonlinear:
            nl = prob.nonlinearity
            t = g[..., 0] ** 2 + g[..., 1] ** 2
            Hg = np.stack([h[..., 0] * g[..., 0] + h[..., 1] * g[..., 1],
                           h[..., 1] * g[..., 0] + h[..., 2] * g[..., 1]],
                          axis=-1)
            R = R - (2.0 * nl.da(t) * (Hg * g).sum(axis=-1) + nl.a(t) * lap)
        else:
            R = R - estimator._element_diffusion(space, prob)[:, None] * lap
    if prob.convection is not None and not prob.is_nonlinear:
        bv = np.asarray(prob.convection(flat)).reshape(shape + (2,))
        R = R + (bv * g).sum(axis=-1)
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(flat)).reshape(shape)
        R = R + c * space.function_values(coeffs, pts)
    if prob.load is not None:
        R = R - np.asarray(prob.load(flat)).reshape(shape)
    eta2 = 0.5 * space.det * (R ** 2 * space.wdet(w)).sum(axis=1)
    # interior edges
    if space.degree == 1:
        flux = estimator._flux(space, prob, _gradients_reference(
            space, coeffs, space.ref.table("grad", np.zeros((1, 2))), every,
            stacked), every)
        f0, f1 = (flux[e] for e in geom["inner_owners"])
    else:
        f0, f1 = [], []
        tables = space.ref.table("edge_grad", geom["t"])
        for f, e, pair in zip((f0, f1), geom["inner_owners"],
                              geom["inner_pair"]):
            grads = np.empty((len(e), nq, 2))
            for k, table in enumerate(tables):
                sel = pair == k
                grads[sel] = _gradients_reference(space, coeffs, table,
                                                  e[sel], stacked)
            f.append(estimator._flux(space, prob, grads, e))
        f0, f1 = f0[0], f1[0]
    n, df = geom["inner_normals"], f0 - f1
    jump = df[..., 0] * n[:, None, 0] + df[..., 1] * n[:, None, 1]
    integral = (jump ** 2 * geom["w"][None, :]).sum(axis=1) \
        * geom["inner_lengths"]
    areas = 0.5 * space.det
    for e in geom["inner_owners"]:
        np.add.at(eta2, e, np.sqrt(areas[e]) * integral)
    # boundary data oscillation
    if prob.dirichlet is not None:
        e = geom["owners"][geom["dirichlet"], 0]
        np.add.at(eta2, e, np.sqrt(areas[e]) * estimator._boundary_oscillation(
            space, prob, geom))
    return eta2


# the indicators sum squares of fluxes whose K products move by an ulp or
# two on a jittered mesh; they stay within this many ulps of the largest
INDICATOR_ULPS = 16


@pytest.mark.parametrize("p", [1, 2, 3])
def test_indicators_equal_the_first_kernels(kernel_mesh, p):
    # on the NVB mesh bit for bit with numpy's stacked K products and row
    # sums; on the jittered mesh bit for bit with the row sums, the edge
    # rule's among them, and within INDICATOR_ULPS with the stacked products
    prob, mesh, jittered = kernel_mesh
    for m in (mesh, jittered):
        space = Space(m, p)
        v = smooth_field(space)
        got = compute_indicators(space, v, prob).per_element
        sums = _indicators_reference(space, v, prob, stacked=False)
        assert got.tobytes() == sums.tobytes()
        stacked = _indicators_reference(space, v, prob, stacked=True)
        if m is mesh:
            assert got.tobytes() == stacked.tobytes()
        else:
            assert np.abs(got - stacked).max() \
                <= INDICATOR_ULPS * np.finfo(float).eps * got.max()


@pytest.mark.parametrize("nq", [5, 6, 7])
def test_edge_rule_sum_is_the_row_sum(nq):
    # numpy sums fewer than 8 terms of a row left to right; the estimator
    # sums the same terms by columns, for one jump per edge (p = 1) or one
    # per point, bit for bit on random data
    rng = np.random.default_rng(nq)
    w = rng.random(nq)
    for jump in (rng.standard_normal((4000, 1)),
                 rng.standard_normal((4000, nq))):
        sq = np.broadcast_to(jump ** 2, (len(jump), nq))
        cols = sq[:, 0] * w[0]
        for k in range(1, nq):
            cols += sq[:, k] * w[k]
        assert cols.tobytes() == (jump ** 2 * w[None, :]).sum(axis=1).tobytes()
