import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem_lab.mesh import (Mesh, ancestor_map, check_conforming, refine,
                           uniform_refine)


def barycentric(tri_coords, pts):
    """Barycentric coordinates of pts w.r.t. the triangle (oracle helper)."""
    a, b, c = tri_coords
    T = np.column_stack([b - a, c - a])
    lam = np.linalg.solve(T, (pts - a).T).T
    return np.column_stack([1 - lam.sum(axis=1), lam])


def test_refine_both_marked_gives_four(square2):
    fine = refine(square2, {0, 1})
    assert fine.n_elements == 4
    assert check_conforming(fine)
    # hand enumeration: one new vertex, the diagonal midpoint
    assert fine.n_vertices == 5
    assert np.allclose(fine.vertices[4], [0.5, 0.5])
    assert (fine.generation == 1).all()


def test_refine_empty_is_noop(square2):
    assert refine(square2, set()) is square2


def test_refine_single_mark_forces_neighbor(square2):
    # closure oracle by brute force on the 2-element mesh: marking element 0
    # bisects the shared diagonal, so element 1 must split too
    fine = refine(square2, {0})
    assert fine.n_elements == 4
    assert check_conforming(fine)


def test_refine_rejects_bad_index(square2):
    with pytest.raises(IndexError):
        refine(square2, {0, 7})


def test_uniform_refine_counts_and_generation(square2):
    fine = uniform_refine(square2)
    assert fine.n_elements == 8
    assert check_conforming(fine)
    assert (fine.generation == 2).all()


def test_refine_all_growth_factor_bounds(square2):
    mesh = square2
    for _ in range(4):
        nxt = refine(mesh, np.arange(mesh.n_elements))
        factor = nxt.n_elements / mesh.n_elements
        assert 2.0 <= factor <= 4.0
        mesh = nxt


def test_check_conforming_detects_hanging_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    a, b, c, d, m = range(5)
    elements = np.array([[c, a, b], [a, m, d], [m, c, d]])
    boundary = np.array([[a, b, 0], [b, c, 0], [c, d, 0], [d, a, 0]])
    bad = Mesh(verts, elements, boundary)
    assert not check_conforming(bad)


def test_check_conforming_detects_negative_orientation(square2):
    flipped = square2.elements.copy()
    flipped[0] = flipped[0][[0, 2, 1]]
    bad = Mesh(square2.vertices, flipped, square2.boundary_edges)
    assert not check_conforming(bad)


def test_refine_output_conforming_on_deep_random_refinements(square2):
    rng = np.random.default_rng(3)
    mesh = square2
    for _ in range(8):
        k = rng.integers(1, mesh.n_elements + 1)
        marked = rng.choice(mesh.n_elements, size=k, replace=False)
        mesh = refine(mesh, marked)
        assert check_conforming(mesh)
    assert mesh.n_elements > 50


def test_nestedness(square2):
    rng = np.random.default_rng(5)
    mesh = square2
    for _ in range(4):
        marked = rng.choice(mesh.n_elements,
                            size=max(1, mesh.n_elements // 3), replace=False)
        mesh = refine(mesh, marked)
    amap = ancestor_map(mesh, square2)
    coarse_coords = square2.element_coords()
    for i in range(mesh.n_elements):
        child = mesh.vertices[mesh.elements[i]]
        lam = barycentric(coarse_coords[amap[i]], child)
        assert (lam > -1e-12).all() and (lam < 1 + 1e-12).all()


def test_monotone_minimality_and_overlay_tracking(square2):
    rng = np.random.default_rng(11)
    mesh = uniform_refine(square2)
    overlay = []
    for _ in range(20):
        k = rng.integers(1, mesh.n_elements + 1)
        a_set = rng.choice(mesh.n_elements, size=k, replace=False)
        b_size = rng.integers(1, k + 1)
        b_set = rng.choice(a_set, size=b_size, replace=False)
        na = refine(mesh, a_set).n_elements
        nb = refine(mesh, b_set).n_elements
        assert nb <= na
        # overlay sanity, tracked loosely: growth stays proportional to the
        # number of marked elements on this family
        overlay.append((na - mesh.n_elements) / len(a_set))
    assert max(overlay) <= 12.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_idempotence_random_marks(data):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[2, 0, 1], [0, 2, 3]])
    boundary = np.array([[0, 1, 0], [1, 2, 0], [2, 3, 0], [3, 0, 0]])
    mesh = Mesh(verts, elements, boundary)
    for _ in range(data.draw(st.integers(1, 5))):
        marked = data.draw(st.sets(
            st.integers(0, mesh.n_elements - 1), min_size=1))
        mesh = refine(mesh, marked)
        assert check_conforming(mesh)


def test_shape_regularity_floor(square2):
    # NVB produces finitely many similarity classes; the minimum angle of any
    # descendant should never drop below the floor seen after a few uniform
    # refinements of the initial mesh
    floor_mesh = uniform_refine(uniform_refine(uniform_refine(square2)))
    floor = floor_mesh.min_angle()
    rng = np.random.default_rng(17)
    mesh = square2
    for _ in range(7):
        marked = rng.choice(mesh.n_elements,
                            size=max(1, mesh.n_elements // 4), replace=False)
        mesh = refine(mesh, marked)
    assert mesh.min_angle() >= floor - 1e-12


def test_dump_load_roundtrip(square2):
    mesh = refine(square2, {0})
    text = mesh.dump()
    assert text.startswith("afem-mesh v1\n")
    back = Mesh.load(io.StringIO(text))
    assert np.array_equal(back.elements, mesh.elements)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(back.generation, mesh.generation)
    assert check_conforming(back)
