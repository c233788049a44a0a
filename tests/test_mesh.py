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


def test_refine_rejects_masks_and_non_integer_marks():
    # a mask read as indices would bisect elements 0 and 1, not element 15
    from afem_lab.problems import by_name
    _, mesh = by_name("kellogg")
    mask = np.zeros(mesh.n_elements, dtype=bool)
    mask[15] = True
    for marked in (mask, list(mask), [1.5], np.array([15.0])):
        with pytest.raises(TypeError):
            refine(mesh, marked)
    assert refine(mesh, np.nonzero(mask)[0]).n_elements == 18


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


@pytest.mark.parametrize("row", [[1, 0, 0], [1, 3, 0], [2, 0, 0]],
                         ids=["listed-twice", "not-an-edge", "interior"])
def test_check_conforming_rejects_bad_boundary_edge(square2, row):
    assert check_conforming(square2)
    bad = Mesh(square2.vertices, square2.elements,
               np.vstack([square2.boundary_edges, [row]]))
    assert not check_conforming(bad)


def test_check_conforming_rejects_directed_edge_used_twice():
    # (a, b, c) and (a, b, d) both run a -> b and overlap; the edge counts and
    # the boundary alone would pass
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    a, b, c, d = range(4)
    elements = np.array([[a, b, c], [a, b, d]])
    boundary = np.array([[b, c, 0], [c, a, 0], [b, d, 0], [d, a, 0]])
    assert not check_conforming(Mesh(verts, elements, boundary))


def test_check_conforming_rejects_edge_in_three_elements():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    a, b, c, d, e = range(5)
    elements = np.array([[a, b, c], [b, a, d], [a, b, e]])
    boundary = np.array([[b, c, 0], [c, a, 0], [a, d, 0], [d, b, 0],
                         [b, e, 0], [e, a, 0]])
    assert not check_conforming(Mesh(verts, elements, boundary))


def test_mesh_rejects_element_vertex_out_of_range():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"element vertex index outside"):
        Mesh(verts, [[0, 1, 7]], [])


def test_mesh_rejects_boundary_vertex_out_of_range():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"boundary edge vertex index"):
        Mesh(verts, [[0, 1, 2]], [[0, -1, 0]])


def _refine_by_loop(mesh, marked):
    """NVB refinement element by element (oracle): the same closure, then
    each element emits its children in turn."""
    edges, elem_edges, _ = mesh.edge_tables()
    marked_edge = np.zeros(len(edges), dtype=bool)
    marked_edge[elem_edges[np.asarray(sorted(set(marked))), 0]] = True
    while True:
        need = (marked_edge[elem_edges].any(axis=1)
                & ~marked_edge[elem_edges[:, 0]])
        if not need.any():
            break
        marked_edge[elem_edges[need, 0]] = True
    new_edge_ids = np.nonzero(marked_edge)[0]
    midpoint_of = np.full(len(edges), -1, dtype=np.int64)
    midpoint_of[new_edge_ids] = mesh.n_vertices + np.arange(len(new_edge_ids))
    midpoints = 0.5 * (mesh.vertices[edges[new_edge_ids, 0]]
                       + mesh.vertices[edges[new_edge_ids, 1]])

    elems, gen = mesh.elements, mesh.generation
    em = marked_edge[elem_edges]
    new_elems, new_gen, parent = [], [], []

    def emit(tri, g, p):
        new_elems.append(tri)
        new_gen.append(g)
        parent.append(p)

    for i in range(mesh.n_elements):
        v0, v1, v2 = elems[i]
        if not em[i, 0]:
            emit((v0, v1, v2), gen[i], i)
            continue
        m0 = midpoint_of[elem_edges[i, 0]]
        g1 = gen[i] + 1
        if em[i, 2]:
            m2 = midpoint_of[elem_edges[i, 2]]
            emit((m0, v2, m2), g1 + 1, i)
            emit((v0, m0, m2), g1 + 1, i)
        else:
            emit((v2, v0, m0), g1, i)
        if em[i, 1]:
            m1 = midpoint_of[elem_edges[i, 1]]
            emit((m0, v1, m1), g1 + 1, i)
            emit((v2, m0, m1), g1 + 1, i)
        else:
            emit((v1, v2, m0), g1, i)

    edge_id = {tuple(r): k for k, r in enumerate(edges.tolist())}
    bnd = []
    for a, b, seg in mesh.boundary_edges.tolist():
        m = midpoint_of[edge_id[min(a, b), max(a, b)]]
        if m < 0:
            bnd.append((a, b, seg))
        else:
            bnd.append((a, m, seg))
            bnd.append((m, b, seg))
    return (np.vstack([mesh.vertices, midpoints]),
            np.array(new_elems, dtype=np.int64),
            np.array(bnd, dtype=np.int64).reshape(-1, 3),
            np.array(new_gen, dtype=np.int64),
            np.array(parent, dtype=np.int64))


@pytest.mark.parametrize("name", ["square2", "kellogg", "lshape-convection",
                                  "zshape-nonlinear"])
def test_refine_matches_loop_reference(square2, name):
    from afem_lab.problems import by_name
    mesh = square2 if name == "square2" else by_name(name)[1]
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = rng.integers(1, mesh.n_elements + 1)
        marked = rng.choice(mesh.n_elements, size=k, replace=False)
        expected = _refine_by_loop(mesh, marked)
        mesh = refine(mesh, marked)
        got = (mesh.vertices, mesh.elements, mesh.boundary_edges,
               mesh.generation, mesh.parent_elements)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e)


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


# one triangle: header, counts, three vertices (lines 3-5), the element
# (line 6) and one boundary edge (line 7)
TRIANGLE = "afem-mesh v1\n3 1\n0 0\n1 0\n0 1\n0 1 2 1 0\n0 1 0\n"


def test_load_rotates_to_the_stored_reference_edge():
    assert Mesh.load(TRIANGLE).elements.tolist() == [[1, 2, 0]]


def test_load_rejects_reference_edge_out_of_range():
    with pytest.raises(ValueError, match="line 6: ref_edge 5"):
        Mesh.load(TRIANGLE.replace("0 1 2 1 0", "0 1 2 5 0"))


def test_load_rejects_element_vertex_out_of_range():
    with pytest.raises(ValueError, match=r"line 6: vertex index outside"):
        Mesh.load(TRIANGLE.replace("0 1 2 1 0", "0 1 7 1 0"))


def test_load_rejects_boundary_vertex_out_of_range():
    with pytest.raises(ValueError, match=r"line 7: vertex index outside"):
        Mesh.load(TRIANGLE.replace("0 1 0\n", "0 -1 0\n"))


@pytest.mark.parametrize("old, new, line", [
    ("3 1\n", "3 1 2\n", 2),
    ("1 0\n0 1\n", "1 0 3\n0 1\n", 4),
    ("0 1 2 1 0", "0 1 2 1", 6),
    ("0 1 2 1 0", "0 1 x 1 0", 6),
    ("0 1 0\n", "0 1\n", 7),
], ids=["counts", "vertex", "element-short", "element-not-int", "boundary"])
def test_load_rejects_wrong_field_count(old, new, line):
    with pytest.raises(ValueError, match=f"line {line}: expected"):
        Mesh.load(TRIANGLE.replace(old, new))


@pytest.mark.parametrize("keep, line", [(1, 2), (4, 5), (5, 6)])
def test_load_rejects_file_ending_before_header_counts(keep, line):
    text = "".join(TRIANGLE.splitlines(keepends=True)[:keep])
    with pytest.raises(ValueError, match=f"line {line}: the file ends"):
        Mesh.load(text)


def _edge_tables_by_rows(mesh):
    """Edge tables from ``np.unique(axis=0)`` on the vertex pairs (oracle)."""
    e = mesh.elements
    raw = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
    edges, inv = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    inv = inv.ravel()
    edge_elems = np.full((len(edges), 2), -1, dtype=np.int64)
    for k, (eid, owner) in enumerate(zip(inv, np.tile(np.arange(len(e)), 3))):
        edge_elems[eid, int(edge_elems[eid, 0] >= 0)] = owner
    return edges, inv.reshape(3, -1).T, edge_elems


def test_edge_tables_match_row_unique_on_random_nvb_meshes(square2):
    rng = np.random.default_rng(3)
    mesh = square2
    for _ in range(12):
        n = max(1, mesh.n_elements // 4)
        mesh = refine(mesh, rng.choice(mesh.n_elements, n, replace=False))
        edges, elem_edges, edge_elems = mesh.edge_tables()
        ref_edges, ref_elem_edges, ref_edge_elems = _edge_tables_by_rows(mesh)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(elem_edges, ref_elem_edges)
        assert np.array_equal(edge_elems, ref_edge_elems)
        pick = rng.permutation(len(edges))[:20]
        assert np.array_equal(mesh.edge_ids(edges[pick]), pick)
        assert np.array_equal(mesh.edge_ids(edges[pick, ::-1]), pick)
    nv = mesh.n_vertices
    a, b = edges[-1]
    # (0, a * nv + b) would share the key of the edge (a, b)
    for pair in ([0, nv], [0, a * nv + b], [-1, 0]):
        with pytest.raises(ValueError):
            mesh.edge_ids(np.array([pair]))
