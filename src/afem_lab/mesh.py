"""Conforming triangulations and newest-vertex bisection (NVB) with closure.

Local convention
----------------
Each element is a vertex triple ``(v0, v1, v2)`` with strictly positive
signed area.  The *reference edge* is ``(v0, v1)`` -- the edge opposite the
newest vertex ``v2``.  Bisection inserts the midpoint ``m`` of the reference
edge and produces the children ``(v2, v0, m)`` and ``(v1, v2, m)``, so that
``m`` becomes the newest vertex of both children.

Refinement returns the coarsest conforming NVB refinement in which all
marked elements were bisected at least once.  Closure is a fixed-point
iteration over nonconforming edges: whenever any edge of an element is
scheduled for bisection, its reference edge is scheduled as well.  Two
rounds of one bisection then split the scheduled edges, the reference edges
first.  Children keep their parents' order, ``(v2, v0, m)`` first; a split
boundary edge ``(a, b)`` becomes ``(a, m)``, ``(m, b)``.  An undirected edge
is named by one int64 key, ``min * n_vertices + max`` (``_edge_keys``).
``Mesh.edge_tables`` numbers the edges by one sort of these keys and keeps
them sorted, so ``edge_ids`` is a search; an edge's first owner is the one
whose local edge comes first in ``_directed_edges`` order.

Meshes are immutable after construction.  A refined Mesh's ``lineage`` holds
a (token, parent map) pair per ancestor generation, not the ancestors.
"""

import numpy as np

__all__ = ["Mesh", "refine", "uniform_refine", "check_conforming"]


class Mesh:
    """Conforming 2D triangulation with per-element reference edge."""

    def __init__(self, vertices, elements, boundary_edges, parent_mesh=None,
                 parent_elements=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        if boundary_edges.size == 0:
            boundary_edges = boundary_edges.reshape(0, 2)
        self.boundary_edges = np.ascontiguousarray(boundary_edges)
        for name, a, cols in (("vertices", self.vertices, 2),
                              ("elements", self.elements, 3),
                              ("boundary_edges", self.boundary_edges, 2)):
            if a.ndim != 2 or a.shape[1] != cols:
                raise ValueError(f"{name} must be an (n, {cols}) array")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        for name, ids in (("element", self.elements),
                          ("boundary edge", self.boundary_edges)):
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_vertices):
                raise ValueError(f"{name} vertex index outside "
                                 f"[0, {self.n_vertices})")
        for a in (self.vertices, self.elements, self.boundary_edges):
            a.setflags(write=False)
        self._edge_cache = None
        self.token = object()  # identifies the mesh while anyone holds it
        self.parent_elements, self.lineage = None, ()
        if parent_mesh is not None or parent_elements is not None:
            parents = np.asarray(parent_elements)
            if parent_mesh is None or parents.shape != (self.n_elements,) \
                    or parents.dtype.kind not in "iu" or not np.all(
                        (0 <= parents) & (parents < parent_mesh.n_elements)):
                raise ValueError("parent_mesh needs parent_elements: one "
                                 "index in [0, parent.n_elements) per element")
            self.parent_elements = parents.astype(np.int64, copy=False)
            self.parent_elements.setflags(write=False)
            self.lineage = ((parent_mesh.token, self.parent_elements),
                            *parent_mesh.lineage)

    # -- basic quantities --------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    def element_coords(self):
        """Vertex coordinates per element, shape (n_elements, 3, 2)."""
        return self.vertices[self.elements]

    def signed_areas(self):
        c = self.element_coords()
        d1 = c[:, 1] - c[:, 0]
        d2 = c[:, 2] - c[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def areas(self):
        return np.abs(self.signed_areas())

    def min_angle(self):
        """Smallest interior angle over all elements (radians)."""
        c = self.element_coords()
        angles = []
        for i in range(3):
            a = c[:, (i + 1) % 3] - c[:, i]
            b = c[:, (i + 2) % 3] - c[:, i]
            num = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            den = (a * b).sum(axis=1)
            angles.append(np.abs(np.arctan2(num, den)))
        return float(np.min(angles))

    def edge_tables(self):
        """(edges, elem_edges, edge_elems): unique undirected edges,
        per-element edge ids (local edges 0,1,2 = (v0,v1),(v1,v2),(v2,v0)),
        and the up-to-two adjacent elements per edge (-1 if none)."""
        if self._edge_cache is not None:
            return self._edge_cache[0]
        n, nv = self.n_elements, self.n_vertices
        raw = _edge_keys(_directed_edges(self.elements), nv)
        pos = np.argsort(raw)
        sorted_keys = raw[pos]
        first = np.ones(len(pos), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        eid = np.cumsum(first) - 1
        inv = np.empty_like(eid)
        inv[pos] = eid
        starts, rest = np.flatnonzero(first), np.flatnonzero(~first)
        keys = sorted_keys[starts]
        # each edge's owners by position in ``_directed_edges`` order, lower
        # first; position 3 n (owner -1) stands in for a missing second one
        lead, other = pos[starts], np.full(len(keys), 3 * n)
        other[eid[rest]] = pos[rest]
        owner = np.append(np.tile(np.arange(n), 3), -1)
        edge_elems = owner[np.column_stack([np.minimum(lead, other),
                                            np.maximum(lead, other)])]
        tables = (np.column_stack(np.divmod(keys, nv)),
                  inv.reshape(3, -1).T.copy(), edge_elems)
        self._edge_cache = (tables, keys)
        return tables

    def edge_ids(self, pairs):
        """Rows of ``edge_tables()[0]`` for an (n, 2) array of vertex pairs
        in either order, by a search of the kept keys; ValueError for a
        pair that is not an edge."""
        pairs = np.asarray(pairs, dtype=np.int64)
        nv = self.n_vertices
        # a vertex out of range would alias another edge's key
        if pairs.size and (pairs.min() < 0 or pairs.max() >= nv):
            raise ValueError("vertex index outside the mesh")
        self.edge_tables()  # builds the kept keys on first use
        keys = self._edge_cache[1]
        queries = _edge_keys(pairs, nv)
        pos = np.searchsorted(keys, queries)
        if (pos == len(keys)).any() or (keys[pos] != queries).any():
            raise ValueError("edge not found in mesh")
        return pos


def element_indices(indices, n_elements):
    """``indices`` (any iterable of integer element indices) as an int64
    array, checked against ``n_elements``; a boolean mask or other
    non-integer values raise TypeError, an index out of range IndexError."""
    indices = np.asarray(indices if isinstance(indices, np.ndarray)
                         else list(indices))
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    if indices.dtype.kind not in "iu":
        raise TypeError("element indices must be integers")
    if indices.min() < 0 or indices.max() >= n_elements:
        raise IndexError("element index out of range")
    return indices.astype(np.int64, copy=False)


def refine(mesh, marked):
    """Coarsest conforming NVB refinement bisecting all marked elements.

    Returns a new Mesh with its parent map; ``marked`` is checked by
    `element_indices`.  An empty ``marked`` returns ``mesh`` unchanged.
    """
    marked = np.unique(element_indices(marked, mesh.n_elements))
    if marked.size == 0:
        return mesh

    edges, elem_edges, _ = mesh.edge_tables()
    n_edges = len(edges)
    marked_edge = np.zeros(n_edges, dtype=bool)
    marked_edge[elem_edges[marked, 0]] = True
    # closure: an element with any marked edge must have its reference edge marked
    while True:
        m = marked_edge[elem_edges]
        need = (m[:, 1] | m[:, 2]) & ~m[:, 0]
        if not need.any():
            break
        marked_edge[elem_edges[need, 0]] = True

    # new vertices: one midpoint per marked edge
    new_edge_ids = np.nonzero(marked_edge)[0]
    midpoint_of = np.full(n_edges, -1, dtype=np.int64)
    midpoint_of[new_edge_ids] = mesh.n_vertices + np.arange(len(new_edge_ids))
    va, vb = mesh.vertices.take(edges.take(new_edge_ids, axis=0).T, axis=0)
    midpoints = 0.5 * (va + vb)
    new_vertices = np.vstack([mesh.vertices, midpoints])

    # two rounds of one bisection; the children of round one bisect on the
    # parent's local edges 2 and 1, which closure splits only if edge 0 splits
    mid = midpoint_of[elem_edges]
    elems, parent = _bisect(mesh.elements, np.arange(mesh.n_elements),
                            mid[:, 0])
    mid = _in_pairs(mid[:, 2], mid[:, 1], mid[:, 0] >= 0)
    elems, parent = _bisect(elems, parent, mid)

    # split boundary edges whose midpoint was created: (a, b) -> (a, m), (m, b)
    bnd = mesh.boundary_edges
    m = midpoint_of[mesh.edge_ids(bnd)]
    split = m >= 0
    a, b = bnd.T
    first = np.where(split[:, None], np.column_stack([a, m]), bnd)
    new_bnd = _in_pairs(first, np.column_stack([m, b]), split)

    return Mesh(new_vertices, elems, new_bnd, mesh, parent)


def _bisect(elems, parent, mid):
    """One round of NVB: row ``(v0, v1, v2)`` with ``mid >= 0`` becomes
    ``(v2, v0, mid)`` and ``(v1, v2, mid)``; the others stay.  Returns the
    new rows with their parents."""
    split = mid >= 0
    v0, v1, v2 = elems.T
    first = np.where(split[:, None], np.column_stack([v2, v0, mid]), elems)
    return (_in_pairs(first, np.column_stack([v1, v2, mid]), split),
            np.repeat(parent, 1 + split))


def _in_pairs(first, second, keep_second):
    """Rows ``first[i]`` and, where ``keep_second[i]``, ``second[i]``, in the
    order i = 0, 1, ...; ``first`` and ``second`` have the same shape."""
    keep = np.column_stack([np.ones_like(keep_second), keep_second])
    both = np.stack([first, second], axis=1).reshape((-1,) + first.shape[1:])
    return both.take(np.flatnonzero(keep), axis=0)


def _directed_edges(elements):
    """Local edges 0, 1, 2 = (v0, v1), (v1, v2), (v2, v0) of all elements,
    stacked edge by edge: row k * n_elements + i is edge k of element i."""
    e = elements
    return np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])


def _edge_keys(pairs, n_vertices):
    """The int64 key ``min * n_vertices + max`` of each undirected vertex
    pair; both vertices must lie in [0, n_vertices)."""
    return np.minimum(*pairs.T) * n_vertices + np.maximum(*pairs.T)


def uniform_refine(mesh):
    """One uniform step: every element bisected (at least) twice.

    Implemented as two rounds of ``refine`` with all elements marked, so the
    uniform and adaptive hierarchies share one code path.
    """
    once = refine(mesh, np.arange(mesh.n_elements))
    return refine(once, np.arange(once.n_elements))


def check_conforming(mesh):
    """True iff the mesh invariants hold.

    Checks positive orientation, distinct vertices per element, and edge
    conformity: every edge is shared by exactly two elements, once in each
    direction, or is listed as a boundary edge of exactly one element (this
    catches hanging vertices).
    """
    e, nv = mesh.elements, mesh.n_vertices
    bnd = mesh.boundary_edges
    ids = np.concatenate([e.ravel(), bnd.ravel()])
    if ids.size and (ids.min() < 0 or ids.max() >= nv):
        return False
    if (e[:, 0] == e[:, 1]).any() or (e[:, 1] == e[:, 2]).any() \
            or (e[:, 0] == e[:, 2]).any():
        return False
    if (mesh.signed_areas() <= 0).any():
        return False

    raw = _directed_edges(e)
    directed = np.unique(2 * _edge_keys(raw, nv) + (raw[:, 0] < raw[:, 1]))
    # no directed edge twice; this also keeps every edge to two elements,
    # because a third one repeats one of the two directions
    if len(directed) < len(raw):
        return False
    keys, counts = np.unique(directed // 2, return_counts=True)
    # the boundary edges are exactly the edges of one element, each once
    return np.array_equal(np.sort(_edge_keys(bnd, nv)), keys[counts == 1])


def ancestor_map(fine, coarse):
    """Map fine element indices to their ancestor elements in ``coarse``.

    Composes ``fine``'s lineage up to ``coarse``; raises if it is not on it.
    """
    amap = np.arange(fine.n_elements)
    if fine is coarse:
        return amap
    for token, parents in fine.lineage:
        amap = parents[amap]
        if token is coarse.token:
            return amap
    raise ValueError("meshes are not related by refinement")
