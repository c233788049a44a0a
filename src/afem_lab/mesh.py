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

Plain-text dump format (``afem-mesh v1``)::

    afem-mesh v1
    <n_vertices> <n_elements>
    x y                          one line per vertex
    v0 v1 v2 ref_edge generation one line per element (ref_edge: local index)
    v0 v1 segment_id             one line per boundary edge, until EOF

Meshes are immutable after construction; ``refine`` returns a new Mesh that
keeps a reference to its parent and a per-element parent map.
"""

import io

import numpy as np

__all__ = ["Mesh", "refine", "uniform_refine", "check_conforming"]


class Mesh:
    """Conforming 2D triangulation with per-element reference edge."""

    def __init__(self, vertices, elements, boundary_edges, generation=None,
                 parent_mesh=None, parent_elements=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        if boundary_edges.size == 0:
            boundary_edges = boundary_edges.reshape(0, 3)
        self.boundary_edges = np.ascontiguousarray(boundary_edges)
        if generation is None:
            generation = np.zeros(len(self.elements), dtype=np.int64)
        self.generation = np.ascontiguousarray(generation, dtype=np.int64)
        self.parent_mesh = parent_mesh
        self.parent_elements = (None if parent_elements is None
                                else np.asarray(parent_elements, dtype=np.int64))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError("elements must be an (n, 3) array")
        if len(self.generation) != len(self.elements):
            raise ValueError("generation length mismatch")
        for name, ids in (("element", self.elements),
                          ("boundary edge", self.boundary_edges[:, :2])):
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_vertices):
                raise ValueError(f"{name} vertex index outside "
                                 f"[0, {self.n_vertices})")
        for a in (self.vertices, self.elements, self.boundary_edges,
                  self.generation):
            a.setflags(write=False)
        self._edge_cache = None

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
            return self._edge_cache
        e = self.elements
        nv = self.n_vertices
        keys, inv = np.unique(_edge_keys(_directed_edges(e), nv),
                              return_inverse=True)
        edges = np.column_stack(np.divmod(keys, nv))
        elem_edges = inv.reshape(3, -1).T.copy()
        edge_elems = np.full((len(edges), 2), -1, dtype=np.int64)
        owner = np.tile(np.arange(len(e)), 3)
        order = np.argsort(inv, kind="stable")
        eid_sorted = inv[order]
        own_sorted = owner[order]
        first = np.ones(len(eid_sorted), dtype=bool)
        first[1:] = eid_sorted[1:] != eid_sorted[:-1]
        edge_elems[eid_sorted[first], 0] = own_sorted[first]
        second = ~first
        edge_elems[eid_sorted[second], 1] = own_sorted[second]
        self._edge_cache = (edges, elem_edges, edge_elems)
        return self._edge_cache

    def edge_ids(self, pairs):
        """Rows of ``edge_tables()[0]`` for an (n, 2) array of vertex pairs
        in either order; ValueError for a pair that is not an edge."""
        pairs = np.asarray(pairs, dtype=np.int64)
        nv = self.n_vertices
        # a vertex out of range would alias another edge's key
        if pairs.size and (pairs.min() < 0 or pairs.max() >= nv):
            raise ValueError("vertex index outside the mesh")
        keys = _edge_keys(self.edge_tables()[0], nv)
        queries = _edge_keys(pairs, nv)
        pos = np.searchsorted(keys, queries)
        if (pos == len(keys)).any() or (keys[pos] != queries).any():
            raise ValueError("edge not found in mesh")
        return pos

    def release_edge_tables(self):
        """Drop the cached edge tables; ``edge_tables`` rebuilds them."""
        self._edge_cache = None

    # -- serialization -----------------------------------------------------

    def dump(self, fileobj=None):
        """Write the plain-text ``afem-mesh v1`` format; return str if no file."""
        out = fileobj if fileobj is not None else io.StringIO()
        out.write("afem-mesh v1\n")
        out.write(f"{self.n_vertices} {self.n_elements}\n")
        for x, y in self.vertices:
            out.write(f"{x:.17g} {y:.17g}\n")
        for (v0, v1, v2), g in zip(self.elements, self.generation):
            out.write(f"{v0} {v1} {v2} 0 {g}\n")
        for v0, v1, seg in self.boundary_edges:
            out.write(f"{v0} {v1} {seg}\n")
        return out.getvalue() if fileobj is None else None

    @classmethod
    def load(cls, source):
        """Read the ``afem-mesh v1`` format from a string or file object; a
        malformed line raises ValueError naming its number."""
        text = source if isinstance(source, str) else source.read()
        lines = text.splitlines()
        header = lines[0].strip() if lines else ""
        if header != "afem-mesh v1":
            raise ValueError(f"unrecognized mesh header: {header!r}")

        def row(n, count, convert=int, vertex_ids=0):
            if n > len(lines):
                raise ValueError(f"line {n}: the file ends before the counts "
                                 "of its header are read")
            try:
                vals = [convert(t) for t in lines[n - 1].split()]
            except ValueError:
                vals = []
            if len(vals) != count:
                raise ValueError(f"line {n}: expected {count} numbers, got "
                                 f"{lines[n - 1]!r}")
            if not all(0 <= v < nv for v in vals[:vertex_ids]):
                raise ValueError(f"line {n}: vertex index outside [0, {nv})")
            return vals

        nv, ne = row(2, 2)
        verts = np.array([row(n, 2, float) for n in range(3, 3 + nv)])
        elems = np.zeros((ne, 3), dtype=np.int64)
        gen = np.zeros(ne, dtype=np.int64)
        for i, n in enumerate(range(3 + nv, 3 + nv + ne)):
            *tri, ref, gen[i] = row(n, 5, vertex_ids=3)
            if ref not in (0, 1, 2):
                raise ValueError(f"line {n}: ref_edge {ref} is not 0, 1 or 2")
            # rotate so the stored reference edge becomes local edge 0
            elems[i] = np.roll(tri, -ref)
        rest = range(3 + nv + ne, len(lines) + 1)
        bnd = [row(n, 3, vertex_ids=2) for n in rest if lines[n - 1].strip()]
        return cls(verts.reshape(nv, 2), elems,
                   np.array(bnd, dtype=np.int64).reshape(-1, 3),
                   generation=gen)


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

    Returns a new Mesh with parent links; ``marked`` is checked by
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
        need = marked_edge[elem_edges].any(axis=1) & ~marked_edge[elem_edges[:, 0]]
        if not need.any():
            break
        marked_edge[elem_edges[need, 0]] = True

    # new vertices: one midpoint per marked edge
    new_edge_ids = np.nonzero(marked_edge)[0]
    midpoint_of = np.full(n_edges, -1, dtype=np.int64)
    midpoint_of[new_edge_ids] = mesh.n_vertices + np.arange(len(new_edge_ids))
    midpoints = 0.5 * (mesh.vertices[edges[new_edge_ids, 0]]
                       + mesh.vertices[edges[new_edge_ids, 1]])
    new_vertices = np.vstack([mesh.vertices, midpoints])

    # two rounds of one bisection; the children of round one bisect on the
    # parent's local edges 2 and 1, which closure splits only if edge 0 splits
    mid = midpoint_of[elem_edges]
    elems, gen, parent = _bisect(mesh.elements, mesh.generation,
                                 np.arange(mesh.n_elements), mid[:, 0])
    mid = _in_pairs(mid[:, 2], mid[:, 1], mid[:, 0] >= 0)
    elems, gen, parent = _bisect(elems, gen, parent, mid)

    # split boundary edges whose midpoint was created: (a, b) -> (a, m), (m, b)
    bnd = mesh.boundary_edges
    m = midpoint_of[mesh.edge_ids(bnd[:, :2])]
    split = m >= 0
    a, b, seg = bnd.T
    first = np.where(split[:, None], np.column_stack([a, m, seg]), bnd)
    new_bnd = _in_pairs(first, np.column_stack([m, b, seg]), split)

    return Mesh(new_vertices, elems, new_bnd, generation=gen,
                parent_mesh=mesh, parent_elements=parent)


def _bisect(elems, gen, parent, mid):
    """One round of NVB: row ``(v0, v1, v2)`` with ``mid >= 0`` becomes
    ``(v2, v0, mid)`` and ``(v1, v2, mid)``; the others stay.  Returns the
    new rows with their generation and parent."""
    split = mid >= 0
    v0, v1, v2 = elems.T
    first = np.where(split[:, None], np.column_stack([v2, v0, mid]), elems)
    n_kids = 1 + split
    return (_in_pairs(first, np.column_stack([v1, v2, mid]), split),
            np.repeat(gen + split, n_kids), np.repeat(parent, n_kids))


def _in_pairs(first, second, keep_second):
    """Rows ``first[i]`` and, where ``keep_second[i]``, ``second[i]``, in the
    order i = 0, 1, ...; ``first`` and ``second`` have the same shape."""
    keep = np.column_stack([np.ones_like(keep_second), keep_second])
    return np.stack([first, second], axis=1)[keep]


def _directed_edges(elements):
    """Local edges 0, 1, 2 = (v0, v1), (v1, v2), (v2, v0) of all elements,
    stacked edge by edge: row k * n_elements + i is edge k of element i."""
    e = elements
    return np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])


def _edge_keys(pairs, n_vertices):
    """The int64 key ``min * n_vertices + max`` of each undirected vertex
    pair; both vertices must lie in [0, n_vertices)."""
    return pairs.min(axis=1) * n_vertices + pairs.max(axis=1)


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
    bnd = mesh.boundary_edges[:, :2]
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

    Walks the parent chain; raises if ``coarse`` is not on it.
    """
    chain = []
    m = fine
    while m is not coarse:
        if m.parent_mesh is None:
            raise ValueError("meshes are not related by refinement")
        chain.append(m.parent_elements)
        m = m.parent_mesh
    amap = np.arange(fine.n_elements)
    for parents in chain:
        amap = parents[amap]
    return amap
