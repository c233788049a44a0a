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
scheduled for bisection, its reference edge is scheduled as well.

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
                 parent_mesh=None, parent_elements=None, _skip_checks=False):
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
        if not _skip_checks:
            if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
                raise ValueError("vertices must be an (n, 2) array")
            if self.elements.ndim != 2 or self.elements.shape[1] != 3:
                raise ValueError("elements must be an (n, 3) array")
            if len(self.generation) != len(self.elements):
                raise ValueError("generation length mismatch")
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
        raw = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
        und = np.sort(raw, axis=1)
        edges, inv = np.unique(und, axis=0, return_inverse=True)
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
        if fileobj is None:
            return out.getvalue()
        return None

    @classmethod
    def load(cls, source):
        """Read the ``afem-mesh v1`` format from a string or file object."""
        if isinstance(source, str):
            source = io.StringIO(source)
        header = source.readline().strip()
        if header != "afem-mesh v1":
            raise ValueError(f"unrecognized mesh header: {header!r}")
        nv, ne = map(int, source.readline().split())
        verts = np.array([[float(t) for t in source.readline().split()]
                          for _ in range(nv)])
        elems = np.zeros((ne, 3), dtype=np.int64)
        gen = np.zeros(ne, dtype=np.int64)
        for i in range(ne):
            v0, v1, v2, ref, g = map(int, source.readline().split())
            tri = [v0, v1, v2]
            # rotate so the stored reference edge becomes local edge 0
            elems[i] = np.roll(tri, -ref)
            gen[i] = g
        bnd = []
        for line in source:
            if line.strip():
                bnd.append([int(t) for t in line.split()])
        return cls(verts, elems, np.array(bnd, dtype=np.int64).reshape(-1, 3),
                   generation=gen)


def refine(mesh, marked):
    """Coarsest conforming NVB refinement bisecting all marked elements.

    Returns a new Mesh with parent links; ``marked`` may be any iterable of
    element indices.  An empty ``marked`` returns ``mesh`` unchanged.
    """
    marked = np.asarray(sorted(set(int(m) for m in marked)), dtype=np.int64)
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_elements:
        raise IndexError("marked element index out of range")

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

    elems = mesh.elements
    gen = mesh.generation
    em = marked_edge[elem_edges]  # (ne, 3) which local edges split
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
        # first bisection: children (v2, v0, m0) and (v1, v2, m0)
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

    # bisect boundary edges whose midpoint was created
    bnd = []
    if len(mesh.boundary_edges):
        und = np.sort(mesh.boundary_edges[:, :2], axis=1)
        idx = _edge_lookup(edges, und)
        for (a, b, seg), eid in zip(mesh.boundary_edges, idx):
            m = midpoint_of[eid]
            if m < 0:
                bnd.append((a, b, seg))
            else:
                bnd.append((a, m, seg))
                bnd.append((m, b, seg))

    return Mesh(new_vertices, np.array(new_elems, dtype=np.int64),
                np.array(bnd, dtype=np.int64).reshape(-1, 3),
                generation=np.array(new_gen, dtype=np.int64),
                parent_mesh=mesh,
                parent_elements=np.array(parent, dtype=np.int64))


def _edge_lookup(sorted_edges, queries):
    """Rows of ``queries`` located in the lexicographically sorted edge list."""
    keys = sorted_edges[:, 0] * (sorted_edges.max() + 1) + sorted_edges[:, 1]
    qkeys = queries[:, 0] * (sorted_edges.max() + 1) + queries[:, 1]
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], qkeys)
    idx = order[np.clip(pos, 0, len(order) - 1)]
    if not np.array_equal(sorted_edges[idx], queries):
        raise ValueError("edge not found in mesh")
    return idx


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
    conformity: every edge is shared by exactly two elements or is listed as
    a boundary edge of exactly one element (this catches hanging vertices).
    """
    e = mesh.elements
    if e.size and (e.min() < 0 or e.max() >= mesh.n_vertices):
        return False
    if (e[:, 0] == e[:, 1]).any() or (e[:, 1] == e[:, 2]).any() \
            or (e[:, 0] == e[:, 2]).any():
        return False
    if (mesh.signed_areas() <= 0).any():
        return False

    raw = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
    und = np.sort(raw, axis=1)
    edges, counts = np.unique(und, axis=0, return_counts=True)
    if (counts > 2).any():
        return False
    # interior edges must also appear once in each orientation
    dir_edges, dir_counts = np.unique(raw, axis=0, return_counts=True)
    if (dir_counts > 1).any():
        return False
    bnd = np.sort(mesh.boundary_edges[:, :2], axis=1) if len(mesh.boundary_edges) \
        else np.zeros((0, 2), dtype=np.int64)
    bnd_set = {tuple(r) for r in bnd}
    if len(bnd_set) != len(bnd):
        return False
    for row, cnt in zip(edges, counts):
        if cnt == 1 and tuple(row) not in bnd_set:
            return False
        if cnt == 2 and tuple(row) in bnd_set:
            return False
    # every listed boundary edge must be an element edge
    edge_set = {tuple(r) for r in edges}
    return all(t in edge_set for t in bnd_set)


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
