"""Conforming P_p Lagrange spaces: assembly, Galerkin solves, energy norms.

The bilinear forms are

    a(u, v) = <A grad u, grad v>                      (symmetric part / energy)
    b(u, v) = a(u, v) + <conv . grad u + c u, v>      (full linear form)

and the load is F(v) = <f, v>.  Dirichlet conditions are
imposed by elimination with a lift: boundary degrees of freedom carry the
nodal interpolation of the boundary data, and reduced systems act on the
free degrees of freedom only.  The energy norm |||v||| = a(v, v)^(1/2) is
evaluated with the full (unreduced) symmetric Gram matrix, so it measures
the true weighted H1 seminorm of the represented function.

A discrete function is its full coefficient vector: one float per DOF,
Dirichlet values included.  ``Space.coefficients`` checks a vector where it
enters a routine.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import ancestor_map
from .quadrature import triangle_rule

__all__ = [
    "Space", "ProblemDef", "Nonlinearity",
    "assemble_a", "assemble_b", "assemble_rhs", "solve_galerkin_exact",
    "prolongation_matrix", "energy_norm", "energy_inner",
    "factorize", "solve_direct", "SolverError",
]


class UnsupportedFormError(TypeError):
    """Raised when a linear-only operation receives a nonlinear problem."""


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    """A linear or fixed-point solve failed or cannot be set up."""


# ---------------------------------------------------------------------------
# reference element


@lru_cache(maxsize=None)
def reference_element(p):
    return _RefElem(p)


class _RefElem:
    """Lagrange basis of total degree p on the reference triangle.

    Nodes sit on the barycentric lattice.  Basis coefficients come from the
    inverted Vandermonde matrix in the monomial basis, which loses accuracy
    quickly with p: on a jittered mesh with h ~ 1/8, the P4 interpolant of
    a quartic has Hessians off by 5e-11 (gradients 2e-12, values 6e-14).
    """

    def __init__(self, p):
        if p < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.p = p
        self.exponents = [(i, j) for t in range(p + 1) for i, j in
                          [(t - k, k) for k in range(t + 1)]]
        nodes, self.vertex_nodes = [], [None] * 3
        self.edge_nodes = [[], [], []]
        self.interior_nodes = []
        lattice = [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
        for idx, (i, j) in enumerate(lattice):
            nodes.append((i / p, j / p))
            k = p - i - j
            if (i, j) == (0, 0):
                self.vertex_nodes[0] = idx
            elif (i, j) == (p, 0):
                self.vertex_nodes[1] = idx
            elif (i, j) == (0, p):
                self.vertex_nodes[2] = idx
            elif j == 0:
                self.edge_nodes[0].append((i, idx))       # v0 -> v1, t = i/p
            elif k == 0:
                self.edge_nodes[1].append((j, idx))       # v1 -> v2, t = j/p
            elif i == 0:
                self.edge_nodes[2].append((p - j, idx))   # v2 -> v0, t = (p-j)/p
            else:
                self.interior_nodes.append(idx)
        self.edge_nodes = [[idx for _, idx in sorted(e)] for e in self.edge_nodes]
        self.nodes = np.array(nodes)
        self.n_local = len(nodes)
        V = self._table(self.nodes, 0, 0)
        self.coeffs = np.linalg.inv(V)  # phi_j = sum_k coeffs[k, j] x^a y^b
        self._tables = {}

    def _table(self, pts, dx, dy):
        """The (dx, dy) partial derivative of each monomial x^a y^b at pts,
        one column per monomial."""
        x, y = np.asarray(pts).T
        cols = []
        for a, b in self.exponents:
            c = math.perm(a, dx) * math.perm(b, dy)  # falling factorials
            cols.append(c * x ** (a - dx) * y ** (b - dy) if c else 0 * x)
        return np.stack(cols, axis=1)

    def _derivatives(self, pts, orders):
        return np.stack([self._table(pts, dx, dy) @ self.coeffs
                         for dx, dy in orders], axis=2)

    def eval(self, pts):
        return self._table(pts, 0, 0) @ self.coeffs

    def grad(self, pts):
        return self._derivatives(pts, [(1, 0), (0, 1)])

    def hess(self, pts):
        """Second derivatives at pts, shape (npts, n_local, 3): xx, xy, yy."""
        return self._derivatives(pts, [(2, 0), (1, 1), (0, 2)])

    def table(self, kind, pts):
        """The table of the method named ``kind`` at the points, built once
        per points and kept: "eval" (nq, nl), "grad" (nq, nl, 2), "hess"
        (nq, nl, 3), a pair table, "point_map" or "edge_grad" at edges."""
        pts = np.asarray(pts, dtype=float)
        key = (kind, pts.shape, pts.tobytes())
        if key not in self._tables:
            self._tables[key] = getattr(self, kind)(pts)
        return self._tables[key]

    # pair tables: products of two basis tables, one column per (l, m) pair,
    # so that an element matrix is one GEMM of per-point weights with them

    def stiffness(self, pts):
        """dN_li dN_mj, shape (nq * 4, nl * nl); rows (q, i, j)."""
        dN = self.table("grad", pts)
        return np.einsum("qli,qmj->qijlm", dN, dN).reshape(
            -1, self.n_local ** 2)

    def convection(self, pts):
        """N_m dN_li, shape (nq * 2, nl * nl); rows (q, i), columns (m, l)."""
        N, dN = self.table("eval", pts), self.table("grad", pts)
        return np.einsum("qm,qli->qiml", N, dN).reshape(-1, self.n_local ** 2)

    def mass(self, pts):
        """N_m N_l, shape (nq, nl * nl)."""
        N = self.table("eval", pts)
        return np.einsum("qm,ql->qml", N, N).reshape(len(N), -1)

    def point_map(self, pts):
        """The map of ``Space.physical_points``: kron(X^T, I_2), X the rows
        (xi, eta, 1) of the points."""
        return np.kron(np.column_stack([pts, np.ones(len(pts))]).T, np.eye(2))

    def edge_grad(self, t):
        """Gradients at the points t of each edge in each direction, shape
        (6, nq, nl, 2); entry 2 k + s runs along local edge k from vertex k
        to k + 1 (s = 0) or back (s = 1)."""
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = []
        for k in range(3):
            a, b = v[k], v[(k + 1) % 3]
            out += [self.grad(a + t[:, None] * (b - a)),
                    self.grad(b + t[:, None] * (a - b))]
        return np.stack(out)


# ---------------------------------------------------------------------------
# problem definition


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar nonlinearity A(grad u) = a(|grad u|^2) grad u."""
    a: callable
    da: callable         # derivative a'(t)
    integral: callable   # antiderivative of a, for energies


@dataclass(frozen=True)
class ProblemDef:
    """Coefficients of the PDE; all callables act on (n, 2) point arrays.

    diffusion returns the scalar coefficient a(x), shape (n,), of the
    isotropic diffusion a(x) I; None means 1.  Assembly and the exact energy
    error integrate a(x) at quadrature points; the residual estimator takes
    it as constant inside each element and reads it at the centroids.  The
    diffusion is constant per element because every mesh comes from the
    initial meshes of ``problems``, which resolve the Kellogg interfaces,
    and NVB only splits elements, so it keeps them resolved.
    """
    diffusion: callable = None
    convection: callable = None
    reaction: callable = None
    load: callable = None
    dirichlet: callable = None
    nonlinearity: Nonlinearity = None
    alpha: float = None
    L: float = None
    exact_solution: tuple = None   # (value, gradient) callables
    name: str = ""

    def __post_init__(self):
        # the nonlinear form, the Zarantonello step and the estimator of a
        # nonlinear problem have no convection term
        if self.is_nonlinear and self.convection is not None:
            raise ValueError("a nonlinear problem cannot have a convection")

    @property
    def is_nonlinear(self):
        return self.nonlinearity is not None

    @property
    def is_symmetric(self):
        return (not self.is_nonlinear and self.convection is None
                and self.reaction is None)


def _diffusion_at(prob, pts):
    """The scalar diffusion coefficient at points, shape (n,)."""
    if prob.diffusion is None:
        return np.ones(len(pts))
    return np.asarray(prob.diffusion(pts), dtype=float)


# ---------------------------------------------------------------------------
# space


class Space:
    """P_p Lagrange space on a mesh with global DOF numbering.

    DOF layout: vertex DOFs first (= vertex index), then p-1 DOFs per edge
    (ordered from the lower- to the higher-numbered endpoint), then interior
    DOFs per element.  Shared edges/vertices share DOFs, so functions are
    continuous across elements.

    Geometry: ``affine`` (n_elements, 3, 2), C-contiguous, holds per element
    the rows v1 - v0, v2 - v0 (J^T, with J the Jacobian) and v0, so that
    ``physical_points`` is one 2-D GEMM; ``origin`` views the last row,
    and ``det`` and ``inv_jac`` (K = J^-1) come from the first two.
    """

    def __init__(self, mesh, degree=1):
        self.mesh = mesh
        self.degree = int(degree)
        ref = reference_element(self.degree)
        self.ref = ref
        p = self.degree
        edges, elem_edges, edge_elems = mesh.edge_tables()
        nv, ne_edges = mesh.n_vertices, len(edges)
        n_int = len(ref.interior_nodes)
        self.n_dofs = nv + ne_edges * (p - 1) + mesh.n_elements * n_int

        elems = mesh.elements
        dof = np.zeros((mesh.n_elements, ref.n_local), dtype=np.int64)
        for k in range(3):
            dof[:, ref.vertex_nodes[k]] = elems[:, k]
        for k in range(3):
            a, b = elems[:, k], elems[:, (k + 1) % 3]
            eid = elem_edges[:, k]
            base = nv + eid * (p - 1)
            for t, local in enumerate(ref.edge_nodes[k]):
                fw = base + t
                bw = base + (p - 2 - t)
                dof[:, local] = np.where(a < b, fw, bw)
        base = nv + ne_edges * (p - 1)
        for t, local in enumerate(ref.interior_nodes):
            dof[:, local] = base + np.arange(mesh.n_elements) * n_int + t
        self.elem_dofs = dof

        # geometric data for affine maps
        v0, v1, v2 = mesh.vertices.take(elems.T, axis=0)
        self.affine = np.empty((mesh.n_elements, 3, 2))
        self.affine[:, 0], self.affine[:, 1] = v1 - v0, v2 - v0
        self.affine[:, 2] = v0
        self.origin = self.affine[:, 2]
        Jt = self.affine[:, :2]
        self.det = Jt[:, 0, 0] * Jt[:, 1, 1] - Jt[:, 1, 0] * Jt[:, 0, 1]
        if (self.det <= 0).any():
            raise AssemblyError("degenerate or inverted element")
        inv = np.empty((mesh.n_elements, 2, 2))
        inv[:, 0, 0] = Jt[:, 1, 1]
        inv[:, 1, 1] = Jt[:, 0, 0]
        inv[:, 0, 1] = -Jt[:, 1, 0]
        inv[:, 1, 0] = -Jt[:, 0, 1]
        self.inv_jac = inv / self.det[:, None, None]

        # DOF coordinates, scattered as one complex128 per point: numpy
        # copies a fancy-indexed assignment of (x, y) rows one row at a time
        pts = np.zeros((self.n_dofs, 2))
        xy = self.physical_points(ref.nodes).reshape(-1, 2)
        pts.view(complex)[dof.ravel(), 0] = xy.view(complex)[:, 0]
        self.dof_points = pts

        # Dirichlet classification: every boundary edge carries Dirichlet data
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[mesh.boundary_edges.ravel()] = True
        eids = mesh.edge_ids(mesh.boundary_edges) if p > 1 else None
        for t in range(p - 1):
            mask[nv + eids * (p - 1) + t] = True
        self.dirichlet_mask = mask
        self.free = np.nonzero(~mask)[0]
        self.n_free = len(self.free)
        self._cache = {}

    def cached(self, key, prob, build):
        """``build()``, kept on the space for the problem object ``prob``
        (None for what depends on the space alone); another builds anew."""
        hit = self._cache.get(key)
        if hit is not None and hit[0] is prob:
            return hit[1]
        out = build()
        self._cache[key] = (prob, out)
        return out

    def coefficients(self, v):
        """``v`` as a discrete function on this space: a float array of one
        value per DOF, Dirichlet values included; ValueError for any other
        shape."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_dofs,):
            raise ValueError(f"coefficient vector of shape {v.shape} on a "
                             f"space of {self.n_dofs} DOFs")
        return v

    # -- evaluation helpers -------------------------------------------------

    def physical_points(self, ref_pts):
        """Map reference points to each element, shape (ne, nq, 2): one 2-D
        GEMM of ``affine`` as (ne, 6) with ``point_map``, which adds the
        origin inside and gives the bits of the stacked X @ affine."""
        ne = len(self.affine)
        return (self.affine.reshape(ne, 6) @ self.ref.table(
            "point_map", ref_pts)).reshape(ne, -1, 2)

    def wdet(self, w):
        """Quadrature weights times |det J| per element, shape (ne, nq)."""
        return w[None, :] * self.det[:, None]

    def function_values(self, coeffs, ref_pts):
        return coeffs[self.elem_dofs] @ self.ref.table("eval", ref_pts).T

    def function_gradients(self, coeffs, ref_pts):
        g = contract(coeffs[self.elem_dofs], self.ref.table("grad", ref_pts))
        return k_product(g, self.inv_jac)

    def function_hessians(self, coeffs, ref_pts):
        """Physical Hessians (ne, nq, 3) as xx, xy, yy: K^T H K at each
        point, with H the reference Hessian and K the inverse Jacobian."""
        h = contract(coeffs[self.elem_dofs], self.ref.table("hess", ref_pts))
        hxx, hxy, hyy = h[..., 0], h[..., 1], h[..., 2]
        K = self.inv_jac[:, None]
        k00, k01 = K[..., 0, 0], K[..., 0, 1]
        k10, k11 = K[..., 1, 0], K[..., 1, 1]
        return np.stack([
            k00 * k00 * hxx + 2.0 * k00 * k10 * hxy + k10 * k10 * hyy,
            k00 * k01 * hxx + (k00 * k11 + k10 * k01) * hxy + k10 * k11 * hyy,
            k01 * k01 * hxx + 2.0 * k01 * k11 * hxy + k11 * k11 * hyy,
        ], axis=-1)


def contract(local, table):
    """Element coefficients (ne, nl) times a reference table (nq, nl, c) in
    one GEMM; shape (ne, nq, c)."""
    nq, nl, c = table.shape
    flat = table.transpose(1, 0, 2).reshape(nl, nq * c)
    return (local @ flat).reshape(-1, nq, c)


def k_product(v, K):
    """v @ K per element, v (n, 2) or (n, nq, 2), K (n, 2, 2) or a view.
    A stacked product makes one BLAS call per element: worth it for nq > 1,
    while one vector is faster as the sums v0 K_0j + v1 K_1j on K's
    entries.  Those are signed powers of two on the NVB meshes of the
    shipped problems, so the sums give the stacked bits; on other geometry
    they may move by an ulp."""
    if v.ndim == 3 and v.shape[1] > 1:
        return v @ K
    K = K if v.ndim == 2 else K[:, None]
    return np.stack([v[..., 0] * K[..., 0, j] + v[..., 1] * K[..., 1, j]
                     for j in (0, 1)], axis=-1)


# ---------------------------------------------------------------------------
# assembly


def _scatter(space, local):
    nl = space.ref.n_local
    rows = np.repeat(space.elem_dofs, nl, axis=1).ravel()
    cols = np.tile(space.elem_dofs, (1, nl)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(space.n_dofs, space.n_dofs))
    return M.tocsr()


def submatrix(M, rows=None, cols=None):
    """``M[rows][:, cols]`` of a CSR matrix M for integer index arrays,
    ``None`` taking every row or every column, with the arrays scipy's
    fancy indexing gives but without its per-call work: the rows are
    gathered by ``indptr``, and each keeps its entries in the selected
    columns, in their order, renumbered through a position map.  ``cols``
    must not repeat a column."""
    indptr, indices, data = M.indptr, M.indices, M.data
    n_rows, n_cols = M.shape
    if rows is not None:
        start = indptr[rows]
        lengths = indptr[rows + 1] - start
        indptr = np.zeros(len(rows) + 1, dtype=indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        take = np.repeat(start - indptr[:-1], lengths) \
            + np.arange(indptr[-1])
        indices, data = indices[take], data[take]
        n_rows = len(rows)
    if cols is not None:
        pos = np.full(n_cols, -1, dtype=indices.dtype)
        pos[cols] = np.arange(len(cols))
        indices = pos[indices]
        keep = indices >= 0
        kept = np.zeros(len(keep) + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        indptr, indices, data = kept[indptr], indices[keep], data[keep]
        n_cols = len(cols)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def _reduce(space, M):
    return submatrix(M, space.free, space.free)


def assemble_a(space, prob, reduced=True):
    """Stiffness of the energy product a(u, v) = <A grad u, grad v>.

    Exactly symmetric by construction; SPD on the free DOFs.  The reduced
    matrix is cut from the cached full one, so a level assembles once, and
    drops the exact zeros that assembly stores (edges opposite two right
    angles); the full matrix keeps its pattern.
    """
    def build():
        if not reduced:
            return _scatter(space, _local_stiffness(space, prob))
        A = _reduce(space, assemble_a(space, prob, reduced=False))
        A.eliminate_zeros()
        return A
    return space.cached(("a", reduced), prob, build)


def _local_stiffness(space, prob):
    """Element matrices as one GEMM: the per-point metric
    w det a K K^T, (ne, nq * 4), times the reference pair table."""
    pts, w = triangle_rule(2 * space.degree)
    a = _diffusion_at(prob, space.physical_points(pts).reshape(-1, 2))
    k00, k01, k10, k11 = space.inv_jac.reshape(-1, 4).T
    off = k00 * k10 + k01 * k11
    KKt = np.stack([k00 * k00 + k01 * k01, off, off, k10 * k10 + k11 * k11], 1)
    ne, nl = len(KKt), space.ref.n_local
    metric = (space.wdet(w) * a.reshape(ne, -1))[:, :, None] * KKt[:, None]
    local = (metric.reshape(ne, -1)
             @ space.ref.table("stiffness", pts)).reshape(-1, nl, nl)
    return 0.5 * (local + local.transpose(0, 2, 1))


def assemble_b(space, prob, reduced=True):
    """Full linear form b(u, v) = a(u, v) + <conv . grad u + c u, v>; the
    reduced matrix is cut from the cached full one.  For b = a the full
    matrix is the cached stiffness of ``assemble_a`` itself."""
    if prob.is_nonlinear:
        raise UnsupportedFormError(
            "assemble_b needs a linear problem; use nonlinear_form for the "
            "monotone operator")
    def build():
        if reduced:
            return _reduce(space, assemble_b(space, prob, reduced=False))
        out = assemble_a(space, prob, reduced=False)
        if prob.convection is not None or prob.reaction is not None:
            out = out + _scatter(space, _local_lower_order(space, prob))
        return out
    return space.cached(("b", reduced), prob, build)


def _local_lower_order(space, prob):
    """Element matrices of <conv . grad u + c u, v>: GEMMs of per-point
    weights with the reference pair tables; the convection is pulled back
    to the reference element by K^T."""
    pts, w = triangle_rule(2 * space.degree)
    phys = space.physical_points(pts).reshape(-1, 2)
    ne, nl = space.mesh.n_elements, space.ref.n_local
    wdet = space.wdet(w)
    local = np.zeros((ne, nl * nl))
    if prob.convection is not None:
        bvec = np.asarray(prob.convection(phys)).reshape(ne, -1, 2)
        bref = (bvec @ space.inv_jac.transpose(0, 2, 1)) * wdet[:, :, None]
        local += bref.reshape(ne, -1) @ space.ref.table("convection", pts)
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(phys)).reshape(ne, -1)
        local += (c * wdet) @ space.ref.table("mass", pts)
    return local.reshape(ne, nl, nl)


def load_vector(space, prob):
    """Full load functional F_i = <f, phi_i>."""
    F = np.zeros(space.n_dofs)
    if prob.load is None:
        return F
    pts, w = triangle_rule(2 * space.degree)
    phys = space.physical_points(pts).reshape(-1, 2)
    f = np.asarray(prob.load(phys)).reshape(space.mesh.n_elements, -1)
    local = (f * space.wdet(w)) @ space.ref.table("eval", pts)
    np.add.at(F, space.elem_dofs.ravel(), local.ravel())
    return F


def dirichlet_values(space, prob):
    """Nodal interpolation of the boundary data on the Dirichlet DOFs, zero
    on the free DOFs.  It is computed once per space and problem and
    returned read-only; a caller that writes into it copies it first."""
    def build():
        vals = np.zeros(space.n_dofs)
        if prob.dirichlet is not None and space.dirichlet_mask.any():
            idx = np.nonzero(space.dirichlet_mask)[0]
            vals[idx] = np.asarray(prob.dirichlet(space.dof_points[idx]))
        vals.flags.writeable = False
        return vals
    return space.cached("dirichlet", prob, build)


def assemble_rhs(space, prob):
    """Reduced right-hand side of the b-system, lift subtracted."""
    F = load_vector(space, prob)
    rhs = F[space.free]
    if prob.dirichlet is not None and space.dirichlet_mask.any():
        B = assemble_b(space, prob, reduced=False)
        lift = dirichlet_values(space, prob)
        rhs = rhs - (B @ lift)[space.free]
    return rhs


def _gradient_rule(space, pts, w):
    """The rule (pts, w) for an integrand that reads only grad v.  At p = 1
    grad v is constant on each element, so one point with the summed
    weight integrates it; at p >= 2 the rule itself."""
    if space.degree == 1:
        return pts[:1], w.sum(keepdims=True)
    return pts, w


def nonlinear_form(space, prob, coeffs):
    """Vector of <A(grad u), grad phi_i> + <c u, phi_i> for the monotone op:
    the flux a(|grad u|^2) grad u w det, pulled back by K^T, and c u w det,
    each times a reference table in one GEMM.  The flux reads only grad u,
    so at p = 1 it is evaluated once per element (``_gradient_rule``); the
    reaction term keeps the full rule."""
    nl = prob.nonlinearity
    if nl is None:
        raise UnsupportedFormError("problem has no nonlinearity")
    pts, w = triangle_rule(2 * space.degree + 4)
    ne, n_local = space.mesh.n_elements, space.ref.n_local
    gpts, gw = _gradient_rule(space, pts, w)
    g = space.function_gradients(coeffs, gpts)
    t = nl.a(g[..., 0] ** 2 + g[..., 1] ** 2) * space.wdet(gw)
    dN = space.ref.table("grad", gpts).transpose(0, 2, 1).reshape(-1, n_local)
    local = k_product(t[:, :, None] * g, space.inv_jac.transpose(0, 2, 1)
                      ).reshape(ne, -1) @ dN
    if prob.reaction is not None:
        phys = space.physical_points(pts).reshape(-1, 2)
        c = np.asarray(prob.reaction(phys)).reshape(ne, -1)
        u = space.function_values(coeffs, pts)
        local += (c * u * space.wdet(w)) @ space.ref.table("eval", pts)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.elem_dofs.ravel(), local.ravel())
    return out


def nonlinear_energy(space, prob, coeffs):
    """E(v) = 1/2 int B(|grad v|^2) + 1/2 int c v^2 - F(v), with B' = a; the
    B term reads only grad v and takes ``_gradient_rule``."""
    nl = prob.nonlinearity
    pts, w = triangle_rule(2 * space.degree + 4)
    gpts, gw = _gradient_rule(space, pts, w)
    g = space.function_gradients(coeffs, gpts)
    E = 0.5 * (nl.integral((g ** 2).sum(axis=2)) * space.wdet(gw)).sum()
    if prob.reaction is not None:
        phys = space.physical_points(pts).reshape(-1, 2)
        c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
        u = space.function_values(coeffs, pts)
        E += 0.5 * (c * u ** 2 * space.wdet(w)).sum()
    F = load_vector(space, prob)
    return E - F @ coeffs


# ---------------------------------------------------------------------------
# solves


def solve_galerkin_exact(space, prob):
    """Coefficient vector of the Galerkin solution; nonlinear problems by
    damped Zarantonello iteration.

    The nonlinear fixed point uses delta = 1/L and iterates until the energy
    norm of the increment drops below 1e-11 max(1, |||u|||), with |||u||| the
    energy norm of the current iterate (a test-only reference quantity).
    """
    lift = dirichlet_values(space, prob)
    if not prob.is_nonlinear:
        coeffs = lift.copy()
        coeffs[space.free] = solve_direct(assemble_b(space, prob),
                                          assemble_rhs(space, prob))
        return coeffs

    if prob.L is None:
        raise SolverError("nonlinear problem needs monotonicity constants")
    delta = 1.0 / prob.L
    solve = factorize(assemble_a(space, prob))
    G = energy_gram(space, prob)
    F = load_vector(space, prob)
    coeffs = lift.copy()
    for _ in range(10000):
        resid = (F - nonlinear_form(space, prob, coeffs))[space.free]
        step = delta * solve(resid)
        coeffs[space.free] += step
        inc = np.zeros(space.n_dofs)
        inc[space.free] = step
        norm_u = np.sqrt(coeffs @ (G @ coeffs))
        if np.sqrt(inc @ (G @ inc)) <= 1e-11 * max(1.0, norm_u):
            return coeffs
    raise SolverError("Zarantonello fixed point did not converge")


def factorize(operator):
    """The exact solve with a sparse matrix, for a vector or a column block
    of right-hand sides.  The matrix is LU-factored once, here; each solve
    then takes up to three steps of iterative refinement with the same
    factors, and its relative residual must end at most 1e-12.  Every
    exact solve goes through this routine; each failure raises
    SolverError.

    A canonical CSR matrix that equals its transpose exactly, pattern and
    values, is ordered by minimum degree on A + A' and factored in
    SuperLU's symmetric mode with diagonal pivots, no relaxed supernodes
    (``relax=1``) and panels of one column (``panel_size=1``).  Relaxation
    is off because on these matrices it is what makes the symmetric
    ordering slow: kellogg's uniform P1 matrix at 130561 free DOFs factors
    in 18.4 s with SuperLU's default ``relax`` and 0.61 s with ``relax=1``
    (1.31 s under COLAMD), and the fill, 7.8M nonzeros of L and U against
    COLAMD's 13.8M, is the same either way.  Without relaxation the
    supernodes hold one or two columns, so a wider panel only adds
    blocking work: over the 163 matrices of a graded kellogg P2 run to
    42005 DOFs the summed factor time is 3.28 s with SuperLU's default
    panel and 2.41 s with panels of one, at the same fill.  Every other
    matrix, the nonsymmetric b-form of a convection problem among them,
    keeps ``splu``'s defaults: COLAMD with partial pivoting.  The symmetry
    test reads the CSC arrays built here: for a canonical CSR matrix they
    are the CSR arrays of its transpose."""
    M = sp.csc_matrix(operator)
    symmetric = (sp.issparse(operator) and operator.format == "csr"
                 and operator.has_canonical_format
                 and np.array_equal(operator.indptr, M.indptr)
                 and np.array_equal(operator.indices, M.indices)
                 and np.array_equal(operator.data, M.data))
    try:
        if symmetric:
            lu = splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      relax=1, panel_size=1,
                      options=dict(SymmetricMode=True))
        else:
            lu = splu(M)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("singular system")
        scale = np.linalg.norm(rhs)
        for _ in range(3):
            r = rhs - M @ x
            if np.linalg.norm(r) <= 1e-12 * scale:
                return x
            x = x + lu.solve(r)
        res = np.linalg.norm(rhs - M @ x) / scale
        if res > 1e-12:
            raise SolverError(f"relative residual {res:.2e} above 1e-12")
        return x
    return solve


def solve_direct(operator, rhs):
    """One exact solve: ``factorize(operator)(rhs)``."""
    return factorize(operator)(rhs)


# ---------------------------------------------------------------------------
# energy norm and prolongation


def energy_gram(space, prob):
    """Full symmetric Gram matrix of a(., .); seminorm on all of X_H."""
    return assemble_a(space, prob, reduced=False)


def energy_inner(space, prob, v, w):
    G = energy_gram(space, prob)
    return float(space.coefficients(v) @ (G @ space.coefficients(w)))


def energy_norm(space, prob, v):
    return float(np.sqrt(max(energy_inner(space, prob, v, v), 0.0)))


def prolongation_matrix(coarse, fine):
    """Sparse embedding of coarse coefficients into the fine space.

    Requires fine.mesh to be an NVB descendant of coarse.mesh.  The matrix
    reproduces the identical piecewise polynomial: row i is the coarse basis
    evaluated at ``fine.dof_points[i]``, in the ancestor of one fine element
    that holds DOF i (weights below 1e-13 dropped); a DOF that no element
    holds has an empty row.
    """
    if fine.degree != coarse.degree:
        raise ValueError("prolongation requires matching polynomial degree")
    # a mesh token is never reused, and it pins neither mesh nor space
    return fine.cached(("prol", coarse.mesh.token), None,
                       lambda: _prolongation(coarse, fine))


def _prolongation(coarse, fine):
    # one fine element holding each DOF; a DOF that none holds keeps an
    # empty row
    owner = np.full(fine.n_dofs, -1)
    owner[fine.elem_dofs] = np.arange(fine.mesh.n_elements)[:, None]
    held = np.flatnonzero(owner >= 0)
    anc = ancestor_map(fine.mesh, coarse.mesh)[owner[held]]
    x = fine.dof_points.take(held, axis=0) - coarse.origin.take(anc, axis=0)
    loc = k_product(x, coarse.inv_jac.take(anc, axis=0).transpose(0, 2, 1))

    vals = coarse.ref.eval(loc)
    vals[np.abs(vals) < 1e-13] = 0.0
    rows = np.repeat(held, coarse.ref.n_local)
    cols = coarse.elem_dofs[anc].ravel()
    P = sp.coo_matrix((vals.ravel(), (rows, cols)),
                      shape=(fine.n_dofs, coarse.n_dofs)).tocsr()
    P.eliminate_zeros()  # the weights set to 0 above
    return P


def energy_error_exact(space, prob, u):
    """|||u_exact - u||| by quadrature with the analytic gradient."""
    if prob.exact_solution is None:
        raise ValueError("problem has no exact solution")
    _, grad_exact = prob.exact_solution
    pts, w = triangle_rule(2 * space.degree + 6)
    phys = space.physical_points(pts)
    ge = np.asarray(grad_exact(phys.reshape(-1, 2))).reshape(
        space.mesh.n_elements, -1, 2)
    gh = space.function_gradients(space.coefficients(u), pts)
    a = _diffusion_at(prob, phys.reshape(-1, 2))
    dens = a.reshape(space.mesh.n_elements, -1) * ((ge - gh) ** 2).sum(axis=2)
    return float(np.sqrt(max((dens * space.wdet(w)).sum(), 0.0)))
