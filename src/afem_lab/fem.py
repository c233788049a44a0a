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
    "Space", "ProblemDef", "Nonlinearity", "DiscreteFunction",
    "assemble_a", "assemble_b", "assemble_rhs", "solve_galerkin_exact",
    "prolongate", "prolongation_matrix", "energy_norm", "energy_inner",
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
    inverted Vandermonde matrix in the monomial basis; fine for p <= 6.
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
        (nq, nl, 3), a pair table, or "edge_grad" at edge parameters."""
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


@dataclass
class Nonlinearity:
    """Scalar nonlinearity A(grad u) = a(|grad u|^2) grad u."""
    a: callable
    da: callable         # derivative a'(t)
    integral: callable   # antiderivative of a, for energies


@dataclass
class ProblemDef:
    """Coefficients of the PDE; all callables act on (n, 2) point arrays.

    diffusion returns the scalar coefficient a(x), shape (n,), of the
    isotropic diffusion a(x) I; None means 1.  Assembly and the exact energy
    error integrate a(x) at quadrature points; the residual estimator takes
    it as constant inside each element and reads it at the centroids.
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
        c = mesh.element_coords()
        J = np.stack([c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]], axis=2)
        self.origin = c[:, 0]
        self.jac = J
        self.det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if (self.det <= 0).any():
            raise AssemblyError("degenerate or inverted element")
        inv = np.empty_like(J)
        inv[:, 0, 0] = J[:, 1, 1]
        inv[:, 1, 1] = J[:, 0, 0]
        inv[:, 0, 1] = -J[:, 0, 1]
        inv[:, 1, 0] = -J[:, 1, 0]
        self.inv_jac = inv / self.det[:, None, None]

        # DOF coordinates
        pts = np.zeros((self.n_dofs, 2))
        pts[dof.ravel()] = self.physical_points(ref.nodes).reshape(-1, 2)
        self.dof_points = pts

        # Dirichlet classification: all boundary segments carry Dirichlet data
        mask = np.zeros(self.n_dofs, dtype=bool)
        bedges = mesh.boundary_edges[:, :2]
        mask[bedges.ravel()] = True
        eids = mesh.edge_ids(bedges)
        for t in range(p - 1):
            mask[nv + eids * (p - 1) + t] = True
        self.dirichlet_mask = mask
        self.free = np.nonzero(~mask)[0]
        self.n_free = len(self.free)
        self._cache = {}

    def cached(self, key, prob, build):
        """``build()``, kept on the space for the problem object ``prob``;
        another problem object on the same space builds anew."""
        hit = self._cache.get(key)
        if hit is not None and hit[0] is prob:
            return hit[1]
        out = build()
        self._cache[key] = (prob, out)
        return out

    # -- evaluation helpers -------------------------------------------------

    def physical_points(self, ref_pts):
        """Map reference points to each element, shape (ne, nq, 2)."""
        return self.origin[:, None, :] \
            + np.asarray(ref_pts) @ self.jac.transpose(0, 2, 1)

    def wdet(self, w):
        """Quadrature weights times |det J| per element, shape (ne, nq)."""
        return w[None, :] * self.det[:, None]

    def function_values(self, coeffs, ref_pts):
        return coeffs[self.elem_dofs] @ self.ref.table("eval", ref_pts).T

    def function_gradients(self, coeffs, ref_pts):
        return contract(coeffs[self.elem_dofs],
                        self.ref.table("grad", ref_pts)) @ self.inv_jac

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


@dataclass
class DiscreteFunction:
    space: Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError("coefficient vector does not match space size")

    def eval(self, points):
        """Point evaluation (brute-force element lookup; for tests/plots)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        space = self.space
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
            vals[pidx] = N[0] @ self.coeffs[space.elem_dofs[e]]
        return vals if len(vals) > 1 else float(vals[0])


# ---------------------------------------------------------------------------
# assembly


def _scatter(space, local):
    nl = space.ref.n_local
    rows = np.repeat(space.elem_dofs, nl, axis=1).ravel()
    cols = np.tile(space.elem_dofs, (1, nl)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(space.n_dofs, space.n_dofs))
    return M.tocsr()


def _reduce(space, M):
    return M[space.free][:, space.free]


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
    K = space.inv_jac
    metric = (space.wdet(w) * a.reshape(len(K), -1))[:, :, None, None] \
        * (K @ K.transpose(0, 2, 1))[:, None]
    nl = space.ref.n_local
    local = (metric.reshape(len(K), -1)
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
    """Nodal interpolation of the boundary data on the Dirichlet DOFs."""
    vals = np.zeros(space.n_dofs)
    if prob.dirichlet is not None and space.dirichlet_mask.any():
        idx = np.nonzero(space.dirichlet_mask)[0]
        vals[idx] = np.asarray(prob.dirichlet(space.dof_points[idx]))
    return vals


def assemble_rhs(space, prob):
    """Reduced right-hand side of the b-system, lift subtracted."""
    F = load_vector(space, prob)
    rhs = F[space.free]
    if prob.dirichlet is not None and space.dirichlet_mask.any():
        B = assemble_b(space, prob, reduced=False)
        lift = dirichlet_values(space, prob)
        rhs = rhs - (B @ lift)[space.free]
    return rhs


def nonlinear_form(space, prob, coeffs):
    """Vector of <A(grad u), grad phi_i> + <c u, phi_i> for the monotone op."""
    nl = prob.nonlinearity
    if nl is None:
        raise UnsupportedFormError("problem has no nonlinearity")
    pts, w = triangle_rule(2 * space.degree + 4)
    g = space.function_gradients(coeffs, pts)
    t = (g ** 2).sum(axis=2)
    flux = nl.a(t)[:, :, None] * g
    wdet = space.wdet(w)
    # physical basis gradients (ne, nq, nl, 2), a temporary of this call
    grad_tab = space.ref.table("grad", pts)[None] @ space.inv_jac[:, None]
    local = np.einsum("eqi,eqli,eq->el", flux, grad_tab, wdet)
    if prob.reaction is not None:
        phys = space.physical_points(pts).reshape(-1, 2)
        c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
        u = space.function_values(coeffs, pts)
        local += np.einsum("eq,ql,eq->el", c * u,
                           space.ref.table("eval", pts), wdet)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.elem_dofs.ravel(), local.ravel())
    return out


def nonlinear_energy(space, prob, coeffs):
    """E(v) = 1/2 int B(|grad v|^2) + 1/2 int c v^2 - F(v), with B' = a."""
    nl = prob.nonlinearity
    pts, w = triangle_rule(2 * space.degree + 4)
    g = space.function_gradients(coeffs, pts)
    wdet = space.wdet(w)
    E = 0.5 * (nl.integral((g ** 2).sum(axis=2)) * wdet).sum()
    if prob.reaction is not None:
        phys = space.physical_points(pts).reshape(-1, 2)
        c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
        u = space.function_values(coeffs, pts)
        E += 0.5 * (c * u ** 2 * wdet).sum()
    F = load_vector(space, prob)
    return E - F @ coeffs


# ---------------------------------------------------------------------------
# solves


def solve_galerkin_exact(space, prob):
    """Galerkin solution; nonlinear problems by damped Zarantonello iteration.

    The nonlinear fixed point uses delta = 1/L and iterates until the energy
    norm of the increment drops below 1e-11 (a test-only reference quantity).
    """
    lift = dirichlet_values(space, prob)
    if not prob.is_nonlinear:
        coeffs = lift
        coeffs[space.free] = solve_direct(assemble_b(space, prob),
                                          assemble_rhs(space, prob))
        return DiscreteFunction(space, coeffs)

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
        if np.sqrt(inc @ (G @ inc)) <= 1e-11 * max(1.0, np.linalg.norm(coeffs)):
            return DiscreteFunction(space, coeffs)
    raise SolverError("Zarantonello fixed point did not converge")


def factorize(operator):
    """The exact solve with a sparse matrix, for a vector or a column block
    of right-hand sides.  The matrix is LU-factored once, here; each solve
    then takes up to three steps of iterative refinement with the same
    factors, and its relative residual must end at most 1e-12.  Every
    exact solve goes through this routine; each failure raises
    SolverError."""
    M = sp.csc_matrix(operator)
    try:
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
    cv = v.coeffs if isinstance(v, DiscreteFunction) else np.asarray(v)
    cw = w.coeffs if isinstance(w, DiscreteFunction) else np.asarray(w)
    if len(cv) != space.n_dofs or len(cw) != space.n_dofs:
        raise ValueError("coefficient vector does not match space")
    G = energy_gram(space, prob)
    return float(cv @ (G @ cw))


def energy_norm(space, prob, v):
    return float(np.sqrt(max(energy_inner(space, prob, v, v), 0.0)))


def prolongation_matrix(coarse, fine):
    """Sparse embedding of coarse coefficients into the fine space.

    Requires fine.mesh to be an NVB descendant of coarse.mesh.  The matrix
    reproduces the identical piecewise polynomial (exact interpolation at
    fine DOF nodes inside each ancestor element).
    """
    # keyed on the coarse mesh, which the refinement chain keeps alive, so
    # the key cannot be reused; the coarse space itself is not pinned
    key = ("prol", coarse.mesh)
    if key in fine._cache:
        return fine._cache[key]
    if fine.degree != coarse.degree:
        raise ValueError("prolongation requires matching polynomial degree")
    amap = ancestor_map(fine.mesh, coarse.mesh)

    ref_nodes = fine.ref.nodes
    phys = fine.physical_points(ref_nodes)  # (ne_f, nl, 2)
    anc_origin = coarse.origin[amap]
    anc_inv = coarse.inv_jac[amap]
    loc = np.einsum("eij,enj->eni", anc_inv, phys - anc_origin[:, None, :])

    flat_rows = fine.elem_dofs.ravel()
    _, first = np.unique(flat_rows, return_index=True)
    e_idx, l_idx = np.divmod(first, fine.ref.n_local)

    vals = coarse.ref.eval(loc[e_idx, l_idx])
    vals[np.abs(vals) < 1e-13] = 0.0
    rows = np.repeat(flat_rows[first], coarse.ref.n_local)
    cols = coarse.elem_dofs[amap[e_idx]].ravel()
    P = sp.coo_matrix((vals.ravel(), (rows, cols)),
                      shape=(fine.n_dofs, coarse.n_dofs)).tocsr()
    P.eliminate_zeros()  # the weights set to 0 above
    fine._cache[key] = P
    return P


def prolongate(coarse_fn, fine_space):
    """Represent a coarse DiscreteFunction exactly in a finer space."""
    P = prolongation_matrix(coarse_fn.space, fine_space)
    return DiscreteFunction(fine_space, P @ coarse_fn.coeffs)


def interpolate(space, func):
    """Nodal interpolation of a callable on all DOF points."""
    return DiscreteFunction(space, np.asarray(func(space.dof_points),
                                              dtype=float))


def energy_error_exact(space, prob, fn):
    """|||u_exact - fn||| by quadrature with the analytic gradient."""
    if prob.exact_solution is None:
        raise ValueError("problem has no exact solution")
    _, grad_exact = prob.exact_solution
    pts, w = triangle_rule(2 * space.degree + 6)
    phys = space.physical_points(pts)
    ge = np.asarray(grad_exact(phys.reshape(-1, 2))).reshape(
        space.mesh.n_elements, -1, 2)
    gh = space.function_gradients(fn.coeffs, pts)
    a = _diffusion_at(prob, phys.reshape(-1, 2))
    dens = a.reshape(space.mesh.n_elements, -1) * ((ge - gh) ** 2).sum(axis=2)
    return float(np.sqrt(max((dens * space.wdet(w)).sum(), 0.0)))
