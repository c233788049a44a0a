"""Conforming P_p Lagrange spaces: assembly, Galerkin solves, energy norms.

The bilinear forms are

    a(u, v) = <A grad u, grad v>                      (symmetric part / energy)
    b(u, v) = a(u, v) + <conv . grad u + c u, v>      (full linear form)

and the load is F(v) = <f, v> + <f_vec, grad v>.  Dirichlet conditions are
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

from .mesh import _edge_lookup, ancestor_map
from .quadrature import triangle_rule

__all__ = [
    "Space", "ProblemDef", "Nonlinearity", "DiscreteFunction",
    "assemble_a", "assemble_b", "assemble_rhs", "solve_galerkin_exact",
    "prolongate", "prolongation_matrix", "energy_norm", "energy_inner",
    "solve_direct", "SolverError",
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


# ---------------------------------------------------------------------------
# problem definition


@dataclass
class Nonlinearity:
    """Scalar nonlinearity A(grad u) = a(|grad u|^2) grad u."""
    a: callable
    da: callable                 # derivative a'(t)
    integral: callable = None    # optional antiderivative of a, for energies


@dataclass
class ProblemDef:
    """Coefficients of the PDE; all callables act on (n, 2) point arrays.

    diffusion may return scalars (n,) for isotropic a(x) I or tensors
    (n, 2, 2); None means the identity.  diffusion_div, if given, returns the
    row-wise divergence of the diffusion tensor (needed in the residual
    estimator only when the diffusion varies inside elements).
    """
    diffusion: callable = None
    convection: callable = None
    reaction: callable = None
    load: callable = None
    flux_load: callable = None
    dirichlet: callable = None
    diffusion_div: callable = None
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
    """('scalar', (n,)) or ('matrix', (n,2,2)) evaluation of the diffusion."""
    if prob.diffusion is None:
        return "scalar", np.ones(len(pts))
    val = np.asarray(prob.diffusion(pts), dtype=float)
    if val.ndim == 1:
        return "scalar", val
    return "matrix", val


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
        eids = _edge_lookup(edges, np.sort(bedges, axis=1))
        for t in range(p - 1):
            mask[nv + eids * (p - 1) + t] = True
        self.dirichlet_mask = mask
        self.free = np.nonzero(~mask)[0]
        self.n_free = len(self.free)
        self._cache = {}

    # -- evaluation helpers -------------------------------------------------

    def physical_points(self, ref_pts):
        """Map reference points to each element, shape (ne, nq, 2)."""
        return self.origin[:, None, :] \
            + np.asarray(ref_pts) @ self.jac.transpose(0, 2, 1)

    def basis_tables(self, ref_pts):
        """(N, grad_phys) for reference points on every element.

        N is (nq, nl); the physical gradients are (ne, nq, nl, 2).  Only the
        assembly of forms reads them: the field evaluations below contract
        the coefficients with the reference tables first and never build
        per-element basis tables.
        """
        key = ("bt", ref_pts.tobytes())
        if key not in self._cache:
            dN = self._ref_table("grad", ref_pts)
            self._cache[key] = (self._ref_table("eval", ref_pts),
                                dN[None] @ self.inv_jac[:, None])
        return self._cache[key]

    def _ref_table(self, kind, ref_pts):
        """Reference basis table ``kind`` at ref_pts: "eval" (nq, nl),
        "grad" (nq, nl, 2) or "hess" (nq, nl, 3)."""
        key = (kind, ref_pts.tobytes())
        if key not in self._cache:
            self._cache[key] = getattr(self.ref, kind)(ref_pts)
        return self._cache[key]

    def _contract(self, coeffs, table):
        """Element coefficients times a reference table (nq, nl, c) in one
        GEMM; shape (ne, nq, c)."""
        nq, nl, c = table.shape
        flat = table.transpose(1, 0, 2).reshape(nl, nq * c)
        return (coeffs[self.elem_dofs] @ flat).reshape(-1, nq, c)

    def function_values(self, coeffs, ref_pts):
        return coeffs[self.elem_dofs] @ self._ref_table("eval", ref_pts).T

    def function_gradients(self, coeffs, ref_pts):
        return self._contract(coeffs, self._ref_table("grad", ref_pts)) \
            @ self.inv_jac

    def function_hessians(self, coeffs, ref_pts):
        """Physical Hessians (ne, nq, 3) as xx, xy, yy: K^T H K at each
        point, with H the reference Hessian and K the inverse Jacobian."""
        if self.degree == 1:
            return np.zeros((self.mesh.n_elements, len(ref_pts), 3))
        h = self._contract(coeffs, self._ref_table("hess", ref_pts))
        hxx, hxy, hyy = h[..., 0], h[..., 1], h[..., 2]
        K = self.inv_jac[:, None]
        k00, k01 = K[..., 0, 0], K[..., 0, 1]
        k10, k11 = K[..., 1, 0], K[..., 1, 1]
        return np.stack([
            k00 * k00 * hxx + 2.0 * k00 * k10 * hxy + k10 * k10 * hyy,
            k00 * k01 * hxx + (k00 * k11 + k10 * k01) * hxy + k10 * k11 * hyy,
            k01 * k01 * hxx + 2.0 * k01 * k11 * hxy + k11 * k11 * hyy,
        ], axis=-1)


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
    matrix is cut from the cached full one, so a level assembles once.
    """
    key = ("a", reduced)
    hit = space._cache.get(key)
    if hit is not None and hit[0] is prob:
        return hit[1]
    if reduced:
        out = _reduce(space, assemble_a(space, prob, reduced=False))
    else:
        out = _scatter(space, _local_stiffness(space, prob))
    space._cache[key] = (prob, out)
    return out


def _local_stiffness(space, prob):
    pts, w = triangle_rule(2 * space.degree)
    _, grad = space.basis_tables(pts)
    kind, A = _diffusion_at(prob, space.physical_points(pts).reshape(-1, 2))
    if kind == "scalar":
        A = A.reshape(space.mesh.n_elements, -1)
        flux = grad * A[:, :, None, None]
    else:
        A = A.reshape(space.mesh.n_elements, -1, 2, 2)
        flux = np.einsum("eqij,eqlj->eqli", A, grad)
    wdet = w[None, :] * space.det[:, None]
    local = np.einsum("eqli,eqmi,eq->elm", flux, grad, wdet)
    return 0.5 * (local + local.transpose(0, 2, 1))


def assemble_b(space, prob, reduced=True):
    """Full linear form b(u, v) = a(u, v) + <conv . grad u + c u, v>; the
    reduced matrix is cut from the cached full one."""
    if prob.is_nonlinear:
        raise UnsupportedFormError(
            "assemble_b needs a linear problem; use nonlinear_form for the "
            "monotone operator")
    key = ("b", reduced)
    hit = space._cache.get(key)
    if hit is not None and hit[0] is prob:
        return hit[1]
    if reduced:
        out = _reduce(space, assemble_b(space, prob, reduced=False))
    else:
        out = assemble_a(space, prob, reduced=False).copy()
        if prob.convection is not None or prob.reaction is not None:
            out = out + _scatter(space, _local_lower_order(space, prob))
    space._cache[key] = (prob, out)
    return out


def _local_lower_order(space, prob):
    """Element matrices of <conv . grad u + c u, v>."""
    pts, w = triangle_rule(2 * space.degree)
    N, grad = space.basis_tables(pts)
    phys = space.physical_points(pts).reshape(-1, 2)
    ne = space.mesh.n_elements
    wdet = w[None, :] * space.det[:, None]
    local = np.zeros((ne, space.ref.n_local, space.ref.n_local))
    if prob.convection is not None:
        bvec = np.asarray(prob.convection(phys)).reshape(ne, -1, 2)
        bgrad = np.einsum("eqi,eqli->eql", bvec, grad)
        local += np.einsum("eql,qm,eq->eml", bgrad, N, wdet)
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(phys)).reshape(ne, -1)
        local += np.einsum("eq,ql,qm,eq->eml", c, N, N, wdet)
    return local


def load_vector(space, prob):
    """Full load functional F_i = <f, phi_i> + <f_vec, grad phi_i>."""
    F = np.zeros(space.n_dofs)
    if prob.load is None and prob.flux_load is None:
        return F
    pts, w = triangle_rule(2 * space.degree)
    N, grad = space.basis_tables(pts)
    phys = space.physical_points(pts).reshape(-1, 2)
    ne = space.mesh.n_elements
    wdet = w[None, :] * space.det[:, None]
    local = np.zeros((ne, space.ref.n_local))
    if prob.load is not None:
        f = np.asarray(prob.load(phys)).reshape(ne, -1)
        local += np.einsum("eq,ql,eq->el", f, N, wdet)
    if prob.flux_load is not None:
        fv = np.asarray(prob.flux_load(phys)).reshape(ne, -1, 2)
        local += np.einsum("eqi,eqli,eq->el", fv, grad, wdet)
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
    N, grad_tab = space.basis_tables(pts)
    g = space.function_gradients(coeffs, pts)
    t = (g ** 2).sum(axis=2)
    flux = nl.a(t)[:, :, None] * g
    wdet = w[None, :] * space.det[:, None]
    local = np.einsum("eqi,eqli,eq->el", flux, grad_tab, wdet)
    if prob.reaction is not None:
        phys = space.physical_points(pts).reshape(-1, 2)
        c = np.asarray(prob.reaction(phys)).reshape(space.mesh.n_elements, -1)
        u = space.function_values(coeffs, pts)
        local += np.einsum("eq,ql,eq->el", c * u, N, wdet)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.elem_dofs.ravel(), local.ravel())
    return out


def nonlinear_energy(space, prob, coeffs):
    """E(v) = 1/2 int B(|grad v|^2) + 1/2 int c v^2 - F(v), with B' = a."""
    nl = prob.nonlinearity
    pts, w = triangle_rule(2 * space.degree + 4)
    g = space.function_gradients(coeffs, pts)
    t = (g ** 2).sum(axis=2)
    if nl.integral is not None:
        dens = nl.integral(t)
    else:
        from scipy.integrate import quad
        dens = np.vectorize(lambda s: quad(nl.a, 0.0, s, limit=200)[0])(t)
    wdet = w[None, :] * space.det[:, None]
    E = 0.5 * (dens * wdet).sum()
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
    A = assemble_a(space, prob)
    lu = splu(A.tocsc())
    G = energy_gram(space, prob)
    F = load_vector(space, prob)
    coeffs = lift.copy()
    for _ in range(10000):
        resid = (F - nonlinear_form(space, prob, coeffs))[space.free]
        step = delta * lu.solve(resid)
        coeffs[space.free] += step
        inc = np.zeros(space.n_dofs)
        inc[space.free] = step
        if np.sqrt(inc @ (G @ inc)) <= 1e-11 * max(1.0, np.linalg.norm(coeffs)):
            return DiscreteFunction(space, coeffs)
    raise SolverError("Zarantonello fixed point did not converge")


def solve_direct(operator, rhs):
    """Exact sparse solve: one LU factorization, then up to three steps of
    iterative refinement with the same factors; the relative residual must
    end at most 1e-12."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size == 0:
        return np.zeros(0)
    M = sp.csc_matrix(operator)
    try:
        lu = splu(M)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc
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


def energy_error_exact(space, prob, fn, order_bump=6):
    """|||u_exact - fn||| by quadrature with the analytic gradient."""
    if prob.exact_solution is None:
        raise ValueError("problem has no exact solution")
    _, grad_exact = prob.exact_solution
    pts, w = triangle_rule(2 * space.degree + order_bump)
    phys = space.physical_points(pts)
    ge = np.asarray(grad_exact(phys.reshape(-1, 2))).reshape(
        space.mesh.n_elements, -1, 2)
    gh = space.function_gradients(fn.coeffs, pts)
    diff = ge - gh
    kind, A = _diffusion_at(prob, phys.reshape(-1, 2))
    if kind == "scalar":
        dens = A.reshape(space.mesh.n_elements, -1) * (diff ** 2).sum(axis=2)
    else:
        Am = A.reshape(space.mesh.n_elements, -1, 2, 2)
        dens = np.einsum("eqij,eqj,eqi->eq", Am, diff, diff)
    wdet = w[None, :] * space.det[:, None]
    return float(np.sqrt(max((dens * wdet).sum(), 0.0)))
