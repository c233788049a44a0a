"""Residual a-posteriori error indicators.

Per element T (d = 2):

    eta(T, v)^2 = |T| * || -div(A grad v) + conv . grad v + c v - f ||_T^2
                + |T|^(1/2) * || [[ A grad v . n ]] ||_{dT cap Omega}^2
                + |T|^(1/2) * || (1 - Pi^(p-1)) d u_D / ds ||_{dT cap dOmega}^2

with the scalar diffusion A taken as constant inside each element.  For
nonlinear problems the flux A grad v is a(|grad v|^2) grad v.  Interior
edge integrals are computed once per edge and added to both neighbouring
elements (the boundary-of-T convention double-counts edges by design).  The
boundary-data oscillation term appears only for inhomogeneous Dirichlet
data; Pi^(p-1) is the L2 projection onto polynomials of degree p-1 on the
edge.  Every gradient is a GEMM of the element coefficients with a
reference table of the degree, mapped by the inverse Jacobian.

At p = 1 the pass does only the work the answer depends on.  A P1 gradient
is constant on each element, so it is evaluated once per element and
broadcast to the edge points of both owners; the jump is still integrated
point by point with the edge rule, since the diffusion may vary along an
edge.  The second-order part of the volume residual is identically zero
(Delta v = 0, D^2 v = 0, A constant per element), so no Hessian is built,
and without convection, reaction or load the volume term is zero.  Both
shortcuts skip exact zeros and repeated values, so the indicators are the
ones the general pass computes, bit for bit.  The edge points pulled
towards each owner's centroid are geometry: they are built once per space,
and only for a diffusion sampled at points (not for nonlinear fluxes).  The
diffusion at those points and the boundary-data oscillation depend on the
space and the problem only, so they are kept on the space for the problem
object they were computed for.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .fem import _diffusion_at, contract
from .quadrature import edge_rule, triangle_rule

__all__ = ["Indicators", "compute_indicators", "estimator_total", "Q_RED"]

# estimator reduction factor on refined elements: a bisection halves |T|, so
# the weights |T| and |T|^(1/2) of eta^2 shrink by at least 2^(-1/2)
Q_RED = 2.0 ** -0.25

# relative pull of edge quadrature points towards the element centroid, so
# that piecewise coefficients are sampled from the correct side
_PULL = 1e-6


@dataclass
class Indicators:
    """Per-element squared refinement indicators."""
    per_element: np.ndarray

    def __post_init__(self):
        self.per_element = np.asarray(self.per_element, dtype=float)

    @property
    def total2(self):
        return float(self.per_element.sum())

    @property
    def total(self):
        return float(np.sqrt(max(self.total2, 0.0)))


def estimator_total(ind, subset=None):
    """sqrt of the (subset) sum of squared indicators; a subset is a
    collection of element indices (a boolean mask is rejected)."""
    if subset is None:
        return ind.total
    subset = np.asarray(list(subset))
    if subset.size == 0:
        return 0.0
    if subset.dtype.kind not in "iu":
        raise TypeError("subset must hold integer element indices")
    if subset.min() < 0 or subset.max() >= len(ind.per_element):
        raise IndexError("element index out of range")
    return float(np.sqrt(max(ind.per_element[subset].sum(), 0.0)))


def compute_indicators(space, v, prob):
    """Residual indicators for a discrete function on its space."""
    coeffs = v.coeffs if hasattr(v, "coeffs") else np.asarray(v, dtype=float)
    if len(coeffs) != space.n_dofs:
        raise ValueError("function does not live on the given space")
    eta2 = _volume_terms(space, coeffs, prob)
    _edge_terms(space, coeffs, prob, eta2)
    return Indicators(eta2)


# ---------------------------------------------------------------------------


def _volume_terms(space, coeffs, prob):
    bump = 4 if prob.is_nonlinear else 2
    pts, w = triangle_rule(2 * space.degree + bump)
    convection = None if prob.is_nonlinear else prob.convection
    if space.degree == 1 and convection is None and prob.reaction is None \
            and prob.load is None:
        return np.zeros(space.mesh.n_elements)
    flat = space.physical_points(pts).reshape(-1, 2)
    shape = (space.mesh.n_elements, len(w))

    R = 0.0
    if space.degree > 1:
        R = -_div_flux(space, coeffs, prob, pts, flat)
    if convection is not None:
        bv = np.asarray(convection(flat)).reshape(shape + (2,))
        R = R + (bv * space.function_gradients(coeffs, pts)).sum(axis=-1)
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(flat)).reshape(shape)
        R = R + c * space.function_values(coeffs, pts)
    if prob.load is not None:
        R = R - np.asarray(prob.load(flat)).reshape(shape)

    return 0.5 * space.det * (R ** 2 * space.wdet(w)).sum(axis=1)


def _div_flux(space, coeffs, prob, pts, flat):
    """div(A grad v) at the volume points; zero at p = 1, not called there."""
    h = space.function_hessians(coeffs, pts)
    lap = h[..., 0] + h[..., 2]
    if not prob.is_nonlinear:
        return _diffusion_at(prob, flat).reshape(lap.shape) * lap
    nl = prob.nonlinearity
    g = space.function_gradients(coeffs, pts)
    t = (g ** 2).sum(axis=2)
    Hg = np.stack([h[..., 0] * g[..., 0] + h[..., 1] * g[..., 1],
                   h[..., 1] * g[..., 0] + h[..., 2] * g[..., 1]], axis=-1)
    return 2.0 * nl.da(t) * (Hg * g).sum(axis=-1) + nl.a(t) * lap


def _edge_geometry(space, nq):
    key = ("edge_geom", nq)
    if key in space._cache:
        return space._cache[key]
    mesh = space.mesh
    edges, elem_edges, edge_elems = mesh.edge_tables()
    # pair[edge, side]: 2 k + s for the owner's local edge k, with s = 1 when
    # the owner runs along it against the edge's orientation
    elem, k = np.divmod(np.arange(3 * mesh.n_elements), 3)
    eid = elem_edges.ravel()
    pair = np.full((len(edges), 2), -1)
    pair[eid, (edge_elems[eid, 0] != elem).astype(int)] = \
        2 * k + (mesh.elements[elem, k] != edges[eid, 0])
    t, w = edge_rule(nq)
    pa = mesh.vertices[edges[:, 0]]
    d = mesh.vertices[edges[:, 1]] - pa
    lengths = np.linalg.norm(d, axis=1)
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    phys = pa[:, None, :] + t[None, :, None] * d[:, None, :]
    bnd_dirichlet = np.zeros(len(edges), dtype=bool)
    bnd_dirichlet[mesh.edge_ids(mesh.boundary_edges[:, :2])] = True
    geom = dict(edges=edges, owners=edge_elems, pair=pair, t=t, w=w,
                lengths=lengths, normals=normals, phys=phys,
                dirichlet=bnd_dirichlet,
                interior=np.nonzero(edge_elems[:, 1] >= 0)[0])
    space._cache[key] = geom
    return geom


def _pulled_points(space, geom):
    """The edge points of the interior edges pulled towards the centroid of
    each owner, shape (2, n_interior, nq, 2); built on first use, since only
    a diffusion sampled at points reads them."""
    if "pulled" not in geom:
        interior = geom["interior"]
        e = geom["owners"][interior].T
        phys = geom["phys"][interior]
        centroid = space.origin[e] \
            + (space.jac[e, :, 0] + space.jac[e, :, 1]) / 3.0
        geom["pulled"] = phys + _PULL * (centroid[:, :, None, :] - phys)
    return geom["pulled"]


def _edge_gradients(space, coeffs, geom, side):
    """grad v from one owner of each interior edge at the edge points, for
    p >= 2."""
    e = geom["owners"][geom["interior"], side]
    pair = geom["pair"][geom["interior"], side]
    # one GEMM per (local edge, direction) table over the edges that use it;
    # gathering all six tables for every edge costs more memory
    tables = space.ref.table("edge_grad", geom["t"])
    grads = np.empty((len(e), len(geom["t"]), 2))
    for k, table in enumerate(tables):
        sel = np.nonzero(pair == k)[0]
        es = e[sel]
        grads[sel] = contract(coeffs[space.elem_dofs[es]], table) \
            @ space.inv_jac[es]
    return grads


def _side_flux(space, coeffs, prob, geom, side, p1_grad):
    """A grad v (linear) or a(|grad v|^2) grad v (nonlinear) from one owner
    of each interior edge at the edge points.  At p = 1 the gradient is the
    owner's constant gradient ``p1_grad``, broadcast to the points."""
    if p1_grad is None:
        grads = _edge_gradients(space, coeffs, geom, side)
    else:
        e = geom["owners"][geom["interior"], side]
        grads = np.broadcast_to(p1_grad[e], (len(e), len(geom["t"]), 2))
    if prob.is_nonlinear:
        t = (grads ** 2).sum(axis=-1)
        return prob.nonlinearity.a(t)[..., None] * grads
    return _edge_diffusion(space, prob, geom)[side][..., None] * grads


def _edge_diffusion(space, prob, geom):
    """The diffusion at the pulled edge points of both owners, shape
    (2, n_interior, nq); it depends on the space and the problem only."""
    def build():
        pulled = _pulled_points(space, geom)
        return _diffusion_at(prob, pulled.reshape(-1, 2)) \
            .reshape(pulled.shape[:-1])
    return space.cached(("edge_diffusion", len(geom["t"])), prob, build)


def _edge_terms(space, coeffs, prob, eta2):
    nq = space.degree + 4
    geom = _edge_geometry(space, nq)
    owners = geom["owners"]
    areas = 0.5 * space.det

    interior = geom["interior"]
    if len(interior):
        # a P1 gradient is constant on each element: one per element serves
        # both owners of every edge
        g = space.function_gradients(coeffs, np.zeros((1, 2))) \
            if space.degree == 1 else None
        f0 = _side_flux(space, coeffs, prob, geom, 0, g)
        f1 = _side_flux(space, coeffs, prob, geom, 1, g)
        n = geom["normals"][interior]
        jump = ((f0 - f1) * n[:, None, :]).sum(axis=2)
        integral = (jump ** 2 * geom["w"][None, :]).sum(axis=1) \
            * geom["lengths"][interior]
        for side in (0, 1):
            e = owners[interior, side]
            np.add.at(eta2, e, np.sqrt(areas[e]) * integral)

    if prob.dirichlet is not None:
        bnd = np.nonzero(geom["dirichlet"])[0]
        if len(bnd):
            osc = space.cached(
                ("boundary_oscillation", nq), prob,
                lambda: _boundary_oscillation(space, prob, geom, bnd))
            e = owners[bnd, 0]
            np.add.at(eta2, e, np.sqrt(areas[e]) * osc)


def _boundary_oscillation(space, prob, geom, edge_ids):
    """|| (1 - Pi^(p-1)) du_D/ds ||^2 per Dirichlet boundary edge."""
    t, w = geom["t"], geom["w"]
    phys = geom["phys"][edge_ids]
    lengths = geom["lengths"][edge_ids]
    edges = geom["edges"][edge_ids]
    tangents = (space.mesh.vertices[edges[:, 1]]
                - space.mesh.vertices[edges[:, 0]]) / lengths[:, None]
    if prob.exact_solution is not None:
        grad = np.asarray(prob.exact_solution[1](phys.reshape(-1, 2)))
        g = (grad.reshape(phys.shape) * tangents[:, None, :]).sum(axis=2)
    else:
        h = (1e-6 * lengths)[:, None, None]
        up = np.asarray(prob.dirichlet((phys + h * tangents[:, None, :])
                                       .reshape(-1, 2))).reshape(phys.shape[:2])
        dn = np.asarray(prob.dirichlet((phys - h * tangents[:, None, :])
                                       .reshape(-1, 2))).reshape(phys.shape[:2])
        g = (up - dn) / (2.0 * h[:, :, 0])
    # L2(E) projection onto degree p-1 via shifted Legendre polynomials
    resid = g.copy()
    x = 2.0 * t - 1.0
    for k in range(space.degree):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        qk = legval(x, ck)
        ip = (g * qk[None, :] * w[None, :]).sum(axis=1) * (2 * k + 1)
        resid = resid - ip[:, None] * qk[None, :]
    return (resid ** 2 * w[None, :]).sum(axis=1) * lengths
