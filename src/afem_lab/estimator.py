"""Residual a-posteriori error indicators.

Per element T (d = 2):

    eta(T, v)^2 = |T| * || -div(A grad v) + conv . grad v + c v - f ||_T^2
                + |T|^(1/2) * || [[ A grad v . n ]] ||_{dT cap Omega}^2
                + |T|^(1/2) * || (1 - Pi^(p-1)) d u_D / ds ||_{dT cap dOmega}^2

with the scalar diffusion A taken as constant inside each element: it is
read once per element, at the centroid, and kept on the space for the
problem object it was read for.  For nonlinear problems the flux A grad v
is a(|grad v|^2) grad v.  Interior edge integrals are computed once per
edge and added to both neighbouring elements (the boundary-of-T convention
double-counts edges by design).  The boundary-data oscillation term appears
only for inhomogeneous Dirichlet data; Pi^(p-1) is the L2 projection onto
polynomials of degree p-1 on the edge, and it is kept on the space for the
problem object too.  Every gradient is a GEMM of the element coefficients
with a reference table of the degree, mapped by the inverse Jacobian.

At p = 1 the pass does only the work the answer depends on.  A P1 gradient,
and with it the flux, is constant on each element, so it is evaluated once
per element, and the jump across an interior edge is one value that the
edge rule integrates.  The second-order part of the volume residual is
identically zero (Delta v = 0, D^2 v = 0, A constant per element), so no
Hessian is built, and without convection, reaction or load the volume term
is zero.  Both shortcuts skip exact zeros and repeated values, so the
indicators are the ones the general pass computes, bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .fem import _diffusion_at, contract
from .mesh import element_indices
from .quadrature import edge_rule, triangle_rule

__all__ = ["Indicators", "compute_indicators", "estimator_total", "Q_RED"]

# estimator reduction factor on refined elements: a bisection halves |T|, so
# the weights |T| and |T|^(1/2) of eta^2 shrink by at least 2^(-1/2)
Q_RED = 2.0 ** -0.25


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
    subset = element_indices(subset, len(ind.per_element))
    return float(np.sqrt(max(ind.per_element[subset].sum(), 0.0)))


def compute_indicators(space, v, prob):
    """Residual indicators for a coefficient vector on its space."""
    coeffs = space.coefficients(v)
    eta2 = _volume_terms(space, coeffs, prob)
    _edge_terms(space, coeffs, prob, eta2)
    return Indicators(eta2)


# ---------------------------------------------------------------------------


def _volume_terms(space, coeffs, prob):
    bump = 4 if prob.is_nonlinear else 2
    pts, w = triangle_rule(2 * space.degree + bump)
    if space.degree == 1 and prob.convection is None \
            and prob.reaction is None and prob.load is None:
        return np.zeros(space.mesh.n_elements)
    flat = space.physical_points(pts).reshape(-1, 2)
    shape = (space.mesh.n_elements, len(w))

    R = 0.0
    if space.degree > 1:
        R = -_div_flux(space, coeffs, prob, pts)
    if prob.convection is not None:
        bv = np.asarray(prob.convection(flat)).reshape(shape + (2,))
        g = space.function_gradients(coeffs, pts)
        R = R + (bv[..., 0] * g[..., 0] + bv[..., 1] * g[..., 1])
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(flat)).reshape(shape)
        R = R + c * space.function_values(coeffs, pts)
    if prob.load is not None:
        R = R - np.asarray(prob.load(flat)).reshape(shape)

    return 0.5 * space.det * (R ** 2 * space.wdet(w)).sum(axis=1)


def _element_diffusion(space, prob):
    """The diffusion at each element's centroid, shape (n_elements,)."""
    return space.cached("element_diffusion", prob, lambda: _diffusion_at(
        prob, space.physical_points(np.full((1, 2), 1.0 / 3.0))[:, 0]))


def _div_flux(space, coeffs, prob, pts):
    """div(A grad v) at the volume points; zero at p = 1, not called there."""
    h = space.function_hessians(coeffs, pts)
    lap = h[..., 0] + h[..., 2]
    if not prob.is_nonlinear:
        return _element_diffusion(space, prob)[:, None] * lap
    nl = prob.nonlinearity
    g0, g1 = np.moveaxis(space.function_gradients(coeffs, pts), -1, 0)
    t = g0 ** 2 + g1 ** 2
    gHg = (h[..., 0] * g0 + h[..., 1] * g1) * g0 \
        + (h[..., 1] * g0 + h[..., 2] * g1) * g1
    return 2.0 * nl.da(t) * gHg + nl.a(t) * lap


def _edge_geometry(space, nq):
    return space.cached(("edge_geom", nq), None, lambda: _build_edge_geometry(
        space.mesh, nq, space.degree))


def _build_edge_geometry(mesh, nq, degree):
    """Edge data of one space, the interior edges' gathered in ``inner_*``."""
    edges, elem_edges, edge_elems = mesh.edge_tables()
    interior = np.nonzero(edge_elems[:, 1] >= 0)[0]
    t, w = edge_rule(nq)
    pa, pb = mesh.vertices.take(edges.T, axis=0)
    d = pb - pa
    lengths = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    di, li = d.take(interior, axis=0), lengths[interior]
    normals = np.column_stack([di[:, 1], -di[:, 0]]) / li[:, None]
    dirichlet = np.sort(mesh.edge_ids(mesh.boundary_edges))
    # edge points on the Dirichlet edges, where the data oscillation is read
    phys = pa[dirichlet, None, :] + t[None, :, None] * d[dirichlet, None, :]
    geom = dict(edges=edges, owners=edge_elems, t=t, w=w, lengths=lengths,
                phys=phys, dirichlet=dirichlet, inner_lengths=li,
                inner_normals=normals,
                inner_owners=[edge_elems[interior, side] for side in (0, 1)])
    if degree > 1:
        # pair[edge, side]: 2 k + s for the owner's local edge k, with s = 1
        # when the owner runs along it against the edge's orientation
        elem, k = np.divmod(np.arange(3 * mesh.n_elements), 3)
        eid = elem_edges.ravel()
        pair = np.full((len(edges), 2), -1)
        pair[eid, (edge_elems[eid, 0] != elem).astype(int)] = \
            2 * k + (mesh.elements[elem, k] != edges[eid, 0])
        geom["inner_pair"] = [pair[interior, side] for side in (0, 1)]
    return geom


def _edge_gradients(space, coeffs, geom, side):
    """grad v from one owner of each interior edge at the edge points, for
    p >= 2."""
    e = geom["inner_owners"][side]
    pair = geom["inner_pair"][side]
    # one GEMM per (local edge, direction) table over the edges that use it;
    # gathering all six tables for every edge costs more memory
    tables = space.ref.table("edge_grad", geom["t"])
    grads = np.empty((len(e), len(geom["t"]), 2))
    for k, table in enumerate(tables):
        sel = np.nonzero(pair == k)[0]
        es = e[sel]
        grads[sel] = contract(coeffs[space.elem_dofs.take(es, axis=0)],
                              table) @ space.inv_jac.take(es, axis=0)
    return grads


def _flux(space, prob, grads, e):
    """A grad v (linear) or a(|grad v|^2) grad v (nonlinear) from the
    gradients ``grads``, shape (n, nq, 2), of the elements ``e``."""
    if prob.is_nonlinear:
        t = grads[..., 0] ** 2 + grads[..., 1] ** 2
        return prob.nonlinearity.a(t)[..., None] * grads
    return _element_diffusion(space, prob)[e, None, None] * grads


def _edge_terms(space, coeffs, prob, eta2):
    nq = space.degree + 4
    geom = _edge_geometry(space, nq)
    areas = 0.5 * space.det

    inner = geom["inner_owners"]
    if len(inner[0]):
        if space.degree == 1:
            # a P1 flux is constant on each element: one per element serves
            # both owners of every edge, and each jump is one value
            every = np.arange(space.mesh.n_elements)
            flux = _flux(space, prob, space.function_gradients(
                coeffs, np.zeros((1, 2))), every)
            f0, f1 = (flux.take(e, axis=0) for e in inner)
        else:
            f0, f1 = (_flux(space, prob,
                            _edge_gradients(space, coeffs, geom, side), e)
                      for side, e in enumerate(inner))
        n, df = geom["inner_normals"], f0 - f1
        jump = df[..., 0] * n[:, None, 0] + df[..., 1] * n[:, None, 1]
        # numpy's row sum, left to right for nq = p + 4 < 8 terms, by columns
        sq, w = np.broadcast_to(jump ** 2, (len(jump), nq)), geom["w"]
        integral = sum((sq[:, k] * w[k] for k in range(1, nq)),
                       sq[:, 0] * w[0]) * geom["inner_lengths"]
        for e in inner:
            np.add.at(eta2, e, np.sqrt(areas[e]) * integral)

    bnd = geom["dirichlet"]
    if prob.dirichlet is not None and len(bnd):
        osc = space.cached(("boundary_oscillation", nq), prob,
                           lambda: _boundary_oscillation(space, prob, geom))
        e = geom["owners"][bnd, 0]
        np.add.at(eta2, e, np.sqrt(areas[e]) * osc)


def _boundary_oscillation(space, prob, geom):
    """|| (1 - Pi^(p-1)) du_D/ds ||^2 per Dirichlet boundary edge."""
    t, w, phys = geom["t"], geom["w"], geom["phys"]
    lengths = geom["lengths"][geom["dirichlet"]]
    edges = geom["edges"][geom["dirichlet"]]
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
