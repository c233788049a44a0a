"""Residual a-posteriori error indicators.

Per element T (d = 2):

    eta(T, v)^2 = |T| * || -div(A grad v - f_vec) + conv . grad v + c v - f ||_T^2
                + |T|^(1/2) * || [[ (A grad v - f_vec) . n ]] ||_{dT cap Omega}^2
                + |T|^(1/2) * || (1 - Pi^(p-1)) d u_D / ds ||_{dT cap dOmega}^2

For nonlinear problems the flux A grad v is a(|grad v|^2) grad v.  Interior
edge integrals are computed once per edge and added to both neighbouring
elements (the boundary-of-T convention double-counts edges by design).  The
boundary-data oscillation term appears only for inhomogeneous Dirichlet
data; Pi^(p-1) is the L2 projection onto polynomials of degree p-1 on the
edge.  The flux load f_vec is treated as element-wise divergence-free.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .fem import _diffusion_at
from .mesh import _edge_lookup
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
    """sqrt of the (subset) sum of squared indicators."""
    if subset is None:
        return ind.total
    subset = np.asarray(list(subset), dtype=np.int64)
    if subset.size == 0:
        return 0.0
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


def _flux_coefficient(prob, pts, grads):
    """A grad v (linear) or a(|grad v|^2) grad v (nonlinear) at points."""
    if prob.is_nonlinear:
        t = (grads ** 2).sum(axis=-1)
        return prob.nonlinearity.a(t)[..., None] * grads
    kind, A = _diffusion_at(prob, pts.reshape(-1, 2))
    if kind == "scalar":
        return A.reshape(grads.shape[:-1])[..., None] * grads
    return np.einsum("...ij,...j->...i", A.reshape(grads.shape[:-1] + (2, 2)),
                     grads)


def _volume_terms(space, coeffs, prob):
    areas = 0.5 * space.det
    bump = 4 if prob.is_nonlinear else 2
    pts, w = triangle_rule(2 * space.degree + bump)
    phys = space.physical_points(pts)
    flat = phys.reshape(-1, 2)
    g = space.function_gradients(coeffs, pts)
    h = space.function_hessians(coeffs, pts)
    lap = h[..., 0] + h[..., 2]

    if prob.is_nonlinear:
        nl = prob.nonlinearity
        t = (g ** 2).sum(axis=2)
        Hg = np.stack([h[..., 0] * g[..., 0] + h[..., 1] * g[..., 1],
                       h[..., 1] * g[..., 0] + h[..., 2] * g[..., 1]], axis=-1)
        div_flux = 2.0 * nl.da(t) * (Hg * g).sum(axis=-1) + nl.a(t) * lap
    else:
        kind, A = _diffusion_at(prob, flat)
        if kind == "scalar":
            div_flux = A.reshape(lap.shape) * lap
        else:
            Am = A.reshape(lap.shape + (2, 2))
            div_flux = (Am[..., 0, 0] * h[..., 0]
                        + (Am[..., 0, 1] + Am[..., 1, 0]) * h[..., 1]
                        + Am[..., 1, 1] * h[..., 2])
        if prob.diffusion_div is not None:
            dA = np.asarray(prob.diffusion_div(flat)).reshape(g.shape)
            div_flux = div_flux + (dA * g).sum(axis=-1)

    R = -div_flux
    if not prob.is_nonlinear and prob.convection is not None:
        bv = np.asarray(prob.convection(flat)).reshape(g.shape)
        R = R + (bv * g).sum(axis=-1)
    if prob.reaction is not None:
        c = np.asarray(prob.reaction(flat)).reshape(lap.shape)
        R = R + c * space.function_values(coeffs, pts)
    if prob.load is not None:
        R = R - np.asarray(prob.load(flat)).reshape(lap.shape)

    wdet = w[None, :] * space.det[:, None]
    return areas * (R ** 2 * wdet).sum(axis=1)


def _edge_geometry(space, nq):
    key = ("edge_geom", nq)
    if key in space._cache:
        return space._cache[key]
    mesh = space.mesh
    edges, _, edge_elems = mesh.edge_tables()
    t, w = edge_rule(nq)
    pa = mesh.vertices[edges[:, 0]]
    d = mesh.vertices[edges[:, 1]] - pa
    lengths = np.linalg.norm(d, axis=1)
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    phys = pa[:, None, :] + t[None, :, None] * d[:, None, :]
    bnd_dirichlet = np.zeros(len(edges), dtype=bool)
    und = np.sort(mesh.boundary_edges[:, :2], axis=1)
    bnd_dirichlet[_edge_lookup(edges, und)] = True
    geom = dict(edges=edges, owners=edge_elems, t=t, w=w, lengths=lengths,
                normals=normals, phys=phys, dirichlet=bnd_dirichlet)
    space._cache[key] = geom
    return geom


def _side_flux(space, coeffs, prob, geom, side, edge_ids):
    """Flux from one adjacent element at the edge quadrature points."""
    e = geom["owners"][edge_ids, side]
    phys = geom["phys"][edge_ids]
    centroid = space.origin[e] + (space.jac[e, :, 0] + space.jac[e, :, 1]) / 3.0
    pulled = phys + _PULL * (centroid[:, None, :] - phys)
    if space.degree == 1:
        ref0 = space.ref.nodes[:1]
        g = space.function_gradients(coeffs, ref0)[e][:, 0, :]
        grads = np.broadcast_to(g[:, None, :], phys.shape)
    else:
        # reference gradients at the mapped points, contracted with the
        # element coefficients before the map to physical coordinates
        inv = space.inv_jac[e]
        loc = (phys - space.origin[e][:, None, :]) @ inv.transpose(0, 2, 1)
        dN = space.ref.grad(loc.reshape(-1, 2)).reshape(
            loc.shape[0], loc.shape[1], -1, 2)
        c = coeffs[space.elem_dofs[e]]
        grads = (c[:, None, None, :] @ dN)[:, :, 0, :] @ inv
    flux = _flux_coefficient(prob, pulled, grads)
    if prob.flux_load is not None:
        flux = flux - np.asarray(prob.flux_load(
            pulled.reshape(-1, 2))).reshape(flux.shape)
    return flux


def _edge_terms(space, coeffs, prob, eta2):
    nq = space.degree + 4
    geom = _edge_geometry(space, nq)
    owners = geom["owners"]
    areas = 0.5 * space.det

    interior = np.nonzero(owners[:, 1] >= 0)[0]
    if len(interior):
        f0 = _side_flux(space, coeffs, prob, geom, 0, interior)
        f1 = _side_flux(space, coeffs, prob, geom, 1, interior)
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
            osc = _boundary_oscillation(space, prob, geom, bnd)
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
