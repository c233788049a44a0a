"""The three benchmark problems with exact data and initial meshes.

* ``kellogg``: symmetric interface problem on the square with a strong jump
  in the diffusion coefficient and known singular solution r^0.1 mu(phi).
* ``lshape-convection``: nonsymmetric linear problem -Lap u + x.grad u + u = 1
  on the L-shaped domain.
* ``zshape-nonlinear``: quasilinear PDE -div(a(|grad u|^2) grad u) + u = 1 on
  the Z-shaped domain with a(t) = 1 + log(1+t)/(1+t).

Initial meshes are the smallest axis/interface-respecting criss-cross
triangulations; reference edges are the square sides (the longest edges).
"""

import numpy as np

from .fem import Nonlinearity, ProblemDef
from .mesh import Mesh

__all__ = ["kellogg", "lshape_convection", "zshape_nonlinear", "by_name",
           "PROBLEM_NAMES"]

# Kellogg interface constants: the coefficient jump and the angular profile
# are tuned so that r^0.1 mu(phi) is a weak solution
KELLOGG_COEF = 161.4476387975881
KELLOGG_EXP = 0.1
KELLOGG_BETA = -14.92256510455152
KELLOGG_DELTA = np.pi / 4

# Z-shape nonlinearity: monotonicity window of the radial slope
ZSHAPE_ALPHA = 0.9582898017
ZSHAPE_L = 1.542343818


def _criss_cross(squares, extra=()):
    """Triangulate unit squares into 4 triangles each around their centers."""
    vid = {}
    verts = []

    def v(x, y):
        key = (round(float(x), 12), round(float(y), 12))
        if key not in vid:
            vid[key] = len(verts)
            verts.append([float(x), float(y)])
        return vid[key]

    elements = []
    for x0, y0 in squares:
        c = [v(x0, y0), v(x0 + 1, y0), v(x0 + 1, y0 + 1), v(x0, y0 + 1)]
        m = v(x0 + 0.5, y0 + 0.5)
        for i in range(4):
            elements.append([c[i], c[(i + 1) % 4], m])
    for tri in extra:
        elements.append([v(*tri[0]), v(*tri[1]), v(*tri[2])])
    elements = np.array(elements, dtype=np.int64)

    # boundary = edges of one element, all Dirichlet
    edges, _, owners = Mesh(verts, elements, []).edge_tables()
    return Mesh(verts, elements, edges[owners[:, 1] < 0])


# ---------------------------------------------------------------------------
# Kellogg interface problem


def _kellogg_polar(pts):
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    return r, phi


# the quadrants of phi: their upper angles (the last quadrant's is 2 pi),
# and per quadrant the amplitude of mu and the phase phi - c + s
_KELLOGG_UPPER = np.array([np.pi / 2, np.pi, 3 * np.pi / 2])
_KELLOGG_AMP = np.array([np.cos((np.pi / 2 - KELLOGG_BETA) * KELLOGG_EXP),
                         np.cos(KELLOGG_DELTA * KELLOGG_EXP),
                         np.cos(KELLOGG_BETA * KELLOGG_EXP),
                         np.cos((np.pi / 2 - KELLOGG_DELTA) * KELLOGG_EXP)])
_KELLOGG_C = np.array([np.pi / 2, np.pi, np.pi, 3 * np.pi / 2])
_KELLOGG_S = np.array([KELLOGG_DELTA, KELLOGG_BETA, -KELLOGG_DELTA,
                       -KELLOGG_BETA])


def _kellogg_mu(phi, derivative=False):
    """mu(phi), or mu'(phi) with ``derivative``: each point evaluates the
    branch of its quadrant only, lower angle included, upper excluded."""
    a = KELLOGG_EXP
    q = np.searchsorted(_KELLOGG_UPPER, phi, side="right")
    phase = (phi - _KELLOGG_C[q] + _KELLOGG_S[q]) * a
    if derivative:
        return (-a * _KELLOGG_AMP)[q] * np.sin(phase)
    return _KELLOGG_AMP[q] * np.cos(phase)


def kellogg_exact(pts):
    pts = np.atleast_2d(pts)
    r, phi = _kellogg_polar(pts)
    return np.where(r > 0, r ** KELLOGG_EXP * _kellogg_mu(phi), 0.0)


def kellogg_exact_grad(pts):
    pts = np.atleast_2d(pts)
    r, phi = _kellogg_polar(pts)
    rs = np.where(r > 0, r, 1.0)
    radial = KELLOGG_EXP * rs ** (KELLOGG_EXP - 1) * _kellogg_mu(phi)
    angular = rs ** (KELLOGG_EXP - 1) * _kellogg_mu(phi, derivative=True)
    c, s = np.cos(phi), np.sin(phi)
    gx = radial * c - angular * s
    gy = radial * s + angular * c
    zero = r == 0
    return np.column_stack([np.where(zero, 0.0, gx),
                            np.where(zero, 0.0, gy)])


def kellogg_coefficient(pts):
    pts = np.atleast_2d(pts)
    return np.where(pts[:, 0] * pts[:, 1] > 0, KELLOGG_COEF, 1.0)


def kellogg():
    """Jumping-diffusion interface problem on (-1, 1)^2; 16 elements."""
    squares = [(-1, -1), (0, -1), (-1, 0), (0, 0)]
    mesh = _criss_cross(squares)
    prob = ProblemDef(
        diffusion=kellogg_coefficient,
        dirichlet=lambda x: kellogg_exact(x),
        exact_solution=(kellogg_exact, kellogg_exact_grad),
        name="kellogg",
    )
    return prob, mesh


# ---------------------------------------------------------------------------
# L-shape with convection


def lshape_convection():
    """-Lap u + x . grad u + u = 1 on the L-shape; 12 elements."""
    squares = [(-1, -1), (-1, 0), (0, 0)]
    mesh = _criss_cross(squares)
    prob = ProblemDef(
        convection=lambda x: x,
        reaction=lambda x: np.ones(len(x)),
        load=lambda x: np.ones(len(x)),
        name="lshape-convection",
    )
    return prob, mesh


# ---------------------------------------------------------------------------
# Z-shape with scalar nonlinearity


def _zshape_a(t):
    return 1.0 + np.log1p(t) / (1.0 + t)


def _zshape_da(t):
    return (1.0 - np.log1p(t)) / (1.0 + t) ** 2


def _zshape_aint(t):
    return t + 0.5 * np.log1p(t) ** 2


def zshape_nonlinear():
    """Quasilinear problem on the Z-shaped domain; 13 elements.

    The printed operator carries a zeroth-order +u term on top of the pure
    divergence-form nonlinearity; the monotonicity constants refer to the
    scalar slope a(t^2) t.
    """
    squares = [(-1, 0), (0, 0), (0, -1)]
    big = (((0.0, 0.0), (-1.0, -1.0), (0.0, -1.0)),)
    mesh = _criss_cross(squares, extra=big)
    prob = ProblemDef(
        nonlinearity=Nonlinearity(a=_zshape_a, da=_zshape_da,
                                  integral=_zshape_aint),
        reaction=lambda x: np.ones(len(x)),
        load=lambda x: np.ones(len(x)),
        alpha=ZSHAPE_ALPHA,
        L=ZSHAPE_L,
        name="zshape-nonlinear",
    )
    return prob, mesh


PROBLEM_NAMES = {
    "kellogg": kellogg,
    "lshape-convection": lshape_convection,
    "zshape-nonlinear": zshape_nonlinear,
}


def by_name(name):
    try:
        return PROBLEM_NAMES[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from "
                         f"{sorted(PROBLEM_NAMES)}") from None
