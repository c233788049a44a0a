import numpy as np
import pytest

from afem_lab.fem import Space, assemble_b
from afem_lab.mesh import check_conforming
from afem_lab.problems import (KELLOGG_BETA, KELLOGG_DELTA,
                               KELLOGG_EXP, ZSHAPE_ALPHA, ZSHAPE_L,
                               _kellogg_mu, by_name, kellogg,
                               kellogg_coefficient, kellogg_exact,
                               kellogg_exact_grad, lshape_convection,
                               zshape_nonlinear)


def test_kellogg_mu_value_at_zero():
    a, b, d = KELLOGG_EXP, KELLOGG_BETA, KELLOGG_DELTA
    expected = np.cos((np.pi / 2 - b) * a) * np.cos((-np.pi / 2 + d) * a)
    val = kellogg_exact(np.array([[1.0, 0.0]]))
    assert np.isclose(val[0], expected, rtol=1e-12)


def test_kellogg_branch_continuity():
    for phi in (np.pi / 2, np.pi, 3 * np.pi / 2):
        below = np.array([[np.cos(phi - 1e-12), np.sin(phi - 1e-12)]])
        above = np.array([[np.cos(phi + 1e-12), np.sin(phi + 1e-12)]])
        assert abs(kellogg_exact(below)[0] - kellogg_exact(above)[0]) <= 1e-9


def _four_branch_mu(phi, derivative=False):
    # mu(phi) with every branch evaluated on every point, masked per quadrant
    a, b, d = KELLOGG_EXP, KELLOGG_BETA, KELLOGG_DELTA
    branches = [(np.pi / 2, np.cos((np.pi / 2 - b) * a), np.pi / 2, d),
                (np.pi, np.cos(d * a), np.pi, b),
                (3 * np.pi / 2, np.cos(b * a), np.pi, -d),
                (np.inf, np.cos((np.pi / 2 - d) * a), 3 * np.pi / 2, -b)]
    out = np.zeros_like(phi)
    lower = -np.inf
    for upper, amp, c, s in branches:
        phase = (phi - c + s) * a
        val = -a * amp * np.sin(phase) if derivative else amp * np.cos(phase)
        out = np.where((lower <= phi) & (phi < upper), val, out)
        lower = upper
    return out


@pytest.mark.parametrize("derivative", [False, True])
def test_kellogg_mu_equals_the_four_branch_formula(derivative):
    # one branch per point gives the masked four-branch profile bit for bit,
    # the quadrant corners included (pi/2 belongs to the second quadrant)
    phi = np.concatenate([
        np.random.default_rng(3).uniform(0, 2 * np.pi, 2000),
        [0.0, np.pi / 2, np.pi, 3 * np.pi / 2,
         np.nextafter(np.pi / 2, 0), np.nextafter(2 * np.pi, 0)]])
    got = _kellogg_mu(phi, derivative)
    ref = _four_branch_mu(phi, derivative)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_kellogg_interface_flux_continuity():
    # a du/dn continuous across x1 = 0 (weak-solution property)
    eps = 1e-9
    for y in (0.25, 0.5, 0.8, -0.3, -0.6):
        right = np.array([[eps, y]])
        left = np.array([[-eps, y]])
        flux_r = kellogg_coefficient(right)[0] * kellogg_exact_grad(right)[0, 0]
        flux_l = kellogg_coefficient(left)[0] * kellogg_exact_grad(left)[0, 0]
        assert abs(flux_r - flux_l) <= 1e-6
    # and across x2 = 0
    for x in (0.35, 0.7, -0.45):
        up = np.array([[x, eps]])
        dn = np.array([[x, -eps]])
        flux_u = kellogg_coefficient(up)[0] * kellogg_exact_grad(up)[0, 1]
        flux_d = kellogg_coefficient(dn)[0] * kellogg_exact_grad(dn)[0, 1]
        assert abs(flux_u - flux_d) <= 1e-6


def test_kellogg_harmonic_in_quadrants():
    # -div(a grad u) = 0 away from the interfaces, via finite differences of
    # the analytic gradient
    h = 1e-5
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 0.9, size=(20, 2))
    pts[10:] *= -1  # third quadrant as well
    for x, y in pts:
        ux = (kellogg_exact_grad(np.array([[x + h, y]]))[0, 0]
              - kellogg_exact_grad(np.array([[x - h, y]]))[0, 0]) / (2 * h)
        vy = (kellogg_exact_grad(np.array([[x, y + h]]))[0, 1]
              - kellogg_exact_grad(np.array([[x, y - h]]))[0, 1]) / (2 * h)
        assert abs(ux + vy) <= 1e-4


def test_kellogg_mesh_respects_interfaces():
    prob, mesh = kellogg()
    assert mesh.n_elements == 16
    assert check_conforming(mesh)
    assert np.isclose(mesh.areas().sum(), 4.0)
    coords = mesh.element_coords()
    for tri in coords:
        assert (tri[:, 0] >= -1e-12).all() or (tri[:, 0] <= 1e-12).all()
        assert (tri[:, 1] >= -1e-12).all() or (tri[:, 1] <= 1e-12).all()


def test_kellogg_dirichlet_is_exact_trace():
    prob, mesh = kellogg()
    pts = np.array([[1.0, 0.5], [-1.0, 0.25], [0.3, 1.0]])
    assert np.allclose(prob.dirichlet(pts), kellogg_exact(pts))


def test_lshape_geometry_and_asymmetry():
    prob, mesh = lshape_convection()
    assert mesh.n_elements == 12
    assert check_conforming(mesh)
    assert np.isclose(mesh.areas().sum(), 3.0)
    assert np.allclose(prob.convection(np.zeros((1, 2))), 0.0)
    space = Space(mesh, 1)
    B = assemble_b(space, prob, reduced=False)
    assert abs(B - B.T).max() > 1e-3


def test_zshape_nonlinearity():
    prob, mesh = zshape_nonlinear()
    assert mesh.n_elements == 13
    assert check_conforming(mesh)
    assert np.isclose(mesh.areas().sum(), 3.5)
    nl = prob.nonlinearity
    assert nl.a(np.array([0.0]))[0] == 1.0
    assert prob.reaction(np.zeros((1, 2)))[0] == 1.0
    # monotone slope window of g(t) = a(t^2) t on a grid 0 <= s <= t <= 100
    t = np.linspace(0.0, 100.0, 4001)
    g = nl.a(t ** 2) * t
    slopes = np.diff(g) / np.diff(t)
    assert (slopes >= ZSHAPE_ALPHA * (1 - 1e-9)).all()
    assert (slopes <= ZSHAPE_L * (1 + 1e-9)).all()
    # derivative consistency of the supplied a'(t)
    h = 1e-6
    tt = np.linspace(0.1, 50.0, 57)
    fd = (nl.a(tt + h) - nl.a(tt - h)) / (2 * h)
    assert np.allclose(fd, nl.da(tt), atol=1e-8)
    assert np.allclose((nl.integral(tt + h) - nl.integral(tt - h)) / (2 * h),
                       nl.a(tt), atol=1e-8)


def test_kellogg_cea_sanity_error_decreases():
    # energy error against the exact solution is non-increasing under
    # refinement (quasi-monotone)
    from afem_lab.fem import Space, energy_error_exact, solve_galerkin_exact
    from afem_lab.mesh import uniform_refine
    prob, mesh = kellogg()
    errs = []
    for _ in range(3):
        space = Space(mesh, 1)
        u = solve_galerkin_exact(space, prob)
        errs.append(energy_error_exact(space, prob, u))
        mesh = uniform_refine(mesh)
    assert errs[1] <= errs[0] * (1 + 1e-9)
    assert errs[2] <= errs[1] * (1 + 1e-9)


def test_by_name():
    for name in ("kellogg", "lshape-convection", "zshape-nonlinear"):
        prob, mesh = by_name(name)
        assert prob.name == name
    with pytest.raises(ValueError):
        by_name("poisson")
