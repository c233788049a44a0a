import numpy as np
import pytest

from afem_lab.mesh import Mesh, refine
from afem_lab.problems import by_name


@pytest.fixture
def square2():
    """Unit square split along the diagonal; the diagonal is both reference
    edges, so the pair is NVB-compatible."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    a, b, c, d = 0, 1, 2, 3
    elements = np.array([[c, a, b], [a, c, d]])
    boundary = np.array([[a, b], [b, c], [c, d], [d, a]])
    return Mesh(verts, elements, boundary)


@pytest.fixture(scope="session",
                params=["kellogg", "zshape-nonlinear", "lshape-convection"])
def kernel_mesh(request):
    """(problem, NVB mesh, jittered mesh) for each shipped problem: the NVB
    mesh refines the initial one six times at random markings, and the
    jittered one moves its interior vertices by up to a tenth of the
    shortest edge, so that its vertices are not dyadic."""
    rng = np.random.default_rng(21)
    prob, mesh = by_name(request.param)
    for _ in range(6):
        mesh = refine(mesh, rng.choice(
            mesh.n_elements, max(1, mesh.n_elements // 3), replace=False))
    edges = mesh.edge_tables()[0]
    d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    h = np.sqrt((d ** 2).sum(axis=1)).min()
    verts = mesh.vertices.copy()
    inner = np.ones(len(verts), dtype=bool)
    inner[mesh.boundary_edges.ravel()] = False
    verts[inner] += rng.uniform(-0.1 * h, 0.1 * h, (inner.sum(), 2))
    return prob, mesh, Mesh(verts, mesh.elements, mesh.boundary_edges)
