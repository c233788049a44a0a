import numpy as np
import pytest

from afem_lab.mesh import Mesh


@pytest.fixture
def square2():
    """Unit square split along the diagonal; the diagonal is both reference
    edges, so the pair is NVB-compatible."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    a, b, c, d = 0, 1, 2, 3
    elements = np.array([[c, a, b], [a, c, d]])
    boundary = np.array([[a, b], [b, c], [c, d], [d, a]])
    return Mesh(verts, elements, boundary)
