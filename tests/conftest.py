import numpy as np
import pytest

from framelab import Frame, PNormSpace
from framelab.projections import AuerbachSystem

ROOT3 = np.sqrt(3.0)


@pytest.fixture
def mb():
    """The three unit vectors at mutual 120 degrees in the plane."""
    return Frame(np.array([
        [0.0, 1.0],
        [-ROOT3 / 2.0, -0.5],
        [ROOT3 / 2.0, -0.5],
    ]))


def auerbach_system(u, p=2.0):
    """The basis u (one vector per row) paired with itself: an Auerbach
    system of l^p for an orthonormal u at p = 2 and for the coordinate
    basis at every p."""
    return AuerbachSystem(space=PNormSpace(len(u), p), basis_vectors=u,
                          dual_functionals=u)


def random_frame(seed, d, n):
    rng = np.random.default_rng(seed)
    return Frame(rng.standard_normal((n, d)))
