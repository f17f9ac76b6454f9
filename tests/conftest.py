import itertools

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


def exact_dist_sq_2_4(v0):
    """Squared distance from 4 vectors in R^2 to the nearest equal-norm
    Parseval frame, exactly.

    With the rows as complex numbers z_j, an ENP frame has rows w_j of
    modulus 1/sqrt(2) and sum_j w_j^2 = 0 (Parseval). Four unit complex
    numbers w_j^2 / |w_j|^2 that sum to 0 form two antipodal pairs, so
    w_b = +-i w_a on each pair (a, b), and the nearest w_a turns the
    pair's cost into |z_a|^2 + |z_b|^2 + 1 - sqrt(2) max(|z_a - i z_b|,
    |z_a + i z_b|). The best of the three pairings wins.
    """
    z = v0[:, 0] + 1j * v0[:, 1]
    best = max(
        sum(max(abs(z[a] - 1j * z[b]), abs(z[a] + 1j * z[b]))
            for a, b in pairs)
        for pairs in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))))
    return float(np.sum(np.abs(z) ** 2)) + 2.0 - np.sqrt(2.0) * best


def exact_dist_sq_next(v0):
    """Squared distance from n = d + 1 vectors in R^d to the nearest
    equal-norm Parseval frame, exactly.

    The Naimark complement of an ENP frame is the 1-dim ENP frame s /
    sqrt(n), s in {+-1}^n, so the ENP frames are U_s Q with U_s an
    orthonormal basis of s^perp and Q orthogonal. The nearest Q is a
    polar factor, which leaves |V0|^2 + d - 2 |(I - s s^T / n) V0|_*;
    s and -s give the same frames, so s_0 = 1.
    """
    n, d = v0.shape
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        s = np.array((1.0,) + signs)
        proj = v0 - np.outer(s, s @ v0) / n
        best = max(best, np.linalg.norm(proj, "nuc"))
    return float(np.sum(v0 * v0)) + d - 2.0 * best
