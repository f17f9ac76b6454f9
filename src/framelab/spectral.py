"""Dense small-matrix kernels shared by the rest of the package.

All matrices are real ndarrays. Eigenvalues of symmetric matrices are
returned ascending so downstream reports are deterministic. The square
and integer guards, the Frobenius and row-wise norms and the p-ball
sampler live here too, where every other module can import them: this
module imports only errors, and asf imports only errors and this module,
so frames and asf share these kernels without either importing the other.
Every kernel here runs on numpy alone: no scipy module loads with it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInput, ShapeMismatch, SingularOperator

SYM_TOL = 1e-10
PSD_FLOOR = 1e-12
# the smallest positive normal float, 2^-1022, and its square root
_TINY = np.finfo(float).tiny
_SQRT_TINY = 2.0 ** -511


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def square_matrix(a):
    """a as a float matrix and its largest absolute entry; ShapeMismatch,
    in this order, if a is not 2-D, has a non-finite entry or is not
    square. The largest entry cannot overflow, and a NaN entry makes it
    NaN."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim {a.ndim}")
    big = float(np.abs(a).max(initial=0.0))
    if not big < math.inf:
        raise ShapeMismatch("matrix entries must be finite")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {a.shape}")
    return a, big


def require_integer(name, value):
    """The one integer rule for dimensions, counts and seeds: ShapeMismatch
    unless value is a Python or numpy integer (a bool or a float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeMismatch(f"{name} must be an integer, got {value}")


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    An exactly symmetric input is factored as it is. Otherwise the largest
    entry of its skew part (A - A^T)/2 may reach SYM_TOL times
    max(1, largest |entry|), and its symmetric part A/2 + A^T/2 is
    factored; halving first keeps every entry finite. numpy's eigh factors
    it, and raises np.linalg.LinAlgError if it does not converge; a
    stacked eigh of several such matrices gives each the bits of its own
    call.
    """
    a, big = square_matrix(a)
    if not (a == a.T).all():
        half = 0.5 * a
        scale = max(1.0, big)
        asymmetry = float(np.abs(half - half.T).max())
        if asymmetry > SYM_TOL * scale:
            raise AsymmetricInput(
                f"asymmetry {asymmetry:.3e} exceeds tol {SYM_TOL:g}"
                f" (relative to {scale:.3g})")
        a = half + half.T
    lam, q = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=q)


def inv_sqrt_from_eig(dec):
    """S^{-1/2} from the SpectralDecomposition dec of S, for every Parseval
    map v @ S^{-1/2}. Raises SingularOperator, naming the smallest
    eigenvalue, when it is at or below PSD_FLOOR: S is numerically not
    invertible. This is the one singular-operator test."""
    lam, q = dec.eigenvalues, dec.eigenvectors
    if lam[0] <= PSD_FLOOR:
        raise SingularOperator(
            f"smallest eigenvalue {lam[0]:.3e} is at or below floor "
            f"{PSD_FLOOR:g}")
    return (q * lam ** -0.5) @ q.T


def general_spectrum(a):
    """Eigenvalues of a general (possibly nonsymmetric) real matrix."""
    return np.linalg.eigvals(square_matrix(a)[0])


def frobenius_norm(x):
    """Frobenius norm of an ndarray, the arithmetic of numpy.linalg.norm(x)
    without its Python wrapper."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def diagonal_shift_norm(s, c):
    """Frobenius norm of S - c I, the bits of numpy.linalg.norm(s - c * I)
    for finite c, shifting the diagonal of a copy of S in place."""
    t = s.copy()
    t.ravel()[:: t.shape[0] + 1] -= c
    return frobenius_norm(t)


def row_norms(x):
    """Euclidean norms over the last axis, the arithmetic of
    numpy.linalg.norm(x, axis=-1) without its Python wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def pnorm(x, p):
    """p-norm over the last axis; p = math.inf is the max norm.

    A vector gives a float, an (n, d) array the array of its n row norms.
    A row whose power sum overflows, or underflows on a nonzero row, is
    recomputed scaled by its largest entry; the other rows get the bits of
    (sum |x|^p)^(1/p), at p = 2 those of row_norms.
    """
    x = np.asarray(x, dtype=float)
    if p == math.inf:
        out = np.max(np.abs(x), axis=-1, initial=0.0)
    elif p == 1:
        out = np.sum(np.abs(x), axis=-1)
    else:
        if p == 2:
            # sqrt is monotone and exact at _TINY, so testing the norms
            # against sqrt(_TINY) tests the power sums against _TINY
            out = s = row_norms(x)
            low = _SQRT_TINY
        else:
            s = np.add.reduce(np.abs(x) ** p, axis=-1)
            out = s ** (1.0 / p)
            low = _TINY
        if not (np.minimum.reduce(s, axis=None, initial=low) >= low
                and np.maximum.reduce(s, axis=None, initial=0.0) < math.inf):
            a = np.abs(x)
            m = np.max(a, axis=-1, keepdims=True, initial=0.0)
            m[m == 0] = 1.0
            scaled = m[..., 0] * np.add.reduce((a / m) ** p,
                                               axis=-1) ** (1.0 / p)
            out = np.where((s >= low) & (s < math.inf), out, scaled)
    return float(out) if out.ndim == 0 else out


def ball_displacements(rng, n, d, radius, p=2.0):
    """n independent draws from the radius-ball of the p-norm.

    Each draw is a Gaussian direction scaled to p-norm radius * U^(1/d),
    with U uniform on [0, 1); radius 0 returns zeros without drawing.
    """
    if radius == 0:
        return np.zeros((n, d))
    g = rng.standard_normal((n, d))
    norms = pnorm(g, p)
    norms[norms == 0] = 1.0
    r = radius * rng.random(n) ** (1.0 / d)
    return (r / norms)[:, None] * g
