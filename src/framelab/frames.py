"""Finite frames in real inner-product spaces.

A frame is stored as an (n, d) array whose rows are the vectors tau_j,
and its frame operator is S = sum_j tau_j tau_j^T. Nearness reports and
their certificate kernel, the two closest-point constructions, the Naimark
complement, and the seeded generators live here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoComplement,
    NotParseval,
    ShapeMismatch,
    SingularOperator,
    UnsupportedShape,
    ZeroVector,
)
from .spectral import (
    PSD_FLOOR,
    diagonal_shift_norm,
    inv_sqrt_psd,
    pnorm,
    sym_eig,
)

ZERO_NORM_FLOOR = 1e-300
NAIMARK_TOL = 1e-8


@dataclass(frozen=True)
class Frame:
    """A finite family of n vectors in R^d, one per row."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeMismatch(f"expected an (n, d) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeMismatch("frame entries must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrameReport:
    """Certified nearness quantities of a frame.

    eps_parseval is present iff the spectrum of S sits inside (0, 2) around
    1, i.e. max(1 - a, b - 1) < 1, and a is above PSD_FLOOR (a numerically
    singular S has none); eps_equal_norm is present iff every
    (n/d)|tau_j|^2 deviates from 1 by less than 1.
    """

    frame_bounds: tuple[float, float]
    eps_parseval: float | None
    eps_equal_norm: float | None
    tightness_defect_hs: float
    unit_defect_hs: float
    frame_potential: float
    norms_sq: np.ndarray

    @property
    def is_frame(self):
        return self.frame_bounds[0] > 0.0


def frame_operator(frame):
    """S = V^T V. Finite entries can still overflow S, from about 1e154 on;
    that raises ShapeMismatch naming S, before anything reads it."""
    v = frame.vectors
    with np.errstate(over="ignore"):  # the check below reports it
        s = v.T @ v
    if not np.all(np.isfinite(s)):
        raise ShapeMismatch("frame operator S = V^T V overflows")
    return s


def enp_defects(lam, norms_sq):
    """Parseval and equal-norm deviations of n vectors in R^d, given the
    ascending eigenvalues lam of their frame operator and their squared
    norms: max(1 - lam_min, lam_max - 1) and max_j |(n/d)|v_j|^2 - 1|."""
    n, d = norms_sq.size, lam.size
    dev_p = max(1.0 - float(lam[0]), float(lam[-1]) - 1.0)
    dev_e = float(np.max(np.abs((n / d) * norms_sq - 1.0)))
    return dev_p, dev_e


def analyze_frame(frame):
    v = frame.vectors
    n, d = v.shape
    s = frame_operator(frame)
    lam = sym_eig(s).eigenvalues
    a, b = float(lam[0]), float(lam[-1])
    norms_sq = np.sum(v * v, axis=1)

    dev_p, dev_e = enp_defects(lam, norms_sq)
    eps_parseval = dev_p if dev_p < 1.0 and a > PSD_FLOOR else None
    eps_equal_norm = dev_e if dev_e < 1.0 else None

    center = float(np.trace(s)) / d
    return FrameReport(
        frame_bounds=(a, b),
        eps_parseval=eps_parseval,
        eps_equal_norm=eps_equal_norm,
        tightness_defect_hs=diagonal_shift_norm(s, center),
        unit_defect_hs=diagonal_shift_norm(s, n / d),
        frame_potential=float(np.sum(lam * lam)),
        norms_sq=norms_sq,
    )


def frame_dist(a, b):
    if a.vectors.shape != b.vectors.shape:
        raise ShapeMismatch(
            f"frames have shapes {a.vectors.shape} and {b.vectors.shape}")
    return float(np.sqrt(np.sum((a.vectors - b.vectors) ** 2)))


def closest_parseval(frame):
    """Nearest Parseval frame S^{-1/2} tau_j and its squared distance."""
    v = frame.vectors
    w = v @ inv_sqrt_psd(frame_operator(frame))
    dist_sq = float(np.sum((w - v) ** 2))
    return Frame(w), dist_sq


def closest_equal_norm(frame, target=None):
    """Nearest equal-norm family c tau_j / |tau_j| and its squared distance.

    With no explicit target the optimal common norm is the mean of the
    input norms. The construction divides by each |tau_j|, so zero vectors
    are rejected. Rows get norm c at any scale; the squared distance is
    inf once a term (|tau_j| - c)^2 overflows, from |tau_j| near 1e154.
    """
    w, norms, c = rescale_rows(frame.vectors, target)
    dist_sq = float(np.sum((norms - c) ** 2))
    return Frame(w), dist_sq


def rescale_rows(v, c=None):
    """Rows of v rescaled to the common norm c, by default their mean norm.

    Returns (rescaled rows, input row norms, c), the norms pnorm's at p = 2,
    free of overflow and underflow. Raises ZeroVector for the first row
    whose norm is at or below ZERO_NORM_FLOOR, then ShapeMismatch for a c
    that is not positive.
    """
    norms = pnorm(v, 2.0)
    small = np.nonzero(norms <= ZERO_NORM_FLOOR)[0]
    if small.size:
        raise ZeroVector(int(small[0]))
    if c is None:
        # the mean of the norms times 2^-k, k = n.bit_length(), cannot
        # overflow; scaling by a power of two is exact, so c has the bits
        # of the plain mean wherever that is finite
        k = len(norms).bit_length()
        c = math.ldexp(float(np.mean(np.ldexp(norms, -k))), k)
    elif not c > 0:
        raise ShapeMismatch(f"target norm must be positive, got {c}")
    c = float(c)
    return (c / norms)[:, None] * v, norms, c


def naimark_complement(frame):
    """Parseval frame for R^{n-d} whose Gram projection completes the input's.

    The input is replaced by its closest Parseval frame before the
    orthogonal completion, so the Gram identity holds to machine precision
    for any input that is Parseval within NAIMARK_TOL.
    """
    n, d = frame.n, frame.dim
    if n <= d:
        raise NoComplement(f"a complement needs n > d, got n = {n}, d = {d}")
    eps = analyze_frame(frame).eps_parseval
    if eps is None:
        raise NotParseval("no Parseval certificate: S has an eigenvalue "
                          "outside (0, 2)")
    if eps > NAIMARK_TOL:
        raise NotParseval(f"eps_parseval {eps} exceeds tol {NAIMARK_TOL:g}")
    w = closest_parseval(frame)[0].vectors
    q, _ = np.linalg.qr(w, mode="complete")
    # w has orthonormal columns, so the first d columns of q span its
    # range and the last n - d the orthocomplement: their rows form a
    # Parseval frame for R^{n-d} with Gram projection I - w w^T.
    return Frame(q[:, d:])


def _harmonic_rows(d, n):
    # Real trigonometric rows: orthonormal as functions of j by the discrete
    # orthogonality of cos/sin at distinct frequencies below n/2.
    cols = []
    j = np.arange(n)
    if d % 2 == 1:
        cols.append(np.full(n, 1.0 / np.sqrt(n)))
        pairs = (d - 1) // 2
        alternating = False
    elif d < n:
        pairs = d // 2
        alternating = False
    else:
        # d = n even: constant and alternating rows bracket the pairs.
        cols.append(np.full(n, 1.0 / np.sqrt(n)))
        pairs = d // 2 - 1
        alternating = True
    for k in range(1, pairs + 1):
        ang = 2.0 * np.pi * k * j / n
        cols.append(np.sqrt(2.0 / n) * np.cos(ang))
        cols.append(np.sqrt(2.0 / n) * np.sin(ang))
    if alternating:
        cols.append((-1.0) ** j / np.sqrt(n))
    return np.stack(cols, axis=1)


def generate(kind, d, n, seed=0):
    """Seeded equal-norm Parseval sources: n vectors in R^d, n >= d >= 1.

    kind 'random_parseval' maps i.i.d. standard normal entries drawn from
    seed to their closest Parseval frame; 'harmonic' is the deterministic
    trigonometric equal-norm Parseval family and ignores seed. Perturbed
    and scaled instances are built from these in lab.
    """
    if kind not in ("random_parseval", "harmonic"):
        raise ShapeMismatch(f"unknown kind {kind!r}")
    if d < 1 or n < 1:
        raise ShapeMismatch("d and n must be positive")
    if n < d:
        raise UnsupportedShape(f"Parseval kinds need n >= d, got ({d}, {n})")
    if kind == "harmonic":
        return Frame(_harmonic_rows(d, n))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    while True:
        try:
            out, _ = closest_parseval(Frame(v))
            return out
        except SingularOperator:
            v = rng.standard_normal((n, d))
