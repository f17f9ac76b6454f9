"""Finite frames in real inner-product spaces.

A frame is stored as an (n, d) array whose rows are the vectors tau_j,
and its frame operator is S = sum_j tau_j tau_j^T. The certificate kernel
(frame_certificate: S, its sym_eig and the two nearness certificates) and
the nearness report built on it, the two closest-point constructions, the
Naimark complement, the seeded generators and default_certify_tol live here.
"""

import math
import os
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
    SpectralDecomposition,
    diagonal_shift_norm,
    inv_sqrt_from_eig,
    pnorm,
    require_integer,
    sym_eig,
)

ZERO_NORM_FLOOR = 1e-300


def default_certify_tol():
    """1e-8 unless the FRAMELAB_TOL environment variable overrides it."""
    raw = os.environ.get("FRAMELAB_TOL", "1e-8")
    try:
        v = float(raw)
    except ValueError:
        raise ShapeMismatch(f"FRAMELAB_TOL = {raw!r} is not a number") from None
    if not 0.0 < v < 1.0:
        raise ShapeMismatch(f"FRAMELAB_TOL must be in (0, 1), got {v}")
    return v


@dataclass(frozen=True)
class Frame:
    """A finite family of n vectors in R^d, one per row."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeMismatch(f"expected an (n, d) array, got shape {v.shape}")
        if not np.isfinite(v).all():
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

    eps_parseval is present iff the spectrum [a, b] of S sits inside
    (0, 2) around 1, i.e. max(b - 1, 1 - a) < 1, and a is above PSD_FLOOR
    (a numerically singular S has none); eps_equal_norm is present iff
    every (n/d)|tau_j|^2 deviates from 1 by less than 1: the rules of
    enp_certificates, which every Hilbert solver candidate obeys too.
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
    if not np.isfinite(s).all():
        raise ShapeMismatch("frame operator S = V^T V overflows")
    return s


def enp_certificates(lam, norms_sq):
    """The Parseval and equal-norm certificates of n vectors in R^d, given
    the ascending eigenvalues lam of their frame operator and their
    squared norms, each None where FrameReport's rules say it is absent:
    eps_parseval = max(lam_max - 1, 1 - lam_min) when below 1 and
    lam_min > PSD_FLOOR, eps_equal_norm = max_j |(n/d)|v_j|^2 - 1| when
    below 1. A NaN leaves its certificate absent: a NaN lam_min fails the
    floor, and max keeps a NaN lam_max - 1 because it comes first. This is
    the one place the presence rules are tested. It runs several times per
    corpus record, so it calls the array methods, not numpy's wrapper
    functions. Every |v_j|^2 is at most lam_max, so (n/d)|v_j|^2 can
    overflow only when 2 (n/d) lam_max does; there some (n/d)|v_j|^2 >=
    lam_max / d is far above 2, and the equal-norm certificate is absent
    without being computed."""
    n, d = norms_sq.size, lam.size
    lam_max = float(lam[-1])
    dev_p = max(lam_max - 1.0, 1.0 - float(lam[0]))
    if 2.0 * (n / d) * lam_max == math.inf:
        dev_e = math.inf
    else:
        dev_e = float(np.abs((n / d) * norms_sq - 1.0).max())
    return (dev_p if dev_p < 1.0 and lam[0] > PSD_FLOOR else None,
            dev_e if dev_e < 1.0 else None)


@dataclass(frozen=True)
class FrameCertificate:
    """The frame operator S, its sym_eig, the squared vector norms, and
    the two certificates, as enp_certificates gives them."""

    operator: np.ndarray
    decomposition: SpectralDecomposition
    norms_sq: np.ndarray
    eps_parseval: float | None
    eps_equal_norm: float | None


def frame_certificate(frame):
    """The certificate kernel: S = V^T V (frame_operator, with its
    overflow error), one sym_eig of S, and enp_certificates. The instance
    generator hands the certificate of its accepted draw to the Hilbert
    solver, which would otherwise compute it again."""
    v = frame.vectors
    s = frame_operator(frame)
    dec = sym_eig(s)
    norms_sq = (v * v).sum(axis=1)
    eps_p, eps_en = enp_certificates(dec.eigenvalues, norms_sq)
    return FrameCertificate(operator=s, decomposition=dec, norms_sq=norms_sq,
                            eps_parseval=eps_p, eps_equal_norm=eps_en)


def _report_norms(s, lam, unit):
    """The Frobenius norms of S - (tr S / d) I and S - unit I for a finite
    S, and the frame potential sum(lam^2) of its eigenvalues lam. Where
    either norm overflows, S and both shifts are scaled by a power of two
    that brings the largest entry of S below 1, which is exact, and the
    norms scaled back: each is inf only when the norm itself overflows, as
    the potential is. Where none overflows, all keep the bits of the plain
    formulas."""
    d = len(s)

    def defects(t, c):
        return (diagonal_shift_norm(t, float(np.trace(t)) / d),
                diagonal_shift_norm(t, c))

    with np.errstate(over="ignore"):  # a norm is computed again scaled
        out = defects(s, unit)
        if max(out) == math.inf:
            scale = math.ldexp(1.0, -math.frexp(float(np.abs(s).max()))[1])
            out = tuple(x / scale for x in defects(s * scale, unit * scale))
        return (*out, float(np.sum(lam * lam)))


def analyze_frame(frame):
    """The nearness report of frame, built on frame_certificate."""
    n, d = frame.vectors.shape
    cert = frame_certificate(frame)
    lam = cert.decomposition.eigenvalues
    tight, unit, potential = _report_norms(cert.operator, lam, n / d)
    return FrameReport(
        frame_bounds=(float(lam[0]), float(lam[-1])),
        eps_parseval=cert.eps_parseval,
        eps_equal_norm=cert.eps_equal_norm,
        tightness_defect_hs=tight,
        unit_defect_hs=unit,
        frame_potential=potential,
        norms_sq=cert.norms_sq,
    )


def frame_dist(a, b):
    if a.vectors.shape != b.vectors.shape:
        raise ShapeMismatch(
            f"frames have shapes {a.vectors.shape} and {b.vectors.shape}")
    return float(np.sqrt(np.sum((a.vectors - b.vectors) ** 2)))


def closest_parseval(frame):
    """Nearest Parseval frame S^{-1/2} tau_j and its squared distance,
    inf once that overflows, from entries near 1e154."""
    v = frame.vectors
    w = v @ inv_sqrt_from_eig(sym_eig(frame_operator(frame)))
    with np.errstate(over="ignore"):  # the overflow is the documented inf
        dist_sq = float(np.sum((w - v) ** 2))
    return Frame(w), dist_sq


def closest_equal_norm(frame, target=None):
    """Nearest equal-norm family c tau_j / |tau_j| and its squared distance.

    With no explicit target the optimal common norm is the mean of the
    input norms. The construction divides by each |tau_j|, so zero vectors
    are rejected. Rows get norm c at any scale; the squared distance is
    inf once a term (|tau_j| - c)^2 overflows, from |tau_j| or c near
    1e154.
    """
    w, norms, c = rescale_rows(frame.vectors, target)
    with np.errstate(over="ignore"):  # the overflow is the documented inf
        dist_sq = float(np.sum((norms - c) ** 2))
    return Frame(w), dist_sq


def rescale_rows(v, c=None):
    """Rows of v rescaled to the common norm c, by default their mean norm.

    Returns (rescaled rows, input row norms, c), the norms pnorm's at p = 2,
    free of overflow and underflow. Each row is (c / |v_j|) v_j, or
    (v_j / |v_j|) c where that overflows. Raises ZeroVector for the
    first row whose norm is at or below ZERO_NORM_FLOOR, then ShapeMismatch
    for a c that is not finite or not positive.
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
    elif not math.isfinite(c):
        raise ShapeMismatch(f"target norm must be finite, got {c}")
    elif not c > 0:
        raise ShapeMismatch(f"target norm must be positive, got {c}")
    c = float(c)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (c / norms)[:, None] * v
    # c / |v_j| overflows, or for c within a few ulps of the largest
    # float its product with v_j does
    over = ~np.isfinite(w).all(axis=1)
    w[over] = (v[over] / norms[over, None]) * c
    return w, norms, c


def naimark_complement(frame):
    """Parseval frame for R^{n-d} whose Gram projection completes the input's.

    The input is certified once, by frame_certificate, and must be Parseval
    within default_certify_tol(). Its closest Parseval frame, mapped through
    that certificate's decomposition, is completed orthogonally, so the Gram
    identity holds to machine precision.
    """
    n, d = frame.n, frame.dim
    if n <= d:
        raise NoComplement(f"a complement needs n > d, got n = {n}, d = {d}")
    cert = frame_certificate(frame)
    eps, tol = cert.eps_parseval, default_certify_tol()
    if eps is None:
        raise NotParseval("no Parseval certificate: S has an eigenvalue "
                          "outside (0, 2)")
    if eps > tol:
        raise NotParseval(f"eps_parseval {eps} exceeds tol {tol:g}")
    w = frame.vectors @ inv_sqrt_from_eig(cert.decomposition)
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
    for name, value in (("d", d), ("n", n), ("seed", seed)):
        require_integer(name, value)
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
