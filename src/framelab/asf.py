"""Approximate Schauder frames over d-dimensional lp spaces.

Functionals are represented by vectors acting through the Euclidean
pairing and measured in the dual q-norm (1/p + 1/q = 1). The frame
operator S = sum_j tau_j f_j^T is a general (typically nonsymmetric) real
matrix, so Parseval-type certificates go through the full complex spectrum
with an explicit reality tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndivisibleRepeat,
    ShapeMismatch,
    UnsupportedExponent,
)
from .spectral import (ball_displacements, diagonal_shift_norm,
                       general_spectrum, pnorm)

SPECTRUM_REALITY_TOL = 1e-9
INVERTIBILITY_FLOOR = 1e-12


def dual_exponent(p):
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def norming_functional(u, p):
    """sign(u_i)|u_i|^{p-1}: for 1 < p < inf the dual vector of q-norm 1
    pairing to 1 with the unit-p-norm u, or one such vector per row of an
    (n, d) array. Other exponents raise UnsupportedExponent."""
    if not 1.0 < p < math.inf:
        raise UnsupportedExponent(
            f"norming functionals need 1 < p < inf, got p = {p}")
    u = np.asarray(u, dtype=float)
    return np.sign(u) * np.abs(u) ** (p - 1.0)


@dataclass(frozen=True)
class PNormSpace:
    """R^dim with the p-norm; p = math.inf is the max norm."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch("dim must be positive")
        if not (self.p == math.inf or self.p >= 1.0):
            raise UnsupportedExponent(f"p must be in [1, inf], got {self.p}")

    @property
    def q(self):
        return dual_exponent(self.p)


@dataclass(frozen=True)
class ASF:
    """A paired family of n functionals and n vectors over a PNormSpace."""

    space: PNormSpace
    functionals: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.functionals, dtype=float)
        v = np.asarray(self.vectors, dtype=float)
        d = self.space.dim
        if f.ndim != 2 or v.ndim != 2 or f.shape != v.shape or f.shape[1] != d:
            raise ShapeMismatch(
                f"functionals {f.shape} and vectors {v.shape} must both be "
                f"(n, {d})")
        if f.shape[0] < 1:
            raise ShapeMismatch("need at least one pair")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ShapeMismatch("entries must be finite")
        f = f.copy(); f.setflags(write=False)
        v = v.copy(); v.setflags(write=False)
        object.__setattr__(self, "functionals", f)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ASFReport:
    """Certified quantities of an ASF.

    eps_parseval follows the spectral definition (all eigenvalues real
    within the reality tolerance and inside (0, 2) around 1, and S
    invertible: sigma_min above INVERTIBILITY_FLOOR); the parseval
    flag is the stronger operator condition |S - I| <= tol, kept separate
    because a nonnormal S can have unit spectrum far from the identity.
    eps_equal_norm requires the norm triple |tau|_p^2 = f(tau) = |f|_q^2 to
    hold within tol for every pair.
    """

    S: np.ndarray
    sigma_min: float
    invertible: bool
    tight_lambda: float | None
    parseval: bool
    funtf: bool
    eps_parseval: float | None
    spectrum_real: bool
    eps_equal_norm: float | None
    norm_triple_defect: float
    norms_p_sq: np.ndarray
    norms_q_sq: np.ndarray
    pairings: np.ndarray


def asf_operator(asf):
    """S = sum_j tau_j f_j^T, acting as S x = sum_j (f_j . x) tau_j."""
    return asf.vectors.T @ asf.functionals


def analyze_asf(asf, tol):
    d = asf.space.dim
    n = asf.n
    p, q = asf.space.p, asf.space.q
    s = asf_operator(asf)
    spec = general_spectrum(s)  # also the guard against an overflowed S

    sigma = np.linalg.svd(s, compute_uv=False)
    sigma_min = float(sigma[-1])
    invertible = sigma_min > INVERTIBILITY_FLOOR

    lam = float(np.trace(s)) / d
    tight_lambda = lam if diagonal_shift_norm(s, lam) <= tol else None
    parseval = diagonal_shift_norm(s, 1.0) <= tol

    spectrum_real = bool(np.max(np.abs(spec.imag)) <= SPECTRUM_REALITY_TOL)
    eps_parseval = None
    if spectrum_real and invertible:
        dev = float(np.max(np.abs(spec.real - 1.0)))
        if dev < 1.0:
            eps_parseval = dev

    norms_p_sq = pnorm(asf.vectors, p) ** 2
    norms_q_sq = pnorm(asf.functionals, q) ** 2
    pairings = np.einsum("ij,ij->i", asf.functionals, asf.vectors)
    triple = np.stack([norms_p_sq, pairings, norms_q_sq])
    norm_triple_defect = float(np.max(triple.max(axis=0) - triple.min(axis=0)))

    eps_equal_norm = None
    if norm_triple_defect <= tol:
        dev = float(np.max(np.abs((n / d) * norms_p_sq - 1.0)))
        if dev < 1.0:
            eps_equal_norm = dev

    unit_dev = np.concatenate([
        np.abs(np.sqrt(norms_p_sq) - 1.0),
        np.abs(np.sqrt(norms_q_sq) - 1.0),
        np.abs(pairings - 1.0),
    ])
    funtf = tight_lambda is not None and float(np.max(unit_dev)) <= tol

    return ASFReport(
        S=s,
        sigma_min=sigma_min,
        invertible=invertible,
        tight_lambda=tight_lambda,
        parseval=parseval,
        funtf=funtf,
        eps_parseval=eps_parseval,
        spectrum_real=spectrum_real,
        eps_equal_norm=eps_equal_norm,
        norm_triple_defect=norm_triple_defect,
        norms_p_sq=norms_p_sq,
        norms_q_sq=norms_q_sq,
        pairings=pairings,
    )


def _check_compatible(a, b):
    if a.space.dim != b.space.dim or a.space.p != b.space.p:
        raise ShapeMismatch(
            f"spaces differ: l^{a.space.p}_{a.space.dim} vs "
            f"l^{b.space.p}_{b.space.dim}")
    if a.n != b.n:
        raise ShapeMismatch(f"family sizes differ: {a.n} vs {b.n}")


def asf_dist(a, b, variant="default"):
    """Distance between two ASFs over the same space.

    default: (sum_j (|dtau_j|_p^2 + |df_j|_q^2)/2)^(1/2);
    star: half the sum of the two square-rooted halves (never larger);
    a positive real variant replaces both exponents 2 by that value.
    """
    _check_compatible(a, b)
    p, q = a.space.p, a.space.q
    dv = pnorm(a.vectors - b.vectors, p)
    df = pnorm(a.functionals - b.functionals, q)
    if variant == "default":
        return float(np.sqrt(np.sum(0.5 * (dv ** 2 + df ** 2))))
    if variant == "star":
        return float(0.5 * (np.sqrt(np.sum(dv ** 2)) + np.sqrt(np.sum(df ** 2))))
    try:
        r = float(variant)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"unknown distance variant {variant!r}") from None
    if not r > 0:
        raise UnsupportedExponent(f"variant exponent must be positive, got {r}")
    return float(np.sum(0.5 * (dv ** r + df ** r)) ** (1.0 / r))


def from_hilbert(frame):
    """Lift a Hilbert frame: same vectors on both sides of an l2 space."""
    return ASF(
        space=PNormSpace(dim=frame.dim, p=2.0),
        functionals=frame.vectors,
        vectors=frame.vectors,
    )


def generate_asf(kind, space, n=None, seed=0, base=None, delta=None):
    """Seeded ASF generators.

    repeated_basis: each basis pair repeated n/dim times, both sides scaled
    sqrt(dim/n), an equal-norm Parseval ASF for every p (at n = dim, the
    biorthogonal basis pair); random: independent Gaussian entries;
    perturb: base with vectors displaced in a p-ball of radius delta and
    functionals independently in a q-ball.
    """
    d = space.dim
    if kind == "repeated_basis":
        if n is None or n < 1:
            raise ShapeMismatch("repeated_basis needs n")
        if n % d != 0:
            raise IndivisibleRepeat(f"d = {d} does not divide n = {n}")
        idx = np.arange(n) % d
        rows = np.sqrt(d / n) * np.eye(d)[idx]
        return ASF(space=space, functionals=rows, vectors=rows)
    if kind == "random":
        if n is None or n < 1:
            raise ShapeMismatch("random needs n")
        rng = np.random.default_rng(seed)
        return ASF(space=space,
                   functionals=rng.standard_normal((n, d)),
                   vectors=rng.standard_normal((n, d)))
    if kind == "perturb":
        if base is None or delta is None or delta < 0:
            raise ShapeMismatch("perturb needs a base ASF and delta >= 0")
        rng = np.random.default_rng(seed)
        dv = ball_displacements(rng, base.n, d, delta, space.p)
        df = ball_displacements(rng, base.n, d, delta, space.q)
        return ASF(space=space,
                   functionals=base.functionals + df,
                   vectors=base.vectors + dv)
    raise ShapeMismatch(f"unknown kind {kind!r}")

