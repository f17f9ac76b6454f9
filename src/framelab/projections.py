"""Projection-problem quantities.

Covers idempotent certification with rank determination, balance epsilon
over Auerbach systems, the projection-pair distance, and chordal distance.
The Hilbert case is the l2 one: an orthonormal basis U is the Auerbach
system AuerbachSystem(PNormSpace(d, 2.0), U, U). Oblique (non-self-adjoint)
idempotents are first-class: the self-adjoint defect is reported, never
enforced, and the chordal radicand is allowed to go negative with an
explicit error instead of a silent clamp.
"""

from dataclasses import dataclass

import numpy as np

from .asf import PNormSpace, pnorm
from .errors import (
    InvalidSystem,
    NegativeChordal,
    NotIdempotent,
    RankMismatch,
    ShapeMismatch,
    ZeroRank,
)
from .spectral import frobenius_norm, general_spectrum, square_matrix

PROJ_TOL = 1e-8
RANK_EIG_TOL = 1e-8
AUERBACH_TOL = 1e-10
CHORDAL_TOL = 1e-10
# Nonzero singular values of an idempotent are >= 1, so 0.5 separates
# the rank cluster from the kernel cluster with a wide margin.
RANK_SV_SPLIT = 0.5


@dataclass(frozen=True)
class ProjectionOp:
    """A certified idempotent with its defect and rank."""

    dim: int
    matrix: np.ndarray
    idempotency_defect: float
    rank: int
    self_adjoint_defect: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class AuerbachSystem:
    """Unit basis u_k with unit dual functionals zeta_k, zeta_j(u_k) = delta_jk."""

    space: PNormSpace
    basis_vectors: np.ndarray
    dual_functionals: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        u = np.asarray(self.basis_vectors, dtype=float)
        z = np.asarray(self.dual_functionals, dtype=float)
        if u.shape != (d, d) or z.shape != (d, d):
            raise InvalidSystem(
                f"need {d} basis vectors and {d} functionals of length {d}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(z))):
            raise InvalidSystem("entries must be finite")
        bad_u = np.abs(pnorm(u, self.space.p) - 1.0) > AUERBACH_TOL
        bad_z = np.abs(pnorm(z, self.space.q) - 1.0) > AUERBACH_TOL
        if np.any(bad_u | bad_z):
            k = int(np.argmax(bad_u | bad_z))
            if bad_u[k]:
                raise InvalidSystem(f"basis vector {k} is not unit in the p-norm")
            raise InvalidSystem(f"functional {k} is not unit in the dual norm")
        gram = z @ u.T
        if np.max(np.abs(gram - np.eye(d))) > AUERBACH_TOL:
            raise InvalidSystem("pairing zeta_j(u_k) is not the identity")
        u = u.copy(); u.setflags(write=False)
        z = z.copy(); z.setflags(write=False)
        object.__setattr__(self, "basis_vectors", u)
        object.__setattr__(self, "dual_functionals", z)


def certify_projection(m):
    m, _ = square_matrix(m)
    d = m.shape[0]

    defect = frobenius_norm(m @ m - m)
    if defect > PROJ_TOL:
        raise NotIdempotent(
            f"idempotency defect {defect:.3e} exceeds {PROJ_TOL:.3e}")

    spec = general_spectrum(m)
    rank_eig = int(np.sum(np.abs(spec - 1.0) <= RANK_EIG_TOL))
    sv = np.linalg.svd(m, compute_uv=False)
    rank_sv = int(np.sum(sv > RANK_SV_SPLIT))
    if rank_eig != rank_sv:
        raise NotIdempotent(
            f"rank is ambiguous: {rank_eig} unit eigenvalues vs "
            f"{rank_sv} singular values above {RANK_SV_SPLIT}")

    return ProjectionOp(dim=d, matrix=m, idempotency_defect=defect,
                        rank=rank_eig,
                        self_adjoint_defect=frobenius_norm(m - m.T))


@dataclass(frozen=True)
class BanachBalance:
    """Outcome of the Banach balance check.

    eps is present only when the per-index equality chain
    |P u_k|_p^2 = |zeta_k P|_q^2 = |zeta_k(P u_k)| held within tol for
    every k and the deviation stayed below 1; failures lists each index
    whose chain broke, with the three values.
    """

    eps: float | None
    chain_defect: float
    failures: tuple


def balance_epsilon_banach(proj, sys, tol=1e-8):
    d = proj.dim
    if proj.rank == 0:
        raise ZeroRank("balance is undefined for the zero projection")
    if sys.space.dim != d:
        raise ShapeMismatch(
            f"system dimension {sys.space.dim} does not match {d}")
    p, q = sys.space.p, sys.space.q
    pm = proj.matrix
    n = proj.rank

    pu = sys.basis_vectors @ pm.T
    zp = sys.dual_functionals @ pm
    chain = np.stack([pnorm(pu, p) ** 2, pnorm(zp, q) ** 2,
                      np.abs(np.einsum("kj,kj->k", sys.dual_functionals, pu))])
    spread = chain.max(axis=0) - chain.min(axis=0)
    worst = float(np.max(spread))
    failures = tuple(
        (k, f"index {k}: |Pu|_p^2 = {a:.6g}, |zP|_q^2 = {b:.6g}, "
            f"|z(Pu)| = {c:.6g}")
        for k, (a, b, c) in enumerate(chain.T) if spread[k] > tol)

    if failures:
        return BanachBalance(eps=None, chain_defect=worst, failures=failures)
    dev = float(np.max(np.abs((d / n) * chain[0] - 1.0)))
    eps = dev if dev < 1.0 else None
    return BanachBalance(eps=eps, chain_defect=worst, failures=())


def projection_pair_distance(proj_a, proj_b, sys):
    """Sum over the system of half the squared p/q displacement norms."""
    if proj_a.dim != proj_b.dim or sys.space.dim != proj_a.dim:
        raise ShapeMismatch("projections and system must share a dimension")
    p, q = sys.space.p, sys.space.q
    diff = proj_a.matrix - proj_b.matrix
    du = sys.basis_vectors @ diff.T
    dz = sys.dual_functionals @ diff
    return float(np.sum(0.5 * (pnorm(du, p) ** 2 + pnorm(dz, q) ** 2)))


def chordal_distance(proj_a, proj_b):
    """sqrt(m - trace(PQ)) for equal certified ranks m.

    The radicand can dip below zero for oblique pairs; within CHORDAL_TOL
    of zero (either side, so identical projections land exactly on 0
    despite rounding in the trace) it is clamped, below -CHORDAL_TOL
    NegativeChordal carries the value out.
    """
    if proj_a.dim != proj_b.dim:
        raise ShapeMismatch(
            f"dimensions differ: {proj_a.dim} vs {proj_b.dim}")
    if proj_a.rank != proj_b.rank:
        raise RankMismatch(f"ranks differ: {proj_a.rank} vs {proj_b.rank}")
    if proj_a.rank == 0:
        raise ZeroRank("chordal distance needs rank at least 1")
    pa, pb = proj_a.matrix, proj_b.matrix
    # Symmetrized so the result is bitwise invariant under swapping arguments.
    t = 0.5 * (float(np.sum(pa * pb.T)) + float(np.sum(pb * pa.T)))
    s = proj_a.rank - t
    if s < -CHORDAL_TOL:
        raise NegativeChordal(s)
    if s <= CHORDAL_TOL:
        return 0.0
    return float(np.sqrt(s))
