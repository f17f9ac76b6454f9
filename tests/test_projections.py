import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framelab.asf import PNormSpace
from framelab.errors import (
    InvalidSystem,
    NegativeChordal,
    NotIdempotent,
    RankMismatch,
    ShapeMismatch,
    ZeroRank,
)
from framelab.projections import (
    AuerbachSystem,
    PROJ_TOL,
    balance_epsilon_banach,
    certify_projection,
    chordal_distance,
    projection_pair_distance,
)
from framelab.spectral import pnorm
from conftest import auerbach_system


def random_orthogonal_projection(rng, d, rank):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    basis = q[:, :rank]
    return certify_projection(basis @ basis.T)


def random_oblique_projection(rng, d, rank):
    # P = A (B^T A)^{-1} B^T projects onto col(A) along ker(B^T)
    while True:
        a = rng.standard_normal((d, rank))
        b = rng.standard_normal((d, rank))
        m = b.T @ a
        if abs(np.linalg.det(m)) > 1e-3:
            return certify_projection(a @ np.linalg.solve(m, b.T))


class TestCertify:
    def test_coordinate(self):
        proj = certify_projection(np.diag([1.0, 0.0]))
        assert proj.rank == 1
        assert proj.idempotency_defect <= 1e-15
        assert proj.self_adjoint_defect <= 1e-15

    def test_averaging(self):
        proj = certify_projection(np.full((2, 2), 0.5))
        assert proj.rank == 1
        assert proj.self_adjoint_defect == 0.0

    def test_oblique_reports_self_adjoint_defect(self):
        proj = certify_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert proj.rank == 1
        assert proj.self_adjoint_defect > PROJ_TOL

    def test_non_idempotent(self):
        with pytest.raises(NotIdempotent):
            certify_projection(np.array([[0.5, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m, message", [
        (np.ones((2, 3)), "expected a square matrix, got (2, 3)"),
        (np.ones(3), "expected a matrix, got ndim 1"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]),
         "matrix entries must be finite"),
    ])
    def test_rejects_what_is_not_a_finite_square_matrix(self, m, message):
        with pytest.raises(ShapeMismatch) as exc:
            certify_projection(m)
        assert str(exc.value) == message

    def test_identity_and_zero(self):
        assert certify_projection(np.eye(3)).rank == 3
        assert certify_projection(np.zeros((3, 3))).rank == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6))
    def test_random_orthogonal_rank(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        proj = random_orthogonal_projection(rng, d, rank)
        assert proj.rank == rank
        assert proj.idempotency_defect <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 7),
           log_scale=st.floats(0.0, 6.0),
           noise=st.sampled_from([0.0, 1e-12, 1e-10, 3e-9, 3e-8]))
    def test_rank_is_both_spectral_counts(self, seed, d, log_scale, noise):
        # oblique idempotents of every rank under a diagonal similarity
        # with entries up to 10^log_scale, plus entrywise noise; on those
        # that pass the defect test the rounded trace counts both the
        # eigenvalues within 1e-8 of 1 and the singular values above 0.5
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, d + 1))
        a = rng.standard_normal((d, rank))
        b = rng.standard_normal((d, rank))
        gram = b.T @ a
        assume(rank == 0 or abs(np.linalg.det(gram)) > 1e-3)
        s = 10.0 ** rng.uniform(0.0, log_scale, d)
        m = (a @ np.linalg.solve(gram, b.T) if rank else np.zeros((d, d)))
        m = m * (s[None, :] / s[:, None]) + noise * rng.uniform(-1, 1, (d, d))
        try:
            proj = certify_projection(m)
        except NotIdempotent:
            assume(False)
        eig = np.abs(np.linalg.eigvals(m) - 1.0) <= 1e-8
        sv = np.linalg.svd(m, compute_uv=False) > 0.5
        assert proj.rank == rank == np.sum(eig) == np.sum(sv)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_random_oblique_rank(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        proj = random_oblique_projection(rng, d, rank)
        assert proj.rank == rank


class TestHilbertBalance:
    """Balance over an orthonormal basis: the l2 Auerbach system."""

    def test_coordinate_with_diagonal_basis(self):
        # the 45-degree basis sees the coordinate line symmetrically
        proj = certify_projection(np.diag([1.0, 0.0]))
        r = math.sqrt(0.5)
        onb = np.array([[r, r], [r, -r]])
        bal = balance_epsilon_banach(proj, auerbach_system(onb), tol=1e-8)
        assert bal.eps == pytest.approx(0.0, abs=1e-12)
        assert bal.failures == ()

    def test_identity(self):
        proj = certify_projection(np.eye(3))
        bal = balance_epsilon_banach(proj, auerbach_system(np.eye(3)), tol=1e-8)
        assert bal.eps == pytest.approx(0.0, abs=1e-15)

    def test_unbalanced_absent(self):
        # rank-1 aligned with a basis vector: values {1, 0}, spread 1
        proj = certify_projection(np.diag([1.0, 0.0, 0.0]))
        bal = balance_epsilon_banach(proj, auerbach_system(np.eye(3)), tol=1e-8)
        assert bal.eps is None
        assert bal.failures == ()

    def test_rotated_balance(self):
        # rank-1 line at 45 degrees sees both basis vectors equally
        proj = certify_projection(np.full((2, 2), 0.5))
        bal = balance_epsilon_banach(proj, auerbach_system(np.eye(2)), tol=1e-8)
        assert bal.eps == pytest.approx(0.0, abs=1e-12)

    def test_zero_rank_rejected(self):
        with pytest.raises(ZeroRank):
            balance_epsilon_banach(certify_projection(np.zeros((2, 2))),
                                   auerbach_system(np.eye(2)), tol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6))
    def test_trace_identity(self, seed, d):
        # sum of |P u_k|^2 over an orthonormal basis equals trace(P^T P),
        # which equals rank for orthogonal projections
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        proj = random_orthogonal_projection(rng, d, rank)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        vals = np.sum((q.T @ proj.matrix.T) ** 2, axis=1)
        assert float(np.sum(vals)) == pytest.approx(rank, abs=1e-10)


class TestAuerbach:
    def test_canonical_all_p(self):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            sys = auerbach_system(np.eye(3), p)
            assert sys.space == PNormSpace(3, p)
            assert np.array_equal(sys.basis_vectors, np.eye(3))
            assert np.array_equal(sys.dual_functionals, np.eye(3))

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidSystem):
            AuerbachSystem(space=PNormSpace(2, 2.0),
                           basis_vectors=2.0 * np.eye(2),
                           dual_functionals=np.eye(2))

    def test_rejects_broken_pairing(self):
        v = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        with pytest.raises(InvalidSystem):
            AuerbachSystem(space=PNormSpace(2, 2.0), basis_vectors=v,
                           dual_functionals=v)

    def test_rotated_orthonormal_is_valid(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        sys = AuerbachSystem(space=PNormSpace(3, 2.0), basis_vectors=q,
                             dual_functionals=q)
        assert sys.space.dim == 3


class TestBanachBalance:
    def test_l2_coordinate(self):
        sys = auerbach_system(np.eye(2))
        proj = certify_projection(np.full((2, 2), 0.5))
        bal = balance_epsilon_banach(proj, sys, tol=1e-8)
        assert bal.eps == pytest.approx(0.0, abs=1e-12)
        assert bal.chain_defect <= 1e-12
        assert bal.failures == ()

    def test_identity_any_p(self):
        for p in (1.0, 1.5, 3.0, math.inf):
            sys = auerbach_system(np.eye(3), p)
            proj = certify_projection(np.eye(3))
            bal = balance_epsilon_banach(proj, sys, tol=1e-8)
            assert bal.eps == pytest.approx(0.0, abs=1e-12)
            assert bal.failures == ()

    def test_l1_chain_failure_is_diagnosed(self):
        # in l1 the three balance readings of an oblique rank-1 projection
        # disagree; the certificate must name the offending index
        sys = auerbach_system(np.eye(2), 1.0)
        proj = certify_projection(np.array([[1.0, 0.5], [0.0, 0.0]]))
        bal = balance_epsilon_banach(proj, sys, tol=1e-8)
        assert bal.failures
        assert all(isinstance(k, int) and isinstance(msg, str)
                   for k, msg in bal.failures)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 7))
    def test_l2_reduces_to_hilbert(self, seed, d):
        # over an orthonormal basis the chain collapses to |P u_k|^2 and
        # eps is the Hilbert balance max_k |(d/rank)|P u_k|^2 - 1|
        rng = np.random.default_rng(seed)
        proj = random_orthogonal_projection(rng, d, int(rng.integers(1, d + 1)))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        vals = np.sum((u @ proj.matrix.T) ** 2, axis=1)
        dev = float(np.max(np.abs((d / proj.rank) * vals - 1.0)))
        bal = balance_epsilon_banach(proj, auerbach_system(u), tol=1e-8)
        assert bal.chain_defect <= 1e-12
        assert bal.failures == ()
        assert (bal.eps is None) == (dev >= 1.0)
        if bal.eps is not None:
            assert bal.eps == pytest.approx(dev, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_rows_match_per_index_loop(self, seed, d, p):
        rng = np.random.default_rng(seed)
        sys = auerbach_system(np.eye(d), p)
        proj = random_oblique_projection(rng, d, int(rng.integers(1, d)))
        m, q = proj.matrix, sys.space.q
        chain = np.array([[pnorm(m @ u, p) ** 2, pnorm(m.T @ z, q) ** 2,
                           abs(float(z @ m @ u))]
                          for u, z in zip(sys.basis_vectors,
                                          sys.dual_functionals)])
        spread = chain.max(axis=1) - chain.min(axis=1)
        bal = balance_epsilon_banach(proj, sys, tol=1e-8)
        assert bal.chain_defect == pytest.approx(np.max(spread), rel=1e-12,
                                                 abs=1e-12)
        assert [k for k, _ in bal.failures] == \
            [k for k in range(d) if spread[k] > 1e-8]


class TestPairDistance:
    def test_zero_on_self(self):
        sys = auerbach_system(np.eye(3), 1.5)
        proj = certify_projection(np.diag([1.0, 1.0, 0.0]))
        assert projection_pair_distance(proj, proj, sys) == 0.0

    def test_complementary_coordinate(self):
        sys = auerbach_system(np.eye(2))
        p = certify_projection(np.diag([1.0, 0.0]))
        q = certify_projection(np.diag([0.0, 1.0]))
        assert projection_pair_distance(p, q, sys) == pytest.approx(2.0)

    def test_coordinate_vs_zero(self):
        sys = auerbach_system(np.eye(2))
        p = certify_projection(np.diag([1.0, 0.0]))
        z = certify_projection(np.zeros((2, 2)))
        assert projection_pair_distance(p, z, sys) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_symmetry_and_positivity(self, seed, p):
        rng = np.random.default_rng(seed)
        sys = auerbach_system(np.eye(3), p)
        pa = random_orthogonal_projection(rng, 3, 1)
        pb = random_orthogonal_projection(rng, 3, 2)
        ab = projection_pair_distance(pa, pb, sys)
        ba = projection_pair_distance(pb, pa, sys)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab > 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_rows_match_per_index_loop(self, seed, d, p):
        rng = np.random.default_rng(seed)
        sys = auerbach_system(np.eye(d), p)
        pa = random_oblique_projection(rng, d, int(rng.integers(1, d)))
        pb = random_oblique_projection(rng, d, int(rng.integers(1, d)))
        diff, q = pa.matrix - pb.matrix, sys.space.q
        loop = sum(0.5 * (pnorm(diff @ u, p) ** 2 + pnorm(diff.T @ z, q) ** 2)
                   for u, z in zip(sys.basis_vectors, sys.dual_functionals))
        assert projection_pair_distance(pa, pb, sys) == \
            pytest.approx(loop, rel=1e-13)


class TestChordal:
    def test_identical(self):
        p = certify_projection(np.diag([1.0, 0.0]))
        assert chordal_distance(p, p) == 0.0

    def test_quarter_turn(self):
        p = certify_projection(np.diag([1.0, 0.0]))
        q = certify_projection(np.full((2, 2), 0.5))
        assert chordal_distance(p, q) == pytest.approx(math.sqrt(0.5))

    def test_orthogonal_lines(self):
        p = certify_projection(np.diag([1.0, 0.0]))
        q = certify_projection(np.diag([0.0, 1.0]))
        assert chordal_distance(p, q) == pytest.approx(1.0)

    def test_rank_mismatch(self):
        p = certify_projection(np.diag([1.0, 0.0]))
        q = certify_projection(np.eye(2))
        with pytest.raises(RankMismatch):
            chordal_distance(p, q)

    def test_zero_rank(self):
        z = certify_projection(np.zeros((2, 2)))
        with pytest.raises(ZeroRank):
            chordal_distance(z, z)

    def test_negative_total_rejected(self):
        # oblique projections can push the squared distance below zero
        # past the tolerance; the certificate must refuse, not clamp
        a = certify_projection(np.array([[1.0, 4.0], [0.0, 0.0]]))
        b = certify_projection(np.array([[1.0, 0.0], [4.0, 0.0]]))
        with pytest.raises(NegativeChordal):
            chordal_distance(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6))
    def test_principal_angle_oracle(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        qa, _ = np.linalg.qr(rng.standard_normal((d, d)))
        qb, _ = np.linalg.qr(rng.standard_normal((d, d)))
        ba, bb = qa[:, :rank], qb[:, :rank]
        pa = certify_projection(ba @ ba.T)
        pb = certify_projection(bb @ bb.T)
        cosines = np.linalg.svd(ba.T @ bb, compute_uv=False)
        expected = math.sqrt(max(0.0, rank - float(np.sum(cosines ** 2))))
        assert chordal_distance(pa, pb) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_bitwise_symmetry(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        pa = random_orthogonal_projection(rng, d, rank)
        pb = random_orthogonal_projection(rng, d, rank)
        assert chordal_distance(pa, pb) == chordal_distance(pb, pa)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_zero_distance_forces_equality(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        basis = q[:, :rank]
        pa = certify_projection(basis @ basis.T)
        # same range built through a different orthonormal basis
        mix, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        other = basis @ mix
        pb = certify_projection(other @ other.T)
        if chordal_distance(pa, pb) <= 1e-8:
            assert np.linalg.norm(pa.matrix - pb.matrix) <= 1e-6


class TestNormsHelper:
    def test_pnorm_on_rows_matches_axis_loop(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((4, 3))
        for p in (1.0, 1.5, 2.0, math.inf):
            per_row = [pnorm(r, p) for r in rows]
            assert all(v >= 0 for v in per_row)


def _system(u, z, p=2.0):
    return AuerbachSystem(space=PNormSpace(3, p), basis_vectors=u,
                          dual_functionals=z)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: _system(np.eye(2), np.eye(2)), InvalidSystem,
                 "need 3 basis vectors and 3 functionals of length 3",
                 id="system-shape"),
    pytest.param(lambda: _system(np.eye(3), np.diag([1.0, np.nan, 1.0])),
                 InvalidSystem, "entries must be finite",
                 id="system-nonfinite"),
    pytest.param(lambda: _system(np.eye(3), np.diag([1.0, 2.0, 1.0])),
                 InvalidSystem, "functional 1 is not unit in the dual norm",
                 id="system-functional"),
    pytest.param(lambda: balance_epsilon_banach(
        certify_projection(np.eye(2)), auerbach_system(np.eye(3)),
        tol=1e-8), ShapeMismatch, "system dimension 3 does not match 2",
        id="balance-dim"),
    pytest.param(lambda: projection_pair_distance(
        certify_projection(np.eye(2)), certify_projection(np.eye(2)),
        auerbach_system(np.eye(3))), ShapeMismatch,
        "projections and system must share a dimension", id="pair-dim"),
    pytest.param(lambda: chordal_distance(
        certify_projection(np.eye(2)), certify_projection(np.eye(3))),
        ShapeMismatch, "dimensions differ: 2 vs 3", id="chordal-dim"),
])
def test_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
