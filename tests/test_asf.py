import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.asf import (
    ASF,
    PNormSpace,
    analyze_asf,
    asf_dist,
    asf_operator,
    dual_exponent,
    from_hilbert,
    generate_asf,
    norming_functional,
)
from framelab.errors import (
    IndivisibleRepeat,
    ShapeMismatch,
    UnsupportedExponent,
)
from framelab.frames import Frame, analyze_frame
from framelab.spectral import pnorm
from conftest import random_frame


def random_asf(seed, d, n, p=2.0):
    rng = np.random.default_rng(seed)
    return ASF(space=PNormSpace(dim=d, p=p),
               functionals=rng.standard_normal((n, d)),
               vectors=rng.standard_normal((n, d)))


class TestSpaces:
    def test_dual_exponents(self):
        assert dual_exponent(1.0) == math.inf
        assert dual_exponent(math.inf) == 1.0
        assert dual_exponent(2.0) == 2.0
        assert dual_exponent(1.5) == pytest.approx(3.0)

    def test_q_property(self):
        assert PNormSpace(3, 4.0).q == pytest.approx(4.0 / 3.0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(UnsupportedExponent):
            PNormSpace(2, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_dual_norm_examples_and_monotonicity(self, seed, p):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4)
        # |x|_p non-increasing in p, dual norm non-decreasing in p
        ps = [1.0, 1.5, 2.0, 3.0, math.inf]
        primal = [pnorm(x, r) for r in ps]
        assert all(a >= b - 1e-12 for a, b in zip(primal, primal[1:]))
        duals = [pnorm(x, dual_exponent(r)) for r in ps]
        assert all(a <= b + 1e-12 for a, b in zip(duals, duals[1:]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8),
           p=st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]))
    def test_norming_functional_rows(self, seed, n, d, p):
        # unit rows, some with zero coordinates
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
        u[np.arange(n), rng.integers(0, d, n)] = rng.choice([-1.0, 1.0], n)
        u /= pnorm(u, p)[:, None]
        f = norming_functional(u, p)
        assert np.array_equal(
            f, np.stack([norming_functional(row, p) for row in u]))
        assert np.allclose(pnorm(f, dual_exponent(p)), 1.0,
                           rtol=0, atol=1e-12)
        assert np.allclose(np.sum(f * u, axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, math.inf, 0.5])
    def test_norming_functional_needs_smooth_exponent(self, p):
        with pytest.raises(UnsupportedExponent, match="1 < p < inf"):
            norming_functional(np.array([[1.0, 0.0]]), p)

    def test_dual_norm_pinned(self):
        # the dual norm of l^p is the q-norm, q = dual_exponent(p)
        assert pnorm(np.array([0.5, 0.5]), dual_exponent(1.0)) == 0.5
        assert pnorm(np.array([3.0, 4.0]), dual_exponent(2.0)) == 5.0
        assert pnorm(np.array([1.0, -1.0]), dual_exponent(math.inf)) == 2.0


class TestAnalyzeASF:
    def test_canonical(self):
        rep = analyze_asf(
            generate_asf("repeated_basis", PNormSpace(3, 1.5), n=3), tol=1e-8)
        assert np.allclose(rep.S, np.eye(3))
        assert rep.parseval and rep.funtf and rep.invertible
        assert rep.eps_parseval == pytest.approx(0.0, abs=1e-12)
        assert rep.eps_equal_norm == pytest.approx(0.0, abs=1e-12)

    def test_repeated_basis_l1(self):
        asf = generate_asf("repeated_basis", PNormSpace(2, 1.0), n=4)
        rep = analyze_asf(asf, tol=1e-8)
        assert np.allclose(rep.S, np.eye(2), atol=1e-14)
        assert np.allclose(rep.norms_p_sq, 0.5)
        assert np.allclose(rep.pairings, 0.5)
        assert rep.eps_parseval <= 1e-12
        assert rep.eps_equal_norm <= 1e-12

    def test_triangular_gap(self):
        # spectrum {1,1} but S far from I: eps present, parseval flag off
        asf = ASF(space=PNormSpace(2, 2.0),
                  functionals=np.array([[1.0, 1.0], [0.0, 1.0]]),
                  vectors=np.eye(2))
        rep = analyze_asf(asf, tol=1e-8)
        assert np.allclose(rep.S, [[1.0, 1.0], [0.0, 1.0]])
        assert rep.invertible
        assert rep.eps_parseval == pytest.approx(0.0, abs=1e-12)
        assert not rep.parseval
        assert rep.tight_lambda is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4),
           n=st.integers(1, 6))
    def test_operator_matches_pointwise_sum(self, seed, d, n):
        asf = random_asf(seed, d, n)
        s = asf_operator(asf)
        direct = sum(np.outer(asf.vectors[j], asf.functionals[j])
                     for j in range(n))
        assert np.linalg.norm(s - direct) <= 1e-12 * max(
            1.0, np.linalg.norm(direct))

    def test_repeated_basis_certificate_all_p(self):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            rep = analyze_asf(
                generate_asf("repeated_basis", PNormSpace(3, p), n=6),
                tol=1e-8)
            assert rep.eps_parseval <= 1e-12
            assert rep.eps_equal_norm <= 1e-12
            assert rep.norm_triple_defect <= 1e-12


class TestASFDist:
    def test_zero_on_self(self):
        asf = random_asf(3, 2, 4)
        for variant in ("default", "star", 1.5):
            assert asf_dist(asf, asf, variant) == 0.0

    def test_single_move(self):
        can = generate_asf("repeated_basis", PNormSpace(2, 2.0), n=2)
        moved = ASF(space=can.space, functionals=can.functionals,
                    vectors=np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert asf_dist(can, moved) == pytest.approx(math.sqrt(0.5))
        assert asf_dist(can, moved, "star") == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_star_below_default_and_p2_matches(self, seed, p):
        a = random_asf(seed, 3, 4, p)
        b = random_asf(seed + 1, 3, 4, p)
        default = asf_dist(a, b)
        assert asf_dist(a, b, "star") <= default + 1e-12
        assert asf_dist(a, b, 2.0) == pytest.approx(default, abs=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(ShapeMismatch):
            asf_dist(random_asf(0, 2, 3, 2.0), random_asf(0, 2, 3, 1.5))


class TestHilbertReduction:
    def test_mb_lift(self, mb):
        rep = analyze_asf(from_hilbert(mb), tol=1e-8)
        assert np.allclose(rep.S, 1.5 * np.eye(2), atol=1e-14)
        assert rep.eps_parseval == pytest.approx(0.5, abs=1e-10)

    def test_basis_lift_is_canonical(self):
        lifted = from_hilbert(Frame(np.eye(3)))
        can = generate_asf("repeated_basis", PNormSpace(3, 2.0), n=3)
        assert np.array_equal(lifted.vectors, can.vectors)
        assert np.array_equal(lifted.functionals, can.functionals)

    def test_round_trip(self, mb):
        lifted = from_hilbert(mb)
        assert np.array_equal(lifted.vectors, mb.vectors)
        assert np.array_equal(lifted.functionals, mb.vectors)

    # at the example S has rank 1 and a computed eigenvalue of 1.8e-16:
    # singular, so neither side reports eps_parseval
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4),
           n=st.integers(1, 6))
    @example(seed=475711, d=3, n=1)
    def test_certificates_match(self, seed, d, n):
        frame = random_frame(seed, d, n)
        h = analyze_frame(frame)
        b = analyze_asf(from_hilbert(frame), tol=1e-8)
        if h.eps_parseval is None:
            assert b.eps_parseval is None
        else:
            assert b.eps_parseval == pytest.approx(h.eps_parseval, abs=1e-10)
        if h.eps_equal_norm is None:
            assert b.eps_equal_norm is None
        else:
            assert b.eps_equal_norm == pytest.approx(h.eps_equal_norm,
                                                     abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4),
           n=st.integers(1, 6))
    def test_lifted_distance_equals_frame_distance(self, seed, d, n):
        from framelab import frame_dist
        a = random_frame(seed, d, n)
        b = random_frame(seed + 7, d, n)
        assert asf_dist(from_hilbert(a), from_hilbert(b)) == pytest.approx(
            frame_dist(a, b), abs=1e-12)

    def test_scaled_mb_distance(self, mb):
        from framelab import frame_dist
        shrunk = Frame(np.sqrt(2.0 / 3.0) * mb.vectors)
        assert asf_dist(from_hilbert(mb), from_hilbert(shrunk)) \
            == pytest.approx(frame_dist(mb, shrunk), abs=1e-12)


class TestGenerateASF:
    def test_repeated_basis_common_value(self):
        asf = generate_asf("repeated_basis", PNormSpace(2, 3.0), n=4)
        rep = analyze_asf(asf, tol=1e-8)
        assert np.allclose(rep.norms_p_sq, 0.5)
        assert np.allclose(rep.S, np.eye(2), atol=1e-14)

    def test_indivisible(self):
        with pytest.raises(IndivisibleRepeat):
            generate_asf("repeated_basis", PNormSpace(2, 2.0), n=5)

    def test_perturb_zero_delta(self):
        can = generate_asf("repeated_basis", PNormSpace(3, 1.5), n=3)
        same = generate_asf("perturb", can.space, seed=4, base=can, delta=0.0)
        assert np.array_equal(same.vectors, can.vectors)
        assert np.array_equal(same.functionals, can.functionals)

    def test_perturb_radius_respected(self):
        space = PNormSpace(3, 1.5)
        base = generate_asf("repeated_basis", space, n=6)
        out = generate_asf("perturb", space, seed=8, base=base, delta=0.05)
        for j in range(6):
            assert pnorm(out.vectors[j] - base.vectors[j], 1.5) <= 0.05 + 1e-15
            assert pnorm(out.functionals[j] - base.functionals[j],
                         space.q) <= 0.05 + 1e-15

    def test_random_invertibility_is_certified(self):
        asf = generate_asf("random", PNormSpace(3, 1.5), n=5, seed=0)
        rep = analyze_asf(asf, tol=1e-8)
        assert rep.invertible == (rep.sigma_min > 1e-12)

    def test_deterministic(self):
        a = generate_asf("random", PNormSpace(2, 2.0), n=4, seed=9)
        b = generate_asf("random", PNormSpace(2, 2.0), n=4, seed=9)
        assert np.array_equal(a.vectors, b.vectors)
