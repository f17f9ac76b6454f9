import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.errors import (
    NoComplement,
    NotParseval,
    ShapeMismatch,
    SingularOperator,
    UnsupportedShape,
    ZeroVector,
)
from framelab.frames import (
    Frame,
    analyze_frame,
    closest_equal_norm,
    closest_parseval,
    frame_dist,
    frame_operator,
    generate,
    naimark_complement,
    rescale_rows,
)
from conftest import random_frame


class TestFrameType:
    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            Frame(np.zeros((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeMismatch):
            Frame(np.array([[np.nan, 0.0]]))

    def test_vectors_immutable(self, mb):
        with pytest.raises(ValueError):
            mb.vectors[0, 0] = 7.0


class TestOperators:
    def test_frame_operator_mb(self, mb):
        assert np.allclose(frame_operator(mb), 1.5 * np.eye(2), atol=1e-14)

    def test_frame_operator_diag(self):
        f = Frame(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(frame_operator(f), np.diag([1.0, 4.0]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 5),
           n=st.integers(1, 8))
    def test_operator_is_synthesis_of_analysis(self, seed, d, n):
        # analysis x -> V x, synthesis c -> V^T c, applied to each e_i
        frame = random_frame(seed, d, n)
        v = frame.vectors
        s = frame_operator(frame)
        cols = np.column_stack([v.T @ (v @ e) for e in np.eye(d)])
        assert np.linalg.norm(cols - s) <= 1e-12 * max(1.0, np.linalg.norm(s))

    @pytest.mark.parametrize("fn", [analyze_frame, closest_parseval])
    def test_overflowing_operator_raises_only_shape_mismatch(self, fn):
        # finite entries whose S overflows: the typed error and no numpy
        # overflow warning before it
        frame = Frame(np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch) as exc:
                fn(frame)
        assert str(exc.value) == "frame operator S = V^T V overflows"


class TestAnalyzeFrame:
    def test_mb_report(self, mb):
        rep = analyze_frame(mb)
        assert rep.frame_bounds == pytest.approx((1.5, 1.5))
        assert rep.eps_parseval == pytest.approx(0.5)
        assert rep.eps_equal_norm == pytest.approx(0.5)
        assert rep.tightness_defect_hs == pytest.approx(0.0, abs=1e-14)
        assert rep.frame_potential == pytest.approx(4.5)
        assert rep.is_frame

    def test_basis_report(self):
        rep = analyze_frame(Frame(np.eye(3)))
        assert rep.frame_bounds == pytest.approx((1.0, 1.0))
        assert rep.eps_parseval == pytest.approx(0.0)
        assert rep.eps_equal_norm == pytest.approx(0.0)
        assert rep.frame_potential == pytest.approx(3.0)

    def test_unbalanced_pair(self):
        rep = analyze_frame(Frame(np.array([[1.0, 0.0], [0.0, 2.0]])))
        assert rep.frame_bounds == pytest.approx((1.0, 4.0))
        assert rep.eps_parseval is None
        assert rep.tightness_defect_hs == pytest.approx(1.5 * np.sqrt(2.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 5),
           n=st.integers(1, 8), alpha=st.floats(0.1, 3.0))
    def test_scaling_covariance(self, seed, d, n, alpha):
        frame = random_frame(seed, d, n)
        a, b = analyze_frame(frame).frame_bounds
        a2, b2 = analyze_frame(Frame(alpha * frame.vectors)).frame_bounds
        assert a2 == pytest.approx(alpha ** 2 * a, rel=1e-9, abs=1e-12)
        assert b2 == pytest.approx(alpha ** 2 * b, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 5),
           n=st.integers(1, 8))
    def test_bounds_bracket_trace_mean(self, seed, d, n):
        frame = random_frame(seed, d, n)
        rep = analyze_frame(frame)
        mean = np.trace(frame_operator(frame)) / d
        a, b = rep.frame_bounds
        assert a <= mean + 1e-10 and mean <= b + 1e-10


class TestFrameDist:
    def test_self(self, mb):
        assert frame_dist(mb, mb) == 0.0

    def test_scalar_shrink(self, mb):
        shrunk = Frame(np.sqrt(2.0 / 3.0) * mb.vectors)
        expected = np.sqrt(3.0) * (1.0 - np.sqrt(2.0 / 3.0))
        assert frame_dist(mb, shrunk) == pytest.approx(expected, abs=1e-12)

    def test_single_coordinate(self):
        assert frame_dist(Frame(np.array([[1.0, 0.0]])),
                          Frame(np.zeros((1, 2)))) == 1.0

    def test_shape_mismatch(self, mb):
        with pytest.raises(ShapeMismatch):
            frame_dist(mb, Frame(np.eye(2)))


class TestClosestParseval:
    def test_mb(self, mb):
        out, dist_sq = closest_parseval(mb)
        assert np.allclose(out.vectors, np.sqrt(2.0 / 3.0) * mb.vectors)
        assert dist_sq == pytest.approx(3.0 * (1.0 - np.sqrt(2.0 / 3.0)) ** 2,
                                        abs=1e-12)
        # theorem bound at eps = 1/2
        assert dist_sq <= 2.0 * (2.0 - 0.5 - 2.0 * np.sqrt(0.5)) + 1e-9

    def test_parseval_fixed_point(self):
        f = generate("harmonic", 3, 5)
        out, dist_sq = closest_parseval(f)
        assert dist_sq <= 1e-20
        assert np.allclose(out.vectors, f.vectors, atol=1e-10)

    def test_doubled_basis(self):
        out, dist_sq = closest_parseval(Frame(2.0 * np.eye(2)))
        assert np.allclose(out.vectors, np.eye(2))
        assert dist_sq == pytest.approx(2.0)

    def test_singular(self):
        with pytest.raises(SingularOperator):
            closest_parseval(Frame(np.array([[1.0, 0.0], [2.0, 0.0]])))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_output_parseval_and_idempotent(self, seed, d):
        frame = random_frame(seed, d, d + 2)
        out, _ = closest_parseval(frame)
        rep = analyze_frame(out)
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-10
        again, dist_again = closest_parseval(out)
        assert frame_dist(out, again) <= 1e-10
        assert dist_again <= 1e-18

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5))
    def test_dist_matches_eigenvalue_form(self, seed, d):
        frame = random_frame(seed, d, d + 2)
        _, dist_sq = closest_parseval(frame)
        lam = np.linalg.eigvalsh(frame_operator(frame))
        assert dist_sq == pytest.approx(np.sum((np.sqrt(lam) - 1.0) ** 2),
                                        abs=1e-9)


class TestClosestEqualNorm:
    def test_mean_target(self):
        out, dist_sq = closest_equal_norm(
            Frame(np.array([[1.0, 0.0], [0.0, 2.0]])))
        assert np.allclose(out.vectors, [[1.5, 0.0], [0.0, 1.5]])
        assert dist_sq == pytest.approx(0.5)

    def test_already_equal_norm(self, mb):
        out, dist_sq = closest_equal_norm(mb)
        assert dist_sq == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(out.vectors, mb.vectors)

    def test_explicit_target(self, mb):
        c = np.sqrt(2.0 / 3.0)
        out, dist_sq = closest_equal_norm(mb, target=c)
        assert np.allclose(out.vectors, c * mb.vectors)
        assert dist_sq == pytest.approx(3.0 * (1.0 - c) ** 2, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector) as err:
            closest_equal_norm(Frame(np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert err.value.index == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 4),
           n=st.integers(2, 6))
    def test_output_norms_equal_target(self, seed, d, n):
        frame = random_frame(seed, d, n)
        out, _ = closest_equal_norm(frame)
        norms = np.linalg.norm(out.vectors, axis=1)
        c = np.mean(np.linalg.norm(frame.vectors, axis=1))
        assert np.max(np.abs(norms - c)) <= 1e-12 * max(1.0, c)

    def test_mean_target_has_the_plain_mean_bits(self, mb):
        # the default target is the mean of the norms taken at 2^-k and
        # scaled back, which is exact: the plain mean's bits on this
        # class's inputs
        frames = [Frame(np.array([[1.0, 0.0], [0.0, 2.0]])), mb] + [
            random_frame(seed, d, n) for seed in range(20)
            for d, n in ((1, 2), (3, 5), (4, 6))]
        for frame in frames:
            w, norms, c = rescale_rows(frame.vectors)
            plain = float(np.mean(norms))
            assert c.hex() == plain.hex()
            assert np.array_equal(w, (plain / norms)[:, None] * frame.vectors)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), shift=st.floats(-0.5, 0.5))
    def test_mean_radius_is_optimal(self, seed, shift):
        frame = random_frame(seed, 3, 5)
        _, best = closest_equal_norm(frame)
        norms = np.linalg.norm(frame.vectors, axis=1)
        c = float(np.mean(norms)) * (1.0 + shift)
        competitor = float(np.sum((norms - c) ** 2))
        assert best <= competitor + 1e-12


class TestNaimark:
    def test_scaled_mb(self, mb):
        shrunk = Frame(np.sqrt(2.0 / 3.0) * mb.vectors)
        comp = naimark_complement(shrunk)
        assert comp.dim == 1
        assert np.allclose(np.abs(comp.vectors), 1.0 / np.sqrt(3.0))

    def test_square_raises(self):
        with pytest.raises(NoComplement):
            naimark_complement(Frame(np.eye(2)))

    def test_coordinate_embedding(self):
        f = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        comp = naimark_complement(f)
        assert np.allclose(np.sum(comp.vectors ** 2, axis=1), [0.0, 0.0, 1.0],
                           atol=1e-12)

    def test_not_parseval(self, mb):
        with pytest.raises(NotParseval):
            naimark_complement(mb)

    def test_too_few_vectors_checked_before_parseval(self):
        # two vectors in R^3 have a singular S, so no Parseval certificate
        # either; the shape is what the error names
        with pytest.raises(NoComplement) as exc:
            naimark_complement(Frame(np.eye(3)[:2]))
        assert str(exc.value) == "a complement needs n > d, got n = 2, d = 3"

    def test_no_parseval_certificate_is_named(self):
        with pytest.raises(NotParseval) as exc:
            naimark_complement(Frame(np.array([[1.0, 0.0], [2.0, 0.0],
                                               [3.0, 0.0]])))
        assert str(exc.value) == \
            "no Parseval certificate: S has an eigenvalue outside (0, 2)"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 5),
           extra=st.integers(1, 4))
    def test_gram_identity_and_norms(self, seed, d, extra):
        n = d + extra
        f = generate("random_parseval", d, n, seed=seed)
        comp = naimark_complement(f)
        gram = f.vectors @ f.vectors.T + comp.vectors @ comp.vectors.T
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-9
        norm_sum = (np.sum(f.vectors ** 2, axis=1)
                    + np.sum(comp.vectors ** 2, axis=1))
        assert np.max(np.abs(norm_sum - 1.0)) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 4),
           extra=st.integers(1, 3))
    def test_double_complement_gram(self, seed, d, extra):
        f = generate("random_parseval", d, d + extra, seed=seed)
        back = naimark_complement(naimark_complement(f))
        g1 = f.vectors @ f.vectors.T
        g2 = back.vectors @ back.vectors.T
        assert np.linalg.norm(g1 - g2) <= 1e-8


class TestGenerate:
    def test_harmonic_certificates(self):
        for d in range(2, 6):
            for n in range(d, 9):
                rep = analyze_frame(generate("harmonic", d, n))
                assert rep.eps_parseval is not None
                assert rep.eps_parseval <= 1e-10
                assert np.max(np.abs(rep.norms_sq - d / n)) <= 1e-10

    def test_harmonic_2_3_is_tight(self):
        f = generate("harmonic", 2, 3)
        assert np.allclose(frame_operator(f), np.eye(2), atol=1e-12)
        assert np.allclose(np.sum(f.vectors ** 2, axis=1), 2.0 / 3.0)

    def test_scaled_report(self):
        base = generate("harmonic", 2, 3)
        rep = analyze_frame(Frame(np.sqrt(1.2) * base.vectors))
        assert rep.frame_bounds == pytest.approx((1.2, 1.2))
        assert rep.eps_parseval == pytest.approx(0.2)
        assert np.allclose(rep.norms_sq, 0.8)

    def test_deterministic(self):
        a = generate("random_parseval", 3, 5, seed=123)
        b = generate("random_parseval", 3, 5, seed=123)
        assert np.array_equal(a.vectors, b.vectors)

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedShape):
            generate("harmonic", 4, 3)

    def test_shape_rule_covers_every_kind(self):
        for kind in ("random_parseval", "harmonic"):
            with pytest.raises(UnsupportedShape):
                generate(kind, 4, 3)
            assert generate(kind, 4, 4).vectors.shape == (4, 4)

    def test_random_parseval_certificate(self):
        rep = analyze_frame(generate("random_parseval", 3, 6, seed=2))
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-10


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: rescale_rows(np.eye(2), 0.0), ShapeMismatch,
                 "target norm must be positive, got 0.0", id="zero-target"),
    pytest.param(lambda: rescale_rows(np.eye(2), -1.0), ShapeMismatch,
                 "target norm must be positive, got -1.0",
                 id="negative-target"),
    pytest.param(lambda: generate("gaussian", 2, 3), ShapeMismatch,
                 "unknown kind 'gaussian'", id="unknown-kind"),
    pytest.param(lambda: generate("harmonic", 0, 3), ShapeMismatch,
                 "d and n must be positive", id="zero-d"),
    pytest.param(lambda: generate("random_parseval", 2, 0), ShapeMismatch,
                 "d and n must be positive", id="zero-n"),
])
def test_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
