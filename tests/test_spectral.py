import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import spectral
from framelab.errors import AsymmetricInput, ShapeMismatch, SingularOperator
from framelab.frames import generate
from framelab.spectral import (
    ball_displacements,
    diagonal_shift_norm,
    frobenius_norm,
    general_spectrum,
    SpectralDecomposition,
    inv_sqrt_from_eig,
    pnorm,
    sym_eig,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


def rand_sym(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a + a.T


class TestSymEig:
    def test_diagonal(self):
        dec = sym_eig(np.diag([2.0, 5.0]))
        assert np.allclose(dec.eigenvalues, [2.0, 5.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_swap_matrix(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_identity(self):
        assert np.allclose(sym_eig(np.eye(3)).eigenvalues, 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricInput):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            sym_eig(np.ones((2, 3)))

    def test_nonfinite_entry_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ShapeMismatch, match="finite"):
                sym_eig(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_huge_symmetric_input_without_overflow(self):
        # (A + A^T) / 2 overflows here; an exactly symmetric input is
        # factored as it is, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = sym_eig(np.diag([1e308, 1e308]))
        assert np.array_equal(dec.eigenvalues, [1e308, 1e308])

    def test_huge_nearly_symmetric_input_without_overflow(self):
        # the symmetric part is A/2 + A^T/2, finite for finite A
        a = np.array([[1e308, 1e300], [1e300 * (1.0 + 1e-12), 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = sym_eig(a)
        assert dec.eigenvalues == pytest.approx([1e308 - 1e300,
                                                 1e308 + 1e300], rel=1e-15)

    @pytest.mark.parametrize("a", [
        [[0.0, 1e308], [-1e308, 0.0]],
        [[1e200, 1e200], [0.0, 1e200]],
        [[1.0, 1e-9], [0.0, 1.0]],
    ])
    def test_guard_scales_by_the_largest_entry(self, a):
        # a Frobenius scale overflows at these entries and passed any
        # matrix; the largest entry does not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AsymmetricInput):
                sym_eig(np.array(a))

    def test_eigensolver_failure_passes_through(self, monkeypatch):
        # a LinAlgError from the eigensolver reaches the caller unchanged
        err = np.linalg.LinAlgError("Eigenvalues did not converge")

        def failing(a):
            raise err

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(np.linalg.LinAlgError) as exc:
            sym_eig(np.eye(2))
        assert exc.value is err

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_reconstruction(self, seed, d):
        a = rand_sym(seed, d)
        dec = sym_eig(a)
        scale = max(1.0, np.linalg.norm(a))
        q, lam = dec.eigenvectors, dec.eigenvalues
        assert np.linalg.norm((q * lam) @ q.T - a) <= 1e-10 * scale
        assert np.all(np.diff(lam) >= 0)
        assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10 * d


def assert_eigh_bits(a):
    lam, q = np.linalg.eigh(0.5 * (a + a.T))
    dec = sym_eig(a)
    assert np.array_equal(dec.eigenvalues, lam)
    assert np.array_equal(dec.eigenvectors, q)


class TestSymEigMatchesEigh:
    # sym_eig must give the bits of eigh on the symmetrized input, which
    # every certificate and sweep CSV is built from
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_random_symmetric(self, seed, d):
        assert_eigh_bits(rand_sym(seed, d))

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 8), extra=st.integers(0, 8),
           scale=st.sampled_from([1.0, 1e-3, 7.5]))
    def test_repeated_eigenvalues(self, d, extra, scale):
        # the identity, and harmonic frame operators, (n/d) I up to rounding
        assert_eigh_bits(scale * np.eye(d))
        v = generate("harmonic", d=d, n=d + extra).vectors
        assert_eigh_bits(scale * (v.T @ v))

    @pytest.mark.parametrize("d", [33, 48])
    def test_blocked_reduction_sizes(self, d):
        # above 32 LAPACK's tridiagonal reduction runs blocked
        assert_eigh_bits(rand_sym(d, d))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.integers(1, 6),
           d=st.integers(1, 8))
    def test_stacked_eigh_gives_each_item_its_bits(self, seed, b, d):
        # a stacked eigh of b symmetric matrices gives each item the bits
        # of sym_eig on that item alone
        stack = np.stack([rand_sym(seed + i, d) for i in range(b)])
        lam, q = np.linalg.eigh(stack)
        for i, a in enumerate(stack):
            dec = sym_eig(a)
            assert np.array_equal(lam[i], dec.eigenvalues)
            assert np.array_equal(q[i], dec.eigenvectors)

    def test_empty(self):
        dec = sym_eig(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (0, 0)


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_from_eig(sym_eig(np.eye(2))), np.eye(2))

    def test_diagonal(self):
        out = inv_sqrt_from_eig(sym_eig(np.diag([4.0, 9.0])))
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_scalar_matrix(self):
        out = inv_sqrt_from_eig(sym_eig(1.5 * np.eye(2)))
        assert np.allclose(out, np.sqrt(2.0 / 3.0) * np.eye(2))

    def test_singular_raises(self):
        with pytest.raises(SingularOperator):
            inv_sqrt_from_eig(sym_eig(np.diag([1.0, 0.0])))

    def test_floor_is_inv_sqrt_from_eigs(self):
        # at PSD_FLOOR the operator is singular, and the message names
        # the eigenvalue; one ulp above it the inverse root comes back
        q = np.eye(2)
        with pytest.raises(SingularOperator, match=r"1\.000e-12"):
            inv_sqrt_from_eig(SpectralDecomposition(
                np.array([spectral.PSD_FLOOR, 1.0]), q))
        lam = np.array([np.nextafter(spectral.PSD_FLOOR, 1.0), 1.0])
        out = inv_sqrt_from_eig(SpectralDecomposition(lam, q))
        assert np.array_equal(out, np.diag(lam ** -0.5))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_whitening_chain(self, seed, d):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d + 2, d))
        a = g.T @ g + 0.1 * np.eye(d)
        b = inv_sqrt_from_eig(sym_eig(a))
        assert np.linalg.norm(b @ a @ b - np.eye(d)) <= 1e-10 * d
        # whitened operator is the identity, whose inverse root is itself
        white = inv_sqrt_from_eig(sym_eig(b @ a @ b))
        assert np.linalg.norm(white - np.eye(d)) <= 1e-9


class TestGeneralSpectrum:
    def test_triangular(self):
        spec = general_spectrum(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(sorted(spec.real), [1.0, 1.0])
        assert np.max(np.abs(spec.imag)) <= 1e-12

    def test_rotation_has_imaginary_pair(self):
        spec = general_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(spec.imag), [-1.0, 1.0])
        assert np.max(np.abs(spec.real)) <= 1e-12

    def test_diagonal(self):
        spec = general_spectrum(np.diag([1.1, 0.9]))
        assert np.allclose(sorted(spec.real), [0.9, 1.1])

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            general_spectrum(np.ones((3, 2)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_trace_sum_and_conjugation(self, seed, d):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        spec = general_spectrum(a)
        tr = np.trace(a)
        assert abs(np.sum(spec) - tr) <= 1e-8 * max(1.0, abs(tr))
        # real input: spectrum closed under conjugation
        assert abs(np.sum(spec.imag)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_symmetric_matches_sym_eig(self, seed, d):
        a = rand_sym(seed, d)
        spec = general_spectrum(a)
        assert np.max(np.abs(spec.imag)) <= 1e-9
        assert np.allclose(np.sort(spec.real), sym_eig(a).eigenvalues,
                           atol=1e-9)


def rows_with_zeros(seed, n, d):
    """Gaussian rows over several magnitudes, about a quarter of them zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    x[rng.random(n) < 0.25] = 0.0
    return x


def rows_over_magnitudes(seed, n, d, span):
    """Signed entries of magnitude 10^[-span, span], some rows zero."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-span, span,
                                                              (n, d))
    x[rng.random(n) < 0.2] = 0.0
    return x


# finite exponents up to 1e4, with the Euclidean case p = 2 always drawn
FINITE_EXPONENTS = st.one_of(st.just(2.0), st.floats(1.0, 1e4))


class TestFrobeniusKernels:
    """Bit for bit the np.linalg.norm expressions they replace, for
    matrices in either memory order."""

    @staticmethod
    def matrix(seed, rows, cols, scale, fortran):
        x = scale * np.random.default_rng(seed).standard_normal((rows, cols))
        return np.asfortranarray(x) if fortran else x

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), rows=st.integers(0, 8),
           cols=st.integers(0, 8), scale=st.floats(1e-3, 1e3),
           fortran=st.booleans())
    def test_frobenius_norm_is_linalg_norm(self, seed, rows, cols, scale,
                                           fortran):
        x = self.matrix(seed, rows, cols, scale, fortran)
        assert frobenius_norm(x) == float(np.linalg.norm(x))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8),
           scale=st.floats(1e-3, 1e3), c=st.floats(-1e3, 1e3),
           fortran=st.booleans())
    def test_diagonal_shift_norm_is_linalg_norm(self, seed, d, scale, c,
                                                fortran):
        s = self.matrix(seed, d, d, scale, fortran)
        ref = float(np.linalg.norm(s - c * np.eye(d)))
        assert diagonal_shift_norm(s, c) == ref
        assert np.array_equal(s, self.matrix(seed, d, d, scale, fortran))


class TestRowKernels:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8), p=st.sampled_from(EXPONENTS))
    def test_pnorm_rows_match_vector_calls(self, seed, n, d, p):
        x = rows_with_zeros(seed, n, d)
        rows = pnorm(x, p)
        stacked = np.array([pnorm(r, p) for r in x])
        assert rows.shape == (n,)
        assert all(isinstance(v, float) for v in stacked)
        assert np.all(np.abs(rows - stacked) <= 4 * np.spacing(stacked))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8), p=FINITE_EXPONENTS,
           span=st.sampled_from([3.0, 30.0, 300.0]))
    def test_pnorm_matches_max_scaled_formula(self, seed, n, d, p, span):
        x = rows_over_magnitudes(seed, n, d, span)
        with np.errstate(over="ignore"):
            rows = pnorm(x, p)
        for norm, row in zip(rows, np.abs(x)):
            m = float(row.max())
            if m == 0.0:
                assert norm == 0.0
                continue
            ref = m * math.fsum((v / m) ** p for v in row) ** (1.0 / p)
            assert norm == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8), p=FINITE_EXPONENTS,
           span=st.sampled_from([3.0, 30.0, 300.0]))
    def test_pnorm_keeps_bits_of_normal_power_sums(self, seed, n, d, p, span):
        x = rows_over_magnitudes(seed, n, d, span)
        with np.errstate(over="ignore"):
            s = np.sum(np.abs(x) ** p, axis=-1)
        normal = (s >= np.finfo(float).tiny) & (s < math.inf)
        # at p = 2 the bits of row_norms
        ref = np.sqrt(s) if p == 2 else s ** (1.0 / p)
        with np.errstate(over="ignore"):
            rows = pnorm(x, p)
        assert np.array_equal(rows[normal], ref[normal])

    # a power sum past the float range is recomputed scaled, so pnorm
    # warns of nothing: the suite turns a RuntimeWarning into an error
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 400.0])
    def test_overflowing_power_sums_warn_nothing(self, p):
        x = np.array([[1e250, 0.0], [-3e300, 4e300], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = pnorm(x, p)
            vector = pnorm(x[0], p)
            if p == 2.0:
                assert pnorm(np.array([[1e170, 0.0]]), p)[0] == 1e170
        five = (3.0 ** p + 4.0 ** p) ** (1.0 / p)
        assert rows[0] == vector == 1e250
        assert rows[1] == pytest.approx(1e300 * five, rel=1e-13)
        assert rows[2] == pytest.approx(five, rel=1e-15)

    def test_euclidean_norm_of_extreme_rows(self):
        with np.errstate(over="ignore"):
            assert pnorm([1e200, 0.0], 2) == 1e200
            assert pnorm([-3e200, 4e200], 2) == pytest.approx(5e200,
                                                              rel=1e-15)
        assert pnorm([1e-200, 0.0], 2) == 1e-200
        assert np.array_equal(pnorm(np.array([[0.0, 0.0], [1e-200, 0.0]]),
                                    2), [0.0, 1e-200])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8), p=st.sampled_from(EXPONENTS),
           radius=st.floats(1e-6, 10.0))
    def test_ball_draws_stay_inside(self, seed, n, d, p, radius):
        rng = np.random.default_rng(seed)
        x = ball_displacements(rng, n, d, radius, p)
        assert x.shape == (n, d)
        assert np.all(pnorm(x, p) <= radius * (1.0 + 1e-12))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
           d=st.integers(1, 8), p=st.sampled_from(EXPONENTS))
    def test_zero_radius_draws_nothing(self, seed, n, d, p):
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        assert np.array_equal(ball_displacements(rng, n, d, 0.0, p),
                              np.zeros((n, d)))
        assert rng.bit_generator.state == before


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.integers(1, 6))
def test_trace_of_product_commutes(seed, d):
    # underpins chordal-distance symmetry
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((d, d))
    q = rng.standard_normal((d, d))
    assert abs(np.trace(p @ q) - np.trace(q @ p)) <= 1e-10 * max(
        1.0, abs(np.trace(p @ q)))
