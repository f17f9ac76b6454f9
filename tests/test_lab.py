import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from framelab import frames, lab, spectral
from framelab.asf import PNormSpace, analyze_asf, dual_exponent, generate_asf
from framelab.documents import SWEEP_COLUMNS
from framelab.errors import (
    BoundViolation,
    Infeasible,
    ShapeMismatch,
    SingularOperator,
    UnsupportedExponent,
    UnsupportedShape,
)
from framelab.frames import (
    Frame,
    FrameCertificate,
    analyze_frame,
    closest_parseval,
    frame_certificate,
    frame_dist,
    generate,
    rescale_rows,
)
from framelab.lab import (
    SEARCH_CERTIFY_TOL,
    InstanceSpec,
    _polish_layout,
    _SearchTerms,
    default_certify_tol,
    estimate_paulsen,
    generate_instance,
    nearest_enp_alternating,
    nearest_enp_asf_search,
    pair_error,
    record_to_row,
    summarize_records,
)
from framelab.spectral import sym_eig
from conftest import (
    assert_same_bundle,
    exact_dist_sq_2_4,
    exact_dist_sq_next,
    exact_dist_sq_scaled,
    reference_instance,
)


class TestCertifyTol:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("FRAMELAB_TOL", raising=False)
        assert default_certify_tol() == 1e-8

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FRAMELAB_TOL", "1e-5")
        assert default_certify_tol() == 1e-5

    def test_env_rejects_out_of_range(self, monkeypatch):
        monkeypatch.setenv("FRAMELAB_TOL", "2.0")
        with pytest.raises(ShapeMismatch):
            default_certify_tol()

    def test_env_rejects_non_numeric(self, monkeypatch):
        monkeypatch.setenv("FRAMELAB_TOL", "tight")
        with pytest.raises(ShapeMismatch):
            default_certify_tol()

    def test_env_reaches_hilbert_solver(self, monkeypatch):
        # eps_parseval of the scaled frame is about 2e-5: certified at
        # 1e-3 as it stands; at the default the polish of the input itself
        # is proved globally nearest, so no alternating round runs
        frame = Frame((1.0 + 1e-5) * generate("harmonic", 2, 3).vectors)
        monkeypatch.setenv("FRAMELAB_TOL", "1e-3")
        out, dist_sq, rounds = nearest_enp_alternating(frame)
        assert np.array_equal(out.vectors, frame.vectors)
        assert (dist_sq, rounds) == (0.0, 0)
        monkeypatch.delenv("FRAMELAB_TOL")
        _, dist_sq, rounds = nearest_enp_alternating(frame)
        assert rounds == 0
        assert dist_sq == pytest.approx(2.0e-10, rel=1e-6)


class TestInstanceSpec:
    def test_valid(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1)
        assert spec.p == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ShapeMismatch):
            InstanceSpec(kind="mystery", d=2, n=3, epsilon_target=0.1)

    def test_bad_shape(self):
        with pytest.raises(Infeasible):
            InstanceSpec(kind="perturbed_enp", d=3, n=2, epsilon_target=0.1)

    def test_eps_bounds(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(Infeasible):
                InstanceSpec(kind="perturbed_enp", d=2, n=3,
                             epsilon_target=eps)

    def test_hilbert_kind_needs_l2(self):
        with pytest.raises(Infeasible):
            InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.1,
                         p=3.0)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_asf_kind_needs_a_searchable_exponent(self, p):
        # nearest_enp_asf_search solves only 1 < p < inf
        with pytest.raises(Infeasible, match="1 < p < inf"):
            InstanceSpec(kind="perturbed_asf", d=2, n=4, epsilon_target=0.1,
                         p=p)

    def test_asf_kind_needs_divisibility(self):
        with pytest.raises(Infeasible):
            InstanceSpec(kind="perturbed_asf", d=2, n=3, epsilon_target=0.1,
                         p=1.5)
        InstanceSpec(kind="perturbed_asf", d=2, n=4, epsilon_target=0.1,
                     p=1.5)

    @pytest.mark.parametrize("field, value", [
        ("d", 2.5), ("d", True), ("d", 2.0), ("n", 3.5), ("n", np.float64(4)),
        ("seed", 1.5), ("seed", False),
    ])
    def test_counts_must_be_integers(self, field, value):
        args = {"d": 2, "n": 4, "seed": 0, field: value}
        with pytest.raises(ShapeMismatch) as exc:
            InstanceSpec(kind="perturbed_enp", epsilon_target=0.1, **args)
        assert str(exc.value) == f"{field} must be an integer, got {value}"

    def test_numpy_integer_counts_are_valid(self):
        spec = InstanceSpec(kind="perturbed_enp", d=np.int64(2),
                            n=np.int32(4), epsilon_target=0.1,
                            seed=np.int64(3))
        assert (spec.d, spec.n, spec.seed) == (2, 4, 3)

    def test_negative_seed_rejected(self):
        for kind in lab.INSTANCE_KINDS:
            p = 1.5 if kind in lab.ASF_KINDS else 2.0
            with pytest.raises(Infeasible, match="seed"):
                InstanceSpec(kind=kind, d=2, n=4, epsilon_target=0.1, p=p,
                             seed=-1)
            InstanceSpec(kind=kind, d=2, n=4, epsilon_target=0.1, p=p,
                         seed=0)

    def test_pair_error_is_the_spec_shape_rule(self):
        # InstanceSpec raises exactly pair_error's reason, and only then
        for kind in lab.INSTANCE_KINDS:
            p = 1.5 if kind in lab.ASF_KINDS else 2.0
            for d in range(0, 5):
                for n in range(0, 9):
                    reason = pair_error(kind, d, n)
                    if reason is None:
                        InstanceSpec(kind=kind, d=d, n=n, epsilon_target=0.1,
                                     p=p)
                        continue
                    with pytest.raises(Infeasible) as exc:
                        InstanceSpec(kind=kind, d=d, n=n, epsilon_target=0.1,
                                     p=p)
                    assert str(exc.value) == reason
        assert pair_error("perturbed_asf", 3, 4) == \
            "perturbed_asf needs d | n, got d = 3, n = 4"
        assert pair_error("perturbed_enp", 3, 4) is None
        # the Bodmann-Casazza ceiling is 0 at n = 1, and a record's BC
        # ratio would divide by it, so no kind takes a single vector
        for kind in lab.INSTANCE_KINDS:
            assert pair_error(kind, 1, 1) == \
                "need n >= 2: the Bodmann-Casazza ceiling is 0 at n = 1"


class TestGenerateInstance:
    def test_scaled_hits_target_exactly(self):
        spec = InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.2)
        bundle = generate_instance(spec)
        assert bundle.report.eps_parseval == pytest.approx(0.2, abs=1e-12)
        assert bundle.report.eps_equal_norm == pytest.approx(0.2, abs=1e-12)
        rep = analyze_frame(bundle.instance)
        assert rep.eps_parseval == pytest.approx(0.2, abs=1e-10)
        assert rep.frame_bounds == pytest.approx((1.2, 1.2))
        assert np.allclose(rep.norms_sq, 1.2 * 2 / 4)

    def test_perturbed_stays_under_target(self):
        spec = InstanceSpec(kind="perturbed_enp", d=3, n=7,
                            epsilon_target=0.05, seed=5)
        bundle = generate_instance(spec)
        assert 0.0 < bundle.report.eps_parseval <= 0.05
        assert 0.0 <= bundle.report.eps_equal_norm <= 0.05

    def test_perturbed_base_is_tight(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=5,
                            epsilon_target=0.1, seed=2)
        bundle = generate_instance(spec)
        base = lab._harmonic_base(2, 5)
        base_rep = analyze_frame(base)
        assert base_rep.eps_parseval <= 1e-10
        assert base_rep.eps_equal_norm <= 1e-10
        assert bundle.base_dist_sq == frame_dist(bundle.instance, base) ** 2

    def test_asf_chain_certificate(self):
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                            epsilon_target=0.1, p=1.5, seed=3)
        bundle = generate_instance(spec)
        rep = analyze_asf(bundle.instance, tol=1e-8)
        assert rep.norm_triple_defect <= 1e-9
        assert rep.spectrum_real
        assert bundle.report.eps_parseval <= 0.1
        assert bundle.report.eps_equal_norm <= 0.1

    def test_asf_deterministic(self):
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                            epsilon_target=0.1, p=3.0, seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert np.array_equal(a.instance.vectors, b.instance.vectors)
        assert np.array_equal(a.instance.functionals, b.instance.functionals)

    def test_harmonic_base_built_once_per_shape(self):
        base = lab._harmonic_base(3, 5)
        for spec in (InstanceSpec(kind="perturbed_enp", d=3, n=5,
                                  epsilon_target=0.1, seed=1),
                     InstanceSpec(kind="scaled_enp", d=3, n=5,
                                  epsilon_target=0.2)):
            bundle = generate_instance(spec)
            assert bundle.base_dist_sq == \
                frame_dist(bundle.instance, base) ** 2
        assert lab._harmonic_base(3, 5) is base
        assert not base.vectors.flags.writeable
        assert np.array_equal(base.vectors,
                              generate("harmonic", 3, 5).vectors)

    def test_base_dist_sq_positive(self):
        spec = InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.2)
        bundle = generate_instance(spec)
        assert bundle.base_dist_sq == pytest.approx(
            2.0 * (math.sqrt(1.2) - 1.0) ** 2, rel=1e-10)


# The perturbed_asf specs of the d <= 4 grid (n in {d, 2d, 3d}, p in
# {1.25, 1.5, 2, 3, 4}, eps in {0.01, 0.05, 0.1, 0.2}, seeds 0-19) that need
# more than 32 seed bumps, as (n, p, eps, seeds), all at d = 4; the worst,
# (4, 12), p = 1.25, eps = 0.2, seed 5, needs 97.
MANY_BUMP_SPECS = [
    (4, 1.5, 0.01, (0,)), (4, 1.5, 0.05, (0, 13)), (4, 1.5, 0.1, (13,)),
    (4, 3.0, 0.01, (2,)), (4, 3.0, 0.05, (2,)), (4, 4.0, 0.01, (2,)),
    (4, 4.0, 0.2, (2,)),
    (8, 1.25, 0.01, (0, 15)), (8, 1.25, 0.05, (0, 15)),
    (8, 1.25, 0.1, (0, 15)), (8, 1.25, 0.2, (0,)),
    (8, 1.5, 0.01, (0, 13)), (8, 1.5, 0.05, (13,)),
    (12, 1.25, 0.01, (1, 5, 10, 13, 15, 16)),
    (12, 1.25, 0.05, (1, 5, 10, 13, 15, 16)),
    (12, 1.25, 0.1, (1, 5, 10, 13, 15, 16)),
    (12, 1.25, 0.2, (1, 5, 13, 15)),
    (12, 1.5, 0.01, (0, 6)), (12, 1.5, 0.05, (6,)), (12, 1.5, 0.1, (6, 12)),
]


class TestDrawOnce:
    """The draw-once generators against the re-seeding reference in
    conftest, bit for bit, on every spec the reference builds."""

    @staticmethod
    def check(spec):
        want = reference_instance(spec)
        if want is not None:
            assert_same_bundle(generate_instance(spec), want)
        return want

    def test_banach_search_specs(self):
        # perfbench's banach_search inputs, which retune and bump seeds
        for seed in range(7, 19):
            for p in (1.5, 3.0):
                assert self.check(InstanceSpec(
                    kind="perturbed_asf", d=2, n=2, epsilon_target=0.05,
                    p=p, seed=seed)) is not None

    def test_criterion_9_specs(self):
        for p in (1.5, 3.0, 2.0):
            for seed in range(7, 12):
                assert self.check(InstanceSpec(
                    kind="perturbed_asf", d=2, n=4, epsilon_target=0.05,
                    p=p, seed=seed)) is not None

    @settings(max_examples=60, deadline=None)
    @given(dn=st.sampled_from([(d, n) for d in range(2, 6)
                               for n in range(d, 11)]),
           eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(977, 996))
    def test_corpus_grid(self, dn, eps, seed):
        d, n = dn
        assert self.check(InstanceSpec(kind="perturbed_enp", d=d, n=n,
                                       epsilon_target=eps, seed=seed)) \
            is not None

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 3),
           p=st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]),
           eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(0, 19))
    def test_asf_grid(self, d, m, p, eps, seed):
        assume(m * d > 1)  # pair_error rejects n = 1
        self.check(InstanceSpec(kind="perturbed_asf", d=d, n=m * d,
                                epsilon_target=eps, p=p, seed=seed))

    def test_many_bump_specs_generate(self):
        # each needs more seed bumps than the reference's 32 and raises
        # Infeasible there
        specs = [InstanceSpec(kind="perturbed_asf", d=4, n=n,
                              epsilon_target=eps, p=p, seed=seed)
                 for n, p, eps, seeds in MANY_BUMP_SPECS for seed in seeds]
        assert len(specs) == 45
        for spec in specs:
            assert reference_instance(spec) is None
            bundle = generate_instance(spec)
            assert bundle.report.eps_parseval <= spec.epsilon_target
            assert bundle.report.eps_equal_norm <= spec.epsilon_target
            assert bundle.base_dist_sq > 0.0


class TestGeneratorsGiveUp:
    """The Infeasible ends of the perturbing generators, reached by making
    every draw fail its check."""

    def test_perturbed_enp_after_max_retunes(self, monkeypatch):
        checked = []

        def never_within(rep, eps):
            checked.append(eps)
            return False

        monkeypatch.setattr(lab, "_within", never_within)
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=5)
        with pytest.raises(Infeasible) as exc:
            generate_instance(spec)
        assert str(exc.value) == (
            f"could not tune a perturbation below epsilon = 0.1 for {spec}")
        assert checked == [0.1] * lab.MAX_RETUNES

    def test_perturbed_asf_after_max_seed_bumps(self, monkeypatch):
        analyzed = []

        def complex_spectrum(inst, tol):
            analyzed.append(tol)
            return replace(analyze_asf(inst, tol=tol), spectrum_real=False)

        monkeypatch.setattr(lab, "analyze_asf", complex_spectrum)
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                            epsilon_target=0.05, p=1.5, seed=7)
        with pytest.raises(Infeasible) as exc:
            generate_instance(spec)
        assert str(exc.value) == (
            f"no real-spectrum perturbation found near seed 7 for {spec}")
        # each bump is dropped at its first analysis
        assert analyzed == [lab.SEARCH_CERTIFY_TOL] * lab.MAX_SEED_BUMPS


class TestAlternating:
    def test_rejects_fewer_vectors_than_dimensions(self):
        with pytest.raises(UnsupportedShape):
            nearest_enp_alternating(Frame(np.eye(3)[:2]))

    def test_singular_square_input(self):
        # n = d goes straight to the alternating rounds, whose first
        # Parseval map needs an invertible frame operator
        with pytest.raises(SingularOperator, match="smallest eigenvalue"):
            nearest_enp_alternating(Frame(np.array([[1.0, 0.0],
                                                    [1.0, 0.0]])))

    def test_tight_input_zero_rounds(self):
        frame = generate("harmonic", d=2, n=5)
        out, dist_sq, rounds = nearest_enp_alternating(frame)
        assert rounds == 0
        assert dist_sq == 0.0
        assert np.array_equal(out.vectors, frame.vectors)

    def test_mb_solved_by_input_polish(self, mb):
        out, dist_sq, rounds = nearest_enp_alternating(mb)
        assert rounds == 0
        rep = analyze_frame(out)
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-8
        assert rep.eps_equal_norm is not None and rep.eps_equal_norm <= 1e-8
        assert dist_sq == pytest.approx(3.0 * (1.0 - math.sqrt(2.0 / 3.0)) ** 2,
                                        abs=1e-12)

    def test_scaled_matches_closed_form(self):
        spec = InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.2)
        bundle = generate_instance(spec)
        out, dist_sq, rounds = nearest_enp_alternating(bundle.instance)
        assert dist_sq <= exact_dist_sq_scaled(2, 0.2) + 1e-12
        rep = analyze_frame(out)
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_output_is_certified_enp(self, seed):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=seed)
        bundle = generate_instance(spec)
        out, dist_sq, _ = nearest_enp_alternating(bundle.instance)
        rep = analyze_frame(out)
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-8
        assert rep.eps_equal_norm is not None and rep.eps_equal_norm <= 1e-8
        assert dist_sq == pytest.approx(
            frame_dist(bundle.instance, out) ** 2, rel=1e-9, abs=1e-15)

    def test_no_certified_polish_returns_no_point(self, monkeypatch):
        # no polish certifies, so after its restarts the solver has no
        # point to return
        monkeypatch.setattr(lab, "_kkt_polish", _no_polish)
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=4,
                            epsilon_target=0.1, seed=4)
        bundle = generate_instance(spec)
        assert nearest_enp_alternating(bundle.instance) == (None, None, 60)

    def test_restart_beats_input_polish(self):
        # the input's polish has margin <= 0, and a polish from the seeded
        # restarts lands on a certified point nearer than it
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=4,
                            epsilon_target=0.1, seed=4)
        v0 = generate_instance(spec).instance.vectors
        out, dist_sq, rounds = nearest_enp_alternating(Frame(v0))
        (point, gap), = lab._kkt_polish(v0[None], v0[None],
                                        default_certify_tol())
        assert gap == math.inf
        assert rounds == 60
        assert dist_sq == float(np.sum((out.vectors - v0) ** 2))
        assert dist_sq < float(np.sum((point - v0) ** 2))
        rep = analyze_frame(out)
        assert rep.eps_parseval <= 1e-8 and rep.eps_equal_norm <= 1e-8

    def test_singular_restarts_are_dropped(self, monkeypatch):
        # every kicked start counts as singular, so no restart is polished
        # and the input's polish, though not proved global, comes back;
        # the floor lives in spectral, whose inv_sqrt_from_eig raises on it
        # (frames imported its own binding, so certificates are unchanged)
        monkeypatch.setattr(spectral, "PSD_FLOOR", 10.0)
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=4,
                            epsilon_target=0.1, seed=4)
        v0 = generate_instance(spec).instance.vectors
        out, dist_sq, rounds = nearest_enp_alternating(Frame(v0))
        (point, _), = lab._kkt_polish(v0[None], v0[None],
                                      default_certify_tol())
        assert rounds == 0
        assert np.array_equal(out.vectors, point)
        assert dist_sq == float(np.sum((point - v0) ** 2))

    def test_proved_global_polish_needs_no_round(self):
        # the polish of this input is proved globally nearest, so no
        # alternating round runs
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=0)
        v0 = generate_instance(spec).instance.vectors
        out, dist_sq, rounds = nearest_enp_alternating(Frame(v0))
        assert rounds == 0
        (point, gap), = lab._kkt_polish(v0[None], v0[None],
                                        default_certify_tol())
        assert np.array_equal(out.vectors, point)
        assert dist_sq == float(np.sum((point - v0) ** 2))
        assert gap <= 2.0 * math.sqrt(dist_sq * 2) * default_certify_tol()

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_square_is_polar_factor(self, monkeypatch, d, seed):
        # at n = d the ENP set is O(d) and one round gives the orthogonal
        # polar factor, the global nearest point, with no polish
        def no_polish(*args):
            raise AssertionError("polished at n = d")

        monkeypatch.setattr(lab, "_kkt_polish", no_polish)
        spec = InstanceSpec(kind="perturbed_enp", d=d, n=d,
                            epsilon_target=0.1, seed=seed)
        frame = generate_instance(spec).instance
        out, dist_sq, rounds = nearest_enp_alternating(frame)
        polar, polar_ds = closest_parseval(frame)
        assert rounds == 1
        np.testing.assert_allclose(out.vectors, polar.vectors,
                                   rtol=0, atol=1e-12)
        assert dist_sq == pytest.approx(polar_ds, rel=1e-12)


def _no_polish(v0, v, tol):
    """A _kkt_polish that certifies no point: every entry's gap is None."""
    return [(point, None) for point in v]


def _alternate(v, rounds):
    """rounds alternating rounds (closest Parseval, then closest equal
    norm sqrt(d/n)) from v."""
    n, d = v.shape
    for _ in range(rounds):
        w = closest_parseval(Frame(v))[0].vectors
        v = rescale_rows(w, math.sqrt(d / n))[0]
    return v


class TestGlobalCertificate:
    # Whenever the solver returns by the margin exit, a polish from the
    # iterate after five alternating rounds, or from seeded starts around
    # the input, reaches no point nearer by more than the exit's slack.
    @settings(max_examples=30, deadline=None)
    @given(shape=st.integers(2, 4).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(d + 1, 8))),
           eps=st.sampled_from([0.01, 0.1, 0.2]),
           seed=st.integers(0, 10**6))
    # the input's own polish is not global here: a start below reaches a
    # point about 2% nearer
    @example(shape=(2, 4), eps=0.1, seed=89)
    def test_no_start_beats_a_margin_exit(self, shape, eps, seed):
        d, n = shape
        spec = InstanceSpec(kind="perturbed_enp", d=d, n=n,
                            epsilon_target=eps, seed=seed)
        v0 = generate_instance(spec).instance.vectors
        tol = default_certify_tol()
        polish = lab._kkt_polish
        polished = []

        def spy(*args):
            out = polish(*args)
            polished.extend(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lab, "_kkt_polish", spy)
            out, dist_sq, _ = nearest_enp_alternating(Frame(v0))
        slack = 2.0 * math.sqrt(dist_sq * d) * tol
        # the margin exit returns the last polished point, at once
        if not (polished and polished[-1][1] is not None
                and np.array_equal(polished[-1][0], out.vectors)
                and polished[-1][1] <= slack):
            return
        rng = np.random.default_rng(seed)
        starts = [_alternate(v0, 5)] + [
            _alternate(v0 + 0.3 * math.sqrt(d / n)
                       * rng.standard_normal((n, d)), 5)
            for _ in range(4)]
        for start in starts:
            (other, gap), = polish(v0[None], start[None], tol)
            if gap is not None:
                assert float(np.sum((other - v0) ** 2)) >= \
                    dist_sq - slack


def _solver_gap_to(exact, spec):
    """How far the solver's dist_sq is from the exact one, and its slack
    2 sqrt(dist_sq d) tol, the amount by which a point certified at tol
    may undercut the ENP set."""
    v0 = generate_instance(spec).instance.vectors
    _, dist_sq, _ = nearest_enp_alternating(Frame(v0))
    slack = 2.0 * math.sqrt(dist_sq * spec.d) * default_certify_tol()
    return abs(dist_sq - exact(v0)), slack


class TestExactOracles:
    # where the ENP set is explicit, the solver's distance is the exact
    # nearest distance within its slack
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 6), eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(0, 10**6))
    def test_one_more_vector_than_dimension(self, d, eps, seed):
        gap, slack = _solver_gap_to(exact_dist_sq_next, InstanceSpec(
            kind="perturbed_enp", d=d, n=d + 1, epsilon_target=eps,
            seed=seed))
        assert gap <= slack

    @settings(max_examples=40, deadline=None)
    @given(eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(0, 10**6))
    # the input's polish is a KKT point 1.9% farther than the exact one
    @example(eps=0.2, seed=89)
    def test_four_vectors_in_the_plane(self, eps, seed):
        gap, slack = _solver_gap_to(exact_dist_sq_2_4, InstanceSpec(
            kind="perturbed_enp", d=2, n=4, epsilon_target=eps, seed=seed))
        assert gap <= slack

    def test_scaled_grid(self):
        # every scaled_enp record of the grid is certified at the exact
        # distance; at (2, 4), eps 0.005 and 0.01, no polish certifies
        # and the base is proved instead
        grid = [InstanceSpec(kind="scaled_enp", d=d, n=n, epsilon_target=eps)
                for d in range(2, 6) for n in range(d, 11)
                for eps in (0.005, 0.01, 0.05, 0.1, 0.2)]
        records, _ = estimate_paulsen(grid, trials=1)
        assert len(records) == 150
        for rec in records:
            ds, d = rec.achieved_dist_sq, rec.spec.d
            assert rec.certified is True
            assert abs(ds - exact_dist_sq_scaled(d, rec.spec.epsilon_target)) \
                <= 2.0 * math.sqrt(ds * d) * default_certify_tol()


class TestLagrangianGaps:
    # |W - V0|^2 >= dist_sq - gap for every ENP frame W, whatever the
    # multipliers, so it holds against the exact oracles; a candidate
    # proved within the slack sits at the oracle's distance
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(2, 4), (1, 2), (2, 3), (3, 4), (4, 5)]),
           kind=st.sampled_from(lab.HILBERT_KINDS),
           eps=st.sampled_from([0.005, 0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(0, 10**6), scale=st.sampled_from([0.1, 0.5, 1.0]))
    @example(shape=(2, 4), kind="scaled_enp", eps=0.01, seed=0, scale=0.5)
    def test_gap_bounds_every_enp_frame(self, shape, kind, eps, seed, scale):
        d, n = shape
        oracle = exact_dist_sq_2_4 if shape == (2, 4) else exact_dist_sq_next
        tol = default_certify_tol()
        # a rounding allowance for comparing two computed distances
        rounding = 1e-12
        bundle = generate_instance(InstanceSpec(
            kind=kind, d=d, n=n, epsilon_target=eps, seed=seed))
        v0 = bundle.instance.vectors
        exact = oracle(v0)
        (point, gap), = lab._kkt_polish(v0[None], v0[None], tol)
        if gap is not None:
            ds = float(np.sum((point - v0) ** 2))
            assert ds - gap <= exact + rounding
            if gap <= 2.0 * math.sqrt(ds * d) * tol:
                assert abs(ds - exact) <= 2.0 * math.sqrt(ds * d) * tol
        if lab._base_proved(bundle):
            ds = bundle.base_dist_sq
            assert abs(ds - exact) <= 2.0 * math.sqrt(ds * d) * tol
        # random multipliers: the base w is stationary for the input
        # w - A(w) mult, whatever its margin
        w = lab._harmonic_base(d, n).vectors[None]
        mult = scale * np.random.default_rng(seed).uniform(
            -1.0, 1.0, (1, d * (d + 1) // 2 + n - 1))
        a = lab._residual(w, w, mult)[2]
        v0 = w - (a @ mult[:, :, None]).reshape(w.shape)
        r, c, _, _ = lab._residual(v0, w, mult)
        gap, = lab._lagrangian_gaps(v0, w, mult, r, c, tol)
        if gap is not None:
            assert type(gap) is float
            ds = float(np.sum((w - v0) ** 2))
            assert ds - gap <= oracle(v0[0]) + rounding

    def test_no_certificate_below_the_floor(self):
        # three nearly collinear vectors of norm^2 d/n: lambda_min is about
        # 5e-13, at or below PSD_FLOOR, so there is no Parseval certificate
        # even where both defects (1 - 5e-13 and about 0) are within tol
        t = np.array([6.1e-7, 0.0, -6.1e-7])
        w = math.sqrt(2.0 / 3.0) * np.stack([np.cos(t), np.sin(t)], axis=1)
        assert frame_certificate(Frame(w)).eps_parseval is None
        w = w[None]
        k = _polish_layout(3, 2)[0].size + 2
        gaps = lab._lagrangian_gaps(w, w, np.zeros((1, k)), np.zeros((1, 6)),
                                    np.zeros((1, k)), 1.0 - 1e-13)
        assert gaps == [None]

    @pytest.mark.parametrize("shape", [(3, 5), (4, 7)])
    def test_verdict_at_the_boundary(self, shape):
        # tol is the candidate's own Parseval defect, so the verdict rests
        # on the last bit of its spectrum, where eigvalsh's spectra differ
        # from sym_eig's (on 18 of these seeds at (3, 5), the first being
        # 14, and 27 at (4, 7)): the kernel certifies exactly where
        # frame_certificate does
        d, n = shape
        base = lab._harmonic_base(d, n).vectors
        mult = np.full((1, _polish_layout(n, d)[0].size + n - 1), 0.01)
        for seed in range(200):
            w = (base + 1e-3 * np.random.default_rng(seed).standard_normal(
                (n, d)))[None]
            # w is stationary for v0 under mult
            a = lab._residual(w, w, mult)[2]
            v0 = w - (a @ mult[:, :, None]).reshape(w.shape)
            cert = frame_certificate(Frame(w[0]))
            tol = cert.eps_parseval
            r, c, _, _ = lab._residual(v0, w, mult)
            gap, = lab._lagrangian_gaps(v0, w, mult, r, c, tol)
            assert (gap is not None) == lab._within(
                (cert.eps_parseval, cert.eps_equal_norm), tol), seed

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(1, 2), (2, 3), (2, 4), (3, 5), (4, 7)]),
           scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-5, 1e-2, 0.3]),
                           min_size=1, max_size=5),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4, 0.1, 1.0 - 1e-13]),
           seed=st.integers(0, 10**6))
    def test_verdict_is_the_frame_rule(self, shape, scales, tol, seed):
        # a stacked item gets a gap exactly when it is stationary and
        # _within holds on its frame_certificate: one rule for both, down
        # to the last bit of the spectrum
        d, n = shape
        rng = np.random.default_rng(seed)
        b = len(scales)
        base = lab._harmonic_base(d, n).vectors
        w = base + np.array(scales)[:, None, None] * rng.standard_normal(
            (b, n, d))
        k = _polish_layout(n, d)[0].size + n - 1
        mult = 0.1 * rng.uniform(-1.0, 1.0, (b, k))
        # v0 makes w stationary under mult, up to a kick on odd items
        a = lab._residual(w, w, mult)[2]
        kick = 1e-6 * (np.arange(b) % 2)[:, None, None]
        v0 = (w - (a @ mult[:, :, None]).reshape(w.shape)
              - kick * rng.standard_normal(w.shape))
        r, c, _, _ = lab._residual(v0, w, mult)
        gaps = lab._lagrangian_gaps(v0, w, mult, r, c, tol)
        for i in range(b):
            cert = frame_certificate(Frame(w[i]))
            diff = (w[i] - v0[i]).ravel()
            stationary = np.linalg.norm(r[i]) <= \
                lab.STATIONARY_TOL * np.linalg.norm(diff)
            want = stationary and lab._within(
                (cert.eps_parseval, cert.eps_equal_norm), tol)
            assert (gaps[i] is not None) == want


def _normal_space_residual(v0, v):
    """Least-squares residual of V - V0 = V Lam + diag(mu) V, Lam symmetric."""
    n, d = v.shape
    cols = []
    for a in range(d):
        for b in range(a, d):
            e = np.zeros((d, d))
            e[a, b] = e[b, a] = 1.0
            cols.append((v @ e).ravel())
    for j in range(n):
        row = np.zeros((n, d))
        row[j] = v[j]
        cols.append(row.ravel())
    normals = np.stack(cols, axis=1)
    x = (v - v0).ravel()
    coef = np.linalg.lstsq(normals, x, rcond=None)[0]
    return float(np.linalg.norm(x - normals @ coef)), float(np.linalg.norm(x))


def _sym_basis(d):
    """E_i over the upper triangle in np.triu_indices order:
    e_r e_c^T + e_c e_r^T, or e_r e_r^T when r = c."""
    basis = []
    for r, c in zip(*np.triu_indices(d)):
        e = np.zeros((d, d))
        e[r, c] = e[c, r] = 1.0
        basis.append(e)
    return basis


def _jacobian_from_definition(v):
    """The polish's constraint Jacobian, column by column: V E_i over the
    upper triangle, then e_j v_j^T for j < n - 1."""
    n, d = v.shape
    cols = [(v @ e).ravel() for e in _sym_basis(d)]
    for j in range(n - 1):
        g = np.zeros((n, d))
        g[j] = v[j]
        cols.append(g.ravel())
    return np.stack(cols, axis=1)


class TestPolishLayout:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 5),
           extra=st.integers(0, 5))
    def test_layout_matches_definitions(self, seed, d, extra):
        n = min(d + extra, 10)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, d))
        half, upper, sym, a_dst, a_src = _polish_layout(n, d)
        ref = _jacobian_from_definition(v)
        a = np.zeros(ref.size)
        a[a_dst] = v.take(a_src)
        assert np.array_equal(a.reshape(ref.shape), ref)
        # Lambda scattered from the multipliers is sum_i mult_i E_i, and
        # the weighted Gram entries are the halved constraints <E_i, G> / 2
        basis = np.stack(_sym_basis(d))
        mult = rng.standard_normal(len(basis))
        assert np.array_equal(mult.take(sym).reshape(d, d),
                              np.sum(mult[:, None, None] * basis, axis=0))
        g = rng.standard_normal((d, d))
        g = g + g.T
        assert np.array_equal(half * g.take(upper),
                              0.5 * np.sum(basis * g, axis=(1, 2)))

    def test_layout_is_cached_and_read_only(self):
        layout = _polish_layout(4, 2)
        assert _polish_layout(4, 2) is layout
        with pytest.raises(ValueError):
            layout[0][0] = 1


def _dense_kkt_step(r, c, mult, v):
    """The Newton step of the polish's KKT system at the point v, built
    and solved dense from the definitions: the Hessian blocks (1 - mu_j) I
    - Lambda, with Lambda = sum_i mult_i E_i, beside the Jacobian of
    _jacobian_from_definition. Returns the step and the 2-norm condition
    number of the KKT matrix."""
    n, d = v.shape
    a = _jacobian_from_definition(v)
    basis = _sym_basis(d)
    lam = np.sum(mult[:len(basis), None, None] * np.stack(basis), axis=0)
    mu = np.append(mult[len(basis):], 0.0)
    hess = np.kron(np.diag(1.0 - mu), np.eye(d)) - np.kron(np.eye(n), lam)
    k = a.shape[1]
    kkt = np.block([[hess, -a], [a.T, np.zeros((k, k))]])
    return np.linalg.solve(kkt, -np.concatenate([r, c])), np.linalg.cond(kkt)


def _step_of(v0, v, mult):
    """_kkt_step's (pos, dv, dmult) for a stack of points v with
    multipliers mult, at the residuals and Jacobians of _residual."""
    n, d = v.shape[1:]
    r, c, a, _ = lab._residual(v0, v, mult)
    return lab._kkt_step(r, c, a, mult, n, d)


class TestKKTStep:
    # the Schur complement step is the dense KKT step, also where the
    # Hessian is indefinite (margin <= 0). Each draw puts every pivot
    # |1 - mu_j - w_i| at least 0.1 away from 0, so the Hessian blocks are
    # invertible; draws that do not are redrawn from the same stream. That
    # does not bound the conditioning of the KKT system (its condition
    # number kappa is 3.1e4 and 3.7e5 on the two examples), so the steps
    # need only agree to 10 kappa eps relative to the dense one: over 300
    # draws the relative gap was at most 1.24 kappa eps
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           shape=st.integers(1, 5).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(d + 1, 10))))
    @example(seed=665, shape=(4, 5))
    @example(seed=3690, shape=(5, 7))
    def test_matches_the_dense_step(self, seed, shape):
        d, n = shape
        m = d * (d + 1) // 2
        rng = np.random.default_rng(seed)
        basis = np.stack(_sym_basis(d))
        while True:
            v = lab._harmonic_base(d, n).vectors + 0.2 * rng.standard_normal(
                (n, d))
            mult = rng.uniform(-1.0, 1.0, m + n - 1)
            w = np.linalg.eigvalsh(np.sum(mult[:m, None, None] * basis, 0))
            # mu_0 above 1 - lambda_max makes the margin negative
            mult[m] = 1.0 - w[-1] + rng.uniform(0.1, 1.0)
            mu = np.append(mult[m:], 0.0)
            if np.abs((1.0 - mu)[:, None] - w).min() >= 0.1:
                break
        v0 = v + 0.2 * rng.standard_normal((n, d))
        assert 1.0 - mu.max() - w[-1] <= 0.0
        pos, dv, dmult = _step_of(v0[None], v[None], mult[None])
        r, c, _, _ = lab._residual(v0[None], v[None], mult[None])
        want, kappa = _dense_kkt_step(r[0], c[0], mult, v)
        got = np.concatenate([dv.ravel(), dmult.ravel()])
        assert list(pos) == [0]
        assert np.linalg.norm(got - want) <= \
            10.0 * kappa * np.finfo(float).eps * np.linalg.norm(want)

    def test_singular_hessian_block_stops_alone(self):
        # item 1's multipliers put 1 - mu_0 at lambda_max(Lambda), so its
        # Hessian block H_0 is singular: it gets no step, and no warning,
        # while items 0 and 2 get the bits of their steps alone
        d, n = 3, 6
        m = d * (d + 1) // 2
        rng = np.random.default_rng(4)
        v = lab._harmonic_base(d, n).vectors + 0.1 * rng.standard_normal(
            (3, n, d))
        v0 = v + 0.1 * rng.standard_normal(v.shape)
        mult = 0.2 * rng.uniform(-1.0, 1.0, (3, m + n - 1))
        lam = lab._lambda_mu(mult[1:2], n, d)[0]
        mult[1, m] = 1.0 - np.linalg.eigh(lam)[0][0, -1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos, dv, dmult = _step_of(v0, v, mult)
            alone = [_step_of(v0[i:i + 1], v[i:i + 1], mult[i:i + 1])
                     for i in range(3)]
        assert list(pos) == [0, 2]
        assert alone[1][0].size == 0
        for row, i in enumerate(pos):
            assert dv[row].tobytes() == alone[i][1][0].tobytes()
            assert dmult[row].tobytes() == alone[i][2][0].tobytes()


def _polish_alone(v0, v, tol):
    """Each item of the stack polished as a stack of one."""
    return [lab._kkt_polish(v0[i:i + 1], v[i:i + 1], tol)[0]
            for i in range(len(v))]


def _polish_bytes(result):
    """The bytes of a _kkt_polish entry: its end point, certified or not,
    and its gap."""
    point, gap = result
    return point.tobytes(), None if gap is None else float(gap).hex()


def _polish_steps(v0, v, tol):
    """The Newton step after which the polish of the single item v stops:
    the fewest POLISH_STEPS that give the bytes of the full budget."""
    full = _polish_bytes(lab._kkt_polish(v0[None], v[None], tol)[0])
    budget = lab.POLISH_STEPS
    with pytest.MonkeyPatch.context() as mp:
        for steps in range(budget + 1):
            mp.setattr(lab, "POLISH_STEPS", steps)
            if _polish_bytes(
                    lab._kkt_polish(v0[None], v[None], tol)[0]) == full:
                return steps
    raise AssertionError("no budget reproduces the full polish")


class TestStackedPolish:
    # a stacked polish gives every item the bytes of that item polished
    # alone: its end point and its gap, None where uncertified
    @settings(max_examples=30, deadline=None)
    @given(shape=st.integers(1, 5).flatmap(
               lambda d: st.tuples(st.just(d), st.integers(d + 1, 10))),
           eps=st.lists(st.sampled_from([0.01, 0.05, 0.1, 0.2]),
                        min_size=1, max_size=6),
           seed=st.integers(0, 10**6), kick=st.sampled_from([0.0, 0.5]))
    # item 0 halves at steps 2 and 3 while item 1 takes its full step, and
    # both stay live: the next step must still give each item its own step
    @example(shape=(2, 9), eps=[0.05, 0.05], seed=643828, kick=0.5)
    def test_items_match_alone(self, shape, eps, seed, kick):
        d, n = shape
        v0 = np.stack([generate_instance(InstanceSpec(
            kind="perturbed_enp", d=d, n=n, epsilon_target=e,
            seed=seed + i)).instance.vectors for i, e in enumerate(eps)])
        # a kicked start may leave the polish no certified point
        v = v0 + kick * math.sqrt(d / n) * np.random.default_rng(
            seed).standard_normal(v0.shape)
        tol = default_certify_tol()
        got = lab._kkt_polish(v0, v, tol)
        assert [_polish_bytes(g) for g in got] == \
            [_polish_bytes(w) for w in _polish_alone(v0, v, tol)]

    def test_items_stopping_at_different_steps(self):
        v0 = np.stack([generate_instance(InstanceSpec(
            kind="perturbed_enp", d=2, n=4, epsilon_target=0.01,
            seed=seed)).instance.vectors for seed in range(4)])
        tol = default_certify_tol()
        steps = [_polish_steps(v0[i], v0[i], tol) for i in range(4)]
        assert steps == [8, 5, 6, 5]
        got = lab._kkt_polish(v0, v0, tol)
        assert all(gap is not None for _, gap in got)
        assert [_polish_bytes(g) for g in got] == \
            [_polish_bytes(w) for w in _polish_alone(v0, v0, tol)]

    def test_singular_item_drops_alone(self, monkeypatch):
        # a zero row zeroes the Jacobian column of its equal-norm
        # constraint, so that item's k x k Schur complement is exactly
        # singular (k = 6 at (2, 4))
        v0 = np.stack([generate_instance(InstanceSpec(
            kind="perturbed_enp", d=2, n=4, epsilon_target=0.1,
            seed=seed)).instance.vectors for seed in range(3)])
        v0[1, 0] = 0.0
        solve = np.linalg.solve
        failed = []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                failed.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        tol = default_certify_tol()
        got = lab._kkt_polish(v0, v0, tol)
        # the stack's first solve fails; its slogdet drops the singular
        # item, and one solve of the other two succeeds
        assert failed == [(3, 6, 6)]
        assert got[1][1] is None
        assert got[0][1] is not None and got[2][1] is not None
        failed.clear()
        alone = _polish_alone(v0, v0, tol)
        # alone, the stack of one fails, and the empty solve succeeds
        assert failed == [(1, 6, 6)]
        assert [_polish_bytes(g) for g in got] == \
            [_polish_bytes(w) for w in alone]


class TestNearestPolish:
    # the polished output is a certified KKT point of min |V - V0| over
    # the equal-norm Parseval set: V - V0 lies in its normal space
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), shape=st.sampled_from([(2, 3), (3, 5)]))
    def test_output_is_certified_kkt_point(self, seed, shape):
        d, n = shape
        spec = InstanceSpec(kind="perturbed_enp", d=d, n=n,
                            epsilon_target=0.1, seed=seed)
        frame = generate_instance(spec).instance
        out, dist_sq, _ = nearest_enp_alternating(frame)
        rep = analyze_frame(out)
        assert rep.eps_parseval is not None and rep.eps_parseval <= 1e-8
        assert rep.eps_equal_norm is not None and rep.eps_equal_norm <= 1e-8
        resid, scale = _normal_space_residual(frame.vectors, out.vectors)
        assert scale > 0
        assert resid <= 1e-8 * scale
        assert dist_sq == pytest.approx(scale ** 2, rel=1e-12)


# Central differences with step GRAD_STEP err by about GRAD_STEP^2 times
# the third derivative (truncation) plus eps |F| / GRAD_STEP (rounding).
# The draws keep every entry of f, tau and their displacements at least
# 0.05 away from 0, where |x|^p has a bounded third derivative, or exactly
# at 0, where it is even in x; so the error stays a small multiple of that
# sum times the scale of the objective, while a wrong sign or transpose is
# off by order 1.
GRAD_STEP = 1e-5
GRAD_TOL = 1e4 * (GRAD_STEP ** 2 + np.finfo(float).eps / GRAD_STEP)


def _away_from_zero(rng, shape, low, high):
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(low, high, shape)


class TestSearchGradient:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.25, 1.5, 2.0, 3.0, 5.0]),
           d=st.integers(1, 4), k=st.integers(1, 3),
           mu=st.sampled_from([0.0, 1.0, 100.0]),
           zero_tau=st.booleans(), zero_f=st.booleans())
    def test_matches_central_differences(self, seed, p, d, k, mu,
                                         zero_tau, zero_f):
        n = k * d
        rng = np.random.default_rng(seed)
        f, tau = (_away_from_zero(rng, (n, d), 0.2, 1.0) for _ in range(2))
        df, dtau = (_away_from_zero(rng, (n, d), 0.05, 0.5) for _ in range(2))
        j = int(rng.integers(n))
        if zero_tau:
            dtau[j] = 0.0
        if zero_f:
            df[j] = 0.0
        z_in = np.stack([f - df, tau - dtau])
        q = dual_exponent(p)
        z = np.concatenate([f.ravel(), tau.ravel()])
        terms = _SearchTerms(z_in, p, q)

        def value(x):
            dist, resid_sq = terms(x)[:2]
            return dist + mu * resid_sq

        grad = terms.penalty(z, mu)[1]
        central = np.array([(value(z + e) - value(z - e)) / (2 * GRAD_STEP)
                            for e in GRAD_STEP * np.eye(z.size)])
        assert np.all(np.isfinite(grad))
        scale = max(1.0, abs(value(z)), float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - central)) <= GRAD_TOL * scale


def _sq_norms_and_grad(x, r):
    """Squared row r-norms of x, pnorm's, and their gradient
    2 |x|_r^(2-r) sign(x) |x|^(r-1), 0 on a zero row."""
    norms = spectral.pnorm(x, r)
    scale = 2.0 * np.where(norms > 0.0, norms, 1.0) ** (2.0 - r)
    return norms ** 2, scale[:, None] * np.sign(x) * np.abs(x) ** (r - 1.0)


def _four_pass_terms(z, mu, f_in, tau_in, p, q):
    """_SearchTerms's dist, resid_sq and penalty gradient at mu from one
    spectral.pnorm pass per row family (tau - tau_in, f - f_in, tau, f),
    each with its own gradient, instead of one pass over the stacked rows;
    it shares no code with the kernel."""
    n, d = f_in.shape
    t = d / n
    f, tau = z[: n * d].reshape(n, d), z[n * d:].reshape(n, d)
    dt_sq, dt_grad = _sq_norms_and_grad(tau - tau_in, p)
    df_sq, df_grad = _sq_norms_and_grad(f - f_in, q)
    nt_sq, nt_grad = _sq_norms_and_grad(tau, p)
    nf_sq, nf_grad = _sq_norms_and_grad(f, q)
    g = tau.T @ f - np.eye(d)
    a, b = nt_sq - t, nf_sq - t
    c = np.einsum("ij,ij->i", f, tau) - t
    dist = 0.5 * float(np.sum(dt_sq + df_sq))
    resid_sq = float(np.sum(g * g) + a @ a + b @ b + c @ c)
    grad_f = 0.5 * df_grad + 2.0 * mu * (
        tau @ g + b[:, None] * nf_grad + c[:, None] * tau)
    grad_tau = 0.5 * dt_grad + 2.0 * mu * (
        f @ g.T + a[:, None] * nt_grad + c[:, None] * f)
    return dist, resid_sq, np.concatenate([grad_f.ravel(), grad_tau.ravel()])


class TestSearchTermsStacking:
    # row-wise norms do not depend on how many rows are stacked, so the
    # one-pass kernel must agree with the four-pass one bit for bit: zero
    # rows (the gradient's guard) included, and rows whose power sums
    # overflow (entries near 1e160, at exponents of 2 and above) or
    # underflow (near 1e-160), which both kernels hand to pnorm's rescaled
    # recomputation. Large rows sit only in the input, so a distance may
    # overflow to inf while G and the residual stay finite; tiny rows sit
    # in z too
    @settings(max_examples=160, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0]),
           d=st.integers(1, 4), k=st.integers(1, 3),
           mu=st.sampled_from([0.0, 1.0, 1e8]),
           zeros=st.lists(st.booleans(), min_size=4, max_size=4),
           extreme=st.sampled_from([None, 1e-160, 1e160]))
    def test_matches_four_passes_bitwise(self, seed, p, d, k, mu, zeros,
                                         extreme):
        n = k * d
        rng = np.random.default_rng(seed)
        f, tau = rng.standard_normal((2, n, d))
        f_in, tau_in = np.stack([f, tau]) - rng.standard_normal((2, n, d))
        j = rng.integers(n, size=4)
        if zeros[0]:
            tau_in[j[0]] = tau[j[0]]
        if zeros[1]:
            tau[j[1]] = 0.0
        if zeros[2]:
            f_in[j[2]] = f[j[2]]
        if zeros[3]:
            f[j[3]] = 0.0
        if extreme is not None:
            # one extreme input row of each kind, and tiny rows of z
            f_in[j[0]] = extreme * rng.standard_normal(d)
            tau_in[j[1]] = extreme * rng.standard_normal(d)
            if extreme < 1.0:
                f[j[2]] = extreme * rng.standard_normal(d)
                tau[j[3]] = extreme * rng.standard_normal(d)
        q = dual_exponent(p)
        z = np.concatenate([f.ravel(), tau.ravel()])
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _SearchTerms(np.stack([f_in, tau_in]), p, q)
            got = (*terms(z)[:2], terms.penalty(z, mu)[1])
            want = _four_pass_terms(z, mu, f_in, tau_in, p, q)
        assert np.array(got[:2]).tobytes() == np.array(want[:2]).tobytes()
        assert got[2].tobytes() == want[2].tobytes()


class TestSearchTermsMemo:
    # the kernel evaluates a point once: a point met again, at another mu,
    # has the bits of a fresh kernel's evaluation, whether it comes from
    # the stored parts or is evaluated again after another point, and
    # another point is evaluated, not served the stored parts. The
    # arrays a call returns are its own: a later call at another point
    # rewrites the work arrays and leaves them as they were. Extreme rows
    # take pnorm's path, whose norms and weights go through the work
    # arrays too
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6),
           p=st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]),
           d=st.integers(1, 3), k=st.integers(1, 3),
           mus=st.sampled_from([(0.0, 1.0), (1.0, 1e8), (1e8, 0.0)]),
           extreme=st.sampled_from([None, 1e-160, 1e160]))
    def test_point_again_has_fresh_bits(self, seed, p, d, k, mus, extreme):
        n = k * d
        rng = np.random.default_rng(seed)
        z_in = rng.standard_normal((2, n, d))
        z, other = (z_in.ravel() + rng.standard_normal(2 * n * d)
                    for _ in range(2))
        if extreme is not None:
            # an extreme input row, and an extreme row of z
            z_in[0, 0] = extreme * rng.standard_normal(d)
            z[:d] = extreme * rng.standard_normal(d)
        q = dual_exponent(p)
        mu, new_mu = mus
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _SearchTerms(z_in, p, q)
            parts = terms(z)
            grad = terms.penalty(z, mu)[1]
            kept = [np.copy(a) for a in (*parts[2:], grad)]
            assert terms(z.copy()) is parts  # the stored parts, not a pass
            again = terms.penalty(z, new_mu)
            assert np.array(terms(other)[:2]).tobytes() == np.array(
                _SearchTerms(z_in, p, q)(other)[:2]).tobytes()
            for a, b in zip((*parts[2:], grad), kept):
                assert a.tobytes() == b.tobytes()
            after_other = terms.penalty(z, new_mu)
            fresh = _SearchTerms(z_in, p, q).penalty(z, new_mu)
        for got in (again, after_other):
            assert np.float64(got[0]).tobytes() == np.float64(
                fresh[0]).tobytes()
            assert got[1].tobytes() == fresh[1].tobytes()


class TestASFSearch:
    # a fixed point starts at zero displacement, where the norm gradient
    # needs its zero-row guard (0 * inf at p = 3)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_fixed_point(self, p):
        asf = generate_asf("repeated_basis", PNormSpace(2, p), n=4)
        out, dist_sq, certified, rounds = nearest_enp_asf_search(
            asf, certify_tol=SEARCH_CERTIFY_TOL)
        assert certified
        assert dist_sq <= 1e-12

    # an input already within certify_tol is its own nearest certified
    # point: it comes back as it is, before any penalty round runs
    @pytest.mark.parametrize("asf", [
        generate_asf("repeated_basis", PNormSpace(2, 3.0), n=4),
        generate_instance(InstanceSpec(kind="perturbed_asf", d=2, n=2,
                                       epsilon_target=1e-20, p=1.5)).instance,
    ])
    def test_certified_input_comes_back(self, monkeypatch, asf):
        def no_minimize(*args, **kwargs):
            raise AssertionError("a penalty round ran")

        monkeypatch.setattr(lab, "minimize", no_minimize)
        out, dist_sq, certified, rounds = nearest_enp_asf_search(
            asf, certify_tol=SEARCH_CERTIFY_TOL)
        assert out is asf
        assert (dist_sq, certified, rounds) == (0.0, True, 0)

    # a later penalty round is no nearer than the first certified one
    # (the distance part of the penalty minimizer does not fall as mu
    # grows), so the search returns that round and runs no further
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_stops_at_first_certified_round(self, monkeypatch, p):
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=2,
                            epsilon_target=0.05, p=p, seed=7)
        asf = generate_instance(spec).instance
        iterates = []

        def recording_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            iterates.append(res.x)
            return res

        monkeypatch.setattr(lab, "minimize", recording_minimize)
        tol = 1e-6
        out, _, certified, rounds = nearest_enp_asf_search(
            asf, certify_tol=tol)
        assert certified
        assert len(iterates) == rounds + 1
        terms = _SearchTerms(np.stack([asf.functionals, asf.vectors]), p,
                             asf.space.q)
        resid = [math.sqrt(terms(z)[1]) for z in iterates]
        assert resid[-1] <= tol
        assert all(r > tol for r in resid[:-1])
        nd = asf.n * asf.space.dim
        assert np.array_equal(out.vectors, iterates[-1][nd:].reshape(2, 2))

    # the input check and round 1's first L-BFGS-B evaluation, and each
    # round's certificate check and the next round's first evaluation,
    # land on one point, which the kernel evaluates once; no point is
    # evaluated twice in a row
    def test_round_boundaries_evaluate_once(self, monkeypatch):
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=2,
                            epsilon_target=0.05, p=3.0, seed=7)
        asf = generate_instance(spec).instance
        calls, evaluated = [], []
        call, evaluate = _SearchTerms.__call__, _SearchTerms._evaluate

        def recording_call(self, z):
            calls.append(z.tobytes())
            return call(self, z)

        def recording_evaluate(self, z):
            evaluated.append(z.tobytes())
            return evaluate(self, z)

        monkeypatch.setattr(_SearchTerms, "__call__", recording_call)
        monkeypatch.setattr(_SearchTerms, "_evaluate", recording_evaluate)
        rounds = nearest_enp_asf_search(asf, certify_tol=1e-6)[3]
        z_in = np.stack([asf.functionals, asf.vectors]).tobytes()
        assert rounds >= 1
        assert calls[:2] == [z_in, z_in] and evaluated.count(z_in) == 1
        assert len(calls) - len(evaluated) >= rounds + 1
        assert all(a != b for a, b in zip(evaluated, evaluated[1:]))

    def test_rejects_endpoint_exponents(self):
        for p in (1.0, math.inf):
            asf = generate_asf("repeated_basis", PNormSpace(2, p), n=4)
            with pytest.raises(UnsupportedExponent):
                nearest_enp_asf_search(asf, certify_tol=SEARCH_CERTIFY_TOL)

    def test_rejects_indivisible(self):
        asf = generate_asf("random", PNormSpace(2, 1.5), n=3, seed=0)
        with pytest.raises(Infeasible):
            nearest_enp_asf_search(asf, certify_tol=SEARCH_CERTIFY_TOL)


class TestEstimate:
    def test_small_grid(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=42)
        records, summary = estimate_paulsen([spec], trials=5)
        assert len(records) == 5
        assert all(r.certified for r in records)
        assert all(r.achieved_dist_sq <= 0.1 * 20.0 * 4.0 for r in records)
        assert len(summary) == 1
        assert summary[0].frac_certified == 1.0

    def test_no_certified_polish_is_uncertified(self, monkeypatch):
        # the instance TestAlternating leaves with no certified polish
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=4,
                            epsilon_target=0.1, seed=4)
        monkeypatch.setattr(lab, "_kkt_polish", _no_polish)
        records, summary = estimate_paulsen([spec], trials=1)
        assert not records[0].certified
        assert records[0].iterations == 60
        assert records[0].achieved_dist_sq == \
            generate_instance(spec).base_dist_sq
        assert summary[0].frac_certified == 0.0

    def test_uncertified_square_round(self, monkeypatch):
        # at n = d the one round's output fails its forced certificate,
        # so the record carries the base distance, uncertified; every
        # frame but the instance fails it, and the draws the generator
        # rejects fail it anyway
        spec = InstanceSpec(kind="perturbed_enp", d=3, n=3,
                            epsilon_target=0.1, seed=0)
        bundle = generate_instance(spec)
        certificate = lab.frame_certificate

        def failed_but_instance(frame):
            cert = certificate(frame)
            if np.array_equal(frame.vectors, bundle.instance.vectors):
                return cert
            return replace(cert, eps_parseval=None)

        monkeypatch.setattr(lab, "frame_certificate", failed_but_instance)
        assert nearest_enp_alternating(bundle.instance) == (None, None, 1)
        records, _ = estimate_paulsen([spec], trials=1)
        assert not records[0].certified
        assert records[0].iterations == 1
        assert records[0].achieved_dist_sq == bundle.base_dist_sq

    # trial 979 leaves by the restarts after 60 rounds, 980 and 981 by the
    # margin exit at round 0
    CELL = InstanceSpec(kind="perturbed_enp", d=2, n=4, epsilon_target=0.01,
                        seed=979)

    def _solved_alone(self):
        return [lab._solve_one(generate_instance(
            replace(self.CELL, seed=self.CELL.seed + t)), None)
            for t in range(3)]

    def test_stacked_cell_matches_per_record_solves(self):
        records, _ = estimate_paulsen([self.CELL], trials=3)
        assert [r.iterations for r in records] == [60, 0, 0]
        assert [(float(r.achieved_dist_sq).hex(), r.certified, r.iterations)
                for r in records] == \
            [(float(ds).hex(), cert, rounds)
             for ds, cert, rounds in self._solved_alone()]

    def test_uncertified_trial_of_stacked_cell(self, monkeypatch):
        records, _ = estimate_paulsen([self.CELL], trials=3)
        # no polish of trial 979's input certifies, in the stack or alone
        first = generate_instance(self.CELL).instance.vectors
        polish = lab._kkt_polish

        def polish_but_first(v0, v, tol):
            return [(point, None if np.array_equal(a, first) else gap)
                    for a, (point, gap) in zip(v0, polish(v0, v, tol))]

        monkeypatch.setattr(lab, "_kkt_polish", polish_but_first)
        uncertified, _ = estimate_paulsen([self.CELL], trials=3)
        assert not uncertified[0].certified
        assert uncertified[0].iterations == 60
        assert uncertified[0].achieved_dist_sq == \
            generate_instance(self.CELL).base_dist_sq
        assert uncertified[1:] == records[1:]
        assert [(float(r.achieved_dist_sq).hex(), r.certified, r.iterations)
                for r in uncertified] == \
            [(float(ds).hex(), cert, rounds)
             for ds, cert, rounds in self._solved_alone()]

    def test_corpus_never_judges_the_base(self, monkeypatch):
        # every corpus record certifies a polish or its n = d round, so
        # the base proof, which would add to every hilbert_sweep op it
        # ran in, never runs there; the scaled_enp (2, 4) cell needs it
        judged = []
        base_proved = lab._base_proved

        def counted(bundle):
            judged.append(bundle.spec)
            return base_proved(bundle)

        monkeypatch.setattr(lab, "_base_proved", counted)
        grid = [InstanceSpec(kind="perturbed_enp", d=d, n=n,
                             epsilon_target=eps, seed=977)
                for d in range(2, 6) for n in range(2, 11) if n >= d
                for eps in (0.01, 0.05, 0.1, 0.2)]
        records, _ = estimate_paulsen(grid, trials=20)
        assert len(records) == 2400 and judged == []
        scaled = InstanceSpec(kind="scaled_enp", d=2, n=4,
                              epsilon_target=0.01)
        records, _ = estimate_paulsen([scaled], trials=1)
        assert judged == [scaled] and records[0].certified

    def test_uncertified_stacked_entry_is_not_polished_again(
            self, monkeypatch):
        # the input polish of scaled_enp (2, 4) at eps 0.01 certifies no
        # point; the solver takes that stacked entry as it is and polishes
        # only its 12 restarts, and the base proof certifies the record
        polish = lab._kkt_polish
        stacks = []

        def spy(v0, v, tol):
            stacks.append(len(v))
            return polish(v0, v, tol)

        monkeypatch.setattr(lab, "_kkt_polish", spy)
        spec = InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.01)
        records, _ = estimate_paulsen([spec], trials=1)
        assert stacks == [1, lab.RESTARTS]
        rec, = records
        assert (rec.achieved_dist_sq, rec.certified, rec.iterations) == \
            (4.975155164388943e-05, True, 60)

    def test_certified_record_above_ceiling_raises(self, monkeypatch):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=42)
        bounds = lab._bounds_for

        def tiny_hm(*args):
            return (1e-30,) + bounds(*args)[1:]

        monkeypatch.setattr(lab, "_bounds_for", tiny_hm)
        with pytest.raises(BoundViolation, match="above the ceiling 1e-30"):
            estimate_paulsen([spec], trials=1)

    def test_scaled_achieved_matches_closed_form(self):
        spec = InstanceSpec(kind="scaled_enp", d=2, n=4, epsilon_target=0.2)
        records, _ = estimate_paulsen([spec], trials=1)
        assert records[0].achieved_dist_sq <= \
            exact_dist_sq_scaled(2, 0.2) + 1e-10

    def test_bounds_attached(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=1)
        records, _ = estimate_paulsen([spec], trials=2)
        for rec in records:
            eps = max(rec.measured_eps_parseval, rec.measured_eps_equal_norm)
            assert rec.bound_hm == pytest.approx(20.0 * eps * 4.0)
            assert rec.bound_bc == pytest.approx(
                (29.0 / 8.0) * 4.0 * 3.0 * 2.0 ** 8 * eps)
            assert rec.achieved_dist_sq <= rec.bound_hm

    def test_row_keys_are_sweep_columns_in_order(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=4)
        records, _ = estimate_paulsen([spec], trials=1)
        row = record_to_row(records[0])
        assert tuple(row) == SWEEP_COLUMNS

    def test_empty_grid_rejected(self):
        with pytest.raises(ShapeMismatch):
            estimate_paulsen([], trials=3)

    def test_zero_trials_rejected(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1)
        with pytest.raises(ShapeMismatch):
            estimate_paulsen([spec], trials=0)

    @pytest.mark.parametrize("trials", [2.5, 2.0, True])
    def test_non_integer_trials_rejected(self, trials):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1)
        with pytest.raises(ShapeMismatch) as exc:
            estimate_paulsen([spec], trials=trials)
        assert str(exc.value) == f"trials must be an integer, got {trials}"

    def test_zero_ceilings_summarize(self):
        # the harmonic base at (2, 8) survives a 1e-20 perturbation bit
        # for bit, so eps, both ceilings and dist_sq are 0, and so are the
        # ratios; a positive dist_sq over a zero ceiling is inf
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=8,
                            epsilon_target=1e-20)
        records, (row,) = estimate_paulsen([spec], trials=2)
        assert all(r.bound_hm == r.bound_bc == r.achieved_dist_sq == 0.0
                   for r in records)
        assert (row.max_ratio_hm, row.max_ratio_bc) == (0.0, 0.0)
        above = replace(records[0], achieved_dist_sq=2.3e-22)
        (row,) = summarize_records([records[1], above])
        assert (row.max_ratio_hm, row.max_ratio_bc) == (math.inf, math.inf)

    def test_trials_vary_seed(self):
        spec = InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=100)
        records, _ = estimate_paulsen([spec], trials=3)
        seeds = {r.spec.seed for r in records}
        assert seeds == {100, 101, 102}

    def test_records_reverify_freshly(self):
        # a certified record must be reproducible from its spec alone
        spec = InstanceSpec(kind="perturbed_enp", d=3, n=5,
                            epsilon_target=0.05, seed=77)
        records, _ = estimate_paulsen([spec], trials=2)
        for rec in records:
            bundle = generate_instance(rec.spec)
            assert bundle.report.eps_parseval == pytest.approx(
                rec.measured_eps_parseval, abs=1e-14)
            out, dist_sq, _ = nearest_enp_alternating(bundle.instance)
            assert min(dist_sq, bundle.base_dist_sq) == pytest.approx(
                rec.achieved_dist_sq, rel=1e-9, abs=1e-15)

    def test_summary_grouping(self):
        a = InstanceSpec(kind="perturbed_enp", d=2, n=3, epsilon_target=0.1,
                         seed=10)
        b = InstanceSpec(kind="perturbed_enp", d=2, n=4, epsilon_target=0.1,
                         seed=10)
        records, summary = estimate_paulsen([a, b], trials=2)
        assert [(s.d, s.n) for s in summary] == [(2, 3), (2, 4)]
        regrouped = summarize_records(records)
        assert [(s.d, s.n) for s in regrouped] == [(2, 3), (2, 4)]
        for s in summary:
            assert s.max_dist_sq >= s.mean_dist_sq >= 0.0
            assert s.max_ratio_hm < 1.0


class TestSharedDecomposition:
    """A perturbed_enp instance is certified once: the generator's
    frame_certificate goes to the solver, with the bits the solver computes
    alone."""

    @settings(max_examples=60, deadline=None)
    @given(dn=st.sampled_from([(d, n) for d in range(2, 6)
                               for n in range(d, 11)]),
           eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
           seed=st.integers(977, 996))
    @example(dn=(2, 4), eps=0.01, seed=979)  # the restart path
    @example(dn=(3, 3), eps=0.1, seed=977)  # n = d, after one retune
    def test_corpus_grid(self, dn, eps, seed):
        d, n = dn
        bundle = generate_instance(InstanceSpec(
            kind="perturbed_enp", d=d, n=n, epsilon_target=eps, seed=seed))
        frame = bundle.instance
        want = frame_certificate(frame)
        got = bundle.report
        for a, b in ((got.operator, want.operator),
                     (got.decomposition.eigenvalues,
                      want.decomposition.eigenvalues),
                     (got.decomposition.eigenvectors,
                      want.decomposition.eigenvectors),
                     (got.norms_sq, want.norms_sq)):
            assert a.tobytes() == b.tobytes()
        assert got.eps_parseval.hex() == want.eps_parseval.hex()
        assert got.eps_equal_norm.hex() == want.eps_equal_norm.hex()
        shared = nearest_enp_alternating(frame, None, got)
        alone = nearest_enp_alternating(frame)
        assert shared[0].vectors.tobytes() == alone[0].vectors.tobytes()
        assert shared[1].hex() == alone[1].hex()
        assert shared[2] == alone[2]

    def test_only_perturbed_enp_keeps_it(self):
        for spec, want in ((InstanceSpec(kind="perturbed_enp", d=2, n=4,
                                         epsilon_target=0.1), True),
                           (InstanceSpec(kind="scaled_enp", d=2, n=4,
                                         epsilon_target=0.2), False),
                           (InstanceSpec(kind="perturbed_asf", d=2, n=4,
                                         epsilon_target=0.1, p=1.5, seed=3),
                            False)):
            report = generate_instance(spec).report
            assert isinstance(report, FrameCertificate) is want

    def test_one_sym_eig_per_attempt_and_per_round(self, monkeypatch):
        # (2, 3): margin exits, seed 978 after a retune; (3, 3): n = d
        # rounds, each certifying its output; (2, 4) seed 979: the 60
        # restart rounds. An attempt is a certificate made by the generator
        eig_calls, attempts, generating = [], [], []

        def counted_eig(a):
            eig_calls.append(a.shape)
            return sym_eig(a)

        def counted_generate(spec):
            generating.append(spec)
            try:
                return generate_alone(spec)
            finally:
                generating.pop()

        def counted_certificate(frame):
            if generating:
                attempts.append(frame)
            return certificate(frame)

        generate_alone, certificate = (lab.generate_instance,
                                       lab.frame_certificate)
        monkeypatch.setattr(lab, "sym_eig", counted_eig)
        monkeypatch.setattr(frames, "sym_eig", counted_eig)
        monkeypatch.setattr(lab, "generate_instance", counted_generate)
        monkeypatch.setattr(lab, "frame_certificate", counted_certificate)
        grid = [InstanceSpec(kind="perturbed_enp", d=2, n=3,
                             epsilon_target=0.05, seed=977),
                InstanceSpec(kind="perturbed_enp", d=3, n=3,
                             epsilon_target=0.1, seed=977),
                InstanceSpec(kind="perturbed_enp", d=2, n=4,
                             epsilon_target=0.01, seed=979)]
        records, _ = estimate_paulsen(grid, trials=3)
        rounds = [r.iterations for r in records]
        assert rounds == [0, 0, 0, 1, 1, 1, 60, 0, 0]
        assert len(attempts) > len(records)
        assert len(eig_calls) == len(attempts) + sum(rounds)

    def test_solve_leaves_the_bundle_certificate_unrecomputed(
            self, monkeypatch):
        # a margin exit certifies no frame; at n = d only the round's
        # output is certified, never the input again
        bundles = [generate_instance(InstanceSpec(
            kind="perturbed_enp", d=d, n=n, epsilon_target=eps, seed=977))
            for d, n, eps in ((2, 3, 0.05), (3, 3, 0.1))]
        calls = []
        certificate = lab.frame_certificate

        def counted_certificate(frame):
            calls.append(frame)
            return certificate(frame)

        monkeypatch.setattr(lab, "frame_certificate", counted_certificate)
        for bundle, want in zip(bundles, (0, 1)):
            calls.clear()
            _, certified, rounds = lab._solve_one(bundle, None)
            assert certified and rounds == want
            assert len(calls) == want
            assert not any(np.array_equal(f.vectors, bundle.instance.vectors)
                           for f in calls)


class TestHilbertReductionOfSearch:
    # the smooth search may land strictly below the Hilbert solver's
    # point, so the cross-check is one sided
    @pytest.mark.parametrize("seed", [2, 3])
    def test_l2_search_never_worse_than_alternating(self, seed):
        spec = InstanceSpec(kind="perturbed_asf", d=2, n=4,
                            epsilon_target=0.08, p=2.0, seed=seed)
        bundle = generate_instance(spec)
        asf = bundle.instance
        frame = Frame(asf.vectors)
        _, alt_ds, _ = nearest_enp_alternating(frame)
        _, search_ds, certified, _ = nearest_enp_asf_search(
            asf, certify_tol=SEARCH_CERTIFY_TOL)
        assert certified
        assert search_ds <= alt_ds + 1e-6
