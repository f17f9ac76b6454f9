import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.errors import NotUnitNorm, ShapeMismatch, StepTooLarge
from framelab.flow import (_POTENTIAL_BATCH, ZERO_THRESHOLD, FlowConfig,
                           _omegas, _rotate, flow_step, run_flow,
                           tangent_family)
from framelab.frames import Frame, frame_operator, generate
from framelab.spectral import ball_displacements, row_norms


def unit_rows(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


def perturbed_unit_frame(d, n, seed, delta=0.01):
    noisy = generate("harmonic", d, n).vectors + ball_displacements(
        np.random.default_rng(seed), n, d, delta)
    return Frame(unit_rows(noisy / np.sqrt(d / n)))


class TestFlowConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("max_iters", -3, "max_iters must be non-negative, got -3"),
        ("renorm_every", -1, "renorm_every must be non-negative, got -1"),
        ("stop_defect", math.nan, "stop_defect must be non-negative, got nan"),
        # a count that is not an integer would compare or divide as a
        # float: nan lifts the step cap, 2.5 allows 3 steps, 0.5
        # renormalizes every step and inf never
        ("max_iters", math.nan, "max_iters must be an integer, got nan"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("max_iters", True, "max_iters must be an integer, got True"),
        ("renorm_every", 0.5, "renorm_every must be an integer, got 0.5"),
        ("renorm_every", math.inf, "renorm_every must be an integer, got inf"),
        ("renorm_every", np.float64(25.0),
         "renorm_every must be an integer, got 25.0"),
    ])
    def test_rejects_bad_setting(self, field, value, message):
        with pytest.raises(ShapeMismatch) as exc:
            FlowConfig(step_t=0.05, **{field: value})
        assert str(exc.value) == message

    def test_zero_settings_are_valid(self):
        # 0 steps, no maintenance and an exact-tightness stop all mean what
        # they say
        config = FlowConfig(step_t=0.05, max_iters=0, stop_defect=0.0,
                            renorm_every=0)
        assert config.max_iters == 0

    def test_numpy_integers_are_valid(self):
        config = FlowConfig(step_t=0.05, max_iters=np.int64(7),
                            renorm_every=np.int32(25))
        assert (config.max_iters, config.renorm_every) == (7, 25)


class TestTangentFamily:
    def test_mb_is_critical(self, mb):
        assert np.max(row_norms(tangent_family(mb))) <= 1e-14

    def test_basis_is_critical(self):
        omegas = tangent_family(Frame(np.eye(2)))
        assert np.max(row_norms(omegas)) <= 1e-14

    def test_two_vector_example(self):
        r = math.sqrt(2.0) / 2.0
        omegas = tangent_family(Frame(np.array([[1.0, 0.0], [r, r]])))
        assert np.allclose(omegas[0], [0.0, 0.5], atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitNorm):
            tangent_family(Frame(np.array([[2.0, 0.0]])))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 4),
           n=st.integers(3, 8))
    def test_tangency(self, seed, d, n):
        rng = np.random.default_rng(seed)
        frame = Frame(unit_rows(rng.standard_normal((n, d))))
        omegas = tangent_family(frame)
        assert omegas.shape == (n, d)
        inner = np.einsum("ij,ij->i", omegas, frame.vectors)
        assert np.max(np.abs(inner)) <= 1e-12


def masked_rotate(v, omegas, wn, t):
    """The per-row rotation by boolean-mask gathers and scatters, kept as the
    reference that _rotate must match bit for bit."""
    moving = wn > ZERO_THRESHOLD
    out = v.copy()
    if np.any(moving):
        th = wn[moving] * t
        unit = omegas[moving] / wn[moving][:, None]
        out[moving] = (np.cos(th)[:, None] * v[moving]
                       - np.sin(th)[:, None] * unit)
    return out


@st.composite
def frames_with_fixed_rows(draw):
    """A unit frame whose rows include standard basis vectors e_i on
    coordinates no other row touches, so S e_i = e_i and omega_i = 0
    exactly; some rows' omegas are then replaced by ones of norm exactly
    ZERO_THRESHOLD (fixed) or twice it (moving)."""
    d = draw(st.integers(1, 6))
    fixed = draw(st.integers(0, d))
    free = d - fixed
    n_free = draw(st.integers(1, 16 - fixed)) if free else 0
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    v = np.zeros((n_free + fixed, d))
    v[:n_free, :free] = unit_rows(rng.standard_normal((n_free, free)))
    v[n_free:, free:] = np.eye(fixed)
    v = v[rng.permutation(len(v))]
    omegas = _omegas(v, v.T @ v)
    for j in draw(st.lists(st.integers(0, len(v) - 1), max_size=3)):
        omegas[j] = 0.0
        omegas[j, 0] = draw(st.sampled_from([1.0, 2.0])) * ZERO_THRESHOLD
    return v, omegas


class TestRotate:
    @settings(max_examples=200, deadline=None)
    @given(case=frames_with_fixed_rows(), k=st.integers(3, 40))
    def test_matches_masked_rotation_bitwise(self, case, k):
        v, omegas = case
        wn = np.linalg.norm(omegas, axis=1)
        t = 1.0 / (2 * len(v) + k)
        out = _rotate(v, omegas, wn, t)
        assert out.tobytes() == masked_rotate(v, omegas, wn, t).tobytes()
        still = wn <= ZERO_THRESHOLD
        assert out[still].tobytes() == v[still].tobytes()


class TestFlowStep:
    def test_mb_fixed_point(self, mb):
        out = flow_step(mb, FlowConfig(step_t=0.1))
        assert np.allclose(out.vectors, mb.vectors, atol=1e-14)

    def test_two_vector_rotation(self):
        r = math.sqrt(2.0) / 2.0
        out = flow_step(Frame(np.array([[1.0, 0.0], [r, r]])),
                        FlowConfig(step_t=0.1))
        # |omega_1| = 1/2 rotates tau_1 by angle 0.05
        assert np.allclose(out.vectors[0],
                           [math.cos(0.05), -math.sin(0.05)], atol=1e-9)

    def test_step_gate(self, mb):
        with pytest.raises(StepTooLarge):
            flow_step(mb, FlowConfig(step_t=1.0 / (2 * mb.n)))
        with pytest.raises(StepTooLarge):
            flow_step(mb, FlowConfig(step_t=0.0))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 4),
           n=st.integers(3, 8))
    def test_norm_preservation(self, seed, d, n):
        rng = np.random.default_rng(seed)
        frame = Frame(unit_rows(rng.standard_normal((n, d))))
        out = flow_step(frame, FlowConfig(step_t=1.0 / (4 * n)))
        assert np.max(np.abs(np.linalg.norm(out.vectors, axis=1) - 1.0)) \
            <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 7))
    def test_fixed_point_iff_critical(self, seed, n):
        frame = perturbed_unit_frame(2, n, seed) if math.gcd(n, 2) == 1 \
            else perturbed_unit_frame(3, n, seed)
        omegas = tangent_family(frame)
        out = flow_step(frame, FlowConfig(step_t=1.0 / (4 * n)))
        moved = np.linalg.norm(out.vectors - frame.vectors)
        if np.max(row_norms(omegas)) <= 1e-14:
            assert moved <= 1e-13
        else:
            assert moved > 0.0


def _check_against_stepping_by_hand(seed, d, n, steps, t_div, renorm_every):
    """run_flow's trace and final frame have the bits of steps calls of
    flow_step at t = 1/(t_div n) on a random unit frame, renormalized as
    the config says."""
    rng = np.random.default_rng(seed)
    frame = Frame(unit_rows(rng.standard_normal((n, d))))
    config = FlowConfig(step_t=1.0 / (t_div * n), max_iters=steps,
                        stop_defect=0.0, renorm_every=renorm_every)
    final, trace = run_flow(frame, config)
    assert trace.termination == "max_iters"
    assert trace.final_index == steps
    assert len(trace.unit_defect_hs) == steps + 1
    assert len(trace.frame_potential) == steps + 1
    current = frame
    for k in range(steps + 1):
        v = current.vectors
        s = v.T @ v
        omegas = tangent_family(current)
        assert trace.unit_defect_hs[k] == \
            float(np.linalg.norm(s - (n / d) * np.eye(d)))
        assert trace.frame_potential[k] == float(np.sum(s * s))
        assert trace.max_tangent_norm[k] == \
            np.max(np.linalg.norm(omegas, axis=1))
        if k < steps:
            current = flow_step(current, config)
            if renorm_every and (k + 1) % renorm_every == 0:
                current = Frame(unit_rows(current.vectors))
    assert final.vectors.tobytes() == current.vectors.tobytes()


class TestRunFlow:
    def test_mb_converges_at_zero(self, mb):
        final, trace = run_flow(mb, FlowConfig(step_t=0.05,
                                               stop_defect=1e-8))
        assert trace.termination == "converged"
        assert trace.final_index == 0
        assert len(trace.unit_defect_hs) == 1
        assert np.allclose(final.vectors, mb.vectors)

    def test_perturbed_converges(self):
        frame = perturbed_unit_frame(2, 3, seed=4)
        final, trace = run_flow(
            frame, FlowConfig(step_t=1.0 / 12.0, stop_defect=1e-6,
                              renorm_every=25))
        assert trace.termination == "converged"
        assert trace.unit_defect_hs[-1] <= 1e-6
        s = frame_operator(final)
        assert np.linalg.norm(s - 1.5 * np.eye(2)) <= 1e-6

    def test_gate_checked_before_running(self, mb):
        with pytest.raises(StepTooLarge):
            run_flow(mb, FlowConfig(step_t=1.0 / 6.0))

    def test_trace_lengths_consistent(self):
        frame = perturbed_unit_frame(3, 5, seed=9)
        _, trace = run_flow(frame, FlowConfig(
            step_t=1.0 / 20.0, max_iters=50, stop_defect=1e-12,
            renorm_every=25))
        k = trace.final_index + 1
        assert len(trace.unit_defect_hs) == k
        assert len(trace.frame_potential) == k
        assert len(trace.max_tangent_norm) == k
        assert trace.termination in ("converged", "max_iters")

    def test_potential_monotone_on_short_run(self):
        frame = perturbed_unit_frame(2, 5, seed=21)
        _, trace = run_flow(frame, FlowConfig(
            step_t=1.0 / 20.0, max_iters=200, stop_defect=1e-9,
            renorm_every=25))
        pot = np.array(trace.frame_potential)
        assert np.max(np.diff(pot)) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 6),
           extra=st.integers(1, 10), steps=st.integers(0, 12))
    def test_matches_stepping_by_hand(self, seed, d, extra, steps):
        _check_against_stepping_by_hand(seed, d, d + extra, steps, 4, 0)

    # runs that end just before, at and just after a potential batch, or
    # cross two, with maintenance renormalization; d = 13 has d^2 > 128
    # entries, so numpy's pairwise summation of tr(S^2) recurses. At
    # t = 1/(32n) no row of a random frame comes near ZERO_THRESHOLD in
    # 600 steps, so the runs end at max_iters, not "stalled"
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 8),
           extra=st.integers(1, 6),
           steps=st.sampled_from([_POTENTIAL_BATCH - 1, _POTENTIAL_BATCH,
                                  _POTENTIAL_BATCH + 1, 600]))
    @example(seed=3, d=13, extra=4, steps=_POTENTIAL_BATCH + 1)
    def test_matches_stepping_by_hand_across_batches(self, seed, d, extra,
                                                     steps):
        _check_against_stepping_by_hand(seed, d, d + extra, steps, 32, 25)

    @pytest.mark.parametrize("v", [
        [[1.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])
    def test_stalled_family_stops_at_once(self, v):
        # every omega_j is zero, so no step can move a row: the run stops
        # at the initial frame instead of taking max_iters idle steps
        frame = Frame(np.array(v))
        final, trace = run_flow(frame, FlowConfig(step_t=0.01))
        assert trace.termination == "stalled"
        assert trace.final_index == 0
        assert trace.max_tangent_norm == [0.0]
        assert final.vectors.tobytes() == frame.vectors.tobytes()

    def test_converged_takes_precedence_over_stalled(self, mb):
        _, trace = run_flow(mb, FlowConfig(step_t=0.05, stop_defect=1e-8))
        assert trace.max_tangent_norm[0] <= ZERO_THRESHOLD
        assert trace.termination == "converged"

    def test_kicked_harmonic_frame_never_stalls(self):
        # near a tight frame every |omega_j| is small but above
        # ZERO_THRESHOLD, so the run goes on until it converges
        frame = perturbed_unit_frame(3, 7, seed=11)
        _, trace = run_flow(frame, FlowConfig(
            step_t=1.0 / 28.0, stop_defect=1e-9, renorm_every=25))
        assert trace.termination == "converged"
        assert trace.final_index > 0
        assert min(trace.max_tangent_norm) > ZERO_THRESHOLD

    def test_unmaintained_long_run_raises_on_drift(self):
        # radial rounding noise grows multiplicatively without maintenance;
        # the run must fail loudly instead of returning a non-unit family
        frame = perturbed_unit_frame(2, 3, seed=3)
        config = FlowConfig(step_t=1.0 / 12.0, max_iters=600,
                            stop_defect=1e-15)
        with pytest.raises(NotUnitNorm):
            run_flow(frame, config)
