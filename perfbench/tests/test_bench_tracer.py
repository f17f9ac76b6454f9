import dataclasses

import numpy as np
import pytest

import framelab
from framelab import frames, lab, spectral
from perfbench import layers
from perfbench.tracer import Hook, Tracer

BINDINGS = [(lab, "sym_eig"), (frames, "sym_eig"), (spectral, "sym_eig"),
            (framelab, "sym_eig"), (frames, "analyze_frame"),
            (lab, "analyze_frame"), (framelab, "analyze_frame"),
            (lab, "minimize")]


def _snapshot():
    return {(m.__name__, name): getattr(m, name) for m, name in BINDINGS}


def _frame():
    return frames.Frame(np.random.default_rng(0).standard_normal((5, 3)))


def test_every_binding_is_wrapped_then_restored():
    before = _snapshot()
    with Tracer(layers.HOOKS):
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
        # one wrapper per function, shared by all of its bindings
        assert lab.sym_eig is frames.sym_eig is spectral.sym_eig
    assert _snapshot() == before


def test_restored_when_the_traced_code_raises():
    before = _snapshot()
    with pytest.raises(framelab.ShapeMismatch):
        with Tracer(layers.HOOKS):
            frames.analyze_frame(frames.Frame(np.ones((2, 2))))
            raise framelab.ShapeMismatch("raised inside the traced phase")
    assert _snapshot() == before


def test_kernels_aggregate_under_their_span_with_self_time():
    tracer = Tracer(layers.HOOKS)
    with tracer:
        with tracer.span("op.test"):
            frames.analyze_frame(_frame())
            frames.closest_parseval(_frame())
    eig = tracer.stats["spectral.sym_eig"]
    assert eig.calls == 2  # one in analyze_frame, one in inv_sqrt_psd
    analyze = tracer.stats["frames.analyze_frame"]
    assert analyze.calls == 1
    assert 0.0 <= analyze.self_s <= analyze.total_s
    (op,) = tracer.spans
    assert op.name == "op.test" and op.parent is None and op.root == op.id
    assert op.kernels["spectral.sym_eig"][0] == 2
    assert op.self_s == pytest.approx(
        op.end - op.start - analyze.total_s
        - tracer.stats["frames.closest_parseval"].total_s)


def test_spans_record_parent_and_root():
    tracer = Tracer(layers.HOOKS)
    spec = lab.InstanceSpec(kind="perturbed_enp", d=2, n=3,
                            epsilon_target=0.1, seed=1)
    with tracer:
        with tracer.span("op.test"):
            lab.estimate_paulsen([spec], trials=1)
    by_name = {s.name: s for s in tracer.spans}
    op = by_name["op.test"]
    for name in ("lab.generate_instance", "lab.nearest_enp_alternating"):
        assert by_name[name].parent == op.id and by_name[name].root == op.id
    alt = tracer.stats["lab.nearest_enp_alternating"]
    assert alt.extra["rounds"] + 1 == tracer.stats["spectral.sym_eig"].calls \
        - tracer.stats["frames.analyze_frame"].calls


def test_missing_target_is_a_missing_metric_not_a_zero():
    gone = "framelab.asf.pnorm_renamed_away"
    hooks = [dataclasses.replace(h, target=gone) if h.group == "asf.pnorm"
             else h for h in layers.HOOKS]
    before = _snapshot()
    tracer = Tracer(hooks)
    with tracer:
        frames.analyze_frame(_frame())
    assert _snapshot() == before
    assert tracer.missing_targets == [gone]
    assert tracer.missing_groups == ["asf.pnorm"]
    metrics, missing = layers.layer_metrics(tracer)
    assert sorted(missing) == ["asf.pnorm.calls", "asf.pnorm.self_s"]
    assert not set(missing) & set(metrics)
    assert metrics["spectral.sym_eig.calls"]["value"] == 1


def test_missing_module_is_reported_too():
    tracer = Tracer([Hook("x.y", "framelab.no_such_module.f")])
    with tracer:
        pass
    assert tracer.missing_groups == ["x.y"]
