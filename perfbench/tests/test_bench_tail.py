import time

import pytest

from perfbench import run
from perfbench.run import tail_percentile, timings


def test_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))  # unsorted input, 1..100
    value, pct, beyond = tail_percentile(values)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_percentile_rises_with_the_sample_count():
    value, pct, beyond = tail_percentile(range(1000))
    assert (value, pct, beyond) == (989, 99.0, 10)


def test_eleven_samples_is_the_smallest_proper_tail():
    value, pct, beyond = tail_percentile([5.0] + [9.0] * 10)
    assert (value, beyond) == (5.0, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_too_few_samples_report_the_maximum_and_say_so():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_timings_take_each_op_at_its_median_complete_repeat():
    # two ops, three rounds, and half of a fourth round cut by the deadline
    lat = [0.2, 1.0, 0.1, 3.0, 0.4, 2.0, 0.01]
    t = timings(lat, [1.0] * 7, 2, rounds=[1.2, 4.3, 6.7], elapsed=6.8)
    assert t["samples"] == 2
    assert t["p50_s"] == pytest.approx(1.1)
    assert t["ops_per_s"] == pytest.approx(2 / 2.2)
    assert t["raw"]["ops_per_s"] == pytest.approx(6 / 6.7)


def test_timings_scale_each_latency_but_not_the_raw_figures():
    lat = [0.2, 1.0, 0.1, 3.0, 0.4, 2.0]
    scales = [0.5, 0.5, 2.0, 2.0, 0.5, 0.5]
    t = timings(lat, scales, 2, rounds=[1.2, 4.3, 6.7], elapsed=6.7)
    # op 0 scaled: 0.1, 0.2, 0.2; op 1 scaled: 0.5, 6.0, 1.0
    assert t["p50_s"] == pytest.approx((0.2 + 1.0) / 2)
    assert t["raw"]["p50_s"] == pytest.approx(0.7)


def test_timings_before_any_complete_round_use_every_op():
    t = timings([0.5, 0.7], [1.0, 2.0], 8, rounds=[], elapsed=1.25)
    assert t["ops_per_s"] == pytest.approx(2 / 1.9)
    assert t["p50_s"] == pytest.approx(0.95)
    assert t["raw"]["ops_per_s"] == pytest.approx(2 / 1.25)


class _Counting:
    name = "counting"
    ops = [0, 1]

    def op(self, i):
        time.sleep(0.004)
        return i

    def digest(self, result):
        return result

    def keep(self, i, result, digest):
        pass

    def end_round(self):
        pass


def test_each_op_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([1e-3, 3e-3, 2e-3] + [4e-3] * 10_000)
    monkeypatch.setattr(run, "speed_probe", lambda: next(probes))
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.0)  # a probe after each op
    window = run.run_window(_Counting(), 0.02, None)
    ref = run.REFERENCE_PROBE_S
    assert window["scales"][:2] == [pytest.approx(ref / 2e-3),
                                    pytest.approx(ref / 2.5e-3)]
    # one before the first op, one after each op, one when the window ends
    assert len(window["probes"]) == len(window["latencies"]) + 2
