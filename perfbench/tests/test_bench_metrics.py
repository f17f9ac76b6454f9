"""Every metric the benchmark emits is declared in BENCHMARK.json, with the
same unit, and every declared metric is emitted."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_workloads_match():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(WORKLOADS)


def test_layer_table_matches_per_layer():
    table = {name: unit for name, (_, unit, _) in
             layers.LAYER_METRICS.items()}
    table.update(layers.OUTCOME_METRICS)
    assert table == _declared("per_layer")


def test_names_are_unique_across_kinds():
    assert not set(_declared("per_layer")) & set(_declared("end_to_end"))


def _run(trace, _cache={}):
    """The record and the result of a short flow_tighten run that still
    completes a round, once per trace setting."""
    if trace not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
             "--workload", "flow_tighten", "--seed", "3", "--seconds", "4",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=False)
        assert proc.returncode == 0, proc.stderr
        *_, record, result = proc.stdout.strip().splitlines()
        _cache[trace] = json.loads(record), json.loads(result)
    return _cache[trace]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(trace, kind):
    _, result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared(kind)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counters_repeat_across_processes_traced_or_not():
    """Criterion 10 across processes: two separate runs of the same seed,
    one of them traced, give the same deterministic counters and output
    digests."""
    (a, _), (b, _) = _run(0), _run(1)
    assert a["complete_rounds"] >= 1 and b["complete_rounds"] >= 1
    assert "op_digests_sha256" in a["counters"]
    assert a["counters"] == b["counters"]
