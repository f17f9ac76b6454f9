"""Run one workload of framelab's benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The
process sets up the workload's inputs from the seed, runs its ops in a
closed loop (one op at a time, single-threaded) until S seconds are up,
then checks every output with tracing off. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it wraps each layer's
cross-module names and reports the per-layer metrics instead. Timings
are scaled to a reference machine speed (see ``speed_probe``). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run:
environment, raw and scaled timings, setup samples, tail percentile,
gate, deterministic counters and, when traced, the span summary. The
exit code is 0 only when every output passed the gate and every op gave
the same bits each time it ran, in this process and in fresh ones.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# The speed probe's duration on a quiet 2.1 GHz Xeon core: timings are
# reported as if the machine ran at that speed.
REFERENCE_PROBE_S = 0.5e-3
PROBE_EVERY_S = 0.01  # probe between ops at most this often
SETUP_PROBE_S = 0.02  # probing time after each setup sample
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def tail_percentile(values):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least TAIL_BEYOND samples above it. With too few samples the
    maximum is returned and fewer samples lie beyond it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def cap_blas_threads():
    """Keep BLAS on one thread unless the caller asked for more, and cap
    what was asked for at the CPUs this process may run on. Must run
    before numpy is imported; the setup probes inherit it.

    Unset, OpenBLAS starts a thread per CPU, and its threads spin between
    calls: on a 2-core machine the benchmark then takes both cores for the
    small matrices here and its timings follow whatever else runs."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


_PROBE_MATRICES = []


def speed_probe():
    """Seconds this process takes, right now, for a fixed numpy kernel:
    small symmetric eigendecompositions, the kind of work framelab does.

    The benchmark shares its cores with other tenants of the host, and a
    busy host slows every instruction of this process for seconds or
    minutes at a time. This does not show as lost CPU time (process time
    tracks wall time on such a host) and no hardware counters are
    exposed, so each op's time is divided by the probe's time around it
    instead, which keeps a busy phase from reading as a slower program.
    The probe calls numpy only, never framelab, so a change to the program
    cannot move it.
    """
    import numpy as np
    if not _PROBE_MATRICES:
        rng = np.random.default_rng(0)
        _PROBE_MATRICES.extend(m + m.T for m in rng.standard_normal((8, 4, 4)))
        _probe_kernel()  # the first call in a process pays for warming up
    t0 = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - t0


def _probe_kernel():
    import numpy as np
    for _ in range(6):
        for a in _PROBE_MATRICES:
            w, u = np.linalg.eigh(a)
            (u * w) @ u.T


def probe_for(seconds):
    """Mean probe time over about ``seconds`` of probing."""
    times = [speed_probe()]
    while sum(times) < seconds:
        times.append(speed_probe())
    return statistics.fmean(times)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root):
    """The checked-out commit, or None when ``root`` is not a clone; git
    does not look above ``root`` for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "loadavg_start": _read("/proc/loadavg"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def import_program():
    """Import framelab from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [SRC, ROOT]
    import framelab
    where = os.path.dirname(os.path.abspath(framelab.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"framelab came from {where}, not from {SRC}")


def build(workload_cls, seed, tag):
    workdir = os.path.join(WORK, f"{workload_cls.name}-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workload_cls(seed, workdir), workdir


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # only when no other run still uses it


def measure_setup(args):
    """Fresh processes' time from spawn to inputs ready (the imports plus
    building the inputs, as a user pays them per run), each scaled by the
    speed probed right after it. Each process then runs op 0, so its
    digest can be compared across processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe",
             repr(spawned)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["scaled_s"] = (sample["setup_s"] * REFERENCE_PROBE_S
                              / sample["probe_s"])
        samples.append(sample)
    return statistics.median(s["scaled_s"] for s in samples), samples


def run_window(workload, seconds, tracer):
    """Closed loop over the workload's ops until ``seconds`` have passed,
    with a speed probe between ops every PROBE_EVERY_S. Each op's scale is
    REFERENCE_PROBE_S over the mean of the probes just before and after
    it."""
    n = len(workload.ops)
    latencies, indices, errors = [], [], {}
    first_digest, nondeterministic, rounds = {}, [], []
    probes, before = [speed_probe()], []
    op_span = f"op.{workload.name}"
    clock = time.perf_counter
    start = probed = clock()
    deadline = start + seconds
    k = 0
    while clock() < deadline:
        i = k % n
        indices.append(i)
        before.append(len(probes) - 1)
        t0 = clock()
        try:
            with tracer.span(op_span) if tracer else contextlib.nullcontext():
                result = workload.op(i)
        except Exception as exc:  # a failed op is counted; the run goes on
            latencies.append(clock() - t0)
            errors[k] = f"op {i}: {exc!r}"
        else:
            latencies.append(clock() - t0)
            digest = workload.digest(result)
            if first_digest.setdefault(i, digest) != digest:
                nondeterministic.append(f"op {i} changed between rounds")
            workload.keep(i, result, digest)
        k += 1
        if k % n == 0:
            workload.end_round()
            rounds.append(clock() - start)
        if clock() - probed >= PROBE_EVERY_S:
            probes.append(speed_probe())
            probed = clock()
    elapsed = clock() - start
    probes.append(speed_probe())
    scales = [2 * REFERENCE_PROBE_S / (probes[b] + probes[b + 1])
              for b in before]
    return {"latencies": latencies, "scales": scales, "probes": probes,
            "indices": indices, "errors": errors,
            "first_digest": first_digest,
            "nondeterministic": nondeterministic,
            "elapsed": elapsed, "rounds": rounds}


def timings(latencies, scales, n, rounds, elapsed):
    """The timed metrics of one window of ops over a list of n.

    Every latency is first multiplied by its op's scale (see run_window).
    Once the list came round, each op counts at its median scaled time
    over the complete rounds: throughput is one pass at those times, and
    the median and tail are taken over them. Before a round completes,
    every op counts as it ran. The raw figures (every op of the complete
    rounds as it ran, unscaled) are kept beside.
    """
    scaled = [t * s for t, s in zip(latencies, scales)]
    complete = n * len(rounds)
    if rounds:
        samples = [statistics.median(scaled[i:complete:n]) for i in range(n)]
        raw, raw_s = latencies[:complete], rounds[-1]
    else:
        samples = scaled
        raw, raw_s = latencies, elapsed
    tail, pct, beyond = tail_percentile(samples)
    return {
        "basis": (f"median of {len(rounds)} scaled repeats per op" if rounds
                  else "every op as it ran, scaled"),
        "ops_per_s": len(samples) / sum(samples),
        "p50_s": statistics.median(samples),
        "tail_s": tail, "tail_percentile": pct, "samples": len(samples),
        "beyond_tail": beyond,
        "raw": {"ops_per_s": len(raw) / raw_s,
                "p50_s": statistics.median(raw),
                "tail_s": tail_percentile(raw)[0]},
    }


def setup_probe(args):
    """Child of measure_setup: set up, then report the seconds since spawn,
    the speed right after and the digest of op 0."""
    from perfbench.workloads import WORKLOADS
    workload, workdir = build(WORKLOADS[args.workload], args.seed, "setup")
    ready = time.time()
    try:
        probe_s = probe_for(SETUP_PROBE_S)
        try:
            op0 = workload.digest(workload.op(0))
        except Exception as exc:  # the parent reports it as a mismatch
            op0 = repr(exc)
    finally:
        remove_workdir(workdir)
    print(json.dumps({"setup_s": ready - float(args.setup_probe),
                      "probe_s": probe_s, "op0_digest": op0}))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["hilbert_sweep", "banach_search",
                             "flow_tighten", "certify_docs"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; default: the workload's corpus seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import framelab from {SRC}: {exc}", file=sys.stderr)
        return 2
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, fingerprint

    cls = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = cls.default_seed
    if args.setup_probe is not None:
        return setup_probe(args)

    env = environment(nproc)
    setup_s, setup_samples = measure_setup(args)
    workload, workdir = build(cls, args.seed, "run")
    try:
        tracer = Tracer(layers.HOOKS) if args.trace else None
        with tracer or contextlib.nullcontext():
            window = run_window(workload, args.seconds, tracer)
        # Outside the window and the tracer: a rerun of op 0 here, and op 0
        # in each fresh setup process, must give the digest op 0 gave
        # inside the window.
        if 0 in window["first_digest"]:
            try:
                rerun = workload.digest(workload.op(0))
            except Exception as exc:  # reported like any other mismatch
                rerun = repr(exc)
            if rerun != window["first_digest"][0]:
                window["nondeterministic"].append("op 0 differs when rerun")
            if any(s["op0_digest"] != window["first_digest"][0]
                   for s in setup_samples):
                window["nondeterministic"].append(
                    "op 0 differs in a fresh process")
        outcome = workload.gate()
    finally:
        remove_workdir(workdir)
    env["loadavg_end"] = _read("/proc/loadavg")

    attempted = len(window["latencies"])
    broken = outcome.broken_ops
    failed = sum(1 for k, i in enumerate(window["indices"])
                 if k in window["errors"] or i in broken)
    nondeterministic = window["nondeterministic"] + outcome.nondeterministic
    timing = timings(window["latencies"], window["scales"], len(workload.ops),
                     window["rounds"], window["elapsed"])
    probes = window["probes"]
    timing["probe_s"] = {"count": len(probes),
                         "median": statistics.median(probes),
                         "min": min(probes), "max": max(probes)}
    counters = dict(outcome.counters)
    if window["rounds"]:  # every op ran: the digests of all their outputs
        counters["op_digests_sha256"] = fingerprint(
            sorted(window["first_digest"].items()))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": attempted,
        "elapsed_s": window["elapsed"],
        "complete_rounds": len(window["rounds"]),
        "timing": timing,
        "setup_samples": setup_samples,
        "fail_frac": outcome.fail_frac,
        "dist_ratio_mean": outcome.dist_ratio_mean,
        "counters": counters,
        "broken_ops": sorted(broken),
        "errors": list(window["errors"].values())[:20],
        "nondeterministic": nondeterministic,
        "env": env,
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timing["ops_per_s"], "ops/s"),
            "op_ms_p50": (1e3 * timing["p50_s"], "ms"),
            "op_ms_tail": (1e3 * timing["tail_s"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics, missing = layers.layer_metrics(tracer)
        outcomes = {"fail_frac": outcome.fail_frac,
                    "dist_ratio_mean": outcome.dist_ratio_mean or 0.0,
                    "traced.ops_per_s": timing["ops_per_s"]}
        for name, unit in layers.OUTCOME_METRICS.items():
            metrics[name] = {"value": outcomes[name], "unit": unit}
        record["trace_detail"] = {
            "missing_metrics": missing,
            "missing_targets": tracer.missing_targets,
            "spans": len(tracer.spans),
            "kernels_by_parent": tracer.kernels_by_parent(),
        }
        if missing:
            print(f"missing layer metrics (hook target gone): {missing}",
                  file=sys.stderr)
    correct = failed == 0 and not nondeterministic
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
