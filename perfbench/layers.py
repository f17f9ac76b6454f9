"""Which framelab names the traced run wraps, and the per-layer metrics.

Every hook names a function where it is defined; the tracer also wraps
each other module's binding of it, which is how calls from lab into
spectral, frames and asf are seen. A metric whose hooks all lost their
target (a later change renamed or inlined it) is reported as missing,
never as zero. A metric of a layer that the workload does not run reads
0, with its call count 0 beside it.
"""

import math
import os

from .tracer import Hook


def _observe_alternating(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("rounds", result[2])
    elif hasattr(exc, "rounds"):  # NoConvergence: the caller falls back
        stats.add("rounds", exc.rounds)
        stats.add("fallbacks", 1)
        stats.add("fallback_rounds", exc.rounds)


def _observe_asf_search(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("outer_rounds", result[3])
        stats.add("certified", int(bool(result[2])))


def _observe_minimize(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("nfev", int(result.nfev))


def _observe_run_flow(stats, result, exc, args, kwargs):
    if exc is None:
        trace = result[1]
        stats.add("steps", trace.final_index)
        stats.add("converged", int(trace.termination == "converged"))


def _observe_read(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("bytes", os.path.getsize(args[0]))


def _observe_write(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("bytes", os.path.getsize(args[1]))


def _observe_csv(stats, result, exc, args, kwargs):
    if exc is None:
        stats.add("bytes", len(result.encode("utf-8")))


HOOKS = (
    Hook("spectral.sym_eig", "framelab.spectral.sym_eig"),
    Hook("frames.analyze_frame", "framelab.frames.analyze_frame"),
    Hook("frames.closest_parseval", "framelab.frames.closest_parseval"),
    Hook("lab.generate_instance", "framelab.lab.generate_instance",
         span=True),
    Hook("lab.nearest_enp_alternating",
         "framelab.lab.nearest_enp_alternating", span=True,
         observe=_observe_alternating),
    Hook("lab.nearest_enp_asf_search", "framelab.lab.nearest_enp_asf_search",
         span=True, observe=_observe_asf_search),
    Hook("lab.minimize", "framelab.lab.minimize", span=True,
         observe=_observe_minimize),
    Hook("asf.pnorm", "framelab.asf.pnorm"),
    Hook("asf.analyze_asf", "framelab.asf.analyze_asf"),
    Hook("asf.asf_dist", "framelab.asf.asf_dist"),
    Hook("flow.run_flow", "framelab.flow.run_flow", span=True,
         observe=_observe_run_flow),
    Hook("projections.certify_projection",
         "framelab.projections.certify_projection"),
    Hook("projections.balance_epsilon_banach",
         "framelab.projections.balance_epsilon_banach"),
    Hook("projections.chordal_distance",
         "framelab.projections.chordal_distance"),
    Hook("projections.projection_pair_distance",
         "framelab.projections.projection_pair_distance"),
    *(Hook("documents.read", f"framelab.documents.read_{kind}_doc",
           observe=_observe_read)
      for kind in ("frame", "asf", "projection", "auerbach")),
    *(Hook("documents.write", f"framelab.documents.write_{kind}_doc",
           observe=_observe_write)
      for kind in ("frame", "asf", "projection", "auerbach")),
    Hook("documents.sweep_csv_text", "framelab.documents.sweep_csv_text",
         span=True, observe=_observe_csv),
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _calls(group):
    return lambda t: t.stats[group].calls


def _extra(group, key):
    return lambda t: t.stats[group].extra.get(key, 0)


def _self_s(group):
    return lambda t: t.stats[group].self_s


def _per_call(group, scale=1e6):
    return lambda t: _ratio(t.stats[group].total_s, t.stats[group].calls,
                            scale)


def _per_extra(group, key, scale):
    return lambda t: _ratio(t.stats[group].total_s,
                            t.stats[group].extra.get(key, 0), scale)


def _attempts_per_instance(t):
    """analyze_* calls made inside generate_instance, per instance."""
    inner = t.kernels_by_parent().get(GEN, {})
    attempts = sum(inner.get(k, (0,))[0]
                   for k in (FRAME, "asf.analyze_asf"))
    return _ratio(attempts, t.stats[GEN].calls)


def _fallback_round_share(t):
    ex = t.stats[ALT].extra
    return _ratio(ex.get("fallback_rounds", 0), ex.get("rounds", 0))


EIG = "spectral.sym_eig"
FRAME = "frames.analyze_frame"
PARSEVAL = "frames.closest_parseval"
GEN = "lab.generate_instance"
ALT = "lab.nearest_enp_alternating"
SEARCH = "lab.nearest_enp_asf_search"
MIN = "lab.minimize"
PNORM = "asf.pnorm"
FLOW = "flow.run_flow"
READ = "documents.read"
WRITE = "documents.write"
CSV = "documents.sweep_csv_text"

# name -> (the hook group it belongs to, unit, value(tracer)); the metric
# is missing when that group could not be hooked.
LAYER_METRICS = {
    f"{EIG}.calls": (EIG, "count", _calls(EIG)),
    f"{EIG}.us_per_call": (EIG, "us", _per_call(EIG)),
    f"{FRAME}.calls": (FRAME, "count", _calls(FRAME)),
    f"{FRAME}.us_per_call": (FRAME, "us", _per_call(FRAME)),
    f"{PARSEVAL}.us_per_call": (PARSEVAL, "us", _per_call(PARSEVAL)),
    f"{GEN}.calls": (GEN, "count", _calls(GEN)),
    f"{GEN}.self_s": (GEN, "s", _self_s(GEN)),
    f"{GEN}.attempts_per_instance": (GEN, "ratio", _attempts_per_instance),
    f"{ALT}.calls": (ALT, "count", _calls(ALT)),
    f"{ALT}.self_s": (ALT, "s", _self_s(ALT)),
    f"{ALT}.rounds": (ALT, "count", _extra(ALT, "rounds")),
    f"{ALT}.us_per_round": (ALT, "us", _per_extra(ALT, "rounds", 1e6)),
    f"{ALT}.fallbacks": (ALT, "count", _extra(ALT, "fallbacks")),
    f"{ALT}.fallback_round_share": (ALT, "ratio", _fallback_round_share),
    f"{SEARCH}.calls": (SEARCH, "count", _calls(SEARCH)),
    f"{SEARCH}.self_s": (SEARCH, "s", _self_s(SEARCH)),
    f"{SEARCH}.outer_rounds": (SEARCH, "count",
                               _extra(SEARCH, "outer_rounds")),
    f"{SEARCH}.certified": (SEARCH, "count", _extra(SEARCH, "certified")),
    f"{MIN}.calls": (MIN, "count", _calls(MIN)),
    f"{MIN}.nfev": (MIN, "count", _extra(MIN, "nfev")),
    f"{MIN}.ms_per_fev": (MIN, "ms", _per_extra(MIN, "nfev", 1e3)),
    f"{PNORM}.calls": (PNORM, "count", _calls(PNORM)),
    f"{PNORM}.self_s": (PNORM, "s", _self_s(PNORM)),
    **{f"{g}.us_per_call": (g, "us", _per_call(g))
       for g in ("asf.analyze_asf", "asf.asf_dist")},
    f"{FLOW}.calls": (FLOW, "count", _calls(FLOW)),
    f"{FLOW}.steps": (FLOW, "count", _extra(FLOW, "steps")),
    f"{FLOW}.us_per_step": (FLOW, "us", _per_extra(FLOW, "steps", 1e6)),
    f"{FLOW}.converged": (FLOW, "count", _extra(FLOW, "converged")),
    **{f"projections.{fn}.us_per_call": (
        f"projections.{fn}", "us", _per_call(f"projections.{fn}"))
       for fn in ("certify_projection", "balance_epsilon_banach",
                  "chordal_distance", "projection_pair_distance")},
    f"{READ}.us_per_call": (READ, "us", _per_call(READ)),
    f"{WRITE}.us_per_call": (WRITE, "us", _per_call(WRITE)),
    "documents.bytes_read": (READ, "bytes", _extra(READ, "bytes")),
    "documents.bytes_written": (WRITE, "bytes", _extra(WRITE, "bytes")),
    f"{CSV}.s": (CSV, "s", lambda t: t.stats[CSV].total_s),
    f"{CSV}.bytes": (CSV, "bytes", _extra(CSV, "bytes")),
}

# Workload-level outcomes that only make sense beside the trace: reported
# by the traced run, computed the same way as in the untraced one.
OUTCOME_METRICS = {
    "fail_frac": "ratio",
    "dist_ratio_mean": "ratio",
    "traced.ops_per_s": "ops/s",
}


def layer_metrics(tracer):
    """(metrics, missing): every layer metric whose hooks were installed."""
    gone = set(tracer.missing_groups)
    metrics, missing = {}, []
    for name, (group, unit, value) in LAYER_METRICS.items():
        if group in gone:
            missing.append(name)
            continue
        v = float(value(tracer))
        if not math.isfinite(v):
            raise ValueError(f"layer metric {name} is {v}")
        metrics[name] = {"value": v, "unit": unit}
    return metrics, missing
