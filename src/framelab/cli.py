"""Command line driver.

Exit codes: 0 success, 1 domain error (message on standard error),
2 usage error. A flow step size outside its admissible interval counts as
usage, matching the hypothesis gate of the update rule.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .asf import analyze_asf
from .documents import (
    frame_doc_text,
    read_asf_doc,
    read_auerbach_doc,
    read_frame_doc,
    read_projection_doc,
    write_flow_trace_csv,
    write_frame_doc,
    write_sweep_csv,
)
from .errors import FrameLabError, StepTooLarge
from .flow import FlowConfig, run_flow
from .frames import analyze_frame, closest_equal_norm, closest_parseval, \
    naimark_complement
from .lab import (
    InstanceSpec,
    default_certify_tol,
    estimate_paulsen,
    pair_error,
    record_to_row,
)
from .projections import balance_epsilon_banach, certify_projection, \
    chordal_distance


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _print_json(doc):
    print(json.dumps({k: _jsonable(v) for k, v in doc.items()}, indent=2))


def _report_fields(rep):
    """A report dataclass's fields, in declaration order."""
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}


def _cmd_check(args):
    rep = analyze_frame(read_frame_doc(args.file))
    fields = _report_fields(rep)
    _print_json({"frame_bounds": fields.pop("frame_bounds"),
                 "is_frame": rep.is_frame, **fields})
    return 0


def _cmd_nearest_parseval(args):
    frame = read_frame_doc(args.file)
    out, dist_sq = closest_parseval(frame)
    if args.out:
        write_frame_doc(out, args.out)
    print(repr(dist_sq))
    return 0


def _cmd_nearest_equalnorm(args):
    frame = read_frame_doc(args.file)
    out, dist_sq = closest_equal_norm(frame, target=args.target)
    if args.out:
        write_frame_doc(out, args.out)
    print(repr(dist_sq))
    return 0


def _cmd_flow(args):
    frame = read_frame_doc(args.file)
    config = FlowConfig(step_t=args.t, max_iters=args.max_iters,
                        stop_defect=args.stop,
                        renorm_every=args.renorm_every)
    final, trace = run_flow(frame, config)
    if args.trace:
        write_flow_trace_csv(trace, args.trace)
    _print_json({
        "termination": trace.termination,
        "iterations": trace.final_index,
        "unit_defect_hs": trace.unit_defect_hs[-1],
        "frame_potential": trace.frame_potential[-1],
        "max_tangent_norm": trace.max_tangent_norm[-1],
        "displacement_hs": trace.displacement_hs,
    })
    if args.out:
        write_frame_doc(final, args.out)
    return 0


def _cmd_naimark(args):
    frame = read_frame_doc(args.file)
    comp = naimark_complement(frame)
    if args.out:
        write_frame_doc(comp, args.out)
    else:
        print(frame_doc_text(comp), end="")
    return 0


def _cmd_chordal(args):
    p = certify_projection(read_projection_doc(args.p_file))
    q = certify_projection(read_projection_doc(args.q_file))
    print(repr(chordal_distance(p, q)))
    return 0


def _cmd_asf_check(args):
    asf = read_asf_doc(args.file)
    _print_json(_report_fields(analyze_asf(asf, tol=default_certify_tol())))
    return 0


def _cmd_projection_balance(args):
    proj = certify_projection(read_projection_doc(args.p_file))
    sys_doc = read_auerbach_doc(args.system)
    bal = balance_epsilon_banach(proj, sys_doc, tol=default_certify_tol())
    _print_json({
        "rank": proj.rank,
        "eps": bal.eps,
        "chain_defect": bal.chain_defect,
        "failures": [msg for _, msg in bal.failures],
    })
    return 0


def _cmd_estimate(args):
    pairs = [(d, n) for d in args.d for n in args.n
             if pair_error(args.kind, d, n) is None]
    # with no pair left, the first one raises InstanceSpec's error for it
    grid = [InstanceSpec(kind=args.kind, d=d, n=n, epsilon_target=eps,
                         p=p, seed=args.seed)
            for d, n in pairs or [(args.d[0], args.n[0])]
            for p in args.p
            for eps in args.eps]
    records, summary = estimate_paulsen(grid, trials=args.trials)
    write_sweep_csv([record_to_row(r) for r in records], args.out)
    for row in summary:
        print(f"d={row.d} n={row.n} p={row.p:g} eps={row.eps_target:g} "
              f"records={row.records} certified={row.frac_certified:.2f} "
              f"max={row.max_dist_sq:.6g} mean={row.mean_dist_sq:.6g} "
              f"median={row.median_dist_sq:.6g} "
              f"ratio_hm={row.max_ratio_hm:.3e} "
              f"ratio_bc={row.max_ratio_bc:.3e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Numerical laboratory for the Paulsen and projection "
                    "problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="analyze a frame document")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_near = sub.add_parser("nearest", help="closest-point maps")
    near_sub = p_near.add_subparsers(dest="target_set", required=True)
    p_np = near_sub.add_parser("parseval")
    p_np.add_argument("file")
    p_np.add_argument("--out")
    p_np.set_defaults(func=_cmd_nearest_parseval)
    p_ne = near_sub.add_parser("equalnorm")
    p_ne.add_argument("file")
    p_ne.add_argument("--target", type=float, default=None)
    p_ne.add_argument("--out")
    p_ne.set_defaults(func=_cmd_nearest_equalnorm)

    p_flow = sub.add_parser("flow", help="run the unit-sphere tightening flow")
    p_flow.add_argument("file")
    p_flow.add_argument("--t", type=float, required=True)
    p_flow.add_argument("--max-iters", type=int, default=FlowConfig.max_iters)
    p_flow.add_argument("--stop", type=float, default=FlowConfig.stop_defect)
    p_flow.add_argument("--trace")
    p_flow.add_argument("--renorm-every", type=int,
                        default=FlowConfig.renorm_every)
    p_flow.add_argument("--out")
    p_flow.set_defaults(func=_cmd_flow)

    p_nai = sub.add_parser("naimark", help="Parseval complement")
    p_nai.add_argument("file")
    p_nai.add_argument("--out")
    p_nai.set_defaults(func=_cmd_naimark)

    p_ch = sub.add_parser("chordal", help="chordal distance of projections")
    p_ch.add_argument("p_file")
    p_ch.add_argument("q_file")
    p_ch.set_defaults(func=_cmd_chordal)

    p_asf = sub.add_parser("asf", help="Banach-side operations")
    asf_sub = p_asf.add_subparsers(dest="asf_command", required=True)
    p_ac = asf_sub.add_parser("check")
    p_ac.add_argument("file")
    p_ac.set_defaults(func=_cmd_asf_check)

    p_proj = sub.add_parser("projection", help="projection-problem checks")
    proj_sub = p_proj.add_subparsers(dest="projection_command", required=True)
    p_pb = proj_sub.add_parser("balance")
    p_pb.add_argument("p_file")
    p_pb.add_argument("--system", required=True)
    p_pb.set_defaults(func=_cmd_projection_balance)

    p_est = sub.add_parser(
        "estimate", help="run a sweep over a (d, n, p, eps) grid, skipping "
                         "pairs with n < d or n = 1, and for perturbed_asf "
                         "pairs where d does not divide n")
    p_est.add_argument("--d", type=int, nargs="+", required=True)
    p_est.add_argument("--n", type=int, nargs="+", required=True)
    p_est.add_argument("--eps", type=float, nargs="+", required=True)
    p_est.add_argument("--p", type=float, nargs="+", default=[InstanceSpec.p])
    p_est.add_argument("--kind", default="perturbed_enp")
    p_est.add_argument("--trials", type=int, required=True)
    p_est.add_argument("--seed", type=int, default=InstanceSpec.seed)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=_cmd_estimate)

    return parser


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # pnorm recomputes the rows whose power sums overflow by scaling,
        # so numpy's overflow warnings there are noise on stderr
        with np.errstate(over="ignore"):
            return args.func(args)
    except StepTooLarge as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FrameLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
