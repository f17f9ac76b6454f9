"""Run the unit-sphere tightening flow on a perturbed tight frame.

Starts from a harmonic equal-norm tight frame scaled to unit rows,
kicks it with gaussian noise of size delta, renormalizes, and iterates
the rotation update until the tightness defect reaches the stop level.
Prints a short trace and the frame-operator displacement |S_end - S_0|_F.
"""

import argparse
import math
import os
import sys

# one BLAS thread for these tiny matrices, unless the caller chose
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from framelab import (  # noqa: E402
    FlowConfig,
    Frame,
    generate,
    run_flow,
    write_flow_trace_csv,
)


def perturbed_unit_frame(d, n, delta, seed):
    rng = np.random.default_rng(seed)
    v = generate("harmonic", d=d, n=n).vectors * math.sqrt(n / d)
    v = v + delta * rng.standard_normal(v.shape)
    return Frame(v / np.linalg.norm(v, axis=1)[:, None])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--delta", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t", type=float, default=None,
                    help="step size, default 1/(4n)")
    ap.add_argument("--stop", type=float, default=1e-6)
    ap.add_argument("--renorm-every", type=int, default=25)
    ap.add_argument("--trace", default=None, help="write per-iteration CSV")
    args = ap.parse_args(argv)

    if math.gcd(args.d, args.n) != 1:
        print("warning: gcd(d, n) > 1, the flow limit need not be tight",
              file=sys.stderr)
    frame = perturbed_unit_frame(args.d, args.n, args.delta, args.seed)
    t = args.t if args.t is not None else 1.0 / (4 * args.n)
    config = FlowConfig(step_t=t, stop_defect=args.stop,
                        renorm_every=args.renorm_every)
    final, trace = run_flow(frame, config)

    iters = range(trace.final_index + 1)
    for k in sorted({*iters[:3], *iters[-3:]}):
        print(f"iter {k:6d}  defect {trace.unit_defect_hs[k]:.3e}  "
              f"potential {trace.frame_potential[k]:.9f}  "
              f"tangent {trace.max_tangent_norm[k]:.3e}")
    print(f"termination: {trace.termination} after {trace.final_index} "
          f"iterations")
    print(f"potential target n^2/d = {args.n ** 2 / args.d:.9f}")
    print(f"displacement {trace.displacement_hs:.6e}")
    print(f"final norms spread "
          f"{np.ptp(np.linalg.norm(final.vectors, axis=1)):.3e}")
    if args.trace:
        write_flow_trace_csv(trace, args.trace)
        print(f"trace -> {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
