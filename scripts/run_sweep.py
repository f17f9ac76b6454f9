"""Sweep the empirical Paulsen function over a (d, n, eps) grid.

Writes one CSV row per (spec, trial) record and prints the per-cell
summary. The defaults reproduce the ceiling-check corpus: all coprime
and non-coprime pairs with d <= 5, n <= 10, four eps levels, 20 trials.
"""

import argparse
import os
import sys
import time

# one BLAS thread for these tiny matrices, unless the caller chose
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from framelab import (  # noqa: E402
    InstanceSpec,
    estimate_paulsen,
    record_to_row,
    write_sweep_csv,
)


def build_grid(d_max, n_max, eps_levels, kind, seed):
    grid = []
    for d in range(2, d_max + 1):
        for n in range(d, n_max + 1):
            for eps in eps_levels:
                grid.append(InstanceSpec(kind=kind, d=d, n=n,
                                         epsilon_target=eps, seed=seed))
    return grid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1, 0.2])
    ap.add_argument("--kind", default="perturbed_enp",
                    choices=["perturbed_enp", "scaled_enp"])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=977)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args(argv)

    grid = build_grid(args.d_max, args.n_max, args.eps, args.kind, args.seed)
    print(f"{len(grid)} grid cells x {args.trials} trials", file=sys.stderr)
    t0 = time.perf_counter()
    records, summary = estimate_paulsen(grid, trials=args.trials)
    elapsed = time.perf_counter() - t0

    write_sweep_csv([record_to_row(r) for r in records], args.out)
    for row in summary:
        print(f"d={row.d} n={row.n} eps={row.eps_target:g} "
              f"certified={row.frac_certified:.2f} "
              f"max={row.max_dist_sq:.3e} median={row.median_dist_sq:.3e} "
              f"ratio_hm={row.max_ratio_hm:.3e}")
    print(f"{len(records)} records in {elapsed:.1f} s -> {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
