"""Probe the nearest equal-norm Parseval search on l^p Schauder frames.

Generates chain-consistent perturbed instances at each requested
exponent, runs the penalized smooth search, and tabulates certification,
distance, and the distance back to the generating base (a feasible
competitor, so reported distances are upper bounds either way).
"""

import argparse
import os
import sys
import time

# one BLAS thread for these tiny matrices, unless the caller chose
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from framelab import (  # noqa: E402
    InstanceSpec,
    analyze_asf,
    generate_instance,
    nearest_enp_asf_search,
)


def probe(p, d, n, eps, trials, seed_base, certify_tol):
    rows = []
    for i in range(trials):
        spec = InstanceSpec(kind="perturbed_asf", d=d, n=n,
                            epsilon_target=eps, p=p, seed=seed_base + i)
        bundle = generate_instance(spec)
        t0 = time.perf_counter()
        out, dist_sq, certified, rounds = nearest_enp_asf_search(
            bundle.instance, certify_tol=certify_tol)
        dt = time.perf_counter() - t0
        rep = analyze_asf(out, tol=certify_tol)
        rows.append((spec.seed, certified, dist_sq, bundle.base_dist_sq,
                     rep.norm_triple_defect, rounds, dt))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--certify-tol", type=float, default=1e-6)
    args = ap.parse_args(argv)

    for p in args.p:
        print(f"p = {p:g}  (d = {args.d}, n = {args.n}, "
              f"eps = {args.eps:g})")
        rows = probe(p, args.d, args.n, args.eps, args.trials, args.seed,
                     args.certify_tol)
        for seed, cert, ds, base_ds, defect, rounds, dt in rows:
            tag = "certified" if cert else "UNCERTIFIED"
            print(f"  seed {seed:4d}  {tag:11s}  dist_sq {ds:.6e}  "
                  f"base {base_ds:.6e}  chain {defect:.1e}  "
                  f"rounds {rounds:3d}  {dt:5.1f} s")
        n_cert = sum(1 for r in rows if r[1])
        print(f"  {n_cert}/{len(rows)} certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
