"""framelab's benchmark: four seeded workloads, end-to-end and per-layer.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; README.md in this directory says
why each workload exists and which layer metric should move which
end-to-end metric.
"""
