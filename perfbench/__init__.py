"""The repository benchmark: seeded workloads, end-to-end metrics, layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload replicated-sweep --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
