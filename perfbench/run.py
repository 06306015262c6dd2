"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` replays a fixed amount of the workload untraced and then with
every layer timed, and reports the per-layer metrics.  Both run the
correctness gate after their timed windows.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

CACHES = ("scenario_prototype", "batch_plan", "batch_rows",
          "hamiltonian_tour", "distance_matrix", "polyline_length")

PER_LAYER = {
    "sim.batchpath.busy_s": "s",
    "sim.batchpath.offered": "count",
    "sim.batchpath.batched": "count",
    "sim.batchpath.batched_ratio": "ratio",
    "planning.plan.calls": "count",
    "planning.plan.busy_s": "s",
    "scenarios.build.calls": "count",
    "scenarios.build.busy_s": "s",
    "sim.engine.fastpath.calls": "count",
    "sim.engine.fastpath.busy_s": "s",
    "sim.engine.event_loop.calls": "count",
    "sim.engine.event_loop.busy_s": "s",
    "sim.metrics.busy_s": "s",
    **{f"geometry.cache.hit_ratio.{cache}": "ratio" for cache in CACHES},
    "runner.pool.first_record_s": "s",
    "runner.pool.ipc_bytes": "bytes",
    "store.get.calls": "count",
    "store.get.p50_ms": "ms",
    "store.put.calls": "count",
    "store.put.p50_ms": "ms",
    "store.fingerprint.busy_s": "s",
    "service.hit.latency_p50_ms": "ms",
    "service.fresh_run.latency_p50_ms": "ms",
    "service.campaign.latency_p50_ms": "ms",
    "service.execute_cell.busy_s": "s",
    "service.executed": "count",
    "service.coalesced": "count",
    "service.store_hits": "count",
    "service.rejected": "count",
    "runner.unattributed_s": "s",
    "runner.layer_coverage": "ratio",
    "trace.overhead": "ratio",
    "latency_samples": "count",
    "error_rate": "ratio",
}

WORKLOADS = ("replicated-sweep", "replicated-sweep-pool", "cold-sweep", "service-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_imports() -> None:
    """Import the program from this checkout's sources, with default switches."""
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {CHECKOUT / 'src'}")
    # The program reads its REPRO_* switches at import; a benchmark run
    # always measures the defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # Import the benchmark as the ``perfbench`` package, never its modules
    # as top-level names from the script's own directory.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (CHECKOUT / "src", CHECKOUT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _run(args, scratch: Path):
    if args.workload == "service-mixed":
        from perfbench import service

        if args.trace:
            return service.run_traced(args.seed, scratch)
        return service.run_untraced(args.seed, args.seconds, scratch)
    from perfbench import sweeps

    if args.trace:
        return sweeps.run_traced(args.workload, args.seed, scratch)
    return sweeps.run_untraced(args.workload, args.seed, args.seconds)


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_imports()
    work_root = CHECKOUT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work_root))
    try:
        outcome = _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    catalog = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        outcome.metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in catalog.items()
    }
    for note in outcome.notes:
        print(f"# {note}")
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
