"""Regenerate ``BENCH_PR8.json``: batched-fastpath speedup + shard/merge parity.

Times a fastpath-eligible campaign sweep (four deterministic loop strategies
on a pinned 12-target / 3-mule layout, replicated out to ``--cells`` cells)
twice:

* **baseline** — ``repro.sim.batchpath`` disabled: every cell dispatches
  through the per-cell scalar fast path, exactly the PR 3 execution model;
* **optimized** — the default configuration: the batched pass answers each
  eligible cell from the reduction cached for its row key, reducing a row
  key's summed rows straight to metrics on its first miss.

Before any number is written the harness asserts byte identity three ways:
batched vs per-cell dispatch on the full workload, batched vs the
discrete-event loop (``fast_path=False``) on a subset, and a 2-way
shard split run through ``make_manifest``/``run_shard``/``merge_from``
against the unsharded records.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_pr8.py [--out BENCH_PR8.json]
        [--cells 10000] [--rounds 3]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.geometry.cache import clear_caches
from repro.runner import execute_many
from repro.runner.campaign import _json_sanitize
from repro.runner.sharding import make_manifest, run_shard
from repro.runner.spec import spec_from_dict
from repro.sim.batchpath import batchpath_disabled
from repro.store import ResultStore, run_fingerprint

STRATEGIES = ["b-tctp", "sweep", "w-tctp", "b-tctp-cw"]
HORIZON = 50_000.0


def campaign_spec(num_cells: int, *, fast_path: bool = True):
    if num_cells % len(STRATEGIES):
        raise SystemExit(f"--cells must be a multiple of {len(STRATEGIES)}")
    return spec_from_dict({
        "kind": "campaign",
        "base": {
            "scenario": {
                "family": "uniform",
                "params": {"num_targets": 12, "num_mules": 3},
                "seed": 42,
            },
            "strategy": STRATEGIES[0],
            "sim": {
                "horizon": HORIZON,
                "track_energy": False,
                "fast_path": fast_path,
            },
            "seed": 1,
        },
        "grid": {"strategy": STRATEGIES},
        "replications": num_cells // len(STRATEGIES),
    })


def canonical(records) -> str:
    return json.dumps(_json_sanitize(records), sort_keys=True)


def timeit(fn, *, warmup: int = 1, rounds: int = 3) -> dict:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(samples),
        "mean_s": statistics.mean(samples),
        "min_s": min(samples),
        "rounds": rounds,
    }


def assert_shard_merge_parity(num_cells: int) -> bool:
    """2-shard split -> run -> merge; byte-compare against the unsharded run."""
    spec = campaign_spec(num_cells)
    unsharded = canonical(execute_many(spec.cells()))
    manifest = make_manifest(spec, 2)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for index in range(2):
            run_shard(manifest, index, store=tmp_path / f"shard-{index}")
        merged = ResultStore(tmp_path / "merged")
        for index in range(2):
            merged.merge_from(tmp_path / f"shard-{index}")
        merged_records = [
            merged.get(run_fingerprint(cell)) for cell in spec.cells()
        ]
    if any(r is None for r in merged_records):
        raise SystemExit("shard merge lost at least one record")
    if canonical(merged_records) != unsharded:
        raise SystemExit("sharded+merged records diverged from the unsharded run")
    return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR8.json")
    parser.add_argument("--cells", type=int, default=10_000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--event-loop-cells", type=int, default=16,
                        help="subset size for the discrete-event identity leg")
    args = parser.parse_args()

    spec = campaign_spec(args.cells)
    cells = spec.cells()

    # -- identity first: no speed number without byte equality ------------- #
    clear_caches()
    batched = execute_many(cells)
    clear_caches()
    with batchpath_disabled():
        per_cell = execute_many(cells)
    if canonical(batched) != canonical(per_cell):
        raise SystemExit("records diverged between batched and per-cell dispatch")

    event_spec = campaign_spec(
        args.event_loop_cells - args.event_loop_cells % len(STRATEGIES)
        or len(STRATEGIES),
        fast_path=False,
    )
    event_cells = event_spec.cells()
    subset = campaign_spec(len(event_cells)).cells()
    clear_caches()
    if canonical(execute_many(subset)) != canonical(execute_many(event_cells)):
        raise SystemExit("records diverged between batched and event-loop paths")

    shard_parity = assert_shard_merge_parity(len(STRATEGIES) * 6)

    # -- then the timings -------------------------------------------------- #
    def run_baseline():
        with batchpath_disabled():
            execute_many(cells)

    baseline = timeit(run_baseline, rounds=args.rounds)
    optimized = timeit(lambda: execute_many(cells), rounds=args.rounds)

    payload = {
        "benchmark": "batched fastpath tensor pass vs per-cell scalar dispatch",
        "workload": {
            "strategies": STRATEGIES,
            "num_cells": len(cells),
            "num_targets": 12,
            "num_mules": 3,
            "horizon": HORIZON,
            "scenario_seed": 42,
        },
        "baseline": {
            "description": "REPRO_BATCHPATH off: per-cell scalar fast path "
                           "(PR 3 dispatch model)",
            **baseline,
        },
        "optimized": {
            "description": "batched leg-pattern tensor pass (defaults)",
            **optimized,
        },
        "speedup_median": baseline["median_s"] / optimized["median_s"],
        "records_byte_identical": True,
        "event_loop_subset_byte_identical": True,
        "shard_merge_byte_identical": shard_parity,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "library_version": __version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"speedup (median): {payload['speedup_median']:.2f}x -> {args.out}")


if __name__ == "__main__":
    main()
