"""Regenerate ``BENCH_PR10.json``: observability overhead on a batched sweep.

Times a batched fastpath campaign sweep (four deterministic loop strategies
on a pinned 12-target / 3-mule layout, replicated out to ``--cells`` cells)
three ways:

* **baseline** — the instrumentation registry disabled (the default
  configuration: ``inc``/``observe`` return after one flag check and
  ``span`` hands back a shared no-op);
* **instrumented** — the registry enabled (``REPRO_OBS=1``), recording
  dispatch counters, cache counters and spans for every cell;
* the **identity leg** — before any number is written, the harness asserts
  the instrumented records are byte-identical to the baseline records.

The acceptance gate is ``--max-overhead`` (default 3%): the instrumented
median must stay within that factor of the baseline median.  Run from the
repository root::

    PYTHONPATH=src python benchmarks/bench_pr10.py [--out BENCH_PR10.json]
        [--cells 2000] [--rounds 3] [--max-overhead 0.03]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

from repro import __version__
from repro.geometry.cache import clear_caches
from repro.obs import obs_collected, obs_disabled, registry as obs_registry
from repro.runner import execute_many
from repro.runner.campaign import _json_sanitize
from repro.runner.spec import spec_from_dict

STRATEGIES = ["b-tctp", "sweep", "w-tctp", "b-tctp-cw"]
HORIZON = 50_000.0


def campaign_spec(num_cells: int):
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
            "sim": {"horizon": HORIZON, "track_energy": False},
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument("--cells", type=int, default=2_000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--max-overhead", type=float, default=0.03,
                        help="acceptance gate: max instrumented/baseline - 1")
    args = parser.parse_args()

    spec = campaign_spec(args.cells)
    cells = spec.cells()

    # -- identity first: no overhead number without byte equality ---------- #
    clear_caches()
    with obs_disabled():
        plain = execute_many(cells)
    clear_caches()
    obs_registry.reset()
    with obs_collected(enabled=True) as window:
        instrumented = execute_many(cells)
        snapshot = window.snapshot()
    if canonical(plain) != canonical(instrumented):
        raise SystemExit("records diverged with the registry on")
    if not snapshot["counters"]:
        raise SystemExit("registry recorded nothing while enabled")

    # -- then the timings (registry cleared between rounds so the span list
    # cannot grow across samples) ------------------------------------------ #
    def run_baseline():
        with obs_disabled():
            execute_many(cells)

    def run_instrumented():
        obs_registry.reset()
        with obs_collected(enabled=True):
            execute_many(cells)

    baseline = timeit(run_baseline, rounds=args.rounds)
    timed = timeit(run_instrumented, rounds=args.rounds)
    obs_registry.reset()

    overhead = timed["median_s"] / baseline["median_s"] - 1.0
    payload = {
        "benchmark": "instrumentation registry overhead on the batched "
                     "fastpath sweep (bench_pr8 workload)",
        "workload": {
            "strategies": STRATEGIES,
            "num_cells": len(cells),
            "num_targets": 12,
            "num_mules": 3,
            "horizon": HORIZON,
            "scenario_seed": 42,
        },
        "baseline": {
            "description": "registry disabled (default): no-op verbs",
            **baseline,
        },
        "instrumented": {
            "description": "REPRO_OBS=1: counters, histograms and spans on",
            **timed,
        },
        "overhead_median": overhead,
        "max_overhead": args.max_overhead,
        "records_byte_identical": True,
        "counters_recorded": len(snapshot["counters"]),
        "spans_recorded": snapshot["spans"]["recorded"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "library_version": __version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"obs overhead (median): {overhead:+.2%} "
          f"(gate {args.max_overhead:.0%}) -> {args.out}")
    if overhead > args.max_overhead:
        raise SystemExit(
            f"instrumentation overhead {overhead:.2%} exceeds the "
            f"{args.max_overhead:.0%} gate"
        )


if __name__ == "__main__":
    main()
