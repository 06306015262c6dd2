"""Regenerate ``BENCH_PR5.json``: warm-resume speedup of the persistent result store.

Runs the campaign benchmark workload (the two-strategy, three-replication
quick campaign of ``benchmarks/test_bench_campaign.py``) against a temporary
:class:`repro.store.ResultStore` in two configurations:

* **cold** — the store and the in-process content caches are cleared
  before every round, so every cell fingerprints, misses, simulates and
  writes back (a cold resumable run);
* **warm** — the store is fully populated, so every cell is served from the
  cache and **zero cells execute**.

Before any timing, the byte-identity guarantee is asserted: the warm-resumed
records must serialise identically to the cold run's (and to a store-less
run), and the warm run must report zero misses.  The headline number is
``cold.median_s / warm.median_s`` — expected well above the 5x floor, since
a warm resume does no simulation at all.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_pr5.py [--out BENCH_PR5.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time

from repro import __version__
from repro.experiments import ExperimentSettings
from repro.geometry.cache import clear_caches
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.sim.engine import SimulationConfig
from repro.store import ResultStore

MIN_EXPECTED_SPEEDUP = 5.0


def campaign_spec() -> CampaignSpec:
    settings = ExperimentSettings.quick(replications=3, horizon=25_000.0,
                                        num_targets=12, num_mules=3)
    return CampaignSpec(
        base=RunSpec(
            strategy="b-tctp",
            scenario=settings.scenario_config(),
            sim=SimulationConfig(horizon=settings.horizon, track_energy=False),
            seed=settings.base_seed,
        ),
        grid={"strategy": ["chb", "b-tctp"]},
        replications=settings.replications,
    )


def timeit(fn, *, warmup: int = 2, rounds: int = 25) -> dict:
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
    parser.add_argument("--out", default="BENCH_PR5.json")
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args()

    spec = campaign_spec()
    store = ResultStore(tempfile.mkdtemp(prefix="repro-bench-store-"))

    # Byte-identity first: store-less, cold-through-store and warm-resumed
    # records must all serialise identically, and the warm run must not
    # execute a single cell.
    plain = Campaign(spec).run(store=False)
    cold = Campaign(spec).run(store=store)
    warm = Campaign(spec).run(store=store)
    num_cells = len(spec.cells())
    if warm.metadata["store"]["misses"] != 0 or warm.metadata["store"]["hits"] != num_cells:
        raise SystemExit(f"warm resume executed cells: {warm.metadata['store']}")
    payloads = [json.dumps(r.records, sort_keys=True, allow_nan=True)
                for r in (plain, cold, warm)]
    identical = payloads[0] == payloads[1] == payloads[2]
    if not identical:
        raise SystemExit("records diverged between store-less, cold and warm runs")

    def run_cold():
        # Else every round after the first answers its cells from the batch's
        # cached entries, and the leg times little but the store's commits.
        store.clear()
        clear_caches()
        Campaign(spec).run(store=store)

    def run_warm():
        Campaign(spec).run(store=store)

    cold_timing = timeit(run_cold, rounds=args.rounds)
    Campaign(spec).run(store=store)  # repopulate after the last clear
    warm_timing = timeit(run_warm, rounds=args.rounds)
    speedup = cold_timing["median_s"] / warm_timing["median_s"]
    if speedup < MIN_EXPECTED_SPEEDUP:
        raise SystemExit(
            f"warm-resume speedup {speedup:.2f}x below the {MIN_EXPECTED_SPEEDUP}x floor"
        )

    payload = {
        "benchmark": "benchmarks/test_bench_campaign.py workload through a ResultStore",
        "workload": {
            "strategies": ["chb", "b-tctp"],
            "replications": 3,
            "num_targets": 12,
            "num_mules": 3,
            "horizon": 25_000.0,
            "num_cells": num_cells,
        },
        "cold": {
            "description": "store and content caches cleared per round: "
                           "fingerprint + simulate + write-back",
            **cold_timing,
        },
        "warm": {
            "description": "fully populated store: every cell served from disk, 0 executed",
            **warm_timing,
        },
        "speedup_median": speedup,
        "min_expected_speedup": MIN_EXPECTED_SPEEDUP,
        "records_byte_identical": identical,
        "warm_misses": warm.metadata["store"]["misses"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "library_version": __version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"warm-resume speedup (median): {speedup:.1f}x -> {args.out}")


if __name__ == "__main__":
    main()
