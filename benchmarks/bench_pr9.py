"""Regenerate ``BENCH_PR9.json``: vectorized planning-kernel speedup + identity.

Times the planning hot loops (convex-hull cheapest insertion, 2-opt, Or-opt,
nearest neighbour) at increasing target counts twice:

* **baseline** — the original scalar Python loops, the planning model
  before the kernels, frozen in ``tests/planning_reference.py`` and swapped
  in by its ``reference_planning()``;
* **optimized** — the library: the NumPy delta-matrix kernels of
  ``repro.planning.kernels``.

Before any number is written the harness asserts byte identity three ways:

1. every golden strategy call, re-planned with the kernels, must
   serialize byte-equal to ``tests/golden/pr4_plans.json``;
2. >= 200 fuzzed planning specs must produce byte-equal serialized plans
   with the kernels and with the reference loops (caches cleared between
   legs);
3. at every timed grid size that has a scalar baseline, the reference and
   kernel tours must match node for node, and so must the reference and
   kernel hull-insertion tours of a lattice-snapped layout with duplicate
   points (untimed), so identity at scale is also checked where cost ties
   are exact.

The scalar cheapest-insertion loop is O(n^3) Python, so the baseline is only
timed up to ``--scalar-cap`` targets (single round); the vector kernels are
timed across the whole grid.  The >= ``--min-speedup`` floor is asserted at
the largest scalar-measured size.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_pr9.py [--out BENCH_PR9.json]
        [--grid 500,1000,2000] [--scalar-cap 1000] [--rounds 3]
        [--fuzz-cases 200] [--min-speedup 5.0]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# plan_golden and planning_reference live in tests/ (shared with the pytest
# suite).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from plan_golden import golden_scenarios, serialize_plan  # noqa: E402
from planning_reference import reference_planning  # noqa: E402

from repro import __version__  # noqa: E402
from repro.baselines.base import get_strategy, strategy_params  # noqa: E402
from repro.geometry.cache import caching_disabled, clear_caches  # noqa: E402
from repro.geometry.point import Point  # noqa: E402
from repro.graphs import hamiltonian, improve  # noqa: E402
from repro.scenarios import ScenarioSpec  # noqa: E402

GOLDEN_PLANS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "pr4_plans.json"

FAMILIES = ["uniform", "grid-jitter", "clustered", "ring"]
STRATEGIES = [
    "b-tctp", "w-tctp", "chb", "sweep", "random",
    "b-tctp-cw", "sw-tctp", "cb-tctp", "staggered-chb",
]


def timeit(fn, *, warmup: int = 1, rounds: int = 3) -> dict:
    for _ in range(warmup):
        fn()
    samples = []
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(samples),
        "mean_s": statistics.mean(samples),
        "min_s": min(samples),
        "rounds": rounds,
        "result": result,
    }


# -- identity legs --------------------------------------------------------- #

def assert_golden_identity() -> int:
    """Re-plan every golden strategy call with the kernels; compare to disk."""
    golden = json.loads(GOLDEN_PLANS.read_text())
    scenarios = golden_scenarios()
    for entry in golden:
        clear_caches()
        plan = get_strategy(entry["strategy"], **entry["kwargs"]).plan(
            scenarios[entry["scenario"]].fresh_copy()
        )
        got = json.dumps(serialize_plan(plan), sort_keys=True)
        want = json.dumps(entry["plan"], sort_keys=True)
        if got != want:
            raise SystemExit(
                "golden plan diverged under vector kernels: "
                f"{entry['scenario']}/{entry['strategy']}"
            )
    return len(golden)


def fuzz_case(rng: np.random.Generator) -> tuple[str, object, dict]:
    strategy = STRATEGIES[int(rng.integers(len(STRATEGIES)))]
    declared = strategy_params(strategy)
    params = {}
    if "tsp_method" in declared:
        params["tsp_method"] = ["hull-insertion", "nearest-neighbor"][int(rng.integers(2))]
    if "improve_tour" in declared:
        params["improve_tour"] = bool(rng.integers(2))
    if "seed" in declared:
        params["seed"] = int(rng.integers(1_000_000))
    scenario = ScenarioSpec(
        FAMILIES[int(rng.integers(len(FAMILIES)))],
        {
            "num_targets": int(rng.integers(4, 40)),
            "num_mules": int(rng.integers(1, 5)),
            "num_vips": int(rng.integers(0, 3)),
        },
        seed=int(rng.integers(1_000)),
    )
    return strategy, scenario, params


def assert_fuzz_identity(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for index in range(cases):
        strategy, scenario, params = fuzz_case(rng)
        build_seed = params.get("seed", 0)
        with reference_planning():
            scalar = serialize_plan(
                get_strategy(strategy, **params).plan(scenario.build(build_seed))
            )
        vector = serialize_plan(
            get_strategy(strategy, **params).plan(scenario.build(build_seed))
        )
        if json.dumps(vector, sort_keys=True) != json.dumps(scalar, sort_keys=True):
            raise SystemExit(
                f"fuzzed plan diverged under vector kernels (case {index}, "
                f"seed {seed}): {strategy} on {scenario.family} "
                f"params={params}"
            )
    return cases


# -- timing leg ------------------------------------------------------------ #

def hull_tour(coords: dict):
    """Hull insertion, looked up where ``reference_planning()`` swaps it."""
    return hamiltonian.TOUR_BUILDERS["hull-insertion"](coords)


def planning_workload(coords: dict, improve_rounds: int):
    """One full planning pass; returns the tour orders for identity checks.

    Every heuristic is looked up at call time, so the same pass times the
    kernels, or the reference loops inside ``reference_planning()``.
    """
    clear_caches()
    with caching_disabled():
        hull = hull_tour(coords)
        improved = improve.two_opt(hull, max_rounds=improve_rounds)
        relocated = improve.or_opt(improved, max_rounds=improve_rounds)
        nn = hamiltonian.nearest_neighbor_tour(coords)
    return [list(t.order) for t in (hull, improved, relocated, nn)]


def grid_coords(n: int) -> dict:
    rng = np.random.default_rng(20260808 + n)
    pts = rng.uniform(0, 10_000, (n, 2))
    return {f"t{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)}


def lattice_coords(n: int) -> dict:
    """Tie-heavy layout: n points on a lattice with at most n/2 sites.

    Integer coordinates make equal costs exactly equal, and with fewer sites
    than points some points are certain to coincide.
    """
    rng = np.random.default_rng(20260809 + n)
    side = max(2, math.isqrt(n // 2))
    pts = rng.integers(0, side, (n, 2)) * (10_000 // side)
    return {f"t{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)}


def assert_lattice_identity(n: int) -> None:
    """Reference and kernel hull-insertion tours of ``lattice_coords(n)`` agree."""
    coords = lattice_coords(n)
    with reference_planning(), caching_disabled():
        scalar = hull_tour(coords)
    with caching_disabled():
        vector = hull_tour(coords)
    if list(vector.order) != list(scalar.order):
        raise SystemExit(f"lattice hull-insertion orders diverged at n={n}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_PR9.json")
    parser.add_argument("--grid", default="500,1000,2000",
                        help="comma-separated target counts to time")
    parser.add_argument("--scalar-cap", type=int, default=1000,
                        help="largest n for which the O(n^3) scalar baseline is timed")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds for the vector kernels")
    parser.add_argument("--improve-rounds", type=int, default=5,
                        help="max_rounds cap for the timed 2-opt/Or-opt passes")
    parser.add_argument("--fuzz-cases", type=int, default=200)
    parser.add_argument("--fuzz-seed", type=int, default=20260808)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="median speedup floor at the largest scalar-timed n")
    args = parser.parse_args()

    # -- identity first: no number is recorded for a divergent kernel ------ #
    golden_count = assert_golden_identity()
    print(f"golden identity: {golden_count} PR 4 plans byte-identical")
    fuzz_count = assert_fuzz_identity(args.fuzz_cases, args.fuzz_seed)
    print(f"fuzz identity: {fuzz_count} seeded specs byte-identical")

    # -- then the timings -------------------------------------------------- #
    grid = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    scales = []
    headline = None
    for n in grid:
        coords = grid_coords(n)
        optimized = timeit(
            lambda: planning_workload(coords, args.improve_rounds),
            rounds=args.rounds,
        )
        entry = {
            "num_targets": n,
            "optimized": {k: v for k, v in optimized.items() if k != "result"},
        }
        if n <= args.scalar_cap:
            def run_scalar():
                with reference_planning():
                    return planning_workload(coords, args.improve_rounds)

            baseline = timeit(run_scalar, warmup=0, rounds=1)
            if baseline["result"] != optimized["result"]:
                raise SystemExit(f"tour orders diverged at n={n}")
            assert_lattice_identity(n)
            entry["baseline"] = {k: v for k, v in baseline.items() if k != "result"}
            entry["speedup_median"] = baseline["median_s"] / optimized["median_s"]
            entry["orders_identical"] = True
            entry["lattice_orders_identical"] = True
            headline = entry
        scales.append(entry)
        speedup = entry.get("speedup_median")
        print(
            f"n={n}: vector {optimized['median_s']:.3f}s"
            + (f", scalar {entry['baseline']['median_s']:.3f}s"
               f" -> {speedup:.1f}x" if speedup else " (scalar not timed)")
        )

    if headline is None:
        raise SystemExit("no grid size <= --scalar-cap; nothing to assert against")
    if headline["speedup_median"] < args.min_speedup:
        raise SystemExit(
            f"speedup {headline['speedup_median']:.2f}x at "
            f"n={headline['num_targets']} is below the "
            f"{args.min_speedup}x floor"
        )

    payload = {
        "benchmark": "vectorized planning kernels vs scalar Python loops",
        "workload": {
            "passes": ["hull-insertion", "two-opt", "or-opt", "nearest-neighbor"],
            "improve_rounds": args.improve_rounds,
            "grid": grid,
            "scalar_cap": args.scalar_cap,
        },
        "scales": scales,
        "speedup_median": headline["speedup_median"],
        "headline_num_targets": headline["num_targets"],
        "golden_plans_byte_identical": True,
        "golden_plan_count": golden_count,
        "fuzzed_plans_byte_identical": True,
        "fuzzed_plan_count": fuzz_count,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "library_version": __version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"speedup (median, n={headline['num_targets']}): "
        f"{payload['speedup_median']:.2f}x -> {args.out}"
    )


if __name__ == "__main__":
    main()
