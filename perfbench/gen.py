"""Seeded input generation: every spec the benchmark sends is built here.

Each generator is a pure function of the workload seed (and a repetition
index), so the same seed yields the identical spec list and a different
seed a different one.  Specs are plain JSON-able dicts in the
``repro.runner.spec_from_dict`` wire format — exactly what a user writes to
a spec file or POSTs to the daemon — and carry nothing that names the
workload they belong to.
"""

from __future__ import annotations

import random
from typing import Iterator

# replicated-sweep(-pool): the paper's replicated-deployment use.  Four
# deterministic loop strategies on one pinned 12-target / 3-mule layout —
# every cell is eligible for the batched tensor pass.
LOOP_STRATEGIES = ["b-tctp", "sweep", "w-tctp", "b-tctp-cw"]
REPLICATED_LAYOUT_SEED = 42
REPLICATIONS_PER_REP = 25  # 4 strategies x 25 = 100 cells per repetition

# cold-sweep: a fresh ~400-target clustered layout per repetition, with
# VIPs, a recharge station and energy tracking — the batch layer declines
# every cell, so planning and the per-cell engine carry the time.
COLD_STRATEGIES = ["b-tctp", "w-tctp", "rw-tctp", "chb", "sweep", "staggered-chb", "random"]
COLD_REPLICATIONS_PER_REP = 1  # 7 strategies on one fresh layout per repetition
COLD_SCENARIO = {
    "num_targets": 400,
    "num_mules": 4,
    "num_clusters": 8,
    "num_vips": 20,
    "with_recharge_station": True,
    "mule_battery": 200_000.0,
}

# service-mixed: small cells so request overheads are visible.
SERVICE_STRATEGIES = ["b-tctp", "w-tctp", "chb", "sweep"]
SERVICE_HOT_SET = 8
# Hits take ~5 ms and fresh runs ~20 ms; with fewer than half the requests
# hits, the median falls inside the fresh-run cluster instead of on the
# boundary between the two, where a small shift in the mix would move it.
SERVICE_MIX = (("hit", 0.4), ("fresh_run", 0.45), ("campaign", 0.15))


def _rng(seed: int, *tags: object) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # interpreter runs regardless of PYTHONHASHSEED.
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def replicated_campaign(seed: int, rep: int) -> dict:
    """One repetition of the replicated sweep: 100 cells on the pinned layout."""
    return {
        "kind": "campaign",
        "base": {
            "strategy": LOOP_STRATEGIES[0],
            "scenario": {
                "family": "uniform",
                "params": {"num_targets": 12, "num_mules": 3},
                "seed": REPLICATED_LAYOUT_SEED,
            },
            "sim": {"horizon": 50_000.0, "track_energy": False},
            "seed": _rng(seed, "replicated", rep).randrange(1, 10**9),
        },
        "grid": {"strategy": list(LOOP_STRATEGIES)},
        "replications": REPLICATIONS_PER_REP,
    }


def cold_campaign(seed: int, rep: int) -> dict:
    """One repetition of the cold sweep: every strategy on one fresh layout."""
    rng = _rng(seed, "cold", rep)
    return {
        "kind": "campaign",
        "base": {
            "strategy": COLD_STRATEGIES[0],
            "scenario": {"family": "clustered", "params": dict(COLD_SCENARIO)},
            "sim": {"horizon": 50_000.0, "track_energy": True},
            # No pinned scenario seed: the layout follows the replication
            # seed, so each repetition generates its own layout.
            "seed": rng.randrange(1, 10**9),
        },
        "grid": {"strategy": list(COLD_STRATEGIES)},
        "replications": COLD_REPLICATIONS_PER_REP,
    }


def _service_run(strategy: str, layout_seed: int, seed: int) -> dict:
    return {
        "kind": "run",
        "strategy": strategy,
        "scenario": {
            "family": "uniform",
            "params": {"num_targets": 12, "num_mules": 2},
            "seed": layout_seed,
        },
        "sim": {"horizon": 20_000.0, "track_energy": False},
        "seed": seed,
    }


def service_hot_set(seed: int) -> list[dict]:
    """The small set of run specs the service workload requests repeatedly."""
    rng = _rng(seed, "service-hot")
    return [
        _service_run(SERVICE_STRATEGIES[i % len(SERVICE_STRATEGIES)],
                     rng.randrange(1, 10**6), rng.randrange(1, 10**9))
        for i in range(SERVICE_HOT_SET)
    ]


def service_requests(seed: int, rep: int) -> Iterator[tuple[str, str, dict]]:
    """Endless seeded request script ``(kind, path, body)`` for one daemon.

    ``kind`` is ``hit`` (a hot-set run, served from the store once primed),
    ``fresh_run`` (a run never requested before, executed then stored) or
    ``campaign`` (a small fresh campaign of four cells).
    """
    rng = _rng(seed, "service", rep)
    hot = service_hot_set(seed)
    kinds = [k for k, _ in SERVICE_MIX]
    weights = [w for _, w in SERVICE_MIX]
    counter = 0
    while True:
        counter += 1
        kind = rng.choices(kinds, weights)[0]
        # The counter keeps fresh specs distinct from each other and from
        # the hot set even when the RNG repeats a draw.
        fresh_seed = 10**9 + counter * 1000 + rng.randrange(1000)
        if kind == "hit":
            yield kind, "/runs", hot[rng.randrange(len(hot))]
        elif kind == "fresh_run":
            strategy = SERVICE_STRATEGIES[rng.randrange(len(SERVICE_STRATEGIES))]
            yield kind, "/runs", _service_run(strategy, rng.randrange(1, 10**6), fresh_seed)
        else:
            base = _service_run(SERVICE_STRATEGIES[0], rng.randrange(1, 10**6), fresh_seed)
            base.pop("kind")
            yield kind, "/campaigns", {
                "kind": "campaign",
                "base": base,
                "grid": {"strategy": rng.sample(SERVICE_STRATEGIES, 2)},
                "replications": 2,
            }
