"""The three campaign-sweep workloads, driven through ``Campaign``.

Every timed repetition is one campaign as a CLI user runs it: caches
cleared first (``clear_caches()``), the spec parsed and expanded, then
``Campaign.run(store=False)`` — store-less, the CLI default.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from perfbench import gen
from perfbench.common import (
    Outcome,
    canonical,
    event_loop_mismatches,
    median,
    peak_rss_mb,
    percentile,
    probe_s,
    speed_factor,
)
from perfbench.layers import Patches, Recorder, instrument_pipeline, layer_metrics

SETUP_REPEATS = 3    # expansions per repetition; setup_s is their median
POOL_CHECK_REPS = 4  # pool campaigns re-run serially by the correctness gate


@dataclasses.dataclass(frozen=True)
class Sweep:
    make_spec: Callable[[int, int], dict]
    workers: "int | None"
    trace_reps: int         # repetitions replayed untraced, then traced
    event_loop_sample: int  # cells re-checked on the discrete-event loop


SWEEPS = {
    "replicated-sweep": Sweep(gen.replicated_campaign, None, trace_reps=16, event_loop_sample=8),
    "replicated-sweep-pool": Sweep(gen.replicated_campaign, 2, trace_reps=4, event_loop_sample=8),
    "cold-sweep": Sweep(gen.cold_campaign, None, trace_reps=4, event_loop_sample=2),
}


@dataclasses.dataclass
class Rep:
    spec: dict
    num_cells: int
    records: "list[str] | None"  # canonical JSON; strings keep GC work flat
    setup_s: float
    wall_s: float                # expansion of the executed campaign + its run
    first_record_s: float

    def cells(self) -> list:
        from repro.runner import Campaign, spec_from_dict

        return Campaign(spec_from_dict(self.spec)).cells()


def _run_rep(sweep: Sweep, spec_dict: dict, recorder: "Recorder | None" = None) -> Rep:
    from repro.geometry.cache import clear_caches
    from repro.runner import Campaign, spec_from_dict

    clear_caches()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        campaign = Campaign(spec_from_dict(spec_dict), max_workers=sweep.workers)
        cells = campaign.cells()
        setups.append(time.perf_counter() - start)
    first: list[float] = []
    start = time.perf_counter()

    def on_record(_index, _record):
        if not first:
            first.append(time.perf_counter() - start)

    run = campaign.run
    if recorder is not None:
        run = recorder.timed("runner.run", run)
    try:
        records = run(store=False, on_record=on_record).records
    except Exception as exc:  # a failed campaign counts as failed cells
        print(f"campaign raised {type(exc).__name__}: {exc}", file=sys.stderr)
        records = None
    wall = time.perf_counter() - start + setups[-1]
    return Rep(spec_dict, len(cells), None if records is None else [canonical(r) for r in records],
               median(setups), wall, first[0] if first else wall)


def _ipc_bytes(rep: Rep) -> int:
    """Pickled size of the specs sent to, and records returned by, pool workers."""
    protocol = pickle.HIGHEST_PROTOCOL
    return sum(len(pickle.dumps(c, protocol)) for c in rep.cells()) + sum(
        len(pickle.dumps(json.loads(r), protocol)) for r in rep.records or ()
    )


def _check(sweep: Sweep, reps: list[Rep], seed: int, out: Outcome) -> None:
    """Correctness gate, outside every timed window."""
    from repro.geometry.cache import clear_caches
    from repro.runner import execute_many

    slots = []
    for index, rep in enumerate(reps):
        if rep.records is None:
            out.fail(rep.num_cells, "campaign raised")
        elif len(rep.records) != rep.num_cells:
            out.fail(rep.num_cells, "campaign returned the wrong number of records")
        else:
            slots.extend((index, cell) for cell in range(rep.num_cells))
    rng = random.Random(f"{seed}/gate")
    sample = [(reps[i].cells()[c], json.loads(reps[i].records[c]))
              for i, c in rng.sample(slots, min(sweep.event_loop_sample, len(slots)))]
    mismatches = event_loop_mismatches(sample)
    if mismatches:
        out.fail(mismatches, "records differ from the discrete-event loop")
    if sweep.workers:
        answered = [rep for rep in reps if rep.records is not None]
        for rep in rng.sample(answered, min(POOL_CHECK_REPS, len(answered))):
            clear_caches()
            serial = [canonical(r) for r in execute_many(rep.cells())]
            diff = sum(a != b for a, b in zip(serial, rep.records))
            if diff:
                out.fail(diff, "pool records differ from the serial sweep")


def _add_cache_stats(totals: dict[str, list[int]]) -> None:
    """Add the ``cache_stats()`` hit/miss counts of the last campaign into ``totals``."""
    from repro.geometry.cache import cache_stats

    for name, stats in cache_stats().items():
        entry = totals.setdefault(name, [0, 0])
        entry[0] += stats["hits"]
        entry[1] += stats["misses"]


def _peak_rss(sweep: Sweep) -> float:
    rss = peak_rss_mb()
    if sweep.workers:
        # Workers are reaped at pool shutdown; the kernel keeps the largest.
        rss += sweep.workers * peak_rss_mb(children=True)
    return rss


def run_untraced(name: str, seed: int, seconds: float) -> Outcome:
    sweep = SWEEPS[name]
    _run_rep(sweep, sweep.make_spec(seed, -1))  # untimed: finishes lazy imports
    reps: list[Rep] = []
    factors: list[float] = []
    deadline = time.perf_counter() + seconds
    before = probe_s()
    while time.perf_counter() < deadline or len(reps) < 3:
        reps.append(_run_rep(sweep, sweep.make_spec(seed, len(reps))))
        after = probe_s()
        factors.append(speed_factor(before, after))
        before = after
    rss = _peak_rss(sweep)
    out = Outcome(attempted=sum(r.num_cells for r in reps))
    _check(sweep, reps, seed, out)
    walls = [r.wall_s * f for r, f in zip(reps, factors)]
    latencies_ms = [w * 1000.0 for w in walls]
    out.metrics.update({
        "setup_s": median(r.setup_s * f for r, f in zip(reps, factors)),
        "cells_per_s": median(r.num_cells / w for r, w in zip(reps, walls)),
        "req_per_s": median(1.0 / w for w in walls),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "peak_rss_mb": rss,
    })
    out.notes.append(f"{len(reps)} campaigns of {reps[0].num_cells} cells; latency "
                     f"percentiles over {len(reps)} samples; speed factors "
                     f"{min(factors):.3f}..{max(factors):.3f}")
    return out


def run_traced(name: str, seed: int, scratch: Path) -> Outcome:
    """Replay ``trace_reps`` repetitions untraced, then traced; report layers."""
    sweep = SWEEPS[name]
    specs = [sweep.make_spec(seed, rep) for rep in range(sweep.trace_reps)]
    cache_totals: dict[str, list[int]] = {}
    _run_rep(sweep, sweep.make_spec(seed, -1))  # untimed: finishes lazy imports
    plain: list[Rep] = []
    traced: list[Rep] = []
    recorder = Recorder()
    with tempfile.TemporaryDirectory(dir=scratch, prefix="spill-") as spill:
        if sweep.workers:
            recorder.spill_children_to(Path(spill))
        for index, spec in enumerate(specs):
            # Alternate which leg runs first, so state the program keeps
            # between campaigns favours neither side of trace.overhead.
            for leg in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
                if leg == "plain":
                    plain.append(_run_rep(sweep, spec))
                    _add_cache_stats(cache_totals)
                    continue
                patches = Patches()
                instrument_pipeline(recorder, patches)
                try:
                    traced.append(_run_rep(sweep, spec, recorder))
                finally:
                    patches.restore()
        recorder.absorb_spills()

    out = Outcome(attempted=sum(r.num_cells for r in plain + traced))
    _check(sweep, plain + traced, seed, out)
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    lanes = sweep.workers or 1
    m = out.metrics
    m.update(layer_metrics(recorder, traced_wall, lanes))
    # Each traced campaign ran next to its untraced twin: the median
    # pairwise ratio is robust to contention that hits one pair.
    m["trace.overhead"] = median(t.wall_s / p.wall_s for t, p in zip(traced, plain)) - 1.0
    m["latency_samples"] = len(plain)
    for cache, (hits, misses) in cache_totals.items():
        m[f"geometry.cache.hit_ratio.{cache}"] = hits / (hits + misses) if hits + misses else 0.0
    if sweep.workers:
        m["runner.pool.first_record_s"] = median(r.first_record_s for r in plain)
        m["runner.pool.ipc_bytes"] = median(_ipc_bytes(r) for r in plain)
    out.notes.append(f"traced {len(traced)} campaigns on {lanes} lane(s): "
                     f"{traced_wall:.3f}s traced vs {plain_wall:.3f}s untraced")
    return out
