"""Batched fast path: answer campaign cells from cached reductions, one cell at a time.

The scalar fast path (:mod:`repro.sim.fastpath`) already replaces the event
loop with one cumulative sum per mule and one pop-order solve — but each
cell it runs still plans, builds every visit and delivery record and
reduces them to metrics.  For the cells that dominate campaigns neither the
records nor a second plan are needed:

* mules do not interact, and only a mule's own battery truncates its
  stream, so a cell's visit log is exactly "every precomputed arrival up to
  the horizon or the mule's death" — no event order required to *find* the
  events.  A tracked battery's death comes from a running sum of drains
  over the mule's own legs (:meth:`~repro.sim.fastpath.LegPattern.battery_stop`),
  and its row is cut there before the row is summed;
* the record's interval metrics consume per-target **sorted** visit times,
  which are order-independent;
* the only genuinely order-dependent quantities — collection-window packet
  sizes and the sink-delivery sum — follow the engine's pop order, which is
  time order when no two visit events share a timestamp.  When some do (CHB
  mules deployed together on the sink travel in lockstep), the reduction
  solves the event queue's ``(time, sequence)`` tie order exactly
  (:func:`~repro.sim.fastpath._pop_ranks`, which the scalar tier always
  takes) and sorts by that instead.

So this module walks a call's cells in order.  A cell whose row key (plan
key, horizon, synchronized start, battery tracking) is cached costs one
cache lookup: its key comes from the spec alone, and the entry carries the
record head and the row set's six metrics, so no scenario, plan or simulator
is built for it — every replication of a pinned layout after the first.  A
miss builds the cell's scenario, plan and rows, sums each row with
:meth:`~repro.sim.fastpath.LegPattern.chain`, reduces them to the record
metrics without ever materialising :class:`~repro.sim.recorder.VisitRecord`
objects, and caches the reduction, so a call holds one row set at a time
and the cache never holds rows.  The rows, their sums, the horizon cut, the
tie solve and the kept-event table that derives packet windows, sink
flushes and the delivery order are the scalar tier's own; only the metric
reduction lives here.  Records are **byte-identical** to per-cell dispatch
(asserted by the differential fuzz harness and the CI replicated smoke,
which compares batched, per-cell and event-loop records).

A cell rides the batch only when every check passes; anything else silently
degrades to per-cell dispatch — the scalar fast path, or the event loop where
that declines too — never to a wrong answer:

* its ``sim.fast_path`` is on and the scalar fast path's other static
  rejections (:func:`~repro.sim.fastpath.fast_path_rejection`) pass;
* no ``max_visits`` (the scalar tier cuts it by pop rank, which the batch
  solves only on a tie);
* no custom ``spec.metrics`` (extractors receive a full
  :class:`~repro.sim.recorder.SimulationResult`, which the batch never
  builds);
* every mule's row builds under the scalar tier's own builder and event
  cap (its dynamic declines read ``row-fallback`` here, and the scalar tier
  declines the same rows, so those cells run on the event loop);
* the lap estimate must clear the horizon, and no tracked battery may hit
  the 1e-9 m window where the engine clips a leg's drain to an empty battery
  by the horizon (both verified after the rows are summed; the scalar fast
  path declines both too, so those cells run on the event loop).

Toggle with :attr:`repro.sim.engine.SimulationConfig.batch_path` per spec,
or per process with the ``BATCHPATH`` entry of :mod:`repro.switches`
(``REPRO_BATCHPATH``, :func:`configure`, :func:`batchpath_disabled`).  All
are byte-invisible: they only choose the dispatch path.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import NamedTuple

import numpy as np

from repro.baselines.base import seeded_params
from repro.geometry.cache import ContentCache
from repro.obs import registry as _obs
from repro.runner.campaign import _scenario_cache_key
from repro.sim.fastpath import (
    _DATA_RATE, _ID, _chains, _Fallback, _horizon_cut, _Kept, _pop_ranks, _Row, _rows,
    _Table, fast_path_rejection,
)
from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval
from repro.sim.recorder import SimulationResult
from repro.switches import BATCHPATH

__all__ = [
    "batch_execute_records",
    "batchpath_enabled",
    "batchpath_disabled",
    "configure",
]

# Patrol plans memoized by (strategy, declared params incl. any injected
# seed, scenario content key).  Planning is deterministic in that triple —
# the determinism patrol enforces it — so row keys that share a plan key
# (a grid over the horizon, the sync or the tracking flag) plan once.  The
# batch only ever *reads* a plan (routes are generator factories; nothing is
# advanced), so sharing one object across cells is safe, and the cache is
# purely memoizing: byte-identical records with it on or off.
_PLAN_CACHE = ContentCache("batch_plan", maxsize=128)

# Reductions memoized by row key: (plan key, horizon, synchronized start,
# battery tracking).  Everything a cell's rows read — routes, mule
# velocities, deployment positions and batteries, the collection dwell, the
# energy costs — is a function of that key, so every replication cell of a
# pinned scenario shares one entry (an _Entry: the record head, and the six
# metrics or why the batch declines the rows), and a cell whose key is
# cached is answered from the entry alone, with no scenario, plan or
# simulator of its own.  Rows are never cached.
_ROW_CACHE = ContentCache("batch_rows", maxsize=256)

# ``json.dumps(value, default=repr)``, without building an encoder per call.
_encode_params = json.JSONEncoder(default=repr).encode

# Bumped by the number of batched cells, once per call: a memoized batched
# cell costs about ten microseconds, so even a pre-bound per-cell counter
# (see repro.obs.counter) is a visible share of it with the registry on.
_BATCHED = _obs.counter("batch_dispatch", outcome="batch")

# One process-wide switch for the batched dispatch (REPRO_BATCHPATH; see
# repro.switches); batchpath_disabled() forces per-cell dispatch for a block.
configure = BATCHPATH.configure
batchpath_enabled = BATCHPATH.enabled
batchpath_disabled = BATCHPATH.disabled


# --------------------------------------------------------------------------- #
# One cell: a cached entry, or a miss built, summed and reduced
# --------------------------------------------------------------------------- #

class _Entry(NamedTuple):
    """A ``batch_rows`` entry: everything a cell of its row key needs."""

    # The record's (num_targets, num_mules, planner) columns.
    head: tuple
    # The row set's six record metrics, or why the batch declines it.
    body: "dict | str"


def _reject(reason: str) -> None:
    """Count one cell's fall to the scalar path; always returns ``None``.

    The reason taxonomy is the end-to-end dispatch story ("why is this
    sweep slow"): static spec vetoes (``batch-path-disabled`` /
    ``max-visits`` / ``custom-metrics`` / ``fastpath-fast-path-disabled``),
    the scalar fast path's other rejections prefixed ``fastpath-``, and the
    declines memoized per row key — ``row-fallback`` and the checks on the
    summed rows ``lap-estimate`` / ``battery-clip`` — counted once per
    declined cell.
    """
    _obs.inc("batch_dispatch", outcome="scalar", reason=reason)
    return None


def _cell_record(spec) -> "dict | None":
    """``spec``'s record, or ``None`` when the cell must run per cell.

    A cell whose row key is cached is answered from its ``batch_rows`` entry
    alone.  Only a miss builds and reduces the cell (:func:`_reduce_cell`,
    in a ``batch-reduce`` span) and caches the entry.
    """
    cfg = spec.sim
    if not cfg.batch_path:
        return _reject("batch-path-disabled")
    if cfg.max_visits is not None:
        return _reject("max-visits")
    if spec.metrics:
        return _reject("custom-metrics")
    if not cfg.fast_path:
        # Not left to fast_path_rejection: the row key omits fast_path, so a
        # cached entry would answer the cell.  Its other two reasons are
        # functions of the plan key, so no entry exists for a key they veto.
        return _reject("fastpath-fast-path-disabled")
    params = seeded_params(spec.strategy, spec.params, spec.seed)
    plan_key = (spec.strategy, _encode_params(sorted(params.items())), _scenario_cache_key(spec))
    row_key = (plan_key, cfg.horizon, cfg.synchronized_start, cfg.track_energy)
    entry = _ROW_CACHE.get(row_key)
    if entry is None:
        with _obs.span("batch-reduce", cat="batch"):
            entry = _reduce_cell(spec, params, plan_key)
        if entry is None:
            return None
        _ROW_CACHE.put(row_key, entry)
    head, body = entry
    if isinstance(body, str):
        return _reject(body)
    record = _record_head(spec, *head)
    record.update(body)
    return record


def _reduce_cell(spec, params: dict, plan_key: tuple) -> "_Entry | None":
    """A missed cell's entry: its scenario, plan and rows, summed and reduced.

    ``None`` when the scalar fast path's static rejection vetoes the cell
    (counted, and cached nowhere).
    """
    # Looked up at call time: perfbench times the scenario and planning
    # layers by wrapping these module attributes.
    from repro.baselines.base import get_strategy
    from repro.runner.campaign import build_cell_scenario
    from repro.sim.engine import PatrolSimulator

    scenario = build_cell_scenario(spec)
    plan = _PLAN_CACHE.get(plan_key)
    if plan is None:
        plan = get_strategy(spec.strategy, **params).plan(scenario)
        _PLAN_CACHE.put(plan_key, plan)
    sim = PatrolSimulator(scenario, plan, spec.sim)
    rejection = fast_path_rejection(sim)
    if rejection is not None:
        return _reject(f"fastpath-{rejection}")
    head = (scenario.num_targets, scenario.num_mules, plan.strategy)
    rows = _build_rows(sim)
    if isinstance(rows, str):
        return _Entry(head, rows)
    for row in rows:
        row.chain()
    targets = scenario.targets
    rates = np.fromiter(map(_DATA_RATE, targets), dtype=float, count=len(targets))
    return _Entry(head, _reduce_rows(rows, [*map(_ID, targets)], rates, sim._sink_id,
                                     spec.sim.horizon, plan.strategy))


def _build_rows(sim) -> "list[_Row] | str":
    """One row per mule of ``sim`` (the scalar tier's builder), or ``"row-fallback"``."""
    try:
        return _rows(sim)
    except _Fallback:
        return "row-fallback"


# --------------------------------------------------------------------------- #
# Reduction to a record
# --------------------------------------------------------------------------- #

def _arrival_ranks(kept: "list[_Kept]") -> np.ndarray:
    """The pop rank of every kept arrival, row after row: the batch's tie solve."""
    chains, at = _chains(kept)
    return _pop_ranks(chains)[at]


def _reduce_rows(rows: "list[_Row]", target_ids: "list[str]", rates: np.ndarray,
                 sink_id: str, horizon: float, planner: str) -> "dict | str":
    """A summed row set's six record metrics, or why the batch declines it.

    ``rows`` holds one row per mule in scenario order, each summed by
    :meth:`~repro.sim.fastpath.LegPattern.chain`; ``target_ids`` and
    ``rates`` (a float array) describe the scenario's targets in order.
    Everything read here is a function of the row key, so cells sharing the
    key share this.
    """
    kept = _horizon_cut(rows, horizon)
    if isinstance(kept, str):
        return kept
    table = _Table(kept)
    ct = table.ct

    # Node indices (targets, then the sink) ranked by id: the visit table
    # lists the visited nodes in that order.  The ranks take the smallest
    # unsigned dtype, so lexsort's stable pass over them is a radix sort.
    ids = [*target_ids, sink_id]
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.min_scalar_type(len(ids)))
    rank[by_id] = np.arange(len(ids))
    cr = rank[table.cx]

    # The engine handles visits in pop order: time order, except that its
    # heap's sequence numbers order the events of one instant.  Two things
    # read that order: the collections at each target (the packet sizes) and
    # the delivering flushes (the summation order of the delivery list).
    # Only when one of them ties do the rows' chains replay it.
    key = table.times
    order = np.lexsort((ct, cr))
    same_target = (np.diff(cr[order]) == 0) & (np.diff(ct[order]) == 0.0)
    # ``flush`` is non-decreasing (a masked searchsorted over increasing
    # collection indices), so each distinct flush starts where it steps up.
    flush = table.flush
    first_of_flush = np.ones(flush.size, dtype=bool)
    np.not_equal(flush[1:], flush[:-1], out=first_of_flush[1:])
    flush_times = np.sort(key[flush[first_of_flush]])
    if same_target.any() or (np.diff(flush_times) == 0.0).any():
        key = _arrival_ranks(kept)
        order = np.lexsort((key[table.collect], cr))
    _opened, sizes = table.packets(order, rates)

    # Collections grouped by target rank, each group in pop order, which is
    # time order: exactly the recorder's sorted per-target stretches.  The
    # sink's sorted stretch slots in at its rank.
    ct_s = ct[order]
    cr_s = cr[order]
    sink_rank = rank[-1]
    sink_times = np.sort(table.times[table.codes == 2])
    at = np.searchsorted(cr_s, sink_rank)
    counts = np.bincount(cr_s, minlength=len(ids))
    counts[sink_rank] = sink_times.size
    visited = counts > 0
    visit_table = (
        list(compress(map(ids.__getitem__, by_id), visited.tolist())),
        counts[visited],
        np.concatenate((ct_s[:at], sink_times, ct_s[at:])),
    )

    # The recorder adds the delivery list up with the built-in ``sum`` in
    # its order (compensated from Python 3.12, so no numpy sum stands in;
    # an empty list sums to the int 0).
    delivered_data = sum(sizes[table.delivered][table.delivery_order(key)].tolist())

    # The metric extractors run unchanged on a stub result pre-seeded with
    # the visit table — identical inputs, identical code, identical floats
    # (and the same int/float JSON spelling).
    stub = SimulationResult(strategy=planner, horizon=horizon)
    stub.__dict__["_visit_table"] = (0, visit_table)
    return {
        "average_dcdt": average_dcdt(stub),
        "average_sd": average_sd(stub),
        "max_visiting_interval": max_visiting_interval(stub),
        "delivered_data": delivered_data,
        "total_distance": sum(k.distance() for k in kept),
        "num_dead_mules": sum(k.dies for k in kept),
    }


def _record_head(spec, num_targets: int, num_mules: int, planner: str) -> dict:
    """A record's leading columns, in their byte-visible key order.

    Identity columns, then the spec's labels, then the planner; the batched
    and the per-cell paths (:func:`repro.runner.campaign.execute_run`) both
    append their metrics to this.
    """
    record: dict = {
        "strategy": spec.strategy,
        "seed": spec.seed,
        "num_targets": num_targets,
        "num_mules": num_mules,
        "horizon": spec.sim.horizon,
    }
    record.update(spec.labels)
    record["planner"] = planner
    return record


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def batch_execute_records(specs) -> "list[dict | None]":
    """Evaluate the batch-eligible cells of ``specs``, one cell after another.

    Returns one entry per spec, in order: the finished record for every cell
    the batch handled, ``None`` for every cell that must run per cell (the
    caller runs those on the scalar core — never through
    :func:`~repro.runner.campaign.execute_run` again, which would offer them
    to the batch a second time).  Records are byte-identical to per-cell
    execution; with the switch off everything is ``None``.

    Any number of specs is fine, one included: a single cell still shares
    the content caches with every earlier call, so the replications of a
    pinned layout reuse one plan and one reduction whether they arrive as a
    whole campaign or cell by cell from the service scheduler's worker
    threads (threads that miss the same key at once each compute the same
    reduction and put equal entries).  A call holds one cell's rows at a
    time.  With the obs registry on, each call records a ``batch`` span, with
    one ``batch-reduce`` child per cell whose row key missed; a cached cell
    records none.
    """
    specs = list(specs)
    if not BATCHPATH.on:
        return [None] * len(specs)
    with _obs.span("batch", cat="batch", cells=len(specs)):
        out = [_cell_record(spec) for spec in specs]
    _BATCHED(len(out) - out.count(None))
    return out
