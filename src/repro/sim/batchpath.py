"""Batched fast path: evaluate many campaign cells as one stacked tensor pass.

The scalar fast path (:mod:`repro.sim.fastpath`) already replaces the event
loop with one cumulative sum per mule and one pop-order solve — but a
campaign still dispatches it cell by cell from Python, and each cell pays
for that solve plus per-record object materialisation.  For the cells that
dominate mega-campaigns neither is needed:

* mules do not interact, and only a mule's own battery truncates its
  stream, so a cell's visit log is exactly "every precomputed arrival up to
  the horizon or the mule's death" — no event order required to *find* the
  events.  A tracked battery's death comes from a running sum of drains
  over the mule's own legs (:meth:`~repro.sim.fastpath.LegPattern.battery_stop`),
  and its row is cut there before the tensor pass;
* the record's interval metrics consume per-target **sorted** visit times,
  which are order-independent;
* the only genuinely order-dependent quantities — collection-window packet
  sizes and the sink-delivery sum — follow the engine's pop order, which is
  time order when no two visit events share a timestamp.  When some do (CHB
  mules deployed together on the sink travel in lockstep), the reduction
  solves the event queue's ``(time, sequence)`` tie order exactly
  (:func:`~repro.sim.fastpath._pop_ranks`, which the scalar tier always
  takes) and sorts by that instead.

So this module groups a campaign's eligible cells by **leg-pattern shape**
(rows of identical interleaved travel/dwell length), stacks every
``(cell, mule)`` row into one matrix and runs a single ``np.cumsum(axis=1)``
over the whole block — the (cells × mules × legs) tensor pass — then reduces
each distinct row set once to its record metrics without ever materialising
:class:`~repro.sim.recorder.VisitRecord` objects.  The rows, the horizon
cut, the tie solve and the kept-event table that derives packet windows,
sink flushes and the delivery order are the scalar tier's own; only the
stacking and the metric reduction live here.  Per-row sequential additions
inside the stacked cumsum are bit-for-bit the additions the engine would
have performed, so records are **byte-identical** to per-cell dispatch
(asserted by ``benchmarks/bench_pr8.py`` and the differential fuzz harness
before any speed claim).  A cell whose row set is already cached — every
replication of a pinned layout after the first — costs one cache lookup: its
key comes from the spec alone, and the entry carries everything its record
needs, so no scenario, plan or simulator is built for it.

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
* every mule's row builds (the scalar tier's own row builder, with a
  smaller event cap; its dynamic declines read ``row-fallback`` here);
* the lap estimate must clear the horizon, and no tracked battery may hit
  the 1e-9 m window where the engine clips a leg's drain to an empty battery
  by the horizon (both verified *after* the tensor pass, per row set; the
  scalar fast path declines both too, so those cells run on the event loop).

Toggle with :attr:`repro.sim.engine.SimulationConfig.batch_path` per spec,
or per process with the ``BATCHPATH`` entry of :mod:`repro.switches`
(``REPRO_BATCHPATH``, :func:`configure`, :func:`batchpath_disabled`).  All
are byte-invisible: they only choose the dispatch path.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import Any, NamedTuple

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

# Per-row event cap.  Every row of every cell of one call is held, with its
# cumsum, until that cell's reduction, so this bounds what a call holds; a
# cell with a longer row runs per cell instead, on the scalar fast path and
# its far higher cap.  Read at call time (the boundary tests patch it).
_MAX_BATCH_EVENTS = 250_000

# Soft bound on floats per stacked block; groups larger than this are
# processed in row chunks so peak memory stays flat regardless of campaign
# size.
_MAX_BLOCK_FLOATS = 8_000_000

# Patrol plans memoized by (strategy, declared params incl. any injected
# seed, scenario content key).  Planning is deterministic in that triple —
# the determinism patrol enforces it — so every replication cell of a pinned
# scenario reuses one plan instead of re-planning identical content.  The
# batch only ever *reads* a plan (routes are generator factories; nothing is
# advanced), so sharing one object across cells is safe, and the cache is
# purely memoizing: byte-identical records with it on or off.
_PLAN_CACHE = ContentCache("batch_plan", maxsize=128)

# Prepared increment rows memoized by (plan key, horizon, synchronized
# start, battery tracking): everything a row reads — routes, mule velocities,
# deployment positions and batteries, the collection dwell, the energy costs
# — is a function of that key, so every replication cell of a pinned
# scenario shares one row set and its cumsum output — or its construction
# fallback.  So is everything else a cell of the key needs (an _Entry: the
# record head, and what the reduction reads), so a cell whose key is cached
# is answered from the entry alone, with no scenario, plan or simulator of
# its own.  Once reduced, the entry carries the reduction itself (six
# metrics, or the decline reason), so the cache never keeps cumsum arrays
# past the calls that are using them.
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
# Per-(cell, mule) row precomputation
# --------------------------------------------------------------------------- #

class _RowSet(list):
    """One row key's rows, with the scenario's target ids and rates and its sink.

    ``reduced`` memoizes their reduction or decline reason.
    """
    reduced: "dict | str | None" = None

    def __init__(self, rows, target_ids: "list[str]", rates: np.ndarray, sink_id: str) -> None:
        super().__init__(rows)
        self.target_ids = target_ids
        self.rates = rates
        self.sink_id = sink_id


class _Entry(NamedTuple):
    """A ``batch_rows`` entry: everything a cell of its row key needs."""

    # The record's (num_targets, num_mules, planner) columns.
    head: tuple
    # Rows still to reduce, their reduction, or why the batch declines them.
    body: "_RowSet | dict | str"


class _Cell(NamedTuple):
    """One campaign cell prepared for batch evaluation."""

    spec: Any
    row_key: tuple
    entry: _Entry


def _reject(reason: str) -> None:
    """Count one cell's fall to the scalar path; always returns ``None``.

    The reason taxonomy is the end-to-end dispatch story ("why is this
    sweep slow"): static spec vetoes (``batch-path-disabled`` /
    ``max-visits`` / ``custom-metrics`` / ``fastpath-fast-path-disabled``),
    the scalar fast path's other rejections prefixed ``fastpath-``, and the
    declines memoized per row set — ``row-fallback`` and the post-tensor
    checks ``lap-estimate`` / ``battery-clip`` — counted once per declined
    cell.
    """
    _obs.inc("batch_dispatch", outcome="scalar", reason=reason)
    return None


def _prepare_cell(spec) -> "_Cell | None":
    """Key ``spec`` by its row set and vet it for the batch class.

    A cell whose row set is cached is answered from the ``batch_rows`` entry
    alone.  Only on a miss are its scenario and plan built, vetted by the
    scalar fast path's static rejection and its rows built and cached.
    """
    cfg = spec.sim
    if not cfg.batch_path:
        return _reject("batch-path-disabled")
    if cfg.max_visits is not None:
        return _reject("max-visits")
    if spec.metrics:
        return _reject("custom-metrics")
    if not cfg.fast_path:
        # Not left to fast_path_rejection below: the row key omits fast_path,
        # so a cached row set would answer the cell.  Its other two reasons
        # are functions of the plan key, so no entry exists for a key they veto.
        return _reject("fastpath-fast-path-disabled")
    params = seeded_params(spec.strategy, spec.params, spec.seed)
    plan_key = (spec.strategy, _encode_params(sorted(params.items())), _scenario_cache_key(spec))
    row_key = (plan_key, cfg.horizon, cfg.synchronized_start, cfg.track_energy)
    entry = _ROW_CACHE.get(row_key)
    if entry is None:
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
        sim = PatrolSimulator(scenario, plan, cfg)
        rejection = fast_path_rejection(sim)
        if rejection is not None:
            return _reject(f"fastpath-{rejection}")
        head = (scenario.num_targets, scenario.num_mules, plan.strategy)
        entry = _Entry(head, _build_rows(sim))
        _ROW_CACHE.put(row_key, entry)
    return _Cell(spec, row_key, entry)


def _build_rows(sim) -> "_RowSet | str":
    """The increment rows of every mule of ``sim``, or ``"row-fallback"``."""
    try:
        rows = _rows(sim, _MAX_BATCH_EVENTS)
    except _Fallback:
        return "row-fallback"
    targets = sim.scenario.targets
    rates = np.fromiter(map(_DATA_RATE, targets), dtype=float, count=len(targets))
    return _RowSet(rows, [*map(_ID, targets)], rates, sim._sink_id)


# --------------------------------------------------------------------------- #
# The stacked tensor pass
# --------------------------------------------------------------------------- #

def _stacked_cumsum(rows: "list[_Row]") -> None:
    """One ``np.cumsum(axis=1)`` per leg-pattern shape group, over all rows.

    Rows are grouped by increment length, stacked into a ``[base, inc...]``
    matrix and cumsum'd along axis 1 — per-row this is the identical
    sequence of sequential float additions the scalar path performs, so the
    resulting arrival/departure chains are bitwise equal.
    """
    groups: "dict[int, list[_Row]]" = {}
    for row in rows:
        groups.setdefault(len(row.inc), []).append(row)
    for width, members in groups.items():
        # Group-size distribution: how well the campaign's rows stack.
        _obs.observe("batch_group_rows", len(members))
        chunk = max(1, _MAX_BLOCK_FLOATS // (width + 1))
        for lo in range(0, len(members), chunk):
            part = members[lo:lo + chunk]
            block = np.empty((len(part), width + 1), dtype=float)
            for r, row in enumerate(part):
                block[r, 0] = row.base
                block[r, 1:] = row.inc
            block = np.cumsum(block, axis=1)
            for r, row in enumerate(part):
                row.full = block[r]


# --------------------------------------------------------------------------- #
# Per-cell reduction to a record
# --------------------------------------------------------------------------- #

def _arrival_ranks(kept: "list[_Kept]") -> np.ndarray:
    """The pop rank of every kept arrival, row after row: the batch's tie solve."""
    chains, at = _chains(kept)
    return _pop_ranks(chains)[at]


def _reduce_rows(rows: "list[_Row]", target_ids: "list[str]", rates: np.ndarray,
                 sink_id: str, horizon: float, planner: str) -> "dict | str":
    """A cumsum'd row set's six record metrics, or why the batch declines it.

    ``rows`` holds one row per mule in scenario order; ``target_ids`` and
    ``rates`` (a float array) describe the scenario's targets in order.
    Everything read here is a function of the row key, so cells sharing the
    row set share this.
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


def _finish_cell(cell: _Cell) -> "dict | None":
    """One cell's record from its row set's memoized reduction; ``None`` → scalar."""
    head, body = cell.entry
    if isinstance(body, _RowSet):
        if body.reduced is None:
            body.reduced = _reduce_rows(body, body.target_ids, body.rates, body.sink_id,
                                        cell.spec.sim.horizon, head[2])
            # Later calls read the reduction straight from the cache, and the
            # rows with their cumsum arrays go once no call holds them.  The
            # entry is swapped, never the row set cleared: another worker
            # thread may be reducing the same rows right now.
            _ROW_CACHE.put(cell.row_key, _Entry(head, body.reduced))
        body = body.reduced
    if isinstance(body, str):
        return _reject(body)
    record = _record_head(cell.spec, *head)
    record.update(body)
    return record


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def batch_execute_records(specs) -> "list[dict | None]":
    """Evaluate the batch-eligible cells of ``specs`` in one tensor pass.

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
    threads (threads that miss the same key at once each fill it, with
    identical results).  With the obs registry on, each call records a
    ``batch`` span with ``batch-prepare`` / ``batch-cumsum`` /
    ``batch-reduce`` children (per call, never per cell).
    """
    specs = list(specs)
    out: "list[dict | None]" = [None] * len(specs)
    if not BATCHPATH.on:
        return out
    with _obs.span("batch", cat="batch", cells=len(specs)):
        with _obs.span("batch-prepare", cat="batch"):
            cells = [_prepare_cell(spec) for spec in specs]
            # Cells sharing cached row sets alias the same _Row objects; stack
            # each distinct row once (and skip rows a previous batch already
            # cumsum'd — the output depends only on the row, so recomputing
            # it is a no-op).
            rows = []
            seen: set[int] = set()
            for cell in cells:
                if cell is None or not isinstance(cell.entry.body, _RowSet):
                    continue
                for row in cell.entry.body:
                    if row.full is None and id(row) not in seen:
                        seen.add(id(row))
                        rows.append(row)
        with _obs.span("batch-cumsum", cat="batch", rows=len(rows)):
            _stacked_cumsum(rows)
        with _obs.span("batch-reduce", cat="batch"):
            for index, cell in enumerate(cells):
                if cell is not None:
                    out[index] = _finish_cell(cell)
    _BATCHED(len(out) - out.count(None))
    return out
