"""Batched fast path: evaluate many campaign cells as one stacked tensor pass.

The scalar fast path (:mod:`repro.sim.fastpath`) already replaces the event
loop with one cumulative sum per mule — but a campaign still dispatches it
cell by cell from Python, and each cell pays a Python heap merge over every
arrival event plus per-record object materialisation.  For the cells that
dominate mega-campaigns none of that is needed either:

* mules do not interact, and only a mule's own battery truncates its
  stream, so a cell's visit log is exactly "every precomputed arrival up to
  the horizon or the mule's death" — no merge required to *find* the
  events.  A tracked battery's death comes from a running sum of drains
  over the mule's own legs (:meth:`~repro.sim.fastpath.LegPattern.battery_stop`),
  and its row is cut there before the tensor pass;
* the record's interval metrics consume per-target **sorted** visit times,
  which are order-independent;
* the only genuinely order-dependent quantities — collection-window packet
  sizes and the sink-delivery sum — follow the engine's pop order, which is
  time order when no two visit events share a timestamp.  When some do (CHB
  mules deployed together on the sink travel in lockstep), the reduction
  replays the event queue's ``(time, sequence)`` tie order exactly
  (:func:`_pop_ranks`) and sorts by that instead.

So this module groups a campaign's eligible cells by **leg-pattern shape**
(rows of identical interleaved travel/dwell length), stacks every
``(cell, mule)`` row into one matrix and runs a single ``np.cumsum(axis=1)``
over the whole block — the (cells × mules × legs) tensor pass — then reduces
each distinct row set once to its record metrics without ever materialising
:class:`~repro.sim.recorder.VisitRecord` objects.  Per-row sequential
additions inside the stacked cumsum are bit-for-bit the additions the engine
would have performed, so records are **byte-identical** to per-cell dispatch
(asserted by ``benchmarks/bench_pr8.py`` and the differential fuzz harness
before any speed claim).  A cell whose row set is already cached — every
replication of a pinned layout after the first — costs one cache lookup: its
key comes from the spec alone, and the entry carries everything its record
needs, so no scenario, plan or simulator is built for it.

A cell rides the batch only when every check passes; anything else silently
degrades to the per-cell scalar fast path (or the event loop), never to a
wrong answer:

* its ``sim.fast_path`` is on and the scalar fast path's other static
  rejections (:func:`~repro.sim.fastpath.fast_path_rejection`) pass;
* no ``max_visits`` (a global cut mid-merge is order-dependent);
* no custom ``spec.metrics`` (extractors receive a full
  :class:`~repro.sim.recorder.SimulationResult`, which the batch never
  builds);
* every mule's :class:`~repro.sim.fastpath.LegPattern` builds (the scalar
  tier's own leg builder, with a smaller event cap; its dynamic declines
  read ``row-fallback`` here);
* the lap estimate must clear the horizon, and no tracked battery may hit
  the 1e-9 m window where the engine clips a leg's drain to an empty battery
  by the horizon (both verified *after* the tensor pass, per row set).

Toggle with :attr:`repro.sim.engine.SimulationConfig.batch_path` per spec,
or per process with the ``BATCHPATH`` entry of :mod:`repro.switches`
(``REPRO_BATCHPATH``, :func:`configure`, :func:`batchpath_disabled`).  All
are byte-invisible: they only choose the dispatch path.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from operator import attrgetter
from typing import Any, NamedTuple

import numpy as np

from repro.baselines.base import seeded_params
from repro.geometry.cache import ContentCache
from repro.obs import registry as _obs
from repro.runner.campaign import _scenario_cache_key
from repro.sim.fastpath import LegPattern, _Fallback, fast_path_rejection, node_codes
from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval
from repro.sim.recorder import SimulationResult
from repro.switches import BATCHPATH

__all__ = [
    "batch_execute_records",
    "batchpath_enabled",
    "batchpath_disabled",
    "configure",
]

# Per-row event cap: beyond this the stacked matrices stop paying for
# themselves; such cells stay on the per-cell scalar fast path.
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

_ID = attrgetter("id")
_DATA_RATE = attrgetter("data_rate")

# One process-wide switch for the batched dispatch (REPRO_BATCHPATH; see
# repro.switches); batchpath_disabled() forces per-cell dispatch for a block.
configure = BATCHPATH.configure
batchpath_enabled = BATCHPATH.enabled
batchpath_disabled = BATCHPATH.disabled


# --------------------------------------------------------------------------- #
# Per-(cell, mule) row precomputation
# --------------------------------------------------------------------------- #

class _Row(LegPattern):
    """One mule's :class:`LegPattern` plus its target-index column.

    ``tidx`` holds each leg's target index; the sink is ``len(targets)``,
    anything else ``-1``.  ``full`` is filled by the stacked cumsum.

    A battery-tracked mule's row ends at its :meth:`~LegPattern.battery_stop`
    (``stop``): the columns keep exactly the patrol legs the mule completes,
    so the cut happens before the cumsum and the tiled arrays are freed.
    """

    __slots__ = ("tidx", "stop")

    def __init__(self, sim, mule, route, sync_time: float, node_code, node_tidx) -> None:
        super().__init__(sim, mule, route, sync_time, node_code, _MAX_BATCH_EVENTS)
        walk = self.walk
        self.tidx = self.tile(np.fromiter(
            map(node_tidx.get, walk, repeat(-1)), dtype=np.int32, count=len(walk)
        ))
        self.stop = None
        battery = mule.battery
        if sim.config.track_energy and battery is not None:
            self.stop = self.battery_stop(battery.remaining, battery.capacity, sim._energy)
        if self.stop is not None:
            # A mid-leg death keeps the legs before the fatal one; a dying
            # collection or a clip keeps the leg it ends (the initial leg
            # counts in ``leg`` but is no column).
            keep = max(0, self.stop.leg - self.init_event + (self.stop.kind != "move"))
            self.codes = self.codes[:keep].copy()
            self.dists = self.dists[:keep].copy()
            self.inc = self.inc[:2 * keep].copy()
            self.tidx = self.tidx[:keep].copy()

    def stop_time(self) -> float:
        """When ``stop`` strikes: the mid-leg death, or the arrival it ends on."""
        leg, kind, reachable = self.stop
        on_init = leg < self.init_event  # the initial leg departs at 0
        if kind == "move":
            depart = 0.0 if on_init else float(self.full[-1])
            return depart + (reachable / self.velocity if self.velocity > 0 else 0.0)
        return self.init_time if on_init else float(self.full[-2])


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
    scenario = sim.scenario
    sync_time = sim._patrol_start_time()
    node_code = node_codes(sim)
    targets = scenario.targets
    node_tidx: dict[str, int] = {t.id: i for i, t in enumerate(targets)}
    node_tidx[sim._sink_id] = len(targets)
    try:
        rows = [
            _Row(sim, mule, sim.plan.route_for(mule.id), sync_time, node_code,
                 node_tidx)
            for mule in scenario.mules
        ]
    except _Fallback:
        return "row-fallback"
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

def _pop_ranks(chains: "list[np.ndarray]") -> np.ndarray:
    """Each chained event's place in the engine's ``(time, sequence)`` pop order.

    ``chains`` holds one array per mule, in scenario order: the times of the
    events the mule pushes, in push order, its initial push first.  A mule
    holds exactly one pending event and each pop pushes at most one
    successor, so an event's sequence number follows its predecessor's pop
    position, and the initial pushes come first, by mule.  The pop order is
    therefore the lexicographic order of each event's times read backwards
    down its chain, ended by its mule's initial push, which sorts below every
    time and by mule index.

    Prefix doubling solves that order exactly.  Each mule adds one terminal
    node (ranked by its index, below every time) that points to itself, and
    each event points to its predecessor.  Nodes start ranked by their own
    time; each round ranks the pairs ``(rank, rank of the node up the
    pointer)`` and doubles every pointer, until all ranks are distinct.
    Chains in lockstep separate only at their terminals, so the rounds grow
    with the log of the chain length.  Returns ranks ``0..n-1`` over the
    concatenated chains.
    """
    mules = len(chains)
    lengths = np.fromiter((len(c) for c in chains), dtype=np.int64, count=mules)
    nodes = mules + int(lengths.sum())
    up = np.arange(-1, nodes - 1)
    up[:mules] = np.arange(mules)
    heads = mules + np.cumsum(lengths) - lengths
    up[heads[lengths > 0]] = np.flatnonzero(lengths > 0)
    times, rank = np.unique(np.concatenate(chains), return_inverse=True)
    distinct = mules + times.size
    rank = np.concatenate((np.arange(mules), mules + rank))
    while distinct < nodes:
        pairs, rank = np.unique(rank * nodes + rank[up], return_inverse=True)
        distinct = pairs.size
        up = up[up]
    return rank[mules:] - mules


def _arrival_ranks(kept: "list[tuple[_Row, int, int]]") -> np.ndarray:
    """The pop rank of every kept arrival, row after row.

    ``kept`` holds ``(row, arrivals kept, initial leg applied)`` per mule.
    A row's chain is its initial-leg event when that applies, then each
    arrival, each followed by its dwell-done event when the target's dwell
    is positive (``full[2k + 2]``).  A death ends a chain with no successor,
    and so does the push the engine discards after a collection death, so
    neither needs a place in it.
    """
    chains, at = [], []
    offset = 0
    for row, n_keep, init_applied in kept:
        is_event = np.ones(2 * n_keep, dtype=bool)
        is_event[1::2] = row.inc[1:2 * n_keep:2] > 0.0
        chain = row.full[1:2 * n_keep + 1][is_event]
        if init_applied:
            chain = np.concatenate(([row.init_time], chain))
        chains.append(chain)
        at.append(offset + init_applied + np.cumsum(is_event)[0::2] - 1)
        offset += len(chain)
    return _pop_ranks(chains)[np.concatenate(at)]


def _reduce_rows(rows: "list[_Row]", target_ids: "list[str]", rates: np.ndarray,
                 sink_id: str, horizon: float, planner: str) -> "dict | str":
    """A cumsum'd row set's six record metrics, or why the batch declines it.

    ``rows`` holds one row per mule in scenario order; ``target_ids`` and
    ``rates`` (a float array) describe the scenario's targets in order.
    Everything read here is a function of the row key, so cells sharing the
    row set share this.
    """
    per_mule_distance: list[float] = []
    dead_mules = 0
    kept: "list[tuple[_Row, int, int]]" = []

    for row in rows:
        stop = row.stop
        # A row cut at its battery stop ends on its own, like a halting walk.
        if stop is None and not row.reaches(horizon):
            return "lap-estimate"
        dies = stop is not None and row.stop_time() <= horizon
        if dies and stop.kind == "clip":
            return "battery-clip"
        n_keep = int(np.searchsorted(row.full[1::2], horizon, side="right"))
        init_applied = 1 if (row.init_event and row.init_time <= horizon) else 0
        if dies and stop.leg < row.init_event:
            init_applied = 0  # died on the way to the start position
        applied = n_keep + init_applied
        distance = float(row.distance_prefix()[applied - 1]) if applied else 0.0
        if dies:
            dead_mules += 1
            if stop.kind == "move":
                distance += stop.reachable
        per_mule_distance.append(distance)
        kept.append((row, n_keep, init_applied))

    # Every kept arrival, row after row, each row in chain order.
    times_all = np.concatenate([row.full[1:2 * n:2] for row, n, _ in kept])
    codes_all = np.concatenate([row.codes[:n] for row, n, _ in kept])
    tidx_all = np.concatenate([row.tidx[:n] for row, n, _ in kept])
    row_all = np.repeat(np.arange(len(kept)), [n for _, n, _ in kept])

    collect_indices = np.flatnonzero(codes_all == 1)
    sink_indices = np.flatnonzero(codes_all == 2)
    ct = times_all[collect_indices]
    cx = tidx_all[collect_indices]

    # Sink deliveries: each collected packet flushes at its mule's next sink
    # visit in chain order, the first sink event after it in the row-major
    # arrays when that event is on the same row.
    delivered = np.zeros(ct.size, dtype=bool)
    flush = collect_indices
    if sink_indices.size:
        after = np.searchsorted(sink_indices, collect_indices)
        flush = sink_indices[np.minimum(after, sink_indices.size - 1)]
        delivered = (flush > collect_indices) & (row_all[flush] == row_all[collect_indices])
    flush = flush[delivered]

    # Node indices (targets, then the sink) ranked by id: the visit table
    # lists the visited nodes in that order.  The ranks take the smallest
    # unsigned dtype, so lexsort's stable pass over them is a radix sort.
    ids = [*target_ids, sink_id]
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.min_scalar_type(len(ids)))
    rank[by_id] = np.arange(len(ids))
    cr = rank[cx]

    # The engine handles visits in pop order: time order, except that its
    # heap's sequence numbers order the events of one instant.  Two things
    # read that order: the collections at each target (the packet sizes) and
    # the delivering flushes (the summation order of the delivery list).
    # Only when one of them ties do the rows' chains replay it.
    key_all = times_all
    order = np.lexsort((ct, cr))
    same_target = (np.diff(cr[order]) == 0) & (np.diff(ct[order]) == 0.0)
    # ``flush`` is non-decreasing (a masked searchsorted over increasing
    # collection indices), so each distinct flush starts where it steps up.
    first_of_flush = np.ones(flush.size, dtype=bool)
    np.not_equal(flush[1:], flush[:-1], out=first_of_flush[1:])
    flush_times = np.sort(times_all[flush[first_of_flush]])
    if same_target.any() or (np.diff(flush_times) == 0.0).any():
        key_all = _arrival_ranks(kept)
        order = np.lexsort((key_all[collect_indices], cr))

    # Collections grouped by target rank, each group in pop order, which is
    # time order: exactly the recorder's sorted per-target stretches.
    ct_s = ct[order]
    cr_s = cr[order]
    # Collection-window packet sizes: (t_j - t_{j-1}) * rate with the window
    # opening at 0.0 — the engine's max(now - last, 0.0) reduces to the plain
    # difference under pop-ordered processing.  Each target's first
    # collection opens at 0.0.
    prev = np.zeros_like(ct_s)
    np.copyto(prev[1:], ct_s[:-1], where=cr_s[1:] == cr_s[:-1])
    collect_sizes = np.empty(ct.size, dtype=float)
    collect_sizes[order] = (ct_s - prev) * rates[cx[order]]

    # The visit table: the sink's sorted stretch slots in at its rank.
    sink_rank = rank[-1]
    sink_times = np.sort(times_all[sink_indices])
    at = np.searchsorted(cr_s, sink_rank)
    counts = np.bincount(cr_s, minlength=len(ids))
    counts[sink_rank] = sink_times.size
    visited = counts > 0
    table = (
        list(compress(map(ids.__getitem__, by_id), visited.tolist())),
        counts[visited],
        np.concatenate((ct_s[:at], sink_times, ct_s[at:])),
    )

    # The engine's delivery list runs in flush pop order, FIFO (chain order)
    # within a flush.  The recorder adds it up with the built-in ``sum`` in
    # that order (compensated from Python 3.12, so no numpy sum stands in;
    # an empty list sums to the int 0).
    fifo = np.lexsort((collect_indices[delivered], key_all[flush]))
    delivered_data = sum(collect_sizes[delivered][fifo].tolist())

    # The metric extractors run unchanged on a stub result pre-seeded with
    # the visit table — identical inputs, identical code, identical floats
    # (and the same int/float JSON spelling).
    stub = SimulationResult(strategy=planner, horizon=horizon)
    stub.__dict__["_visit_table"] = (0, table)
    return {
        "average_dcdt": average_dcdt(stub),
        "average_sd": average_sd(stub),
        "max_visiting_interval": max_visiting_interval(stub),
        "delivered_data": delivered_data,
        "total_distance": sum(per_mule_distance),
        "num_dead_mules": dead_mules,
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
