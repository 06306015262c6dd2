"""Batched fast path: answer campaign cells from cached records, one cell at a time.

The scalar fast path (:mod:`repro.sim.fastpath`) already replaces the event
loop with one cumulative sum per mule and ends in one fast result whose
visit and delivery lists are built only when something reads them.  What a
campaign cell still pays on it, the batch skips:

* the replications of a pinned layout share everything a cell's result
  reads — routes, mule velocities, deployment positions and batteries, the
  collection dwell, the energy costs — so a cell whose key is cached costs
  one cache lookup: its key comes from the spec alone, and the entry carries
  the record head and the record's metric columns, so no scenario, plan or
  simulator is built for it — every replication of a pinned layout after the
  first;
* a miss builds the cell's scenario, its plan (memoized by plan key) and
  the scalar tier's fast result (:func:`~repro.sim.fastpath.fast_result`), and reduces that
  through the record function the scalar core also calls
  (:func:`repro.runner.campaign._record_columns`).  The rows, their sums,
  the horizon cut, the tie solve, the kept-event table and the result are
  the scalar tier's own; the batch adds only the cache, so a call holds one
  cell's rows at a time and the cache never holds rows.

The key is the row key — plan key, horizon, synchronized start, battery
tracking and ``max_visits`` — plus the spec's ``metrics``: a cell with custom
metrics shares its plan, but not its entry, with a cell without them.
Records are **byte-identical** to per-cell dispatch (asserted by the
differential fuzz harness and the CI replicated smoke, which compares
batched, per-cell and event-loop records).

A cell rides the batch only when every check passes; anything else silently
degrades to per-cell dispatch — the scalar fast path, or the event loop where
that declines too — never to a wrong answer:

* its ``sim.batch_path`` and ``sim.fast_path`` are on, and the scalar fast
  path's other static rejections
  (:func:`~repro.sim.fastpath.fast_path_rejection`) pass;
* the fast result builds: every mule's row builds under the scalar tier's
  own builder and event cap (its dynamic declines read ``row-fallback``
  here), the lap estimate clears the horizon, and no tracked battery hits
  the 1e-9 m window where the engine clips a leg's drain to an empty battery
  by the horizon.  The scalar tier declines the same cells, so they run on
  the event loop.

Toggle with :attr:`repro.sim.engine.SimulationConfig.batch_path` per spec,
or per process with the ``BATCHPATH`` entry of :mod:`repro.switches`
(``REPRO_BATCHPATH``, :func:`configure`, :func:`batchpath_disabled`).  All
are byte-invisible: they only choose the dispatch path.
"""

from __future__ import annotations

import json
import operator
from copy import deepcopy

from repro.baselines.base import seeded_params
from repro.geometry.cache import ContentCache
from repro.obs import registry as _obs
from repro.runner.campaign import _record_columns, _record_head, _scenario_cache_key
from repro.sim.fastpath import fast_path_rejection, fast_result
# Bound here only for perfbench/layers.py, which patches these names on this
# module and on repro.runner.campaign, whose _record_columns calls them.
from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval  # noqa: F401
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
# batch only ever *reads* a plan — a random walk is drawn from a twin of its
# route's generator, which stays as planned — so sharing one object across
# cells and the service's worker threads is safe, and the cache is purely
# memoizing: byte-identical records with it on or off.
_PLAN_CACHE = ContentCache("batch_plan", maxsize=128)

# Record columns memoized by row key — (plan key, horizon, synchronized
# start, battery tracking, max_visits) — plus the spec's metrics.  Everything
# a cell's result reads — routes, mule velocities, deployment positions and
# batteries, the collection dwell, the energy costs — is a function of the
# row key, and every metric reads only the scenario, the plan and the result,
# so every replication cell of a pinned scenario shares one entry — the
# record's (num_targets, num_mules, planner) head, and its metric columns or
# why the batch declines the cell — and a cell whose key is cached is
# answered from the entry alone, with no scenario, plan or simulator of its
# own.  Rows are never cached.
_ROW_CACHE = ContentCache("batch_rows", maxsize=256)

# ``json.dumps(value, default=repr)``, without building an encoder per call.
_encode_params = json.JSONEncoder(default=repr).encode

# Bumped by the number of batched cells, once per call: a memoized batched
# cell costs a few microseconds, so even a pre-bound per-cell counter (see
# repro.obs.counter) is a visible share of it with the registry on.
_BATCHED = _obs.counter("batch_dispatch", outcome="batch")

# One process-wide switch for the batched dispatch (REPRO_BATCHPATH; see
# repro.switches); batchpath_disabled() forces per-cell dispatch for a block.
configure = BATCHPATH.configure
batchpath_enabled = BATCHPATH.enabled
batchpath_disabled = BATCHPATH.disabled


# --------------------------------------------------------------------------- #
# One cell: a cached entry, or a miss reduced from its fast result
# --------------------------------------------------------------------------- #

def _reject(reason: str) -> None:
    """Count one cell's fall to the scalar path; always returns ``None``.

    The reason taxonomy is the end-to-end dispatch story ("why is this
    sweep slow"): static spec vetoes (``batch-path-disabled`` /
    ``fastpath-fast-path-disabled``), the scalar fast path's other
    rejections prefixed ``fastpath-``, and the declines memoized per key —
    ``row-fallback`` and the checks on the summed rows ``lap-estimate`` /
    ``battery-clip`` — counted once per declined cell.
    """
    _obs.inc("batch_dispatch", outcome="scalar", reason=reason)
    return None


def _row_key(spec, params: dict, last: list) -> tuple:
    """The ``batch_rows`` key of ``spec``, whose seeded params are ``params``.

    ``last`` holds the inputs and the key of the previous cell of the call.
    The replications of one grid combination share every input of the key
    but the seed, and a pinned layout's seed is the scenario's own, so their
    key is derived once: it is reused when the strategy, the
    :class:`~repro.scenarios.ScenarioSpec`, the effective scenario seed, the
    simulator config, the metrics and every param name and value are the
    same objects as the previous cell's.  Identity, not equality:
    ``{"x": 1}``, ``{"x": 1.0}`` and ``{"x": True}`` compare equal but
    encode differently.
    """
    scenario = spec.scenario
    inputs = (spec.strategy, scenario, spec.seed if scenario.seed is None else scenario.seed,
              spec.sim, spec.metrics, *params, *params.values())
    if len(inputs) == len(last[0]) and all(map(operator.is_, inputs, last[0])):
        return last[1]
    cfg, metrics = spec.sim, spec.metrics
    plan_key = (spec.strategy, _encode_params(sorted(params.items())), _scenario_cache_key(spec))
    key = (plan_key, cfg.horizon, cfg.synchronized_start, cfg.track_energy, cfg.max_visits,
           _encode_params(metrics) if metrics else None)
    last[:] = inputs, key
    return key


def _cell_record(spec, last: list) -> "dict | None":
    """``spec``'s record, or ``None`` when the cell must run per cell.

    A cell whose key is cached is answered from its ``batch_rows`` entry
    alone.  Only a miss builds and reduces the cell (:func:`_reduce_cell`,
    in a ``batch-reduce`` span) and caches the entry.  ``last`` is the
    call's key memo (:func:`_row_key`).
    """
    cfg = spec.sim
    if not cfg.batch_path:
        return _reject("batch-path-disabled")
    if not cfg.fast_path:
        # Not left to fast_path_rejection: the key omits fast_path, so a
        # cached entry would answer the cell.  Its other two reasons are
        # functions of the plan key, so no entry exists for a key they veto.
        return _reject("fastpath-fast-path-disabled")
    params = seeded_params(spec.strategy, spec.params, spec.seed)
    key = _row_key(spec, params, last)
    metrics = spec.metrics
    entry = _ROW_CACHE.get(key)
    if entry is None:
        with _obs.span("batch-reduce", cat="batch"):
            entry = _reduce_cell(spec, params, key[0])
        if entry is None:
            return None
        _ROW_CACHE.put(key, entry)
    head, body = entry
    if isinstance(body, str):
        return _reject(body)
    record = _record_head(spec, *head)
    # Every cell of the key shares the entry: a list or dict metric value
    # must not become one object in two records.
    record.update(deepcopy(body) if metrics else body)
    return record


def _reduce_cell(spec, params: dict, plan_key: tuple) -> "tuple[tuple, dict | str] | None":
    """A missed cell's entry: its scenario, plan and fast result, reduced to columns.

    ``None`` when the scalar fast path's static rejection vetoes the cell
    (counted, and cached nowhere).  The result's visit and delivery lists
    stay unbuilt unless a metric reads them.
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
    result = fast_result(sim)
    if isinstance(result, str):
        return head, result
    return head, _record_columns(spec.metrics, scenario, plan, result)


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
    pinned layout reuse one plan and one entry whether they arrive as a
    whole campaign or cell by cell from the service scheduler's worker
    threads (threads that miss the same key at once each compute the same
    columns and put equal entries).  A call holds one cell's rows at a
    time.  With the obs registry on, each call records a ``batch`` span, with
    one ``batch-reduce`` child per cell whose key missed; a cached cell
    records none.  The key of a run of cells that differ only in their
    replication seed on a pinned layout is derived once per call
    (:func:`_row_key`); every cell still looks it up on its own.
    """
    specs = list(specs)
    if not BATCHPATH.on:
        return [None] * len(specs)
    last: list = [(), None]
    with _obs.span("batch", cat="batch", cells=len(specs)):
        out = [_cell_record(spec, last) for spec in specs]
    _BATCHED(len(out) - out.count(None))
    return out
