"""Campaign execution: batch what it can, fan the rest out over worker processes.

Every cell of a campaign — one ``(RunSpec, seed)`` pair — is an independent
work unit: it builds its scenario from the scenario spec + seed, plans,
simulates and reduces to one tidy record (a flat dict of cell coordinates and
metric values).  The executor evaluates every batch-eligible cell on the
batched pass (:mod:`repro.sim.batchpath`) and runs the rest on a
:class:`concurrent.futures.ProcessPoolExecutor` when ``max_workers`` asks
for one, serially otherwise, preserving the deterministic cell order — a
campaign's records are **identical** serial or parallel, byte for byte.

Cells that share a scenario description — every strategy of a grid axis runs
against the same ``(family, params, seed)`` triple, and a pinned scenario
seed shares one layout across all replications — do not regenerate it: a
content-keyed prototype cache (see :mod:`repro.geometry.cache`) stores the
generated scenario once and hands each cell that builds one a
:meth:`~repro.network.scenario.Scenario.fresh_copy` (a batched cell whose
row key is already cached needs none).  Reuse is purely memoizing: records
are byte-identical with the cache on or off.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import switches
from repro.baselines.base import get_strategy, seeded_params
from repro.geometry.cache import ContentCache
from repro.network.scenario import Scenario
from repro.obs import registry as _obs
from repro.runner.record_metrics import compute_metric, metric_name
from repro.runner.spec import CampaignSpec, RunSpec
from repro.sim.engine import PatrolSimulator
from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval
from repro.store import resolve_store, run_fingerprint
from repro.store.io import atomic_write_text

__all__ = [
    "execute_run",
    "execute_cell",
    "execute_many",
    "execute_resumable",
    "Campaign",
    "CampaignResult",
    "group_records",
    "group_mean",
]


# --------------------------------------------------------------------------- #
# Scenario reuse across cells
# --------------------------------------------------------------------------- #

# Generated scenarios memoized by (canonical family, declared params, the
# seed that actually drives generation).  The cache stores pristine
# prototypes; consumers always receive a fresh_copy(), so simulation never
# mutates a cached object.  Worker processes each hold their own cache.
_SCENARIO_CACHE = ContentCache("scenario_prototype", maxsize=64)

# ``json.dumps(params, sort_keys=True, default=repr)``, without building an
# encoder per call (the batch keys every cell by this).
_encode_scenario_params = json.JSONEncoder(sort_keys=True, default=repr).encode


def _scenario_cache_key(spec: RunSpec) -> tuple:
    scenario = spec.scenario
    effective_seed = scenario.seed if scenario.seed is not None else spec.seed
    # ScenarioSpec always holds its params as a dict.
    params = _encode_scenario_params(scenario.params)
    return (scenario.canonical_family(), params, effective_seed)


def build_cell_scenario(spec: RunSpec) -> Scenario:
    """The cell's scenario, reusing a cached prototype when the content matches.

    Two cells share a prototype exactly when they would generate identical
    scenarios: same canonical family, same declared parameters, and the same
    effective generation seed (the spec's pinned scenario seed, else the
    replication seed).  Each call returns an independent
    :meth:`~repro.network.scenario.Scenario.fresh_copy` of the prototype, so
    mule state never leaks between cells.  With caching disabled (see
    :func:`repro.geometry.cache.configure`) every cell regenerates from
    scratch; either way the scenario content is identical.
    """
    prototype = _SCENARIO_CACHE.get_or_compute(
        _scenario_cache_key(spec), lambda: spec.scenario.build(spec.seed)
    )
    return prototype.fresh_copy()


# --------------------------------------------------------------------------- #
# Planning vs simulation wall-clock split
# --------------------------------------------------------------------------- #

def _timing_metadata(spans: "list[dict]") -> dict[str, Any]:
    """The plan-time vs sim-time split, summed from a window's campaign spans.

    Every cell the scalar core runs — in this process or in a pool worker,
    whose spans the parent absorbs — records one ``cell`` span around its
    ``plan`` and ``simulate`` spans.  Batched cells (no ``cell`` span; a
    ``batch-reduce`` span on a cache miss) and store hits (no execution at
    all) record none, so ``cells_timed`` says how much of the campaign the
    split covers.
    """
    durations: dict[str, list[float]] = {"cell": [], "plan": [], "simulate": []}
    for span in spans:
        if span["cat"] == "campaign" and span["name"] in durations:
            durations[span["name"]].append(span["dur"])
    return {  # span durations are microseconds
        "cells_timed": len(durations["cell"]),
        "planning_s": sum(durations["plan"]) / 1e6,
        "simulation_s": sum(durations["simulate"]) / 1e6,
    }


# --------------------------------------------------------------------------- #
# Single-cell execution (module-level so it pickles into worker processes)
# --------------------------------------------------------------------------- #

def execute_run(spec: RunSpec) -> dict:
    """Execute one run spec end to end and reduce it to a tidy record.

    Parameters
    ----------
    spec : RunSpec
        The fully specified run: scenario spec, strategy name + parameters,
        simulator config and replication seed.

    Returns
    -------
    dict
        A flat, JSON-safe record carrying the cell's identification
        (strategy, seed, scenario size, labels), the standard metrics of the
        paper's evaluation (``average_dcdt``, ``average_sd``,
        ``max_visiting_interval``, ``delivered_data``, ``total_distance``,
        ``num_dead_mules``), and any extra metrics the spec requested.

    Notes
    -----
    Strategies that declare a ``seed`` parameter receive ``spec.seed`` unless
    the spec sets one explicitly, exactly as campaign expansion does — the
    same spec produces the same record through either path.  Unlike campaign
    expansion, explicitly given params are *not* filtered: an undeclared
    strategy or scenario parameter raises, so a typo in a hand-written spec
    surfaces.

    The scenario is served through the prototype cache (see
    :func:`build_cell_scenario`); records are byte-identical with caching on
    or off.

    The cell goes batch first: :func:`repro.sim.batchpath.batch_execute_records`
    answers it when it can, sharing cached plans and record columns with
    every earlier cell of the same content, and the scalar core runs only
    when the batch declines — the record is byte-identical either way.
    """
    # Imported lazily: batchpath imports campaign helpers when it loads, so
    # an eager import here would tie module load order in knots.
    from repro.sim.batchpath import batch_execute_records

    record = batch_execute_records([spec])[0]
    return record if record is not None else _execute_scalar(spec)


def _record_head(spec: RunSpec, num_targets: int, num_mules: int, planner: str) -> dict:
    """A record's leading columns, in their byte-visible key order.

    Identity columns, then the spec's labels, then the planner; every record
    — the scalar core's, and a batched cell's, hit or miss — appends its
    metric columns (:func:`_record_columns`) to this.
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


def _record_columns(metrics: tuple, scenario: Scenario, plan, result) -> dict:
    """A finished run's metric columns, in their byte-visible key order.

    The paper's six standard metrics, then each entry of ``metrics`` (a
    spec's ``metrics``).  Every record's metrics are computed here: the
    scalar core calls it on ``PatrolSimulator.run()``'s result, and a batch
    miss on the fast tier's result, whose visit and delivery lists are built
    only if a custom metric reads them.  The three interval metrics are
    called through this module's names, which perfbench's layer tracer
    wraps.
    """
    columns = {
        "average_dcdt": average_dcdt(result),
        "average_sd": average_sd(result),
        "max_visiting_interval": max_visiting_interval(result),
        "delivered_data": result.total_delivered_data(),
        "total_distance": result.total_distance(),
        "num_dead_mules": len(result.dead_mules()),
    }
    for entry in metrics:
        columns[metric_name(entry)] = compute_metric(entry, scenario, plan, result)
    return columns


def _execute_scalar(spec: RunSpec) -> dict:
    """The per-cell core for a cell the batch declined: build, plan, simulate, reduce.

    With the obs registry enabled, the cell and its scenario-build / plan /
    simulate stages are wrapped in spans (the plan/sim split of
    :meth:`Campaign.run` sums them); spans never touch the record.
    """
    with _obs.span("cell", cat="campaign", strategy=spec.strategy, seed=spec.seed):
        with _obs.span("scenario-build", cat="campaign"):
            scenario = build_cell_scenario(spec)
        params = seeded_params(spec.strategy, spec.params, spec.seed)
        planner = get_strategy(spec.strategy, **params)
        with _obs.span("plan", cat="campaign", strategy=spec.strategy):
            plan = planner.plan(scenario)
        with _obs.span("simulate", cat="campaign"):
            result = PatrolSimulator(scenario, plan, spec.sim).run()

        record = _record_head(spec, scenario.num_targets, scenario.num_mules, plan.strategy)
        record.update(_record_columns(spec.metrics, scenario, plan, result))
    return record


def _execute_pooled(spec: RunSpec) -> "tuple[dict, dict | None]":
    """Pool-worker cell: the record plus the worker's obs drain (``None`` while off).

    A worker cannot reach the parent's registry, so its counters and spans
    travel back with the record for :func:`_absorbed` to merge.
    """
    record = _execute_scalar(spec)
    return record, (_obs.drain() if switches.OBS.on else None)


def _absorbed(result: "tuple[dict, dict | None]") -> dict:
    """Merge one pooled cell's obs payload into this process; return its record."""
    record, payload = result
    if payload is not None:
        _obs.absorb(payload)
    return record


def execute_cell(spec: RunSpec, *, store=None) -> "tuple[dict, str]":
    """Execute one cell against an optional store; returns ``(record, source)``.

    The store-aware single-cell primitive behind the service scheduler
    (:mod:`repro.service`): the spec's fingerprint is looked up first,
    a miss executes, and the fresh record is written back **immediately** —
    so concurrent callers and interrupted daemons never lose a finished
    cell.  ``source`` is ``"store"`` for a hit and ``"executed"`` for a
    fresh run.

    ``store`` must be an already-resolved :class:`~repro.store.ResultStore`
    or ``None`` (no :func:`~repro.store.resolve_store` defaulting here — the
    caller has already decided whether persistence is on).

    The spec is executed exactly as given: campaign expansion (replication
    labels, strategy-default filtering) must happen *before* this call —
    via ``Campaign(spec).cells()`` — for records and fingerprints to match
    campaign execution byte for byte.
    """
    if store is None:
        return execute_run(spec), "executed"
    fingerprint = run_fingerprint(spec)
    record = store.get(fingerprint)
    if record is not None:
        _obs.inc("store_lookup", outcome="hit")
        return record, "store"
    _obs.inc("store_lookup", outcome="miss")
    return _execute_and_store(spec, fingerprint, store), "executed"


def _execute_and_store(spec: RunSpec, fingerprint: str, store) -> dict:
    """Execute a cell known to miss and write its record back under ``fingerprint``.

    The second half of :func:`execute_cell`, for callers that have already
    looked the fingerprint up (the service scheduler does at admission).
    ``put`` reuses the canonical payload the fingerprint memoised on ``spec``.
    """
    record = execute_run(spec)
    if store is not None:
        with _obs.span("store-write", cat="store", fingerprint=fingerprint):
            store.put(fingerprint, record, spec)
    return record


def _init_worker_state(state: "dict[str, bool]") -> None:
    """Pool-worker initializer: mirror the parent's switches (a :func:`repro.switches.snapshot`).

    The registry a fork inherits is reset, or every drain() would report it again.
    """
    switches.restore(state)
    _obs.reset()


@contextmanager
def _per_cell_records(specs: "list[RunSpec]", max_workers: "int | None"):
    """Yield an iterator over the records of ``specs`` run per cell, in order.

    Every cell runs on the scalar core, never offered to the batch again.  A
    pool runs them when ``max_workers`` > 1 and two or more cells are given
    (leaving the block cancels any not started); else each ``next()`` runs one.
    """
    pool = None
    if max_workers is not None and max_workers > 1 and len(specs) > 1:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - spawn-only platforms
            mp_context = None
        try:
            # Workers inherit the parent's switches explicitly: spawn-started
            # processes re-import with the defaults, and even forked ones
            # would miss a configure() call made after the pool was created —
            # the initializer makes the state deterministic.
            pool = ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=mp_context,
                initializer=_init_worker_state,
                initargs=(switches.snapshot(),),
            )
        except OSError as exc:  # platforms without process support
            # Only pool *construction* falls back to serial — an error raised
            # by a cell is a real failure and must propagate, not trigger a
            # silent from-scratch serial rerun.
            warnings.warn(f"parallel execution unavailable ({exc!r}); running serially",
                          RuntimeWarning, stacklevel=4)
    if pool is None:
        yield map(_execute_scalar, specs)
        return
    try:
        chunksize = max(1, len(specs) // (max_workers * 4))
        yield map(_absorbed, pool.map(_execute_pooled, specs, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)


def execute_many(
    specs: Iterable[RunSpec],
    *,
    max_workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    on_record: Callable[[int, dict], None] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> list[dict]:
    """Execute run specs, batch first, then per cell; results keep spec order.

    The batched fast path (:mod:`repro.sim.batchpath`) evaluates every
    batch-eligible cell in-process, one after another; only the cells it
    declines run per cell, on the scalar core — over ``max_workers``
    processes when that is above 1 and at least two remain, serially
    otherwise.  No cell is offered to the batch twice, a campaign the batch
    covers entirely starts no worker, and records are byte-identical
    whichever way a cell ran.

    ``progress(done, total)`` is called after each completed cell.
    ``on_record(index, record)`` streams each finished record (in spec order,
    before ``progress``) — the resumable executor uses it to write results
    back to the store as they complete, so a killed campaign keeps its
    finished cells.  ``cancel()`` is polled between cells: once it returns
    true, no further cell starts and the records completed so far are
    returned (cells are atomic — the one in flight finishes; the service
    scheduler leans on this for graceful shutdown).

    Workers use the ``fork`` start method where the platform offers it, so
    strategies/metrics registered at runtime stay visible in the pool.  On
    spawn-only platforms (Windows), custom registrations must happen at
    import time of a module the workers also import.
    """
    specs = list(specs)
    if cancel is not None and cancel():
        return []
    from repro.sim.batchpath import batch_execute_records  # lazy: see execute_run

    records = batch_execute_records(specs)
    remainder = [spec for spec, record in zip(specs, records) if record is None]
    with _per_cell_records(remainder, max_workers) as fresh:
        for index, record in enumerate(records):
            if record is None:
                records[index] = record = next(fresh)
            if on_record is not None:
                on_record(index, record)
            if progress is not None:
                progress(index + 1, len(specs))
            if cancel is not None and cancel():
                del records[index + 1:]
                break
    return records


def execute_resumable(
    specs: Iterable[RunSpec],
    *,
    store,
    max_workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    on_record: Callable[[int, dict], None] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> "tuple[list[dict], int, int]":
    """Execute run specs against a result store; returns ``(records, hits, misses)``.

    Every spec's :func:`~repro.store.run_fingerprint` is looked up first;
    only the misses are executed (in parallel, exactly as
    :func:`execute_many` would) and each finished record is written back to
    the store **as it completes**, so an interrupted campaign resumes from
    its last finished cell.  A cell is canonicalised once: the write-back
    reuses the payload its fingerprint memoised on the spec.  Records keep
    spec order and are byte-identical
    (under JSON serialisation) to a cold, store-less run — stored hits are
    the JSON round-trip of what the miss path computed.

    ``progress(done, total)`` counts hits as immediately done: a fully warm
    campaign reports ``(total, total)`` once without executing anything.
    ``on_record(index, record)`` observes every record — the hits first (in
    spec order), then each executed miss as it completes, after its store
    write-back.  ``cancel()`` is polled between executed cells (see
    :func:`execute_many`); a cancelled call leaves ``None`` placeholders in
    the returned records for the cells that never ran, while ``misses``
    still counts every cell that *needed* execution.
    """
    specs = list(specs)
    fingerprints = [run_fingerprint(spec) for spec in specs]
    records: "list[dict | None]" = []
    miss_indices: list[int] = []
    for index, fingerprint in enumerate(fingerprints):
        record = store.get(fingerprint)
        records.append(record)
        if record is None:
            miss_indices.append(index)
    hits = len(specs) - len(miss_indices)
    if hits:
        _obs.inc("store_lookup", hits, outcome="hit")
    if miss_indices:
        _obs.inc("store_lookup", len(miss_indices), outcome="miss")
    if progress is not None and hits:
        progress(hits, len(specs))
    if on_record is not None:
        for index, record in enumerate(records):
            if record is not None:
                on_record(index, record)

    def _write_back(subset_index: int, record: dict) -> None:
        index = miss_indices[subset_index]
        with _obs.span("store-write", cat="store", fingerprint=fingerprints[index]):
            store.put(fingerprints[index], record, specs[index])
        if on_record is not None:
            on_record(index, record)

    if not miss_indices:
        return records, hits, 0
    fresh = execute_many(
        [specs[i] for i in miss_indices],
        max_workers=max_workers,
        progress=(
            None if progress is None
            else lambda done, _total: progress(hits + done, len(specs))
        ),
        on_record=_write_back,
        cancel=cancel,
    )
    for index, record in zip(miss_indices, fresh):
        records[index] = record
    return records, hits, len(miss_indices)


def _json_sanitize(obj: Any) -> Any:
    """Make a record value strict-JSON-safe: no NaN tokens, no numpy types.

    Python's ``json`` would happily emit the non-standard ``NaN`` token
    (which jq / ``JSON.parse`` reject), and several metrics return NaN by
    design — e.g. ``vip_sd`` on a scenario without VIPs — so non-finite
    floats become ``None``.  Custom metric extractors may also return numpy
    scalars or arrays (possibly nested inside lists/dicts): scalars are
    unwrapped to their Python twins and arrays become (nested) lists, with
    the same NaN handling applied element-wise.
    """
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    return obj


# --------------------------------------------------------------------------- #
# Record aggregation helpers
# --------------------------------------------------------------------------- #

def group_records(
    records: Iterable[Mapping[str, Any]],
    by: "str | Sequence[str]",
) -> "dict[Any, list[dict]]":
    """Group records by one column (scalar keys) or several (tuple keys)."""
    single = isinstance(by, str)
    columns = (by,) if single else tuple(by)
    groups: dict[Any, list[dict]] = {}
    for record in records:
        key = record[columns[0]] if single else tuple(record[c] for c in columns)
        groups.setdefault(key, []).append(dict(record))
    return groups


def group_mean(
    records: Iterable[Mapping[str, Any]],
    value: str,
    *,
    by: "str | Sequence[str]",
) -> "dict[Any, float]":
    """Group-by NaN-aware mean of one record column (the experiments' reducer)."""
    out: dict[Any, float] = {}
    for key, group in group_records(records, by).items():
        values = np.asarray([g[value] for g in group], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            out[key] = float(np.nanmean(values))
    return out


# --------------------------------------------------------------------------- #
# Campaign + CampaignResult
# --------------------------------------------------------------------------- #

@dataclass
class CampaignResult:
    """Tidy per-run records of a finished campaign, with export helpers."""

    records: list[dict]
    spec: CampaignSpec | None = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def columns(self) -> list[str]:
        """Union of record keys, ordered by first appearance."""
        seen: dict[str, None] = {}
        for record in self.records:
            for key in record:
                seen.setdefault(key)
        return list(seen)

    def values(self, column: str) -> list:
        """One column across all records (missing entries become NaN)."""
        return [record.get(column, float("nan")) for record in self.records]

    def group_mean(self, value: str, *, by: "str | Sequence[str]") -> "dict[Any, float]":
        """Group-by NaN-aware mean of one metric column."""
        return group_mean(self.records, value, by=by)

    def to_rows(self, *, scalar_only: bool = False) -> tuple[list[str], list[list]]:
        """Header + row table of the records (``scalar_only`` drops list/dict columns)."""
        columns = self.columns()
        if scalar_only:
            columns = [
                c for c in columns
                if not any(isinstance(r.get(c), (list, tuple, dict)) for r in self.records)
            ]
        rows = [[record.get(c, "") for c in columns] for record in self.records]
        return columns, rows

    def _payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"records": _json_sanitize(self.records)}
        if self.spec is not None:
            payload["spec"] = self.spec.to_dict()
        if self.metadata:
            payload["metadata"] = self.metadata
        return payload

    def to_json(self, *, indent: int | None = 2) -> str:
        """Strict-JSON payload of the records (+ spec); NaN metrics become null."""
        return json.dumps(self._payload(), indent=indent, sort_keys=True, allow_nan=False)

    def save_json(self, path: "str | Path") -> Path:
        """Write the payload with the same ``_meta`` stamp as ``results_io.save_result``,
        so archived record files are traceable to the library version that made them.

        The write is atomic (temp file + ``os.replace``): a killed run leaves
        either the previous artifact or the complete new one, never a
        truncated JSON document.
        """
        from repro import __version__

        payload = self._payload()
        payload["_meta"] = {"library_version": __version__, "saved_at_unix": time.time()}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        return atomic_write_text(path, text + "\n")

    def save_csv(self, path: "str | Path") -> Path:
        """Export the scalar columns as CSV, atomically (see :meth:`save_json`)."""
        from repro.experiments.reporting import to_csv

        headers, rows = self.to_rows(scalar_only=True)
        # newline="" writes the CSV's own line endings verbatim on every
        # platform instead of translating them to os.linesep.
        return atomic_write_text(path, to_csv(headers, rows), newline="")


class Campaign:
    """Executor for a campaign (or single run) spec.

    Parameters
    ----------
    spec : CampaignSpec or RunSpec
        What to execute; a bare :class:`RunSpec` becomes a one-cell campaign.
    max_workers : int, optional
        Any value above 1 fans the cells the batched fast path declines out
        over that many worker processes; ``None`` (or 1) runs them serially.
        Records come back in deterministic cell order, with identical contents.

    Notes
    -----
    Cells that share a scenario description reuse one generated prototype
    (each receiving a fresh copy), and cells whose scenarios share geometry
    reuse memoized tours — see :mod:`repro.geometry.cache` and
    ``docs/PERFORMANCE.md``.  Both optimisations are byte-invisible in the
    records.

    Examples
    --------
    >>> from repro.runner import Campaign, CampaignSpec, RunSpec
    >>> spec = CampaignSpec(base=RunSpec(strategy="b-tctp"),
    ...                     grid={"strategy": ["chb", "b-tctp"]}, replications=4)
    >>> result = Campaign(spec, max_workers=4).run()    # doctest: +SKIP
    >>> result.group_mean("average_sd", by="strategy")  # doctest: +SKIP
    """

    def __init__(
        self,
        spec: "CampaignSpec | RunSpec",
        *,
        max_workers: int | None = None,
    ) -> None:
        self.spec = spec if isinstance(spec, CampaignSpec) else CampaignSpec(base=spec)
        self.max_workers = max_workers
        self._cells: "list[RunSpec] | None" = None

    def cells(self) -> list[RunSpec]:
        """The expanded, ordered run cells of this campaign (expanded once).

        The spec is immutable, so callers that validate via ``cells()`` and
        then ``run()`` do not pay for (or re-validate) a second expansion.
        """
        if self._cells is None:
            self._cells = self.spec.cells()
        return self._cells

    def run(
        self,
        *,
        progress: Callable[[int, int], None] | None = None,
        store=None,
        on_record: Callable[[int, dict], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> CampaignResult:
        """Execute every cell and return the tidy records.

        Parameters
        ----------
        progress:
            Optional ``progress(done, total)`` callback, invoked after each
            completed cell (store hits count as immediately done).
        store:
            Resume from / write back to a persistent result store (see
            :func:`repro.store.resolve_store`): ``None`` uses the default
            store when one is configured (``REPRO_STORE_DIR``), ``False``
            opts out, ``True`` forces one, and a path or
            :class:`~repro.store.ResultStore` names one explicitly.  Cells
            whose fingerprints are already stored are served from the store
            — byte-identical under JSON serialisation to executing them —
            and the result metadata gains a ``"store"`` block with the
            hit/miss counts.
        on_record:
            Optional ``on_record(index, record)`` observer streaming each
            record as it becomes available (``index`` is the cell's position
            in :meth:`cells`); with a store, it fires after the record's
            write-back.
        cancel:
            Optional ``cancel()`` poll: once it returns true, no further
            cell starts; the result keeps the records completed so far (in
            cell order) and its metadata gains ``"cancelled": True``.

        Notes
        -----
        With the obs registry enabled — process-wide (``REPRO_OBS=1`` /
        :func:`repro.obs.configure`) or per-campaign via any cell's
        ``sim.obs`` knob — the metadata gains two blocks.  ``"obs"`` is the
        registry's snapshot *for this campaign only* (counter and histogram
        deltas plus span tallies; see
        :func:`repro.obs.registry.obs_collected`).  ``"timing"``
        (``cells_timed`` / ``planning_s`` / ``simulation_s``) is the
        plan-time vs sim-time wall-clock split summed from the window's
        ``plan`` and ``simulate`` spans over the cells the batch layer
        declined, which ran per cell in this process or in a pool worker.
        Batched cells and store hits are not timed per cell, so
        ``cells_timed`` may be less than ``num_cells``.  Span bodies never
        land in metadata — they carry timestamps and go to the trace/JSONL
        exporters instead — and with the registry off the metadata holds
        no wall-clock value at all, so identical runs serialize to
        identical bytes.  Records are byte-identical either way.
        """
        cells = self.cells()
        metadata: dict[str, Any] = {"num_cells": len(cells), "max_workers": self.max_workers}
        resolved = resolve_store(store)
        obs_on = switches.OBS.on or any(cell.sim.obs for cell in cells)
        with _obs.obs_collected(enabled=obs_on or None) as window:
            with _obs.span("campaign", cat="campaign", cells=len(cells)):
                if resolved is None:
                    records = execute_many(cells, max_workers=self.max_workers,
                                           progress=progress,
                                           on_record=on_record, cancel=cancel)
                else:
                    records, hits, misses = execute_resumable(
                        cells, store=resolved, max_workers=self.max_workers,
                        progress=progress, on_record=on_record, cancel=cancel,
                    )
                    metadata["store"] = {
                        "root": str(resolved.root), "hits": hits, "misses": misses
                    }
            if window is not None:
                metadata["obs"] = window.snapshot()
                metadata["timing"] = _timing_metadata(window.spans())
        completed = [r for r in records if r is not None]
        if len(completed) < len(cells):
            metadata["cancelled"] = True
        return CampaignResult(records=completed, spec=self.spec, metadata=metadata)
