"""Transport-agnostic scheduler: bounded workers, coalescing, backpressure.

The scheduler is the service's core and knows nothing about wire formats:
transports hand it :class:`~repro.runner.RunSpec` /
:class:`~repro.runner.CampaignSpec` objects and receive a
:class:`CampaignTicket` whose :meth:`~CampaignTicket.stream` generator
yields one JSON-safe event dict per cell plus a summary — the transports
only serialise, and only decide how to wait for a cell still computing (a
blocking thread for stdio, the event loop for http).

Three production behaviours live here:

* **request coalescing** — every cell is keyed by its
  :func:`~repro.store.run_fingerprint`; a request for a fingerprint that is
  already in flight *subscribes to the same future* instead of executing
  again, so N concurrent identical requests cost one execution and each
  subscriber still receives the full record stream.  Cells already in the
  result store are served from it without consuming a worker at all
  (PR 5's ~54x warm-hit economics are what make the daemon cheap);
* **backpressure** — admission is atomic per request: the cells that would
  actually execute (misses that are not already in flight) must fit into
  the bounded queue, else the whole request is rejected with
  :class:`ServiceOverloaded` (HTTP transports map it to ``429`` +
  ``Retry-After``) *before* any of its cells are enqueued;
* **graceful shutdown** — :meth:`ServiceScheduler.shutdown` stops admitting
  work and drains the in-flight cells; each finished record was already
  written back to the store as it completed, so nothing computed is lost.

Records are produced by :func:`repro.runner.campaign.execute_run` over the
cells of ``Campaign(spec).cells()`` — exactly the path ``repro-patrol run``
takes — so every record the daemon streams is byte-identical (under JSON
serialisation) to the same spec executed via the CLI, and daemon and CLI
share one store keyspace.  A served cell touches the store once: admission
fingerprints it and looks it up under the scheduler lock, and a miss is
executed and written back by a worker without a second lookup.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Iterator, Mapping

from repro.obs import registry as _obs
from repro.runner.campaign import Campaign, _execute_and_store, _json_sanitize
from repro.runner.spec import CampaignSpec, RunSpec
from repro.store import run_fingerprint
from repro.store.store import ResultStore, resolve_store

__all__ = [
    "ServiceScheduler",
    "CampaignTicket",
    "ServiceOverloaded",
    "ServiceClosed",
]


class ServiceOverloaded(RuntimeError):
    """The bounded queue cannot admit the request; retry after ``retry_after`` s."""

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceClosed(RuntimeError):
    """The scheduler is shutting down and admits no new work."""


class _Cell:
    """One admitted cell: its spec, fingerprint and how it resolves."""

    __slots__ = ("spec", "fingerprint", "source", "record", "future")

    def __init__(
        self,
        spec: RunSpec,
        fingerprint: str,
        *,
        source: str,
        record: "dict | None" = None,
        future: "Future | None" = None,
    ) -> None:
        self.spec = spec
        self.fingerprint = fingerprint
        self.source = source          # "store" | "executed" | "coalesced"
        self.record = record          # set for store hits
        self.future = future          # set for executed / coalesced cells

    def resolve(self) -> dict:
        """Block until the cell's record exists and return it."""
        if self.record is not None:
            return self.record
        assert self.future is not None
        return self.future.result()


class CampaignTicket:
    """One admitted request: stream its per-cell events or wait for all records.

    Tickets are cheap subscriptions: coalesced cells share the executing
    request's future, so several tickets can stream the same underlying
    work.  :meth:`events` yields JSON-safe dicts in deterministic cell order
    (the same order ``Campaign.run`` records them), which is what makes the
    daemon's stream byte-comparable to a CLI run.
    """

    def __init__(self, cells: "list[_Cell]") -> None:
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)

    def fingerprints(self) -> list[str]:
        """The admitted cells' fingerprints, in cell order."""
        return [cell.fingerprint for cell in self._cells]

    def stream(self) -> "Iterator[dict | Future]":
        """The :meth:`events` stream, without ever blocking.

        Before the event of a cell that is still computing, the generator
        yields that cell's :class:`~concurrent.futures.Future` instead; the
        consumer waits for it to settle — on a thread, or on an event loop
        via :func:`asyncio.wrap_future` — and then iterates on.  Store hits
        and finished cells yield their events straight away.
        """
        total = len(self._cells)
        yield {"event": "start", "total": total}
        tally = {"executed": 0, "store": 0, "coalesced": 0, "failed": 0}
        for index, cell in enumerate(self._cells):
            if cell.future is not None and not cell.future.done():
                yield cell.future
            try:
                record = cell.resolve()
            except Exception as exc:
                tally["failed"] += 1
                yield {
                    "event": "error",
                    "index": index,
                    "fingerprint": cell.fingerprint,
                    "message": f"{type(exc).__name__}: {exc}",
                }
                continue
            tally[cell.source] += 1
            yield {
                "event": "cell",
                "index": index,
                "total": total,
                "fingerprint": cell.fingerprint,
                "source": cell.source,
                "record": _json_sanitize(record),
            }
        yield {"event": "done", "total": total, **tally}

    def events(self) -> Iterator[dict]:
        """Yield ``start``, per-cell ``cell``/``error``, then ``done`` events.

        Every ``cell`` event carries the sanitized record (strict JSON: no
        NaN tokens, no numpy scalars) plus the cell's fingerprint and how it
        was satisfied (``"executed"``, ``"store"`` or ``"coalesced"``).  A
        failing cell yields an ``error`` event and the stream continues; the
        final ``done`` event carries the source/failure tallies.  Blocks the
        calling thread while a cell computes (see :meth:`stream`).
        """
        for item in self.stream():
            if isinstance(item, Future):
                wait((item,))
            else:
                yield item

    def records(self) -> list[dict]:
        """Block until every cell resolves; records in cell order (unsanitized)."""
        return [cell.resolve() for cell in self._cells]


class ServiceScheduler:
    """Bounded worker pool around the campaign executor, with coalescing.

    Parameters
    ----------
    store:
        Result store the daemon reads/writes (see
        :func:`repro.store.resolve_store` semantics): ``None`` uses the
        configured default when one exists, ``False`` disables persistence
        (coalescing still deduplicates in-flight work), a path or
        :class:`~repro.store.ResultStore` names one explicitly.
    workers:
        Worker threads executing cells.  Threads (not processes) keep the
        store connection, the coalescing table and the geometry caches
        shared; the simulation itself is pure Python + numpy, so ``workers``
        bounds concurrency, it does not promise linear speedup.
    queue_limit:
        Maximum number of admitted-but-unfinished *executing* cells.  A
        request whose misses do not fit is rejected whole with
        :class:`ServiceOverloaded` — bounded memory, bounded latency.
    retry_after:
        The ``Retry-After`` hint (seconds) carried by rejections.
    cell_runner:
        Test seam: the function executing one admitted cell.  Must accept
        ``(spec, store=...)`` and return ``(record, source)``, like
        :func:`repro.runner.campaign.execute_cell`.  By default a worker
        executes the cell and writes its record back under the fingerprint
        admission looked up, without looking it up again.
    """

    def __init__(
        self,
        *,
        store: Any = None,
        workers: int = 2,
        queue_limit: int = 64,
        retry_after: float = 1.0,
        cell_runner=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store: "ResultStore | None" = resolve_store(store)
        self.workers = workers
        self.queue_limit = queue_limit
        self.retry_after = float(retry_after)
        self._cell_runner = cell_runner
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._pending = 0           # admitted executing cells not yet finished
        self._closed = False
        self._counters = {
            "requests": 0,          # admitted submit() calls
            "rejected": 0,          # ServiceOverloaded rejections
            "cells": 0,             # cells across admitted requests
            "executed": 0,          # cells that ran a simulation
            "coalesced": 0,         # cells subscribed to an in-flight future
            "store_hits": 0,        # cells served straight from the store
            "failed": 0,            # executed cells that raised
        }

    # -- admission --------------------------------------------------------- #

    def submit(self, spec: "RunSpec | CampaignSpec | Mapping[str, Any]") -> CampaignTicket:
        """Admit one run/campaign spec; returns the ticket streaming its cells.

        The spec is expanded exactly as ``repro-patrol run`` expands it
        (:meth:`repro.runner.Campaign.cells` — including validation, so a
        typo'd strategy or scenario parameter raises :class:`ValueError`
        here, before any admission).  Then, atomically under the scheduler
        lock: in-flight fingerprints coalesce, stored fingerprints resolve
        immediately, and the remaining misses are admitted only if they all
        fit into the bounded queue — otherwise the request is rejected whole
        with :class:`ServiceOverloaded` and nothing is enqueued.
        """
        if isinstance(spec, Mapping):
            from repro.runner.spec import spec_from_dict

            spec = spec_from_dict(spec)
        cell_specs = Campaign(spec).cells()  # raises ValueError on bad specs
        fingerprints = [run_fingerprint(cell) for cell in cell_specs]
        with self._lock:
            if self._closed:
                raise ServiceClosed("scheduler is shut down; not accepting work")
            cells = self._admit(cell_specs, fingerprints)
            self._counters["requests"] += 1
            self._counters["cells"] += len(cells)
            _obs.inc("service_requests", outcome="admitted")
            _obs.inc("service_cells", len(cells))
            _obs.observe("service_queue_depth", self._pending)
        return CampaignTicket(cells)

    def _admit(self, cell_specs: list[RunSpec], fingerprints: list[str]) -> "list[_Cell]":
        """Resolve every cell under the lock; raises before enqueuing on overflow."""
        cells: list[_Cell] = []
        to_execute: list[_Cell] = []
        started: dict[str, Future] = {}  # fingerprints this request starts
        for spec, fingerprint in zip(cell_specs, fingerprints):
            inflight = self._inflight.get(fingerprint) or started.get(fingerprint)
            if inflight is not None:
                self._counters["coalesced"] += 1
                _obs.inc("service_admission", outcome="coalesced")
                cells.append(_Cell(spec, fingerprint, source="coalesced", future=inflight))
                continue
            record = self.store.get(fingerprint) if self.store is not None else None
            if record is not None:
                self._counters["store_hits"] += 1
                _obs.inc("service_admission", outcome="store")
                cells.append(_Cell(spec, fingerprint, source="store", record=record))
                continue
            future: Future = Future()
            # Running from admission on, so nothing can cancel it: a
            # subscriber that stops waiting (a client hanging up, a transport
            # stopping) must not take the record from coalesced requests.
            future.set_running_or_notify_cancel()
            started[fingerprint] = future
            cell = _Cell(spec, fingerprint, source="executed", future=future)
            cells.append(cell)
            to_execute.append(cell)
        if self._pending + len(to_execute) > self.queue_limit:
            self._counters["rejected"] += 1
            _obs.inc("service_requests", outcome="rejected")
            raise ServiceOverloaded(
                f"queue full: {len(to_execute)} new cell(s) do not fit "
                f"({self._pending}/{self.queue_limit} in flight); "
                f"retry after {self.retry_after:g}s",
                retry_after=self.retry_after,
            )
        for cell in to_execute:
            self._counters["executed"] += 1
            _obs.inc("service_admission", outcome="executed")
            self._pending += 1
            self._inflight[cell.fingerprint] = cell.future
            self._pool.submit(self._run_cell, cell.spec, cell.fingerprint, cell.future)
        return cells

    # -- execution --------------------------------------------------------- #

    def _run_cell(self, spec: RunSpec, fingerprint: str, future: Future) -> None:
        """Worker body: execute one cell, publish its record, settle the books.

        The fresh record is written back as soon as it exists — which is why
        shutdown only needs to *drain*: a finished cell is already
        persistent.  Admission already missed on the fingerprint; should
        another process publish the same record meanwhile, the put replaces
        it with equal content.
        """
        try:
            if self._cell_runner is None:
                record = _execute_and_store(spec, fingerprint, self.store)
            else:
                record, _source = self._cell_runner(spec, store=self.store)
        except BaseException as exc:
            with self._lock:
                self._counters["failed"] += 1
                _obs.inc("service_cells_failed")
                self._pending -= 1
                self._inflight.pop(fingerprint, None)
            future.set_exception(exc)
            return
        with self._lock:
            self._pending -= 1
            self._inflight.pop(fingerprint, None)
        future.set_result(record)

    # -- lookups / introspection ------------------------------------------- #

    def lookup(self, fingerprint: str) -> "dict | None":
        """Status of one fingerprint: stored payload, in-flight marker, or None."""
        with self._lock:
            inflight = fingerprint in self._inflight
        if inflight:
            return {"fingerprint": fingerprint, "status": "in-flight"}
        if self.store is None:
            return None
        entry = self.store.get_entry(fingerprint)
        if entry is None:
            return None
        return {
            "fingerprint": fingerprint,
            "status": "stored",
            "strategy": entry.strategy,
            "family": entry.family,
            "seed": entry.seed,
            "library_version": entry.library_version,
            "record": _json_sanitize(entry.record),
        }

    def stats(self) -> dict:
        """JSON-safe snapshot: admission counters, queue occupancy, limits."""
        with self._lock:
            counters = dict(self._counters)
            pending = self._pending
            inflight = len(self._inflight)
            closed = self._closed
        return {
            **counters,
            "pending": pending,
            "inflight": inflight,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "accepting": not closed,
        }

    # -- lifecycle --------------------------------------------------------- #

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop admitting work and (by default) drain the in-flight cells.

        Every record a worker finishes during the drain was already written
        to the store as it finished, so a drained shutdown loses nothing and
        a re-submitted campaign resumes from the store.
        """
        with self._lock:
            self._closed = True
            pending = self._pending
        _obs.inc("service_shutdowns")
        _obs.observe("service_drain_pending", pending)
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ServiceScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
