"""Process-wide instrumentation registry: counters, histograms, spans.

One registry per process, default **off**.  Every instrumentation site in
the library goes through three verbs:

* :func:`inc` — bump a named counter (with optional labels;
  :func:`counter` binds them once for call sites hit per cell);
* :func:`observe` — feed a value into a running histogram
  (count / sum / min / max — no buckets, so merging is exact);
* :func:`span` — open a nestable timed span (explicit parentage via a
  thread-local stack), recorded as a dict compatible with the Chrome
  Trace Event format (see :mod:`repro.obs.trace`).

When the registry is disabled (the default) all three collapse to
near-zero-cost no-ops: ``inc``/``observe`` return after one flag check
and ``span`` hands back one shared, pre-built no-op context manager — no
allocation, no clock read.  The flag is the ``OBS`` entry of
:mod:`repro.switches`, next to the geometry-cache / batchpath / kernel
switches: ``REPRO_OBS`` environment variable, :func:`configure`, and the
:func:`obs_disabled` / :func:`obs_collected` context managers.

Byte-invisibility contract
--------------------------
Nothing in this module may influence a simulation result: the registry
only *records*.  Timestamps come from :func:`time.perf_counter` deltas
against a process-local epoch and are kept strictly outside fingerprinted
payloads (``CampaignResult.metadata`` and sidecar span logs only).  The
differential tests in ``tests/test_obs.py`` assert records and
fingerprints are byte-identical with the registry on or off; the
determinism lint grants this package — and only this package — a
first-class wall-clock allowance (see :mod:`repro.analysis.determinism`).

Worker processes
----------------
``perf_counter`` epochs differ across processes, so pool workers never
ship raw spans upward.  Instead a worker calls :func:`drain` after each
cell (payload out, registry cleared) and the parent calls :func:`absorb`,
which merges counters/histograms exactly and rebases span timestamps
best-effort by aligning the worker's drain instant with the parent's
absorb instant.  Worker ``pid`` values are preserved so traces show one
track per process.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager

from repro.switches import OBS

__all__ = [
    "configure",
    "obs_enabled",
    "obs_disabled",
    "obs_collected",
    "inc",
    "counter",
    "observe",
    "span",
    "snapshot",
    "spans",
    "reset",
    "drain",
    "absorb",
    "Window",
]

# One process-wide switch, default OFF: observability is opt-in (REPRO_OBS;
# see repro.switches).  obs_disabled() silences the registry for a block.
configure = OBS.configure
obs_enabled = OBS.enabled
obs_disabled = OBS.disabled

_LOCK = threading.Lock()

# Spans are capped so a runaway campaign cannot exhaust memory; overflow is
# counted, never silent (the snapshot reports recorded vs dropped).
_MAX_SPANS = 200_000

# All span timestamps are microseconds relative to this process-local epoch,
# taken at import.  Relative timestamps make the trace origin stable and are
# what keeps wall-clock values out of any fingerprinted payload.
_EPOCH = time.perf_counter()

_counters: "dict[tuple[str, tuple], float]" = {}
_hists: "dict[tuple[str, tuple], list]" = {}  # [count, sum, min, max]
_spans: "list[dict]" = []
_spans_dropped = 0
_span_ids = itertools.count(1)

_STACK = threading.local()  # per-thread open-span stack (explicit parentage)


def _now_us() -> float:
    return (time.perf_counter() - _EPOCH) * 1e6


# --------------------------------------------------------------------------- #
# Recording verbs
# --------------------------------------------------------------------------- #

def _labels_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _add(key: tuple, value: float = 1) -> None:
    if OBS.on:
        with _LOCK:
            _counters[key] = _counters.get(key, 0) + value


def inc(name: str, value: float = 1, **labels) -> None:
    """Add ``value`` to the counter ``name`` (no-op while disabled)."""
    if OBS.on:
        _add((name, _labels_key(labels)), value)


def counter(name: str, **labels) -> "functools.partial":
    """:func:`inc` with its labels bound once, for call sites hit per cell."""
    return functools.partial(_add, (name, _labels_key(labels)))


def observe(name: str, value: float, **labels) -> None:
    """Feed ``value`` into the histogram ``name`` (no-op while disabled)."""
    if not OBS.on:
        return
    key = (name, _labels_key(labels))
    with _LOCK:
        hist = _hists.get(key)
        if hist is None:
            _hists[key] = [1, value, value, value]
        else:
            hist[0] += 1
            hist[1] += value
            if value < hist[2]:
                hist[2] = value
            if value > hist[3]:
                hist[3] = value


class _NoopSpan:
    """Shared do-nothing span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One open span; closing it records the Trace-Event-shaped dict."""

    __slots__ = ("name", "cat", "args", "id", "parent", "_start")

    def __init__(self, name: str, cat: str, args: dict) -> None:
        self.name = name
        self.cat = cat
        self.args = args
        self.id = next(_span_ids)
        self.parent: "int | None" = None
        self._start = 0.0

    def __enter__(self):
        stack = getattr(_STACK, "open", None)
        if stack is None:
            stack = _STACK.open = []
        if stack:
            self.parent = stack[-1].id
        stack.append(self)
        self._start = _now_us()
        return self

    def __exit__(self, *exc):
        end = _now_us()
        stack = getattr(_STACK, "open", None)
        if stack and stack[-1] is self:
            stack.pop()
        record = {
            "name": self.name,
            "cat": self.cat,
            "id": self.id,
            "parent": self.parent,
            "ts": self._start,
            "dur": end - self._start,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.args:
            record["args"] = self.args
        global _spans_dropped
        with _LOCK:
            if len(_spans) < _MAX_SPANS:
                _spans.append(record)
            else:
                _spans_dropped += 1
        return False


def span(name: str, cat: str = "repro", **args):
    """A timed span context manager; the shared no-op while disabled.

    Parentage is explicit: a span opened while another span is open on the
    same thread records that span's id as its ``parent``.
    """
    if not OBS.on:
        return _NOOP_SPAN
    return _Span(name, cat, args)


# --------------------------------------------------------------------------- #
# Reading the registry
# --------------------------------------------------------------------------- #

def _counter_rows(counters: dict) -> list[dict]:
    return [
        {"name": name, "labels": dict(labels), "value": value}
        for (name, labels), value in sorted(counters.items())
    ]


def _hist_rows(hists: dict) -> list[dict]:
    return [
        {
            "name": name, "labels": dict(labels),
            "count": h[0], "sum": h[1], "min": h[2], "max": h[3],
        }
        for (name, labels), h in sorted(hists.items())
    ]


def snapshot() -> dict:
    """The registry's full, deterministic-ordered document.

    ``counters`` and ``histograms`` are sorted by (name, labels); ``spans``
    reports only tallies — span *bodies* go to the trace/JSONL exporters,
    never into result metadata (they carry timestamps).
    """
    with _LOCK:
        counters = dict(_counters)
        hists = {k: list(v) for k, v in _hists.items()}
        recorded, dropped = len(_spans), _spans_dropped
    return {
        "enabled": OBS.on,
        "counters": _counter_rows(counters),
        "histograms": _hist_rows(hists),
        "spans": {"recorded": recorded, "dropped": dropped},
    }


def spans() -> list[dict]:
    """A copy of the recorded span dicts (trace/JSONL export feedstock)."""
    with _LOCK:
        return [dict(s) for s in _spans]


def reset() -> None:
    """Clear every counter, histogram, and span (tests, fresh windows)."""
    global _spans_dropped
    with _LOCK:
        _counters.clear()
        _hists.clear()
        _spans.clear()
        _spans_dropped = 0


# --------------------------------------------------------------------------- #
# Cross-process merge (pool workers)
# --------------------------------------------------------------------------- #

def drain() -> dict:
    """Snapshot-and-clear for pool workers: the payload :func:`absorb` takes.

    ``now`` is the worker's current relative clock; the parent aligns it
    with its own absorb instant to rebase span timestamps (perf_counter
    epochs are per-process, so raw worker timestamps mean nothing upstream).
    """
    global _spans_dropped
    with _LOCK:
        payload = {
            "counters": [[name, list(labels), value]
                         for (name, labels), value in _counters.items()],
            "hists": [[name, list(labels), list(h)]
                      for (name, labels), h in _hists.items()],
            "spans": _spans[:],
            "dropped": _spans_dropped,
            "now": _now_us(),
        }
        _counters.clear()
        _hists.clear()
        _spans.clear()
        _spans_dropped = 0
    return payload


def absorb(payload: dict) -> None:
    """Merge a worker's :func:`drain` payload into this registry.

    Counters and histograms merge exactly.  Spans are rebased so the
    worker's drain instant lines up with the parent's absorb instant
    (best-effort alignment — good enough for trace timelines), re-keyed
    onto the parent's id sequence, and keep their worker ``pid`` so the
    trace shows one track per process.
    """
    global _spans_dropped
    offset = _now_us() - payload.get("now", 0.0)
    with _LOCK:
        for name, labels, value in payload.get("counters", ()):
            key = (name, tuple(tuple(pair) for pair in labels))
            _counters[key] = _counters.get(key, 0) + value
        for name, labels, h in payload.get("hists", ()):
            key = (name, tuple(tuple(pair) for pair in labels))
            mine = _hists.get(key)
            if mine is None:
                _hists[key] = list(h)
            else:
                mine[0] += h[0]
                mine[1] += h[1]
                mine[2] = min(mine[2], h[2])
                mine[3] = max(mine[3], h[3])
        # Two passes: spans arrive in closing order (children before their
        # parents), so every id must be remapped before parent links are
        # rewritten or inner spans would lose their parentage.
        worker_spans = payload.get("spans", ())
        remap = {s["id"]: next(_span_ids) for s in worker_spans if "id" in s}
        for worker_span in worker_spans:
            if len(_spans) >= _MAX_SPANS:
                _spans_dropped += 1
                continue
            rebased = dict(worker_span)
            if "id" in rebased:
                rebased["id"] = remap[rebased["id"]]
            parent = rebased.get("parent")
            if parent is not None:
                rebased["parent"] = remap.get(parent)
            rebased["ts"] = rebased["ts"] + offset
            _spans.append(rebased)
        _spans_dropped += payload.get("dropped", 0)


# --------------------------------------------------------------------------- #
# Collection windows
# --------------------------------------------------------------------------- #

class Window:
    """A delta view over one collection window (see :func:`obs_collected`).

    ``snapshot()`` reports only what happened *inside* the window: counter
    and histogram count/sum deltas against the entry baseline, and spans
    recorded since entry.  Histogram min/max are lifetime values (running
    extremes cannot be subtracted), which is documented behavior.
    """

    def __init__(self) -> None:
        with _LOCK:
            self._counters0 = dict(_counters)
            self._hists0 = {k: list(v) for k, v in _hists.items()}
            self._span_start = len(_spans)
            self._dropped0 = _spans_dropped

    def snapshot(self) -> dict:
        with _LOCK:
            counters = dict(_counters)
            hists = {k: list(v) for k, v in _hists.items()}
            recorded = len(_spans) - self._span_start
            dropped = _spans_dropped - self._dropped0
        delta_counters = {}
        for key, value in counters.items():
            delta = value - self._counters0.get(key, 0)
            if delta:
                delta_counters[key] = delta
        delta_hists = {}
        for key, h in hists.items():
            before = self._hists0.get(key)
            if before is None:
                delta_hists[key] = h
            elif h[0] > before[0]:
                delta_hists[key] = [h[0] - before[0], h[1] - before[1], h[2], h[3]]
        return {
            "enabled": True,
            "counters": _counter_rows(delta_counters),
            "histograms": _hist_rows(delta_hists),
            "spans": {"recorded": recorded, "dropped": dropped},
        }

    def spans(self) -> list[dict]:
        """The spans recorded since the window opened."""
        with _LOCK:
            return [dict(s) for s in _spans[self._span_start:]]


@contextmanager
def obs_collected(*, enabled: "bool | None" = None):
    """Open a collection window; optionally force the registry on within it.

    ``enabled=True`` switches a globally-off registry on for the window's
    duration (the per-campaign ``sim.obs`` spec knob rides on this), then
    restores the previous state.  ``enabled=None`` leaves the switch alone.
    Yields ``None`` when the registry ends up disabled — callers use the
    window's truthiness to decide whether to embed a snapshot.
    """
    previous = OBS.on
    if enabled is not None and enabled != OBS.on:
        configure(enabled=enabled)
    try:
        yield Window() if OBS.on else None
    finally:
        if OBS.on != previous:
            configure(enabled=previous)
