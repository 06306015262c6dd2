"""Layer timing for the traced run: spans around calls into each layer.

The benchmark never edits the program.  For a traced run it swaps a timing
wrapper in for each layer entry point the runner reaches (module attributes
such as ``repro.runner.campaign.build_cell_scenario``), records one span per
call, and puts the originals back afterwards.  Untraced runs install
nothing.

Spans nest per thread: a span's *self* time is its duration minus the
time of the timed spans it encloses, so the self times of all spans add up
to the time covered by any timed layer without double counting — that is
what ``runner.layer_coverage`` compares against the wall clock.

Pool workers inherit the wrappers through ``fork``; each worker keeps its
own totals and writes them to ``<spill_dir>/<pid>.json`` when it exits, and
:meth:`Recorder.absorb_spills` folds them into the parent's totals.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

from perfbench.common import median

# Layers whose spans are bookkeeping around other layers rather than work of
# their own; their self time is not counted as covered.
UNCOVERED_LAYERS = ("runner", "service")


class _Totals:
    __slots__ = ("calls", "busy_s", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.samples: list[float] = []


class Recorder:
    """Thread-safe span totals: calls, inclusive and self seconds per name."""

    def __init__(self, *, sample_names: tuple[str, ...] = ()) -> None:
        self.sample_names = frozenset(sample_names)
        self.counters: dict[str, int] = {}
        self._totals: dict[str, _Totals] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spill_dir: "Path | None" = None

    # -- recording -------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: "str | Callable[..., str]", fn: Callable) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be computed from the call."""
        recorder = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = recorder._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                recorder._add(label, elapsed, elapsed - child)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, name: str, busy: float, self_time: float) -> None:
        with self._lock:
            totals = self._totals.get(name)
            if totals is None:
                totals = self._totals[name] = _Totals()
            totals.calls += 1
            totals.busy_s += busy
            totals.self_s += self_time
            if name in self.sample_names:
                totals.samples.append(busy)

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. calls made while warming up)."""
        with self._lock:
            self._totals = {}
            self.counters = {}

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- reading ---------------------------------------------------------- #

    def calls(self, name: str) -> int:
        totals = self._totals.get(name)
        return totals.calls if totals else 0

    def busy_s(self, name: str) -> float:
        totals = self._totals.get(name)
        return totals.busy_s if totals else 0.0

    def self_s(self, name: str) -> float:
        totals = self._totals.get(name)
        return totals.self_s if totals else 0.0

    def samples(self, name: str) -> list[float]:
        totals = self._totals.get(name)
        return list(totals.samples) if totals else []

    def covered_s(self) -> float:
        """Self time summed over every span of a working (non-bookkeeping) layer."""
        return sum(
            t.self_s for name, t in self._totals.items()
            if name.split(".", 1)[0] not in UNCOVERED_LAYERS
        )

    # -- pool workers ----------------------------------------------------- #

    def spill_children_to(self, directory: Path) -> None:
        """Make forked worker processes reset their totals and spill them on exit."""
        from multiprocessing import util

        self._spill_dir = directory
        # multiprocessing runs its after-fork hooks in each new worker once
        # it has cleared the finalizers inherited from the parent.
        util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        from multiprocessing import util

        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals = {}
        self.counters = {}
        path = self._spill_dir / f"{os.getpid()}.json"
        # Runs in the worker's multiprocessing exit hook, after its last task.
        util.Finalize(None, self._spill, args=(path,), exitpriority=10)

    def _spill(self, path: Path) -> None:
        payload = {
            name: [t.calls, t.busy_s, t.self_s, t.samples]
            for name, t in self._totals.items()
        }
        path.write_text(json.dumps({"totals": payload, "counters": self.counters}))

    def absorb_spills(self) -> None:
        """Fold every spilled worker file into these totals."""
        if self._spill_dir is None:
            return
        for path in sorted(self._spill_dir.glob("*.json")):
            data = json.loads(path.read_text())
            with self._lock:
                for name, (calls, busy, self_time, samples) in data["totals"].items():
                    totals = self._totals.setdefault(name, _Totals())
                    totals.calls += calls
                    totals.busy_s += busy
                    totals.self_s += self_time
                    totals.samples.extend(samples)
                for name, amount in data["counters"].items():
                    self.counters[name] = self.counters.get(name, 0) + amount
            path.unlink()


def layer_metrics(recorder: Recorder, wall_s: float, lanes: int) -> dict[str, float]:
    """Per-layer metrics from a traced replay of ``wall_s`` seconds on ``lanes`` executors."""
    offered = recorder.counters.get("sim.batchpath.offered", 0)
    batched = recorder.counters.get("sim.batchpath.batched", 0)
    covered = recorder.covered_s()
    metrics = {
        "sim.batchpath.busy_s": recorder.self_s("sim.batchpath"),
        "sim.batchpath.offered": offered,
        "sim.batchpath.batched": batched,
        "sim.batchpath.batched_ratio": batched / offered if offered else 0.0,
        "sim.metrics.busy_s": recorder.self_s("sim.metrics"),
        "store.fingerprint.busy_s": recorder.self_s("store.fingerprint"),
        "service.execute_cell.busy_s": recorder.busy_s("service.execute_cell"),
        "runner.unattributed_s": lanes * wall_s - covered,
        "runner.layer_coverage": covered / (lanes * wall_s),
    }
    for name in ("planning.plan", "scenarios.build", "sim.engine.fastpath",
                 "sim.engine.event_loop", "store.get", "store.put"):
        metrics[f"{name}.calls"] = recorder.calls(name)
        metrics[f"{name}.busy_s"] = recorder.self_s(name)
    for name in ("store.get", "store.put"):
        samples = recorder.samples(name)
        metrics[f"{name}.p50_ms"] = median(samples) * 1000.0
    return metrics


class Patches:
    """Attribute swaps that are undone in reverse order on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _TimedPlanner:
    """A planner whose ``plan`` is timed; the registry may hand out shared
    planner objects, so the wrapper never mutates the planner itself."""

    def __init__(self, planner: Any, recorder: Recorder) -> None:
        self._planner = planner
        self.plan = recorder.timed("planning.plan", planner.plan)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._planner, name)


def instrument_pipeline(recorder: Recorder, patches: Patches) -> None:
    """Wrap the per-cell layers every campaign path goes through.

    Covers ``scenarios`` (``build_cell_scenario``), ``planning``
    (``get_strategy(...).plan``), ``sim.batchpath``
    (``batch_execute_records``), ``sim.engine`` (``PatrolSimulator.run``,
    labelled fastpath or event loop by the public ``fast_path_rejection``)
    and ``sim.metrics`` (the three record metrics).
    """
    import repro.baselines.base as base
    import repro.runner.campaign as campaign
    import repro.sim.batchpath as batchpath
    from repro.sim.engine import PatrolSimulator
    from repro.sim.fastpath import fast_path_rejection

    patches.set(campaign, "build_cell_scenario",
                recorder.timed("scenarios.build", campaign.build_cell_scenario))

    def planner_factory(get_strategy: Callable) -> Callable:
        def wrapped(name, **kwargs):
            return _TimedPlanner(get_strategy(name, **kwargs), recorder)
        return wrapped

    # The runner binds get_strategy at import; the batch layer imports it
    # from the registry module on each call — both paths need the wrapper.
    patches.set(campaign, "get_strategy", planner_factory(campaign.get_strategy))
    patches.set(base, "get_strategy", planner_factory(base.get_strategy))

    original_batch = batchpath.batch_execute_records
    timed_batch = recorder.timed("sim.batchpath", original_batch)

    def batch_execute_records(specs):
        specs = list(specs)
        out = timed_batch(specs)
        recorder.count("sim.batchpath.offered", len(specs))
        recorder.count("sim.batchpath.batched", sum(r is not None for r in out))
        return out

    patches.set(batchpath, "batch_execute_records", batch_execute_records)

    def engine_label(sim) -> str:
        if sim.config.fast_path and fast_path_rejection(sim) is None:
            return "sim.engine.fastpath"
        return "sim.engine.event_loop"

    patches.set(PatrolSimulator, "run", recorder.timed(engine_label, PatrolSimulator.run))

    for module in (campaign, batchpath):
        for metric in ("average_dcdt", "average_sd", "max_visiting_interval"):
            patches.set(module, metric, recorder.timed("sim.metrics", getattr(module, metric)))


def instrument_fingerprint(recorder: Recorder, patches: Patches) -> None:
    """Wrap ``run_fingerprint`` where the runner and the scheduler call it."""
    import repro.runner.campaign as campaign
    import repro.service.scheduler as scheduler

    for module in (campaign, scheduler):
        patches.set(module, "run_fingerprint",
                    recorder.timed("store.fingerprint", module.run_fingerprint))
