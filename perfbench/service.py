"""The ``service-mixed`` workload: two closed-loop clients against ``serve``.

Untraced runs talk to a real ``python -m repro serve --workers 2``
subprocess with a fresh store per daemon.  The traced run hosts the same
``HttpTransport`` + ``ServiceScheduler`` pair in this process instead, so
the store, the fingerprint function and the scheduler's ``cell_runner`` can
be timed from the benchmark's side.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from perfbench import gen
from perfbench.common import (
    Outcome,
    canonical,
    median,
    peak_rss_mb,
    percentile,
    probe_s,
    speed_factor,
    strict_json,
)
from perfbench.layers import (
    Patches,
    Recorder,
    instrument_fingerprint,
    instrument_pipeline,
    layer_metrics,
)

CLIENTS = 2
DAEMON_WORKERS = 2
DAEMONS_PER_RUN = 8        # fresh daemon + store per timed repetition
BURST_S = 0.25             # closed-loop traffic between two speed probes
TRACE_REQUESTS = 400       # requests replayed untraced, then traced
GATE_SAMPLE = 24           # responses re-checked against execute_run
HEALTH_TIMEOUT_S = 60.0
SRC = Path(__file__).resolve().parents[1] / "src"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port: int, method: str, path: str, body: "dict | None" = None):
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body).encode())
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """A ``repro serve`` subprocess with its own store, stopped on exit."""

    def __init__(self, scratch: Path, store_dir: Path) -> None:
        self.port = _free_port()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--workers", str(DAEMON_WORKERS), "--store", str(store_dir)],
            cwd=scratch, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early with code {self.proc.returncode}")
            try:
                if _request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Result:
    __slots__ = ("kind", "body", "latency_s", "ok", "records")

    def __init__(self, kind, body, latency_s, ok, records) -> None:
        self.kind = kind
        self.body = body
        self.latency_s = latency_s
        self.ok = ok
        self.records = records


def _send(port: int, kind: str, path: str, body: dict) -> Result:
    start = time.perf_counter()
    try:
        status, raw = _request(port, "POST", path, body)
    except OSError as exc:
        print(f"request failed: {exc!r}", file=sys.stderr)
        return Result(kind, body, time.perf_counter() - start, False, [])
    latency = time.perf_counter() - start
    events = [json.loads(line) for line in raw.decode().splitlines()] if status == 200 else []
    records = [e["record"] for e in events if e.get("event") == "cell"]
    done = events[-1] if events else {}
    ok = (done.get("event") == "done" and done.get("failed") == 0
          and done.get("total") == len(records))
    return Result(kind, body, latency, ok, records)


def _drive(port: int, script, *, until: "float | None" = None,
           count: "int | None" = None) -> "tuple[list[Result], float]":
    """Two closed-loop clients share ``script`` until a deadline or a count."""
    lock = threading.Lock()
    results: list[Result] = []
    issued = [0]

    def next_request():
        with lock:
            if count is not None and issued[0] >= count:
                return None
            if until is not None and time.perf_counter() >= until:
                return None
            issued[0] += 1
            return next(script)

    def client():
        while (item := next_request()) is not None:
            result = _send(port, *item)
            with lock:
                results.append(result)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def _prime(port: int, seed: int) -> bool:
    """Execute the hot set once, so later hot requests are store hits."""
    return all(_send(port, "prime", "/runs", spec).ok for spec in gen.service_hot_set(seed))


def _stats(port: int) -> dict:
    status, raw = _request(port, "GET", "/stats")
    return json.loads(raw)["scheduler"] if status == 200 else {}


def _check(results: list[Result], seed: int, out: Outcome) -> None:
    """Streamed records must equal ``execute_run`` on the expanded spec."""
    from repro.runner import Campaign, execute_run, spec_from_dict

    bad = sum(not r.ok for r in results)
    if bad:
        out.fail(bad, "request did not end in a clean done event")
    answered = [r for r in results if r.ok]
    sample = random.Random(f"{seed}/gate").sample(answered, min(GATE_SAMPLE, len(answered)))
    mismatched = 0
    for result in sample:
        cells = Campaign(spec_from_dict(result.body)).cells()
        expected = [canonical(strict_json(execute_run(cell))) for cell in cells]
        if expected != [canonical(r) for r in result.records]:
            mismatched += 1
    if mismatched:
        out.fail(mismatched, "streamed records differ from execute_run")


def run_untraced(seed: int, seconds: float, scratch: Path) -> Outcome:
    results: list[Result] = []
    setups: list[float] = []
    request_rates: list[float] = []
    cell_rates: list[float] = []
    latencies_ms: list[float] = []
    daemon_p99s: list[float] = []
    factors: list[float] = []
    before = probe_s()
    for rep in range(DAEMONS_PER_RUN):
        with tempfile.TemporaryDirectory(dir=scratch, prefix="store-") as store, \
                Daemon(scratch, Path(store)) as daemon:
            after = probe_s()
            setups.append(daemon.setup_s * speed_factor(before, after))
            before = after
            if not _prime(daemon.port, seed):
                raise RuntimeError("priming the hot set failed")
            script = gen.service_requests(seed, rep)
            daemon_latencies: list[float] = []
            end = time.perf_counter() + seconds / DAEMONS_PER_RUN
            # Short bursts with a speed probe between them, while the daemon
            # idles: contention on the reference VM flips within a second.
            while time.perf_counter() < end:
                batch, elapsed = _drive(daemon.port, script,
                                        until=min(end, time.perf_counter() + BURST_S))
                after = probe_s()
                factor = speed_factor(before, after)
                before = after
                factors.append(factor)
                results.extend(batch)
                request_rates.append(len(batch) / (elapsed * factor))
                cell_rates.append(sum(len(r.records) for r in batch) / (elapsed * factor))
                daemon_latencies.extend(r.latency_s * factor * 1000.0 for r in batch)
            latencies_ms.extend(daemon_latencies)
            daemon_p99s.append(percentile(daemon_latencies, 99))
    out = Outcome(attempted=len(results))
    rss = peak_rss_mb(children=True)
    _check(results, seed, out)
    out.metrics.update({
        "setup_s": median(setups),
        "cells_per_s": median(cell_rates),
        "req_per_s": median(request_rates),
        "latency_p50_ms": percentile(latencies_ms, 50),
        # Per daemon, then the median: a contention spike shorter than a
        # burst inflates the tail of one daemon's requests, not the figure.
        "latency_p99_ms": median(daemon_p99s),
        "peak_rss_mb": rss,
    })
    out.notes.append(f"{len(results)} requests from {DAEMONS_PER_RUN} daemons in "
                     f"{len(factors)} bursts; latency percentiles over {len(latencies_ms)} "
                     f"samples; speed factors {min(factors):.3f}..{max(factors):.3f}")
    return out


def _timed_store_class(recorder: Recorder):
    from repro.store import ResultStore

    class TimedStore(ResultStore):
        """ResultStore whose lookups and writes are recorded as store spans."""

        def get(self, fingerprint):
            return _get(self, fingerprint)

        def put(self, fingerprint, record, spec=None):
            return _put(self, fingerprint, record, spec)

    _get = recorder.timed("store.get", ResultStore.get)
    _put = recorder.timed("store.put", ResultStore.put)
    return TimedStore


def run_traced(seed: int, scratch: Path) -> Outcome:
    """Replay one request script against a daemon, then traced in-process."""
    from repro.runner.campaign import execute_cell
    from repro.service import ServiceScheduler
    from repro.service.http import HttpTransport

    first_probe = probe_s()
    with tempfile.TemporaryDirectory(dir=scratch, prefix="store-") as store, \
            Daemon(scratch, Path(store)) as daemon:
        if not _prime(daemon.port, seed):
            raise RuntimeError("priming the hot set failed")
        plain, plain_wall = _drive(daemon.port, gen.service_requests(seed, 0),
                                   count=TRACE_REQUESTS)
        counters = _stats(daemon.port)
    middle_probe = probe_s()

    recorder = Recorder(sample_names=("store.get", "store.put"))
    patches = Patches()
    with tempfile.TemporaryDirectory(dir=scratch, prefix="store-") as store:
        scheduler = ServiceScheduler(
            store=_timed_store_class(recorder)(store), workers=DAEMON_WORKERS,
            cell_runner=recorder.timed("service.execute_cell", execute_cell),
        )
        transport = HttpTransport(scheduler, port=0).start()
        try:
            if not _prime(transport.port, seed):
                raise RuntimeError("priming the hot set failed")
            recorder.reset()
            instrument_pipeline(recorder, patches)
            instrument_fingerprint(recorder, patches)
            traced, traced_wall = _drive(transport.port, gen.service_requests(seed, 0),
                                         count=TRACE_REQUESTS)
        finally:
            patches.restore()
            transport.stop()
    last_probe = probe_s()

    out = Outcome(attempted=len(plain) + len(traced))
    _check(plain + traced, seed, out)
    m = out.metrics
    m.update(layer_metrics(recorder, traced_wall, DAEMON_WORKERS))
    # The two legs run one after the other, so each is scaled by its own
    # speed factor before they are compared.
    m["trace.overhead"] = (traced_wall * speed_factor(middle_probe, last_probe)) / (
        plain_wall * speed_factor(first_probe, middle_probe)) - 1.0
    m["latency_samples"] = len(plain)
    for kind, _share in gen.SERVICE_MIX:
        m[f"service.{kind}.latency_p50_ms"] = median(
            r.latency_s * 1000.0 for r in plain if r.kind == kind)
    for name in ("executed", "coalesced", "store_hits", "rejected"):
        m[f"service.{name}"] = counters.get(name, 0)
    out.notes.append(f"{len(plain)} requests: {traced_wall:.3f}s traced in-process "
                     f"vs {plain_wall:.3f}s against the daemon")
    return out
