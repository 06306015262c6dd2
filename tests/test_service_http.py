"""Wire-level tests for the HTTP transport of ``repro-patrol serve``.

A real daemon on an ephemeral loopback port per test class, driven with
:mod:`http.client` — no test doubles between the bytes on the socket and the
assertions.  The invariants under test are the ISSUE's acceptance criteria:
streamed records byte-identical to CLI execution, coalescing observable over
the wire, and overload mapped to ``429`` + ``Retry-After``.
"""

import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import _json_sanitize
from repro.scenarios import ScenarioSpec
from repro.service import ServiceScheduler
from repro.service import http as http_module
from repro.service.http import HttpTransport
from repro.sim import SimulationConfig
from repro.store import ResultStore


def tiny_run(seed=0, strategy="b-tctp"):
    return RunSpec(
        strategy=strategy,
        scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
        sim=SimulationConfig(horizon=300.0, track_energy=False),
        seed=seed,
    )


def tiny_campaign():
    return CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "chb"]},
                        replications=2)


def canonical(records):
    return [json.dumps(_json_sanitize(r), sort_keys=True) for r in records]


class _Daemon:
    """One background daemon plus an http.client helper bound to its port."""

    def __init__(self, transport):
        self.transport = transport

    def request(self, method, path, body=None, timeout=60):
        conn = HTTPConnection("127.0.0.1", self.transport.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if payload is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, dict(response.getheaders()), raw
        finally:
            conn.close()

    def get_json(self, path):
        status, _headers, raw = self.request("GET", path)
        return status, json.loads(raw)

    def post_stream(self, path, spec):
        """POST a spec and parse the NDJSON stream into a list of events."""
        body = spec if isinstance(spec, dict) else json.loads(spec.to_json())
        status, headers, raw = self.request("POST", path, body=body)
        if status != 200:
            return status, headers, json.loads(raw)
        assert headers.get("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines()]
        return status, headers, events


@pytest.fixture
def daemon(tmp_path):
    scheduler = ServiceScheduler(store=ResultStore(tmp_path / "store"), workers=2)
    transport = HttpTransport(scheduler, port=0).start()
    yield _Daemon(transport)
    transport.stop()


@pytest.fixture
def storeless_daemon():
    scheduler = ServiceScheduler(store=False, workers=2)
    transport = HttpTransport(scheduler, port=0).start()
    yield _Daemon(transport)
    transport.stop()


class TestPlumbing:
    def test_healthz_version_stats(self, daemon):
        status, health = daemon.get_json("/healthz")
        assert (status, health["status"], health["accepting"]) == (200, "ok", True)

        import repro
        status, version = daemon.get_json("/version")
        assert (status, version) == (200, {"version": repro.__version__})

        status, stats = daemon.get_json("/stats")
        assert status == 200
        assert stats["version"] == repro.__version__
        assert stats["scheduler"]["requests"] == 0
        assert stats["store"]["entries"] == 0  # the shared store formatter

    def test_metrics_serves_prometheus_text(self, daemon):
        status, headers, raw = daemon.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_store_entries" in text  # daemon fixture has a store
        # the scheduler gauges agree with the JSON /stats document
        _status, stats = daemon.get_json("/stats")
        assert f"repro_service_workers {stats['scheduler']['workers']}" in text

    def test_unknown_route_404_lists_routes(self, daemon):
        status, payload = daemon.get_json("/nope")
        assert status == 404
        assert "/healthz" in payload["error"]
        assert "/metrics" in payload["error"]

    def test_get_on_submit_routes_is_405(self, daemon):
        status, _headers, raw = daemon.request("GET", "/runs")
        assert status == 405
        assert "POST" in json.loads(raw)["error"]

    def test_invalid_json_body_is_400(self, daemon):
        status, _headers, raw = daemon.request("POST", "/runs", body=None)
        # empty body decodes to JSON null, not an object
        assert status == 400
        assert "JSON object" in json.loads(raw)["error"]

    def test_kind_route_mismatch_is_400(self, daemon):
        spec = json.loads(tiny_campaign().to_json())
        status, _headers, payload = daemon.post_stream("/runs", spec)
        assert status == 400
        assert "/campaigns" in payload["error"]

    def test_bad_spec_is_400_with_suggestion(self, daemon):
        status, _headers, payload = daemon.post_stream(
            "/runs", {"strategy": "b-tctpp"})
        assert status == 400
        assert "b-tctp" in payload["error"]


class TestStreaming:
    def test_run_stream_and_lookup_lifecycle(self, daemon):
        spec = tiny_run()
        status, _headers, events = daemon.post_stream("/runs", spec)
        assert status == 200
        assert [e["event"] for e in events] == ["start", "cell", "done"]
        cell = events[1]
        assert cell["source"] == "executed"

        # the fingerprint the stream reports is immediately queryable
        status, found = daemon.get_json(f"/runs/{cell['fingerprint']}")
        assert status == 200
        assert found["status"] == "stored"
        assert found["record"] == cell["record"]

        status, missing = daemon.get_json("/runs/ffff")
        assert (status, missing["status"]) == (404, "unknown")

    def test_campaign_stream_byte_identical_to_cli_run(self, daemon):
        spec = tiny_campaign()
        status, _headers, events = daemon.post_stream("/campaigns", spec)
        assert status == 200
        served = [e["record"] for e in events if e["event"] == "cell"]
        direct = Campaign(spec).run(store=False).records
        assert canonical(served) == canonical(direct)
        assert events[-1] == {"event": "done", "total": 4, "executed": 4,
                              "store": 0, "coalesced": 0, "failed": 0}

    def test_repost_serves_everything_from_store(self, daemon):
        spec = tiny_campaign()
        _status, _headers, cold = daemon.post_stream("/campaigns", spec)
        _status, _headers, warm = daemon.post_stream("/campaigns", spec)
        assert warm[-1]["store"] == 4 and warm[-1]["executed"] == 0
        cold_records = [e["record"] for e in cold if e["event"] == "cell"]
        warm_records = [e["record"] for e in warm if e["event"] == "cell"]
        assert canonical(warm_records) == canonical(cold_records)


class TestBackpressureAndCoalescing:
    @pytest.fixture
    def slow_daemon(self, monkeypatch):
        self.release = threading.Event()
        started = self.started = threading.Event()

        def slow_runner(spec, store=None):
            started.set()
            self.release.wait(timeout=60)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=1, queue_limit=1,
                                     retry_after=7.0, cell_runner=slow_runner)
        # Whatever a worker body raises (e.g. publishing to a future someone
        # cancelled) would vanish into the pool's own future; collect it.
        self.worker_errors = []
        run_cell = scheduler._run_cell

        def checked_run_cell(*args):
            try:
                run_cell(*args)
            except BaseException as exc:
                self.worker_errors.append(exc)
                raise

        monkeypatch.setattr(scheduler, "_run_cell", checked_run_cell)
        transport = HttpTransport(scheduler, port=0).start()
        yield _Daemon(transport)
        self.release.set()
        transport.stop()

    def test_overflow_is_429_with_retry_after(self, slow_daemon):
        filler = threading.Thread(
            target=slow_daemon.post_stream, args=("/runs", tiny_run(seed=0)))
        filler.start()
        try:
            assert self.started.wait(timeout=30)  # the queue is now full
            status, headers, payload = slow_daemon.post_stream(
                "/runs", tiny_run(seed=1))
            assert status == 429
            assert headers["Retry-After"] == "7"
            assert payload["retry_after"] == 7.0
        finally:
            self.release.set()
            filler.join(timeout=60)

    def test_concurrent_identical_posts_coalesce(self, slow_daemon):
        spec = tiny_run(seed=0)
        results = [None] * 3

        def post(slot):
            results[slot] = slow_daemon.post_stream("/runs", spec)

        threads = [threading.Thread(target=post, args=(slot,)) for slot in range(3)]
        for t in threads:
            t.start()
        try:
            assert self.started.wait(timeout=30)
            # all three requests admitted against a queue_limit of 1: two
            # coalesced onto the in-flight cell instead of consuming slots
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, stats = slow_daemon.get_json("/stats")
                if stats["scheduler"]["requests"] == 3:
                    break
                time.sleep(0.05)
            assert stats["scheduler"]["requests"] == 3
            assert stats["scheduler"]["executed"] == 1
            assert stats["scheduler"]["coalesced"] == 2
        finally:
            self.release.set()
        for t in threads:
            t.join(timeout=60)
        streams = [r[2] for r in results]
        for events in streams:
            assert [e["event"] for e in events] == ["start", "cell", "done"]
            assert events[1]["record"] == {"seed": 0}

    def _wait_for_stats(self, daemon, **expected):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _status, stats = daemon.get_json("/stats")
            if all(stats["scheduler"][k] == v for k, v in expected.items()):
                return
            time.sleep(0.02)
        raise AssertionError(f"scheduler never reached {expected}: {stats['scheduler']}")

    def _open_stream(self, daemon, spec):
        """POST ``spec`` on a raw socket and read until the start event arrives."""
        body = spec.to_json().encode()
        sock = socket.create_connection(("127.0.0.1", daemon.transport.port), timeout=30)
        sock.sendall(b"POST /runs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                     + body)
        received = b""
        while b'"start"' not in received:
            chunk = sock.recv(4096)
            assert chunk, "the stream closed before its start event"
            received += chunk
        return sock

    def test_client_hang_up_keeps_the_coalesced_record(self, slow_daemon):
        spec = tiny_run(seed=0)
        leaver = self._open_stream(slow_daemon, spec)
        assert self.started.wait(timeout=30)
        leaver.close()  # hangs up mid-stream, its cell still computing
        stayer = []
        thread = threading.Thread(
            target=lambda: stayer.append(slow_daemon.post_stream("/runs", spec)))
        thread.start()
        self._wait_for_stats(slow_daemon, coalesced=1)
        self.release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        status, _headers, events = stayer[0]
        assert status == 200
        assert [e["event"] for e in events] == ["start", "cell", "done"]
        assert events[1]["source"] == "coalesced"
        assert events[1]["record"] == {"seed": 0}
        self._wait_for_stats(slow_daemon, pending=0, failed=0)
        assert self.worker_errors == []

    def test_transport_stop_keeps_the_coalesced_record(self, slow_daemon):
        spec = tiny_run(seed=0)
        streaming = self._open_stream(slow_daemon, spec)
        assert self.started.wait(timeout=30)
        scheduler = slow_daemon.transport.scheduler
        ticket = scheduler.submit(spec)  # coalesces onto the streamed cell
        # Stopping the loop cancels the stream's wait; on interpreters whose
        # server waits for open connections, stop() returns after the release.
        stopper = threading.Thread(
            target=slow_daemon.transport.stop, kwargs={"shutdown_scheduler": False})
        stopper.start()
        time.sleep(0.2)
        self.release.set()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        streaming.close()
        assert ticket.records() == [{"seed": 0}]
        scheduler.shutdown(wait=True)
        assert scheduler.stats()["failed"] == 0
        assert self.worker_errors == []

    def test_draining_daemon_reports_503(self, storeless_daemon):
        storeless_daemon.transport.scheduler.shutdown(wait=True)
        status, health = storeless_daemon.get_json("/healthz")
        assert (status, health["status"]) == (503, "draining")
        status, _headers, payload = storeless_daemon.post_stream(
            "/runs", tiny_run())
        assert status == 503
        assert "not accepting" in payload["error"]


class TestStorelessStats:
    def test_stats_store_is_null_without_a_store(self, storeless_daemon):
        status, stats = storeless_daemon.get_json("/stats")
        assert status == 200
        assert stats["store"] is None


def raw_exchange(port, payload, *, half_close, timeout):
    """Send raw bytes; return ``(status or None for a clean close, seconds)``.

    A connection the server resets, or never closes within ``timeout``,
    raises — both are what the transport promises never to do.
    """
    start = time.monotonic()
    received = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            received.append(chunk)
    elapsed = time.monotonic() - start
    raw = b"".join(received)
    if not raw:
        return None, elapsed
    version, status, _reason = raw.split(b"\r\n", 1)[0].split(b" ", 2)
    assert version == b"HTTP/1.1"
    return int(status), elapsed


def _head(*lines):
    return b"".join(line + b"\r\n" for line in lines) + b"\r\n"


def malformed_request(rng):
    """One seeded hostile request: ``(kind, payload, half_close, statuses)``."""
    kind = rng.choice([
        "truncated-body", "stalled-body", "oversized-length", "negative-length",
        "non-numeric-length", "bad-request-line", "long-request-line",
        "long-header-line", "too-many-headers", "slow-sender", "empty", "healthz",
    ])
    limit = http_module.MAX_LINE_BYTES
    post = b"POST /runs HTTP/1.1"
    if kind in ("truncated-body", "stalled-body"):
        declared = rng.randint(2, 4096)
        body = b"{" * rng.randint(0, declared - 1)
        payload = _head(post, b"Content-Length: %d" % declared) + body
        if kind == "truncated-body":
            return kind, payload, True, {400}
        return kind, payload, False, {408}
    if kind == "oversized-length":
        declared = http_module.MAX_BODY_BYTES + rng.randint(1, 10**9)
        return kind, _head(post, b"Content-Length: %d" % declared), True, {413}
    if kind == "negative-length":
        declared = -rng.randint(1, 10**6)
        return kind, _head(post, b"Content-Length: %d" % declared) + b"{}", True, {400}
    if kind == "non-numeric-length":
        junk = rng.choice([b"abc", b"1e3", b"0x10", b"+5", b"1_0", b"12abc", b"-0",
                           "\u0661\u0662".encode()])
        return kind, _head(post, b"Content-Length: " + junk) + b"{}", True, {400}
    if kind == "bad-request-line":
        line = bytes(rng.choice(b"ABCXYZ/%?\x00\x7f") for _ in range(rng.randint(1, 40)))
        return kind, _head(line, b"Host: x"), True, {400}
    if kind == "long-request-line":
        path = b"/" + b"a" * (limit + rng.randint(1, 3 * limit))
        return kind, _head(b"GET " + path + b" HTTP/1.1"), True, {400}
    if kind == "long-header-line":
        value = b"v" * (limit + rng.randint(1, 3 * limit))
        return kind, _head(b"GET /healthz HTTP/1.1", b"X-Long: " + value), True, {431}
    if kind == "too-many-headers":
        count = http_module.MAX_HEADERS + rng.randint(1, 50)
        headers = [b"X-H%d: v" % i for i in range(count)]
        return kind, _head(b"GET /healthz HTTP/1.1", *headers), True, {431}
    if kind == "slow-sender":
        partial = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"[:rng.randint(1, 30)]
        return kind, partial, False, {408}
    if kind == "empty":
        return kind, b"", True, {None}
    return kind, _head(b"GET /healthz HTTP/1.1"), True, {200}


class TestMalformedRequests:
    """Every hostile byte stream ends in a status or a clean close, in time."""

    FUZZ_SEED = 20261016
    FUZZ_CASES = 48

    @pytest.fixture
    def fast_deadline(self, monkeypatch):
        monkeypatch.setattr(http_module, "REQUEST_TIMEOUT_S", 0.5)
        return 0.5

    @pytest.mark.parametrize("declared, body, status", [
        (b"-5", b"{}", 400),
        (b"five", b"{}", 400),
        # Sent in full but refused unread: closing on it must not reset the 413.
        (b"%d" % (2 * http_module.MAX_BODY_BYTES), b"x" * (2 * http_module.MAX_BODY_BYTES),
         413),
    ], ids=["negative", "non-numeric", "oversized-body"])
    def test_bad_content_length_gets_a_status(self, storeless_daemon, declared, body,
                                              status):
        payload = _head(b"POST /runs HTTP/1.1", b"Content-Length: " + declared) + body
        got, _elapsed = raw_exchange(storeless_daemon.transport.port, payload,
                                     half_close=True, timeout=10)
        assert got == status

    def test_seeded_wire_fuzz(self, storeless_daemon, fast_deadline):
        rng = random.Random(self.FUZZ_SEED)
        cases = [malformed_request(rng) for _ in range(self.FUZZ_CASES)]
        port = storeless_daemon.transport.port
        # The server closes within the request deadline plus its linger for
        # the client's leftover input; the rest is slack for a loaded host.
        budget = fast_deadline + http_module._LINGER_S + 5

        def exchange(case):
            _kind, payload, half_close, _statuses = case
            return raw_exchange(port, payload, half_close=half_close, timeout=budget)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(exchange, cases))
        for (kind, _payload, _half_close, statuses), (status, elapsed) in zip(cases, outcomes):
            assert status in statuses, (kind, status)
            assert elapsed < budget, (kind, elapsed)
            if status == 408:  # answered at the deadline, not before
                assert elapsed >= fast_deadline, (kind, elapsed)
        assert {kind for kind, *_rest in cases} >= {"negative-length", "long-header-line",
                                                    "slow-sender", "truncated-body"}
        status, health = storeless_daemon.get_json("/healthz")
        assert (status, health["status"]) == (200, "ok")
