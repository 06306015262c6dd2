#!/usr/bin/env python
"""End-to-end smoke test for the serve daemon (CI `serve-smoke` job).

Starts ``repro-patrol serve`` as a real subprocess on a free loopback port
with a temporary result store, then proves the service contract of
docs/SERVICE.md over the wire:

1. a POSTed CampaignSpec streams NDJSON whose records are **byte-identical**
   (sorted JSON) to ``repro-patrol run`` executing the same spec file;
2. re-POSTing the same campaign re-executes **zero** cells — every record is
   served from the store, byte-identical to the first stream;
3. ``/stats`` agrees with the observed admission counters and embeds the
   store stats document;
4. ``/metrics`` serves Prometheus text telling the same story as ``/stats``
   (one formatter behind both surfaces, see docs/OBSERVABILITY.md), and its
   ``batch_rows`` cache counters prove the daemon's cells rode the batched
   fast path;
5. a fresh ``POST /runs`` streams the record ``repro-patrol run`` prints for
   the same run spec;
6. a request with a negative ``Content-Length`` is answered ``400``, not
   dropped;
7. a second daemon started on the same ``--store`` serves the re-POSTed
   campaign from it: zero executions, the first stream's bytes, and a store
   directory with no per-record payload files (records live in the index).

Run locally: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import tempfile
import time
from http.client import HTTPConnection
from pathlib import Path

CAMPAIGN = {
    "kind": "campaign",
    "base": {
        "strategy": "b-tctp",
        "scenario": {"family": "uniform",
                     "params": {"num_targets": 8, "num_mules": 2}},
        "sim": {"horizon": 6000.0, "track_energy": False},
    },
    "grid": {"strategy": ["b-tctp", "chb"]},
    "replications": 2,
}
NUM_CELLS = 4
RUN = {
    "kind": "run",
    "strategy": "sweep",
    "scenario": {"family": "uniform",
                 "params": {"num_targets": 8, "num_mules": 2}, "seed": 3},
    "sim": {"horizon": 6000.0, "track_energy": False},
    "seed": 11,
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def request(port: int, method: str, path: str, body: "dict | None" = None):
    conn = HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_healthy(port: int, proc: subprocess.Popen, deadline_s: float = 30) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited early with code {proc.returncode}")
        try:
            status, _body = request(port, "GET", "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.2)
    raise SystemExit("daemon did not become healthy in time")


def post_campaign(port: int) -> list[dict]:
    status, raw = request(port, "POST", "/campaigns", CAMPAIGN)
    assert status == 200, (status, raw)
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert events[0] == {"event": "start", "total": NUM_CELLS}, events[0]
    assert events[-1]["event"] == "done" and events[-1]["failed"] == 0, events[-1]
    return events


def canonical(records: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in records]


def cli_records(spec: dict, path: Path) -> list[dict]:
    """The records ``repro-patrol run`` prints for ``spec`` (written to ``path``)."""
    path.write_text(json.dumps(spec))
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(path), "--no-store", "--json"],
        check=True, capture_output=True, text=True)
    return json.loads(cli.stdout)["records"]


def raw_status(port: int, payload: bytes) -> int:
    """Send raw request bytes; return the status of the response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    assert received.startswith(b"HTTP/1.1 "), received[:200]
    return int(received.split(b" ", 2)[1])


def start_daemon(store_dir: str) -> "tuple[subprocess.Popen, int]":
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2", "--store", store_dir],
    )
    return proc, port


def stop_daemon(proc: subprocess.Popen) -> None:
    proc.terminate()
    proc.wait(timeout=30)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        store_dir = str(Path(tmp) / "store")
        proc, port = start_daemon(store_dir)
        try:
            wait_healthy(port, proc)

            cold = post_campaign(port)
            assert cold[-1]["executed"] == NUM_CELLS, cold[-1]
            served = [e["record"] for e in cold if e["event"] == "cell"]

            # 1. byte identity with the CLI executing the same spec file
            assert canonical(served) == canonical(
                cli_records(CAMPAIGN, Path(tmp) / "campaign.json")), \
                "daemon stream diverged from CLI execution"

            # 2. re-POST: zero re-executions, identical bytes
            warm = post_campaign(port)
            assert warm[-1]["executed"] == 0, warm[-1]
            assert warm[-1]["store"] == NUM_CELLS, warm[-1]
            warm_records = [e["record"] for e in warm if e["event"] == "cell"]
            assert canonical(warm_records) == canonical(served), \
                "store-served records diverged from the first stream"

            # 3. /stats tells the same story, with the store document embedded
            status, raw = request(port, "GET", "/stats")
            assert status == 200, (status, raw)
            stats = json.loads(raw)
            scheduler = stats["scheduler"]
            assert scheduler["requests"] == 2, scheduler
            assert scheduler["executed"] == NUM_CELLS, scheduler
            assert scheduler["store_hits"] == NUM_CELLS, scheduler
            assert scheduler["rejected"] == 0, scheduler
            assert stats["store"]["entries"] == NUM_CELLS, stats["store"]

            # 4. /metrics: Prometheus text, consistent with /stats
            status, raw = request(port, "GET", "/metrics")
            assert status == 200, (status, raw)
            text = raw.decode()
            assert "# TYPE repro_service_requests_total counter" in text, text[:400]
            assert "repro_service_requests_total 2" in text, text[:400]
            assert f"repro_service_executed_total {NUM_CELLS}" in text
            assert f"repro_service_store_hits_total {NUM_CELLS}" in text
            assert f"repro_store_entries {NUM_CELLS}" in text
            batch_rows = re.search(
                r'^repro_cache_misses_total\{cache="batch_rows"\} (\d+)$', text, re.M)
            assert batch_rows and int(batch_rows.group(1)) > 0, \
                "the daemon's cells never reached the batched fast path"

            # 5. a fresh run streams the CLI's record, byte for byte
            status, raw = request(port, "POST", "/runs", RUN)
            assert status == 200, (status, raw)
            events = [json.loads(line) for line in raw.decode().splitlines()]
            assert [e["event"] for e in events] == ["start", "cell", "done"], events
            assert events[1]["source"] == "executed", events[1]
            assert canonical([events[1]["record"]]) == canonical(
                cli_records(RUN, Path(tmp) / "run.json")), \
                "fresh run diverged from CLI execution"

            # 6. a negative Content-Length gets a status, not a dropped connection
            status = raw_status(port, b"POST /runs HTTP/1.1\r\n"
                                      b"Content-Length: -5\r\n\r\n{}")
            assert status == 400, status
        finally:
            stop_daemon(proc)

        # 7. a restarted daemon on the same store executes nothing
        proc, port = start_daemon(store_dir)
        try:
            wait_healthy(port, proc)
            restarted = post_campaign(port)
            assert restarted[-1]["executed"] == 0, restarted[-1]
            assert restarted[-1]["store"] == NUM_CELLS, restarted[-1]
            assert canonical([e["record"] for e in restarted if e["event"] == "cell"]) \
                == canonical(served), "records served after a restart diverged"
        finally:
            stop_daemon(proc)
        payload_files = list(Path(store_dir).rglob("*.json"))
        assert not payload_files and not (Path(store_dir) / "records").exists(), \
            f"the store wrote per-record payload files: {payload_files}"
    print(f"serve smoke ok: {NUM_CELLS} cells executed once via the batch layer, "
          f"re-POST served {NUM_CELLS}/{NUM_CELLS} from the store, "
          "streams byte-identical to the CLI, bad Content-Length answered 400, "
          "a restarted daemon served the campaign from the same store")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
