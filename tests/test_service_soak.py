"""Coalescing soak over the stdio transport.

Several stdio sessions on threads share one scheduler and one store and
submit overlapping 4-cell campaigns drawn from a seeded pool.  One session
reaches EOF while the others are mid-run, which drains the scheduler: the
cells already admitted finish, later requests get a clean error event.
Across all of it no fingerprint may execute twice, every streamed record
must equal ``execute_run`` of its cell, and every executed record must be
in the store after the drain.
"""

from __future__ import annotations

import io
import json
import random
import threading
import time
from collections import Counter

import pytest

import repro.runner.campaign as campaign_module
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import _json_sanitize, execute_run
from repro.scenarios import ScenarioSpec
from repro.service import ServiceScheduler
from repro.service.stdio import StdioTransport
from repro.sim import SimulationConfig
from repro.store import ResultStore, run_fingerprint

SESSIONS = 4
REQUESTS_PER_SESSION = 6
CELL_DELAY_S = 0.004        # keeps cells in flight long enough to overlap
DRAIN_AFTER = 1 + (SESSIONS - 1) * REQUESTS_PER_SESSION // 2   # admitted requests


def pool() -> list[CampaignSpec]:
    """Six 4-cell campaigns; any two with one base seed share two cells."""
    return [
        CampaignSpec(
            base=RunSpec(
                strategy="b-tctp",
                scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
                sim=SimulationConfig(horizon=600.0, track_energy=False),
                seed=seed,
            ),
            grid={"strategy": list(pair)},
            replications=2,
        )
        for seed in (0, 10)
        for pair in (("b-tctp", "chb"), ("chb", "sweep"), ("sweep", "b-tctp"))
    ]


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sessions_coalesce_and_drain_cleanly(tmp_path, monkeypatch, seed):
    campaigns = pool()
    expected = {
        run_fingerprint(cell): dumps(_json_sanitize(execute_run(cell)))
        for spec in campaigns for cell in Campaign(spec).cells()
    }
    executions: Counter = Counter()
    lock = threading.Lock()

    def counted_execute_run(spec):
        with lock:
            executions[run_fingerprint(spec)] += 1
        time.sleep(CELL_DELAY_S)
        return execute_run(spec)

    monkeypatch.setattr(campaign_module, "execute_run", counted_execute_run)
    store = ResultStore(tmp_path / "store")
    scheduler = ServiceScheduler(store=store, workers=2, queue_limit=64)
    rng = random.Random(seed)
    scripts = [
        [json.dumps(rng.choice(campaigns).to_dict()) + "\n"
         for _ in range(REQUESTS_PER_SESSION)]
        for _ in range(SESSIONS)
    ]

    def short_input():
        # One request, then EOF once half of the others' are in.
        yield scripts[0][0]
        deadline = time.monotonic() + 30
        while scheduler.stats()["requests"] < DRAIN_AFTER and time.monotonic() < deadline:
            time.sleep(0.001)

    outputs = [io.StringIO() for _ in range(SESSIONS)]
    inputs = [short_input(), *(io.StringIO("".join(s)) for s in scripts[1:])]
    threads = [
        threading.Thread(target=StdioTransport(scheduler, input_stream=stream,
                                               output_stream=out).serve_forever)
        for stream, out in zip(inputs, outputs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()

    assert executions and max(executions.values()) == 1, executions
    closed = 0
    for out in outputs:
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        while events:
            first = events.pop(0)
            if first["event"] == "error":
                # Only a whole request may be turned away, and only by the drain.
                assert "index" not in first, first
                assert first["message"].startswith("scheduler is shut down"), first
                closed += 1
                continue
            assert first == {"event": "start", "total": 4}, first
            cells, done = events[:4], events[4]
            del events[:5]
            assert [e["event"] for e in cells] == ["cell"] * 4, cells
            assert done["event"] == "done" and done["failed"] == 0, done
            for event in cells:
                assert dumps(event["record"]) == expected[event["fingerprint"]]
    assert closed > 0, "no request reached the drained scheduler"
    stats = scheduler.stats()
    assert stats["coalesced"] + stats["store_hits"] > 0, stats
    for fingerprint in executions:
        assert dumps(_json_sanitize(store.get(fingerprint))) == expected[fingerprint]
