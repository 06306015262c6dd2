"""Crash injection for the result store: SIGKILL a writer, reopen, verify.

A child ``python -c`` process runs one store operation on a temporary root
— a loop of puts, a 40-entry ``merge_from``, ``gc(max_age_days=0)``, or the
conversion of a store in the file-per-record layout — and is killed with
SIGKILL after a seeded delay, 20 times per operation.  After every kill the
store must reopen, every row's payload must parse and equal what was
written for its fingerprint, and a campaign resumed on the store must
return records byte-identical to a store-less run.  The store commits in WAL
mode with ``synchronous=FULL``, so a kill keeps all rows of a transaction or
none of them: a merge or a gc is seen whole or not at all.

POSIX only (SIGKILL).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim import SimulationConfig
from repro.store import ResultStore, canonical_run_payload, run_fingerprint
from store_legacy import legacy_put

pytestmark = pytest.mark.skipif(
    os.name != "posix" or not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
)

KILLS = 20
SEED = 20261019
ENTRIES = 40
PUTS = 5000                  # outlasts the longest kill delay
PUT_WINDOW_S = 0.05
TRIAL_WORKERS = 2            # trials run two at a time

CHILD = """
import json, sys, time
sys.path[:0] = [{src!r}]
from repro.store import ResultStore

op, root, arg = sys.argv[1:]

def say(word):
    sys.stdout.write(word + "\\n")
    sys.stdout.flush()

if op == "put":
    with open(arg) as fh:
        items = json.load(fh)
    store = ResultStore(root)
    store.stats()
    say("ready")
    for fingerprint, record, spec in items:
        store.put(fingerprint, record, spec)
elif op == "merge":
    store, source = ResultStore(root), ResultStore(arg)
    store.stats()
    source.stats()
    say("ready")
    store.merge_from(source)
elif op == "gc":
    store = ResultStore(root)
    store.stats()
    say("ready")
    store.gc(max_age_days=0)
else:
    say("ready")
    ResultStore(root).stats()
say("done")
time.sleep(60)
""".format(src=str(Path(__file__).resolve().parents[1] / "src"))

CAMPAIGN = CampaignSpec(
    base=RunSpec(
        strategy="b-tctp",
        scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
        sim=SimulationConfig(horizon=600.0, track_energy=False),
        metrics=("vip_sd",),
    ),
    grid={"strategy": ["b-tctp", "chb"]},
    replications=2,
)


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=True)


def derived_record(fingerprint: str) -> dict:
    return {"fingerprint": fingerprint, "value": int(fingerprint[:8], 16),
            "vip_sd": float("nan")}


def synthetic(count: int) -> list[tuple]:
    fingerprints = (hashlib.blake2b(f"crash/{i}".encode(), digest_size=20).hexdigest()
                    for i in range(count))
    return [(fp, derived_record(fp), None) for fp in fingerprints]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The campaign's store-less records, the entries to write, and two template stores."""
    base = tmp_path_factory.mktemp("crash")
    cells = Campaign(CAMPAIGN).cells()
    plain = Campaign(CAMPAIGN).run(store=False).records
    campaign_items = [(run_fingerprint(cell), record, canonical_run_payload(cell))
                      for cell, record in zip(cells, plain)]
    writes = campaign_items + synthetic(PUTS)      # the put loop's; templates take the first 40
    current, legacy = base / "current", base / "legacy"
    store = ResultStore(current)
    for fingerprint, record, spec in writes[:ENTRIES]:
        store.put(fingerprint, record, spec)
        legacy_put(legacy, fingerprint, record, spec)
    puts = base / "puts.json"
    puts.write_text(json.dumps(writes))
    return {
        "plain": dumps(plain),
        "current": current,
        "legacy": legacy,
        "puts": puts,
        "expected": {fp: dumps(record) for fp, record, _ in writes},
    }


def start_child(op: str, root: Path, arg: Path) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, op, str(root), str(arg)],
        stdout=subprocess.PIPE, text=True,
    )
    assert child.stdout is not None and child.stdout.readline() == "ready\n"
    return child


def kill(child: subprocess.Popen) -> bool:
    """SIGKILL the child; whether it had finished its operation first."""
    child.send_signal(signal.SIGKILL)
    rest = child.communicate(timeout=30)[0]
    return "done" in rest


def operation_time(op: str, root: Path, arg: Path) -> float:
    """Seconds from ``ready`` to ``done`` of one uninterrupted run."""
    child = start_child(op, root, arg)
    start = time.perf_counter()
    assert child.stdout.readline() == "done\n"
    elapsed = time.perf_counter() - start
    kill(child)
    return elapsed


def verify(root: Path, world: dict) -> int:
    """Reopen ``root``, check every row and a resumed campaign.

    Returns the number of rows the store held before the resume wrote back
    the campaign cells it missed.
    """
    store = ResultStore(root)
    rows = []
    if store.index_path.exists():            # a kill may precede the first write
        store.stats()                        # reopens (and finishes a conversion)
        with closing(sqlite3.connect(store.index_path)) as conn:
            rows = conn.execute("SELECT fingerprint, payload FROM records").fetchall()
    for fingerprint, text in rows:
        payload = json.loads(text)
        assert payload["fingerprint"] == fingerprint
        assert dumps(payload["record"]) == world["expected"][fingerprint]
    resumed = Campaign(CAMPAIGN).run(store=store)
    assert dumps(resumed.records) == world["plain"]
    return len(rows)


def prepare(op: str, root: Path, world: dict) -> Path:
    """Set up ``root`` for one trial; returns the child's extra argument."""
    if op == "put":
        return world["puts"]
    if op == "merge":
        return world["current"]
    if op == "gc":
        ResultStore(root).merge_from(world["current"])
    else:
        shutil.copytree(world["legacy"], root)
    return root


@pytest.mark.parametrize("op", ["put", "merge", "gc", "convert"])
def test_kill_leaves_a_consistent_store(tmp_path, world, op):
    if op == "put":
        window = PUT_WINDOW_S
    else:  # the fastest of three uninterrupted runs, so one slow start cannot widen it
        probes = [tmp_path / f"probe-{i}" for i in range(3)]
        window = 1.25 * min(operation_time(op, probe, prepare(op, probe, world))
                            for probe in probes)
    rng = random.Random(f"{SEED}/{op}")
    delays = [rng.uniform(0.0, window) for _ in range(KILLS)]

    def trial(index: int) -> tuple[bool, int]:
        root = tmp_path / f"trial-{index}"
        child = start_child(op, root, prepare(op, root, world))
        time.sleep(delays[index])
        finished = kill(child)
        return finished, verify(root, world)

    with ThreadPoolExecutor(max_workers=TRIAL_WORKERS) as pool:
        outcomes = list(pool.map(trial, range(KILLS)))
    finished = [done for done, _ in outcomes]
    counts = [count for _, count in outcomes]
    if op == "put":
        assert not any(finished)             # every kill landed inside the loop
    else:
        assert not all(finished), "no kill landed inside the operation"
    if op in ("merge", "gc"):
        # one transaction: a kill keeps all of its rows or none of them
        assert set(counts) <= {0, ENTRIES}, counts
    if op == "convert":
        assert counts == [ENTRIES] * KILLS
        assert not any((tmp_path / f"trial-{i}" / "records").exists() for i in range(KILLS))
