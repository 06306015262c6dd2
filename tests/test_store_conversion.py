"""Opening a store in the file-per-record layout converts it to one row per record.

Earlier versions kept each payload in ``records/<ff>/<fp>.json`` beside a
``runs`` table of file paths (see ``store_legacy.py``).  The first connection
moves every readable payload into a ``records`` row, drops rows whose file is
missing, removes ``records/`` and marks the layout, so later opens do nothing.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim.engine import SimulationConfig
from repro.store import ResultStore, run_fingerprint
from repro.store.store import _LAYOUT_VERSION
from store_legacy import legacy_payload_path, legacy_put


def campaign() -> CampaignSpec:
    return CampaignSpec(
        base=RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2}),
            sim=SimulationConfig(horizon=4000.0, track_energy=False),
            metrics=("vip_sd",),   # NaN on a layout without VIPs
        ),
        grid={"strategy": ["chb", "b-tctp"]},
        replications=2,
    )


def sorted_json(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=True)


def rows(root) -> list[tuple]:
    with closing(sqlite3.connect(root / "index.sqlite")) as conn:
        return conn.execute("SELECT * FROM records ORDER BY fingerprint").fetchall()


@pytest.fixture()
def legacy(tmp_path):
    """A legacy store: four campaign cells, a missing file and an orphan file."""
    root = tmp_path / "legacy"
    cells = Campaign(campaign()).cells()
    records = Campaign(campaign()).run(store=False).records
    written = {}
    for cell, record in zip(cells, records):
        fingerprint = run_fingerprint(cell)
        legacy_put(root, fingerprint, record, cell)
        written[fingerprint] = record
    assert any(r["vip_sd"] != r["vip_sd"] for r in records)  # a NaN went in
    gone = "ab" * 20
    legacy_put(root, gone, {"x": 1}).unlink()
    orphan = legacy_payload_path(root, "cd" * 20)
    orphan.parent.mkdir(parents=True)
    orphan.write_text("{}")
    return root, written, gone


class TestConversion:
    def test_records_survive_byte_for_byte(self, legacy):
        root, written, gone = legacy
        store = ResultStore(root)
        assert len(store) == len(written)
        for fingerprint, record in written.items():
            assert sorted_json(store.get(fingerprint)) == sorted_json(record)
        assert store.get(gone) is None
        assert not (root / "records").exists()

    def test_index_columns_and_payload_carry_over(self, legacy):
        root, written, _ = legacy
        with closing(sqlite3.connect(root / "index.sqlite")) as conn:
            before = {
                fp: (s, f, seed, created, version, (root / name).read_text())
                for fp, s, f, seed, created, version, name
                in conn.execute("SELECT * FROM runs")
                if (root / name).exists()
            }
        ResultStore(root).stats()
        after = {fp: tuple(rest) for fp, *rest in rows(root)}
        assert set(after) == set(written)
        for fingerprint, (*columns, text) in before.items():
            assert after[fingerprint][:-1] == tuple(columns)
            assert after[fingerprint][-1] == text.rstrip("\n")

    def test_resumed_campaign_executes_nothing(self, legacy):
        root, _, _ = legacy
        warm = Campaign(campaign()).run(store=root)
        assert warm.metadata["store"]["hits"] == 4
        assert warm.metadata["store"]["misses"] == 0
        cold = Campaign(campaign()).run(store=False)
        assert sorted_json(warm.records) == sorted_json(cold.records)

    def test_second_open_is_a_no_op(self, legacy, monkeypatch):
        root, written, _ = legacy
        ResultStore(root).stats()
        converted = rows(root)
        calls = []
        original = ResultStore._convert
        monkeypatch.setattr(ResultStore, "_convert",
                            lambda self, conn: calls.append(1) or original(self, conn))
        assert len(ResultStore(root)) == len(written)
        assert calls == []
        assert rows(root) == converted
        with closing(sqlite3.connect(root / "index.sqlite")) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == _LAYOUT_VERSION
            tables = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
        assert tables == {"records"}

    def test_merge_from_legacy_equals_merge_from_converted(self, legacy, tmp_path):
        root, written, _ = legacy
        twin = tmp_path / "twin"
        shutil.copytree(root, twin)
        ResultStore(twin).stats()                      # convert the twin first
        counts = ResultStore(tmp_path / "a").merge_from(root)   # converts on open
        assert counts == ResultStore(tmp_path / "b").merge_from(twin)
        assert counts == {"merged": len(written), "duplicates": 0}
        assert rows(tmp_path / "a") == rows(tmp_path / "b") == rows(root)
        assert not (root / "records").exists()

    def test_two_openers_at_once_convert_once(self, legacy):
        root, written, _ = legacy
        barrier = threading.Barrier(4, timeout=30)
        sizes, errors = [], []

        def opener():
            try:
                barrier.wait()
                sizes.append(len(ResultStore(root)))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=opener) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert sizes == [len(written)] * 4
        store = ResultStore(root)
        for fingerprint, record in written.items():
            assert sorted_json(store.get(fingerprint)) == sorted_json(record)

    def test_an_older_library_writing_to_a_converted_store_is_read(self, tmp_path, monkeypatch):
        # An older library has the same salt, so the same fingerprints: on a
        # converted store it re-creates `runs` and writes its rows there and
        # its payloads under records/.  The next open must convert them too.
        root = tmp_path / "mixed"
        first, second = "1a" * 20, "2b" * 20
        legacy_put(root, first, {"x": 1.0})
        assert len(ResultStore(root)) == 1            # converts
        [first_row] = rows(root)
        written = {"y": float("nan"), "z": [1, 2]}
        legacy_put(root, second, written)
        store = ResultStore(root)
        assert sorted_json(store.get(second)) == sorted_json(written)
        assert len(store) == 2
        with closing(sqlite3.connect(root / "index.sqlite")) as conn:
            tables = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
        assert tables == {"records"}
        assert not (root / "records").exists()
        assert rows(root)[0] == first_row
        converted = rows(root)
        calls = []
        original = ResultStore._convert
        monkeypatch.setattr(ResultStore, "_convert",
                            lambda self, conn: calls.append(1) or original(self, conn))
        assert len(ResultStore(root)) == 2
        assert calls == []
        assert rows(root) == converted

    def test_new_store_is_marked_current(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("e" * 40, {"x": float("nan")})
        with closing(sqlite3.connect(store.index_path)) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == _LAYOUT_VERSION
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert not store.records_dir.exists()
