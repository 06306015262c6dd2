"""Tests for the persistent result store (repro.store): fingerprints,
ResultStore round-trips, resumable campaigns, query/report, and gc."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec, execute_resumable
from repro.runner.campaign import execute_many
from repro.scenarios import ScenarioSpec
from repro.sim.engine import SimulationConfig
from repro.store import (
    ResultStore,
    StoredRun,
    canonical_run_payload,
    clear_store,
    code_salt,
    configure,
    default_root,
    default_store,
    matches,
    parse_filter_expression,
    resolve_store,
    run_fingerprint,
    store_enabled,
    store_stats,
)
from repro.store.report import entry_rows, export_records_csv, export_records_json, summarize_records


def small_spec(**overrides) -> RunSpec:
    defaults = dict(
        strategy="b-tctp",
        scenario=ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2}),
        sim=SimulationConfig(horizon=4000.0, track_energy=False),
        seed=1,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


def small_campaign(**overrides) -> CampaignSpec:
    defaults = dict(
        base=small_spec(),
        grid={"strategy": ["chb", "b-tctp"]},
        replications=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def dumps(records) -> str:
    return json.dumps(records, sort_keys=True, allow_nan=True)


class TestFingerprint:
    def test_stable_across_processes_inputs(self):
        assert run_fingerprint(small_spec()) == run_fingerprint(small_spec())

    def test_alias_spelling_changes_the_fingerprint(self):
        # execute_run copies spec.strategy into the record verbatim, so the
        # alias and the registry name produce different records — a shared
        # address would serve one spelling's record for the other.
        assert run_fingerprint(small_spec(strategy="btctp")) != run_fingerprint(
            small_spec(strategy="b-tctp")
        )

    def test_warm_hit_preserves_the_exact_strategy_spelling(self, tmp_path):
        from repro.runner import execute_run

        store = ResultStore(tmp_path)
        alias = small_spec(strategy="btctp")
        records, _, _ = execute_resumable([alias], store=store)
        warm, hits, _ = execute_resumable([alias], store=store)
        assert hits == 1
        assert warm[0]["strategy"] == "btctp" == records[0]["strategy"]
        assert dumps(warm) == dumps([execute_run(alias)])

    def test_family_alias_shares_fingerprint(self):
        # No record field carries the raw family spelling, so family aliases
        # may (and should) share an address.
        a = small_spec(scenario=ScenarioSpec("grid-jitter", {"num_targets": 6}))
        b = small_spec(scenario=ScenarioSpec("grid_jitter", {"num_targets": 6}))
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_every_input_axis_changes_the_fingerprint(self):
        base = run_fingerprint(small_spec())
        variants = [
            small_spec(strategy="chb"),
            small_spec(seed=2),
            small_spec(scenario=ScenarioSpec("uniform", {"num_targets": 7, "num_mules": 2})),
            small_spec(scenario=ScenarioSpec("ring", {"num_targets": 6, "num_mules": 2})),
            small_spec(sim=SimulationConfig(horizon=5000.0, track_energy=False)),
            small_spec(metrics=("visit_count",)),
            small_spec(labels={"tag": "x"}),
            small_spec(params={"policy": "shortest"}),
        ]
        fingerprints = [run_fingerprint(v) for v in variants]
        assert len({base, *fingerprints}) == len(variants) + 1

    def test_param_order_does_not_matter(self):
        a = small_spec(scenario=ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2}))
        b = small_spec(scenario=ScenarioSpec("uniform", {"num_mules": 2, "num_targets": 6}))
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_code_salt_invalidates(self):
        spec = small_spec()
        assert run_fingerprint(spec) != run_fingerprint(spec, salt="other-version")
        assert code_salt().endswith(__import__("repro").__version__)

    def test_seed_declaring_strategy_matches_campaign_expansion(self):
        # A bare random spec and its with_strategy_defaults() twin share an
        # address, exactly as execute_run injects the seed at run time.
        bare = small_spec(strategy="random", seed=3)
        expanded = bare.with_strategy_defaults()
        assert run_fingerprint(bare) == run_fingerprint(expanded)

    def test_canonical_payload_is_json_safe(self):
        payload = canonical_run_payload(small_spec(labels={"pos": (1, 2)}))
        text = json.dumps(payload)  # tuples already lists, no default= needed
        assert json.loads(text)["labels"]["pos"] == [1, 2]


class TestResultStore:
    def test_miss_then_hit_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = small_spec()
        fp = run_fingerprint(spec)
        assert store.get(fp) is None
        record = {"strategy": "b-tctp", "average_sd": 0.25, "n": 3}
        store.put(fp, record, spec)
        assert store.contains(fp) and fp in store
        assert store.get(fp) == record
        assert len(store) == 1

    def test_nan_round_trips_bit_for_bit(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"vip_sd": float("nan"), "average_sd": 1.5}
        store.put("f" * 40, record)
        got = store.get("f" * 40)
        assert np.isnan(got["vip_sd"])  # NaN preserved, not null
        assert dumps([got]) == dumps([record])

    def test_key_order_preserved(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"z": 1, "a": 2, "m": 3}
        store.put("a" * 40, record)
        assert list(store.get("a" * 40)) == ["z", "a", "m"]

    def test_numpy_values_stored_as_python_twins(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"count": np.int64(4), "arr": np.array([1.0, 2.0]), "val": np.float32(0.5)}
        store.put("b" * 40, record)
        got = store.get("b" * 40)
        assert got["count"] == 4 and got["arr"] == [1.0, 2.0]
        assert got["val"] == pytest.approx(0.5)

    def test_self_heals_unparseable_payload(self, tmp_path):
        import sqlite3
        from contextlib import closing

        store = ResultStore(tmp_path)
        spec = small_spec()
        fp = run_fingerprint(spec)
        entry = store.put(fp, {"x": 1}, spec)
        with closing(sqlite3.connect(entry.path)) as conn, conn:
            conn.execute("UPDATE records SET payload='{\"record\": ' WHERE fingerprint=?",
                         (fp,))
        assert store.get(fp) is None          # miss, row dropped
        assert not store.contains(fp)

    def test_clear_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("c" * 40, {"x": 1}, small_spec())
        store.get("c" * 40)
        store.get("0" * 40)
        stats = store.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
        assert stats["payload_bytes"] > 0
        assert stats["library_versions"] == {code_salt(): 1}
        assert store.clear() == 1
        assert len(store) == 0 and store.stats()["entries"] == 0

    def test_gc_sweeps_other_versions_and_old_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        keep = store.put(run_fingerprint(small_spec()), {"x": 1}, small_spec())
        # Forge a stale-version row and an ancient row directly in the index.
        import sqlite3
        from contextlib import closing

        stale = store.put("d" * 40, {"x": 2})
        old = store.put("e" * 40, {"x": 3})
        with closing(sqlite3.connect(store.index_path)) as conn, conn:
            conn.execute("UPDATE records SET library_version='repro-patrol/0.0.1' "
                         "WHERE fingerprint=?", ("d" * 40,))
            conn.execute("UPDATE records SET created_at=? WHERE fingerprint=?",
                         (time.time() - 10 * 86_400, "e" * 40))
        assert store.gc(max_age_days=5.0) == 2
        assert store.contains(keep.fingerprint)
        assert not store.contains(stale.fingerprint)
        assert not store.contains(old.fingerprint)

    def test_conversion_removes_leftover_payload_files(self, tmp_path):
        from store_legacy import legacy_put

        legacy_put(tmp_path, "a1" + "0" * 38, {"x": 1})
        orphan = tmp_path / "records" / "zz" / "zz-orphan.json"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("{}")
        store = ResultStore(tmp_path)
        assert len(store) == 1
        assert not orphan.exists() and not store.records_dir.exists()
        assert store.get("a1" + "0" * 38) == {"x": 1}

    def test_requires_some_root(self, monkeypatch):
        with pytest.raises(ValueError, match="no store root configured"):
            ResultStore()


class TestQuery:
    @pytest.fixture()
    def populated(self, tmp_path):
        store = ResultStore(tmp_path)
        for strategy in ("chb", "b-tctp"):
            for num_targets in (6, 10):
                spec = small_spec(
                    strategy=strategy,
                    scenario=ScenarioSpec("uniform",
                                          {"num_targets": num_targets, "num_mules": 2}),
                )
                record = {"strategy": strategy, "num_targets": num_targets,
                          "average_sd": 0.0 if strategy == "b-tctp" else 5.0}
                store.put(run_fingerprint(spec), record, spec)
        return store

    def test_filter_by_strategy_alias(self, populated):
        entries = populated.query(strategy="btctp")
        assert len(entries) == 2
        assert all(e.strategy == "b-tctp" for e in entries)

    def test_alias_stored_runs_are_indexed_canonically(self, tmp_path):
        # A record stored under the alias spelling is still found by a query
        # for the registry name (and vice versa): the index column is
        # canonical even though the fingerprint/record keep the raw name.
        store = ResultStore(tmp_path)
        spec = small_spec(strategy="btctp")
        store.put(run_fingerprint(spec), {"strategy": "btctp"}, spec)
        assert len(store.query(strategy="b-tctp")) == 1
        assert len(store.query(strategy="btctp")) == 1
        assert store.entries(strategy="b-tctp")[0].strategy == "b-tctp"

    def test_filter_by_family_and_params(self, populated):
        assert len(populated.query(family="uniform")) == 4
        assert len(populated.query(num_targets=10)) == 2
        assert len(populated.query(num_targets=(7, None))) == 2   # open-ended range
        assert len(populated.query(num_targets=(None, 7))) == 2
        assert len(populated.query(strategy="chb", num_targets=[6, 10])) == 2

    def test_filter_on_record_metrics(self, populated):
        entries = populated.query(average_sd=(1.0, None))
        assert {e.strategy for e in entries} == {"chb"}

    def test_unknown_key_matches_nothing(self, populated):
        assert populated.query(gap_fraction=0.4) == []

    def test_records_and_limit(self, populated):
        assert len(populated.records(strategy="chb")) == 2
        assert len(populated.query(limit=3)) == 3

    def test_entries_listing_has_no_payloads(self, populated):
        entries = populated.entries()
        assert len(entries) == 4
        assert all(e.record is None for e in entries)
        headers, rows = entry_rows(entries)
        assert headers[0] == "fingerprint" and len(rows) == 4

    def test_parse_filter_expressions(self):
        assert parse_filter_expression("num_targets=20") == ("num_targets", 20)
        assert parse_filter_expression("horizon=1000..2000") == ("horizon", (1000, 2000))
        assert parse_filter_expression("horizon=..2000") == ("horizon", (None, 2000))
        assert parse_filter_expression("strategy=chb|b-tctp") == ("strategy", ["chb", "b-tctp"])
        assert parse_filter_expression("flag=true") == ("flag", True)
        with pytest.raises(ValueError):
            parse_filter_expression("no-equals-sign")

    def test_matches_range_against_string_is_false(self):
        entry = StoredRun(fingerprint="x", strategy="chb", family="uniform", seed=0,
                          created_at=0.0, library_version="v", path=None,
                          record={"strategy": "chb"})
        assert not matches(entry, {"strategy": (1, 2)})


class TestResumableCampaign:
    def test_warm_resume_executes_zero_cells_byte_identical(self, tmp_path):
        spec = small_campaign()
        cold = Campaign(spec).run(store=tmp_path)
        warm = Campaign(spec).run(store=tmp_path)
        assert cold.metadata["store"] == {"root": str(tmp_path), "hits": 0, "misses": 4}
        assert warm.metadata["store"] == {"root": str(tmp_path), "hits": 4, "misses": 0}
        assert dumps(warm.records) == dumps(cold.records)

    def test_store_records_match_storeless_run(self, tmp_path):
        spec = small_campaign()
        plain = Campaign(spec).run()
        stored = Campaign(spec).run(store=tmp_path)
        assert "store" not in plain.metadata
        assert dumps(plain.records) == dumps(stored.records)

    def test_changed_axis_value_re_executes_only_affected_cells(self, tmp_path):
        Campaign(small_campaign()).run(store=tmp_path)
        changed = small_campaign(grid={"strategy": ["chb", "sweep"]})
        result = Campaign(changed).run(store=tmp_path)
        assert result.metadata["store"]["hits"] == 2      # the chb cells
        assert result.metadata["store"]["misses"] == 2    # only the sweep cells

    def test_changed_scenario_param_re_executes_only_affected_cells(self, tmp_path):
        grid = {"num_targets": [6, 8], "strategy": ["b-tctp"]}
        Campaign(small_campaign(grid=grid)).run(store=tmp_path)
        grid2 = {"num_targets": [6, 9], "strategy": ["b-tctp"]}
        result = Campaign(small_campaign(grid=grid2)).run(store=tmp_path)
        assert result.metadata["store"]["hits"] == 2
        assert result.metadata["store"]["misses"] == 2

    def test_parallel_and_serial_share_addresses(self, tmp_path):
        spec = small_campaign()
        Campaign(spec, max_workers=2).run(store=tmp_path)
        warm = Campaign(spec).run(store=tmp_path)
        assert warm.metadata["store"]["misses"] == 0

    def test_progress_counts_hits_as_done(self, tmp_path):
        spec = small_campaign()
        Campaign(spec).run(store=tmp_path)
        calls = []
        Campaign(spec).run(store=tmp_path, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(4, 4)]

    def test_progress_without_store_counts_cells(self):
        calls = []
        Campaign(small_campaign()).run(progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_writeback_streams_per_cell(self, tmp_path):
        # A crash mid-campaign keeps the finished cells: records are written
        # back as they complete, not in one batch at the end.
        store = ResultStore(tmp_path)
        cells = small_campaign().cells()
        seen_sizes = []
        original = store.put

        def tracking_put(fingerprint, record, spec=None):
            entry = original(fingerprint, record, spec)
            seen_sizes.append(len(store))
            return entry

        store.put = tracking_put
        execute_resumable(cells, store=store)
        assert seen_sizes == [1, 2, 3, 4]

    def test_execute_resumable_returns_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = small_campaign().cells()
        records, hits, misses = execute_resumable(cells, store=store)
        assert (hits, misses) == (0, 4)
        assert dumps(records) == dumps(execute_many(cells))
        records2, hits2, misses2 = execute_resumable(cells, store=store)
        assert (hits2, misses2) == (4, 0)
        assert dumps(records2) == dumps(records)


class TestDefaultStoreConfiguration:
    def test_no_ambient_store_by_default(self):
        assert default_root() is None
        assert default_store() is None
        assert not store_enabled()
        assert resolve_store(None) is None
        assert store_stats() is None
        assert clear_store() == 0

    def test_env_var_configures_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert default_root() == tmp_path
        assert store_enabled()
        store = resolve_store(None)
        assert isinstance(store, ResultStore) and store.root == tmp_path

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        configure(root=tmp_path / "explicit")
        assert default_root() == tmp_path / "explicit"

    def test_disabled_blocks_implicit_but_not_explicit(self, tmp_path):
        configure(root=tmp_path, enabled=False)
        assert resolve_store(None) is None
        assert not store_enabled()
        explicit = resolve_store(True)
        assert isinstance(explicit, ResultStore) and explicit.root == tmp_path

    def test_resolve_store_forms(self, tmp_path):
        assert resolve_store(False) is None
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path)).root == tmp_path
        with pytest.raises(TypeError):
            resolve_store(42)

    def test_campaign_resumes_implicitly_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        spec = small_campaign()
        cold = Campaign(spec).run()
        warm = Campaign(spec).run()
        assert cold.metadata["store"]["misses"] == 4
        assert warm.metadata["store"]["misses"] == 0
        opted_out = Campaign(spec).run(store=False)
        assert "store" not in opted_out.metadata


class TestExperimentsResume:
    def test_run_experiment_cells_resumes_from_configured_store(self, tmp_path):
        from repro.experiments.common import ExperimentSettings, experiment_campaign, run_experiment_cells

        configure(root=tmp_path)
        settings = ExperimentSettings.quick(replications=2, horizon=4000.0,
                                            num_targets=6, num_mules=2)
        campaign = experiment_campaign(settings, "b-tctp", track_energy=False)
        first = run_experiment_cells(campaign, settings)
        store = default_store()
        assert len(store) == len(first)
        second = run_experiment_cells(campaign, settings)
        assert dumps(second) == dumps(first)
        assert store.stats()["entries"] == len(first)

    def test_opt_out_with_store_false(self, tmp_path):
        from repro.experiments.common import ExperimentSettings, experiment_campaign, run_experiment_cells

        configure(root=tmp_path)
        settings = ExperimentSettings.quick(replications=1, horizon=4000.0,
                                            num_targets=6, num_mules=2, store=False)
        campaign = experiment_campaign(settings, "b-tctp", track_energy=False)
        run_experiment_cells(campaign, settings)
        assert default_store().stats()["entries"] == 0


class TestReport:
    def test_summarize_records(self, tmp_path):
        spec = small_campaign()
        Campaign(spec).run(store=tmp_path)
        store = ResultStore(tmp_path)
        headers, rows = summarize_records(store.query(), metrics=("average_sd",), by="strategy")
        assert headers == ["strategy", "mean average_sd", "runs"]
        by_strategy = {row[0]: row for row in rows}
        assert set(by_strategy) == {"chb", "b-tctp"}
        assert by_strategy["b-tctp"][2] == 2

    def test_exports_are_readable_and_atomic(self, tmp_path):
        spec = small_campaign()
        Campaign(spec).run(store=tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        entries = store.query(strategy="chb")
        out = export_records_json(entries, tmp_path / "out" / "records.json")
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 2
        csv_path = export_records_csv(entries, tmp_path / "out" / "records.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 records
        # no temp droppings left behind
        assert list((tmp_path / "out").glob("*.tmp")) == []
