"""Unit tests for the observability layer: registry, trace export, Prometheus.

The byte-identity proofs (records and fingerprints equal with the registry
on or off) live in ``tests/test_obs_integration.py``; this file covers the
primitives — counter/histogram/span recording, the disabled-path no-ops,
worker drain/absorb merging, the collection windows, the Chrome Trace Event
exporter (Perfetto schema check included), the JSONL span log round trip,
the Prometheus text formatter, and the unified stats document's
shape-compatible views.
"""

import json

import pytest

from repro.geometry.cache import ContentCache
from repro.obs import (
    Window,
    absorb,
    chrome_trace,
    configure,
    counter,
    drain,
    inc,
    obs_collected,
    obs_disabled,
    obs_enabled,
    observe,
    prometheus_text,
    read_span_log,
    reset,
    snapshot,
    span,
    spans,
    validate_trace,
    write_span_log,
    write_trace,
)
from repro.obs import registry as reg
from repro.obs.adapters import (
    cache_stats_view,
    scheduler_stats_view,
    stats_document,
    store_stats_view,
)

# A registered cache this module owns (registry names are process-wide).
_LOOKUPS = ContentCache("test_obs_lookups", maxsize=4)


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts from an empty, disabled registry and restores it."""
    previous = obs_enabled()
    reset()
    configure(enabled=False)
    yield
    reset()
    configure(enabled=previous)


class TestDisabledPath:
    def test_disabled_by_default_records_nothing(self):
        inc("c", 3, kind="x")
        observe("h", 1.5)
        with span("s", cat="t"):
            pass
        doc = snapshot()
        assert doc["enabled"] is False
        assert doc["counters"] == [] and doc["histograms"] == []
        assert doc["spans"] == {"recorded": 0, "dropped": 0}

    def test_disabled_span_is_the_shared_noop(self):
        assert span("a") is span("b")  # no allocation on the disabled path

    def test_obs_disabled_context_restores(self):
        configure(enabled=True)
        with obs_disabled():
            assert not obs_enabled()
            inc("c")
        assert obs_enabled()
        assert snapshot()["counters"] == []


class TestRecording:
    def test_counters_accumulate_per_label_set(self):
        configure(enabled=True)
        inc("dispatch", outcome="fast")
        inc("dispatch", 2, outcome="fast")
        inc("dispatch", outcome="slow", reason="x")
        rows = snapshot()["counters"]
        assert rows == [
            {"name": "dispatch", "labels": {"outcome": "fast"}, "value": 3},
            {"name": "dispatch", "labels": {"outcome": "slow", "reason": "x"},
             "value": 1},
        ]

    def test_bound_counter_shares_the_inc_key_and_honours_the_switch(self):
        bump = counter("dispatch", reason="x", outcome="slow")
        bump()  # disabled: dropped
        configure(enabled=True)
        bump()
        bump(2)
        inc("dispatch", outcome="slow", reason="x")
        assert snapshot()["counters"] == [
            {"name": "dispatch", "labels": {"outcome": "slow", "reason": "x"},
             "value": 4},
        ]

    def test_cache_lookups_count_requests_by_outcome(self):
        from repro.geometry.cache import caching_disabled, clear_caches

        clear_caches()
        configure(enabled=True)
        _LOOKUPS.get_or_compute("key", lambda: 5.0)
        _LOOKUPS.get_or_compute("key", lambda: 5.0)
        with caching_disabled():
            _LOOKUPS.get_or_compute("key", lambda: 5.0)
        assert [(r["labels"], r["value"]) for r in snapshot()["counters"]] == [
            ({"cache": "test_obs_lookups", "outcome": "hit"}, 1),
            ({"cache": "test_obs_lookups", "outcome": "miss"}, 2),
        ]

    def test_histogram_tracks_count_sum_min_max(self):
        configure(enabled=True)
        for value in (4.0, 1.0, 7.0):
            observe("rows", value)
        [hist] = snapshot()["histograms"]
        assert hist == {"name": "rows", "labels": {}, "count": 3, "sum": 12.0,
                        "min": 1.0, "max": 7.0}

    def test_span_nesting_records_explicit_parentage(self):
        configure(enabled=True)
        with span("outer", cat="test") as outer:
            with span("inner", cat="test", detail=7) as inner:
                pass
        recorded = {s["name"]: s for s in spans()}
        assert recorded["inner"]["parent"] == outer.id
        assert recorded["outer"]["parent"] is None
        assert recorded["inner"]["args"] == {"detail": 7}
        assert recorded["inner"]["dur"] >= 0
        assert inner.id != outer.id

    def test_span_cap_counts_drops(self, monkeypatch):
        configure(enabled=True)
        monkeypatch.setattr(reg, "_MAX_SPANS", 2)
        for index in range(4):
            with span(f"s{index}"):
                pass
        assert snapshot()["spans"] == {"recorded": 2, "dropped": 2}

    def test_reset_clears_everything(self):
        configure(enabled=True)
        inc("c")
        observe("h", 1.0)
        with span("s"):
            pass
        reset()
        doc = snapshot()
        assert doc["counters"] == [] and doc["histograms"] == []
        assert doc["spans"] == {"recorded": 0, "dropped": 0}


class TestDrainAbsorb:
    def test_round_trip_merges_counters_and_hists_exactly(self):
        configure(enabled=True)
        inc("c", 2, kind="a")
        observe("h", 5.0)
        payload = drain()
        assert snapshot()["counters"] == []  # drain clears
        inc("c", 1, kind="a")
        observe("h", 1.0)
        absorb(payload)
        [counter] = snapshot()["counters"]
        assert counter["value"] == 3
        [hist] = snapshot()["histograms"]
        assert hist["count"] == 2 and hist["sum"] == 6.0
        assert hist["min"] == 1.0 and hist["max"] == 5.0

    def test_absorb_rebases_and_remaps_spans(self):
        configure(enabled=True)
        with span("parent"):
            with span("child"):
                pass
        payload = drain()
        payload["now"] -= 1000.0  # pretend the worker drained 1ms ago
        absorb(payload)
        merged = {s["name"]: s for s in spans()}
        assert merged["child"]["parent"] == merged["parent"]["id"]
        assert merged["parent"]["ts"] > payload["spans"][0]["ts"]

    def test_payload_is_json_serializable(self):
        configure(enabled=True)
        inc("c", kind="a")
        with span("s"):
            pass
        observe("h", 2.0)
        round_tripped = json.loads(json.dumps(drain()))
        absorb(round_tripped)
        assert snapshot()["spans"]["recorded"] == 1


class TestWindows:
    def test_window_reports_only_the_delta(self):
        configure(enabled=True)
        inc("c", 10)
        window = Window()
        inc("c", 2)
        [counter] = window.snapshot()["counters"]
        assert counter["value"] == 2
        assert window.snapshot()["spans"]["recorded"] == 0

    def test_obs_collected_forces_on_and_restores_off(self):
        assert not obs_enabled()
        with obs_collected(enabled=True) as window:
            assert obs_enabled() and window is not None
            inc("c")
            assert window.snapshot()["counters"][0]["value"] == 1
        assert not obs_enabled()

    def test_obs_collected_yields_none_while_disabled(self):
        with obs_collected() as window:
            assert window is None


class TestChromeTrace:
    def _sample_spans(self):
        configure(enabled=True)
        with span("outer", cat="campaign", cells=2):
            with span("inner", cat="planning"):
                pass
        return spans()

    def test_document_passes_the_schema_check(self):
        document = chrome_trace(self._sample_spans())
        assert validate_trace(document) == []
        assert document["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in document["traceEvents"]]
        assert phases == ["M", "X", "X"]  # one process label, spans by ts

    def test_events_carry_span_and_parent_ids(self):
        document = chrome_trace(self._sample_spans())
        events = {e["name"]: e for e in document["traceEvents"] if e["ph"] == "X"}
        assert events["inner"]["args"]["parent_id"] == events["outer"]["args"]["span_id"]
        assert events["outer"]["args"]["cells"] == 2

    def test_validate_trace_flags_problems(self):
        assert validate_trace({}) == ["traceEvents is missing or not a list"]
        bad = {"traceEvents": [{"ph": "X", "name": 3, "pid": 0, "tid": 0,
                                "ts": 0, "dur": -1}, {"ph": "Q"}]}
        problems = validate_trace(bad)
        assert any("name must be a string" in p for p in problems)
        assert any("dur must be non-negative" in p for p in problems)
        assert any("unexpected phase" in p for p in problems)

    def test_span_log_round_trip(self, tmp_path):
        recorded = self._sample_spans()
        log = tmp_path / "campaign.spans.jsonl"
        write_span_log(log, recorded)
        assert read_span_log(log) == recorded
        trace = tmp_path / "campaign.trace.json"
        write_trace(trace, read_span_log(log))
        assert validate_trace(json.loads(trace.read_text())) == []

    def test_span_log_rejects_malformed_lines(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"name": "s"}\n')
        with pytest.raises(ValueError, match="missing keys"):
            read_span_log(log)
        log.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_span_log(log)


class TestPrometheus:
    def test_registry_counters_and_hists_render(self):
        configure(enabled=True)
        inc("sim_dispatch", 3, outcome="fastpath")
        observe("batch_group_rows", 4.0)
        text = prometheus_text({"obs": snapshot()})
        assert 'repro_sim_dispatch_total{outcome="fastpath"} 3' in text
        assert "repro_batch_group_rows_count 1" in text
        assert "repro_batch_group_rows_sum 4" in text
        assert "# TYPE repro_sim_dispatch_total counter" in text
        assert "repro_obs_enabled 1" in text

    def test_one_help_type_header_per_metric(self):
        configure(enabled=True)
        inc("c", outcome="a")
        inc("c", outcome="b")
        text = prometheus_text({"obs": snapshot()})
        assert text.count("# TYPE repro_c_total counter") == 1

    def test_name_sanitization_and_label_escaping(self):
        document = {"obs": {"enabled": True, "spans": {},
                            "counters": [{"name": "weird-name.x",
                                          "labels": {"path": 'a"b\\c'},
                                          "value": 1}],
                            "histograms": []}}
        text = prometheus_text(document)
        assert "repro_weird_name_x_total" in text
        assert r'path="a\"b\\c"' in text

    def test_cache_store_scheduler_sections(self):
        document = {
            "obs": {"enabled": False, "counters": [], "histograms": [], "spans": {}},
            "caches": {"distance_matrix": {"size": 1, "maxsize": 128, "hits": 5,
                                           "misses": 2, "evictions": 0}},
            "store": {"entries": 7, "payload_bytes": 123, "hits": 4, "misses": 1,
                      "library_versions": {"1.10.0": 7}},
            "scheduler": {"requests": 2, "cells": 8, "coalesced": 1,
                          "store_hits": 0, "executed": 7, "failed": 0,
                          "rejected": 0, "pending": 0, "inflight": 0,
                          "workers": 2, "queue_limit": 64, "accepting": True},
        }
        text = prometheus_text(document)
        assert 'repro_cache_hits_total{cache="distance_matrix"} 5' in text
        assert "repro_store_entries 7" in text
        assert 'repro_store_version_entries{library_version="1.10.0"} 7' in text
        assert "repro_service_requests_total 2" in text
        assert "repro_service_accepting 1" in text


class TestStatsDocument:
    def test_document_carries_obs_and_cache_sections(self):
        document = stats_document()
        assert set(document) == {"obs", "caches"}
        assert "test_obs_lookups" in document["caches"]
        assert cache_stats_view(document) is document["caches"]

    def test_store_view_matches_store_stats_exactly(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        document = stats_document(store=store)
        assert store_stats_view(document) == store.stats()

    def test_scheduler_view_matches_scheduler_stats_exactly(self):
        from repro.service import ServiceScheduler

        with ServiceScheduler(store=False, workers=1) as scheduler:
            document = stats_document(scheduler=scheduler)
            assert scheduler_stats_view(document) == scheduler.stats()

    def test_views_refuse_missing_sections(self):
        with pytest.raises(ValueError, match="no store section"):
            store_stats_view(stats_document())
        with pytest.raises(ValueError, match="no scheduler section"):
            scheduler_stats_view(stats_document())
