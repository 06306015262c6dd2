"""Store traffic per cell: lookups, writes and canonicalisations, counted.

A served cell is fingerprinted and looked up once, at admission; a worker
then executes it and writes it back without a second lookup, and the write
reuses the canonical payload the fingerprint memoised on the spec.  A
resumable campaign pays the same: one lookup, one write and one
canonicalisation per executed cell.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.runner.campaign as campaign_module
import repro.store.fingerprint as fingerprint_module
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import execute_cell
from repro.scenarios import ScenarioSpec
from repro.service import ServiceScheduler
from repro.sim import SimulationConfig
from repro.store import ResultStore, run_fingerprint


class CountingStore(ResultStore):
    """A store that counts its lookups and writes."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.gets = 0
        self.puts = 0

    def get(self, fingerprint):
        self.gets += 1
        return super().get(fingerprint)

    def put(self, fingerprint, record, spec=None):
        self.puts += 1
        return super().put(fingerprint, record, spec)

    def traffic(self) -> tuple[int, int]:
        counts = (self.gets, self.puts)
        self.gets = self.puts = 0
        return counts


@pytest.fixture()
def canonicalisations(monkeypatch):
    """The specs ``canonical_run_payload`` is computed for, in call order."""
    calls = []
    original = fingerprint_module.canonical_run_payload

    def spy(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(fingerprint_module, "canonical_run_payload", spy)
    return calls


def tiny_run(seed=0, strategy="b-tctp"):
    return RunSpec(
        strategy=strategy,
        scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
        sim=SimulationConfig(horizon=300.0, track_energy=False),
        seed=seed,
    )


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def tiny_campaign():
    return CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "chb"]},
                        replications=2)


class TestServedCell:
    def test_fresh_cell_costs_one_get_one_put_one_canonicalisation(
            self, tmp_path, canonicalisations):
        store = CountingStore(tmp_path)
        with ServiceScheduler(store=store, workers=1) as scheduler:
            records = scheduler.submit(tiny_run()).records()
        assert store.traffic() == (1, 1)
        assert len(canonicalisations) == 1
        stored = store.get(run_fingerprint(Campaign(tiny_run()).cells()[0]))
        assert dumps(stored) == dumps(records[0])

    def test_hit_costs_one_get_and_no_put(self, tmp_path, canonicalisations):
        store = CountingStore(tmp_path)
        with ServiceScheduler(store=store, workers=1) as scheduler:
            cold = scheduler.submit(tiny_campaign()).records()
            store.traffic()
            canonicalisations.clear()
            warm = scheduler.submit(tiny_campaign()).records()
        assert dumps(warm) == dumps(cold)
        assert store.traffic() == (4, 0)
        assert len(canonicalisations) == 4

    def test_coalesced_duplicates_add_no_get(self, tmp_path, monkeypatch):
        release = threading.Event()
        original = campaign_module.execute_run

        def gated_execute_run(spec):
            release.wait(timeout=30)
            return original(spec)

        monkeypatch.setattr(campaign_module, "execute_run", gated_execute_run)
        store = CountingStore(tmp_path)
        # Two identical cells in one request, then the same request again
        # while the first is still in flight.
        twice = CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "b-tctp"]},
                             replications=1)
        scheduler = ServiceScheduler(store=store, workers=1)
        try:
            first = scheduler.submit(twice)
            second = scheduler.submit(twice)
            release.set()
            assert dumps(first.records()) == dumps(second.records())
        finally:
            release.set()
            scheduler.shutdown()
        assert store.traffic() == (1, 1)
        stats = scheduler.stats()
        assert stats["executed"] == 1 and stats["coalesced"] == 3

    def test_custom_runner_gets_spec_and_store_and_is_used(self, tmp_path):
        store = CountingStore(tmp_path)
        seen = []

        def runner(spec, store=None):
            seen.append((spec, store))
            return {"seed": spec.seed, "custom": True}, "executed"

        with ServiceScheduler(store=store, workers=1, cell_runner=runner) as scheduler:
            events = list(scheduler.submit(tiny_run(seed=4)).events())
        assert [(spec.seed, got) for spec, got in seen] == [(4, store)]
        assert events[1]["record"] == {"seed": 4, "custom": True}
        assert store.traffic() == (1, 0)   # admission's lookup; the runner wrote nothing

    def test_execute_cell_keeps_its_lookup(self, tmp_path, canonicalisations):
        store = CountingStore(tmp_path)
        spec = tiny_run()
        assert execute_cell(spec, store=store)[1] == "executed"
        assert store.traffic() == (1, 1)
        assert execute_cell(spec, store=store)[1] == "store"
        assert store.traffic() == (1, 0)
        assert len(canonicalisations) == 1   # the memo on ``spec`` serves both calls


class TestResumableCampaign:
    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_executed_cell_costs_one_get_one_put_one_canonicalisation(
            self, tmp_path, canonicalisations, max_workers):
        store = CountingStore(tmp_path)
        spec = CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "random"]},
                            replications=2)
        cold = Campaign(spec, max_workers=max_workers).run(store=store)
        assert cold.metadata["store"]["misses"] == 4
        assert store.traffic() == (4, 4)
        assert len(canonicalisations) == 4
        canonicalisations.clear()
        warm = Campaign(spec).run(store=store)
        assert warm.metadata["store"]["hits"] == 4
        assert store.traffic() == (4, 0)
        assert len(canonicalisations) == 4


class TestPayloadMemo:
    def test_replaced_spec_is_canonicalised_afresh(self, canonicalisations):
        from dataclasses import replace

        spec = tiny_run()
        first = run_fingerprint(spec)
        assert run_fingerprint(spec) == first
        other = replace(spec, seed=1)
        assert run_fingerprint(other) != first
        assert canonicalisations == [spec, other]

    def test_memo_is_invisible_to_equality_and_serialisation(self):
        spec = tiny_run()
        before = (spec.to_json(), repr(spec))
        run_fingerprint(spec)
        assert spec == tiny_run()
        assert (spec.to_json(), repr(spec)) == before
