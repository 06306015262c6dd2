"""Tests for the content-addressed tour/scenario caches and their registry.

Covers the PR-3 acceptance criteria: caches hit across replications and
strategies, and campaign records are byte-identical with caching on or off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.geometry.cache import (
    ContentCache,
    cache_enabled,
    cache_stats,
    caching_disabled,
    clear_caches,
    configure,
    points_fingerprint,
    scenario_fingerprint,
)
from repro.geometry.point import Point
from repro.graphs.hamiltonian import build_hamiltonian_circuit
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import build_cell_scenario
from repro.scenarios import ScenarioSpec
from repro.sim.engine import SimulationConfig


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    configure(enabled=True)
    yield
    clear_caches()
    configure(enabled=True)


def _points(seed: int = 0, n: int = 9) -> list[Point]:
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(n, 2))]


# A registered cache this module owns (registry names are process-wide).
_SQUARES = ContentCache("test_geometry_cache_squares", maxsize=8)


def _square(x: int) -> list[int]:
    """A fresh list per miss, so identity tells a hit from a recomputation."""
    return _SQUARES.get_or_compute(x, lambda: [x * x])


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #

class TestFingerprints:
    def test_points_fingerprint_is_content_based(self):
        pts = _points()
        as_tuples = [p.as_tuple() for p in pts]
        assert points_fingerprint(pts) == points_fingerprint(as_tuples)
        assert points_fingerprint(pts) != points_fingerprint(list(reversed(pts)))

    def test_scenario_fingerprint_stable_across_rebuilds(self):
        spec = ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 3})
        assert scenario_fingerprint(spec.build(4)) == scenario_fingerprint(spec.build(4))

    def test_scenario_fingerprint_changes_with_seed_and_params(self):
        spec = ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 3})
        base = scenario_fingerprint(spec.build(4))
        assert scenario_fingerprint(spec.build(5)) != base
        bigger = ScenarioSpec("uniform", {"num_targets": 11, "num_mules": 3})
        assert scenario_fingerprint(bigger.build(4)) != base

    def test_fresh_copy_shares_fingerprint(self):
        scenario = ScenarioSpec("clustered", {"num_targets": 12}).build(2)
        assert scenario_fingerprint(scenario.fresh_copy()) == scenario_fingerprint(scenario)


# --------------------------------------------------------------------------- #
# The cache registry / switch
# --------------------------------------------------------------------------- #

class TestCacheControls:
    def test_disabled_context(self):
        assert cache_enabled()
        with caching_disabled():
            assert not cache_enabled()
            assert _square(3) is not _square(3)
        assert cache_enabled()

    def test_clear_resets_stats(self):
        _square(3)
        _square(3)
        clear_caches()
        stats = cache_stats()["test_geometry_cache_squares"]
        assert stats == {"size": 0, "maxsize": 8, "hits": 0, "misses": 0,
                         "evictions": 0}

    def test_lru_eviction(self):
        cache = ContentCache("test_lru_eviction", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_duplicate_name_rejected(self):
        ContentCache("test_duplicate_name", maxsize=2)
        with pytest.raises(ValueError, match="already registered"):
            ContentCache("test_duplicate_name", maxsize=2)


# --------------------------------------------------------------------------- #
# Tour memoization
# --------------------------------------------------------------------------- #

class TestTourMemoization:
    def test_same_content_shares_one_tour(self):
        scenario = ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3}).build(1)
        coords = scenario.patrol_points()
        first = build_hamiltonian_circuit(coords, start=scenario.sink.id)
        second = build_hamiltonian_circuit(dict(coords), start=scenario.sink.id)
        assert second is first
        assert cache_stats()["hamiltonian_tour"]["hits"] == 1

    def test_options_are_part_of_the_key(self):
        coords = ScenarioSpec("uniform", {"num_targets": 10}).build(1).patrol_points()
        plain = build_hamiltonian_circuit(coords)
        improved = build_hamiltonian_circuit(coords, improve=True)
        nn = build_hamiltonian_circuit(coords, method="nearest-neighbor")
        assert improved is not plain and nn is not plain

    def test_disabled_cache_rebuilds_identically(self):
        coords = ScenarioSpec("uniform", {"num_targets": 10}).build(1).patrol_points()
        cached = build_hamiltonian_circuit(coords)
        with caching_disabled():
            rebuilt = build_hamiltonian_circuit(coords)
        assert rebuilt is not cached
        assert rebuilt == cached  # structural equality: identical circuit

    def test_unknown_method_still_raises(self):
        coords = {"a": Point(0, 0), "b": Point(1, 1)}
        with pytest.raises(ValueError, match="unknown tour construction method"):
            build_hamiltonian_circuit(coords, method="nope")


# --------------------------------------------------------------------------- #
# Campaign-level scenario reuse
# --------------------------------------------------------------------------- #

def _campaign_spec(replications: int = 3) -> CampaignSpec:
    return CampaignSpec(
        base=RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 3}),
            sim=SimulationConfig(horizon=12_000.0, track_energy=False),
            seed=1,
        ),
        grid={"strategy": ["chb", "b-tctp"]},
        replications=replications,
    )


class TestScenarioReuse:
    def test_cells_sharing_seed_share_a_prototype(self):
        cells = _campaign_spec().cells()
        hits_before = cache_stats()["scenario_prototype"]["hits"]
        scenarios = [build_cell_scenario(c) for c in cells]
        hits_after = cache_stats()["scenario_prototype"]["hits"]
        # 6 cells over 3 distinct seeds: 3 misses, 3 hits
        assert hits_after - hits_before == 3
        # every cell still gets an independent copy
        assert len({id(s) for s in scenarios}) == len(scenarios)

    def test_copies_have_identical_content(self):
        cell = _campaign_spec().cells()[0]
        a = build_cell_scenario(cell)
        b = build_cell_scenario(cell)
        assert scenario_fingerprint(a) == scenario_fingerprint(b)
        assert a.mules[0] is not b.mules[0]  # mutable state is never shared

    def test_pinned_scenario_seed_reuses_across_replications(self):
        spec = CampaignSpec(
            base=RunSpec(
                strategy="b-tctp",
                scenario=ScenarioSpec("uniform", {"num_targets": 8}, seed=42),
                sim=SimulationConfig(horizon=8_000.0, track_energy=False),
            ),
            replications=4,
        )
        for cell in spec.cells():
            build_cell_scenario(cell)
        stats = cache_stats()["scenario_prototype"]
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_campaign_records_byte_identical_with_and_without_caching(self):
        spec = _campaign_spec()
        cached = Campaign(spec).run().records
        clear_caches()
        with caching_disabled():
            uncached = Campaign(spec).run().records
        assert json.dumps(cached, sort_keys=True) == json.dumps(uncached, sort_keys=True)

    def test_cache_hits_during_campaign_execution(self):
        Campaign(_campaign_spec()).run()
        stats = cache_stats()
        assert stats["scenario_prototype"]["hits"] > 0
        assert stats["hamiltonian_tour"]["hits"] > 0
