"""Unit tests for repro.core.wtctp (Section III algorithm)."""

import json
import sys
import threading

import pytest

from repro.core import wtctp
from repro.core.patrol_rules import build_patrol_walk
from repro.core.policies import BalancingLengthPolicy
from repro.core.rwtctp import insert_recharge_station
from repro.core.wtctp import build_weighted_patrolling_path, build_wpp_structure, plan_wtctp
from repro.geometry.cache import cache_stats, caching_disabled, clear_caches
from repro.geometry.point import Point
from repro.graphs.hamiltonian import build_hamiltonian_circuit
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_walk_visits, validate_weighted_patrolling_path
from repro.runner import Campaign, spec_from_dict
from repro.runner.campaign import _json_sanitize
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.metrics import average_sd, per_target_intervals
from repro.workloads.generator import uniform_scenario


@pytest.fixture
def vip_tour(vip_scenario):
    return build_hamiltonian_circuit(vip_scenario.patrol_points(), start="sink")


class TestBuildWPP:
    def test_single_vip_structure_and_walk(self, vip_tour, vip_scenario):
        weights = vip_scenario.weights()
        structure, walk = build_weighted_patrolling_path(vip_tour, weights, "shortest")
        validate_weighted_patrolling_path(structure, weights)
        validate_walk_visits(walk, weights)
        assert walk.count("g4") == 2  # weight-2 VIP appears twice (walk repeats the start)

    def test_weight_defaults_to_one_for_missing_nodes(self, vip_tour):
        structure, walk = build_weighted_patrolling_path(vip_tour, {"g4": 3}, "shortest")
        assert structure.degree("g4") == 6
        assert structure.degree("g1") == 2

    def test_invalid_weight_rejected(self, vip_tour):
        with pytest.raises(ValueError):
            build_weighted_patrolling_path(vip_tour, {"g4": 0}, "shortest")

    def test_no_vip_leaves_tour_untouched(self, vip_tour):
        structure, walk = build_weighted_patrolling_path(vip_tour, {}, "shortest")
        assert structure.length() == pytest.approx(vip_tour.length())
        assert len(walk) - 1 == len(vip_tour)

    def test_wpp_longer_than_hamiltonian(self, vip_tour, vip_scenario):
        structure, _ = build_weighted_patrolling_path(vip_tour, vip_scenario.weights(), "shortest")
        assert structure.length() > vip_tour.length()

    def test_shortest_not_longer_than_balanced(self, vip_tour, vip_scenario):
        weights = vip_scenario.weights()
        s_short, _ = build_weighted_patrolling_path(vip_tour, weights, "shortest")
        s_bal, _ = build_weighted_patrolling_path(vip_tour, weights, "balanced")
        assert s_short.length() <= s_bal.length() + 1e-6

    def test_multiple_vips_higher_weight_processed_first(self):
        sc = uniform_scenario(num_targets=14, num_mules=2, seed=4, num_vips=3, vip_weight=3)
        tour = build_hamiltonian_circuit(sc.patrol_points(), start="sink")
        weights = sc.weights()
        structure, walk = build_weighted_patrolling_path(tour, weights, "balanced")
        validate_weighted_patrolling_path(structure, weights)
        validate_walk_visits(walk, weights)

    def test_deterministic_across_mules(self, vip_tour, vip_scenario):
        weights = vip_scenario.weights()
        _s1, w1 = build_weighted_patrolling_path(vip_tour, weights, "balanced")
        _s2, w2 = build_weighted_patrolling_path(vip_tour, weights, "balanced")
        assert w1 == w2


def _wpp_signature(structure, weights):
    """Edges in order, weights, and the Euler circuit from every VIP."""
    vips = sorted(n for n, w in weights.items() if w > 1)
    return (
        structure.edges(),
        dict(weights),
        {vip: structure.euler_circuit(start=vip) for vip in vips},
    )


class TestWppMemo:
    @pytest.fixture
    def layout(self):
        sc = uniform_scenario(num_targets=30, num_mules=2, seed=11, num_vips=4, vip_weight=3)
        return build_hamiltonian_circuit(sc.patrol_points(), start="sink"), sc.weights()

    def wpp_stats(self):
        return cache_stats()["wpp_structure"]

    def test_hit_equals_a_build_with_caching_off(self, layout):
        tour, weights = layout
        with caching_disabled():
            fresh = _wpp_signature(*build_wpp_structure(tour, weights, "balanced"))
        clear_caches()
        miss = _wpp_signature(*build_wpp_structure(tour, weights, "balanced"))
        hit = _wpp_signature(*build_wpp_structure(tour, weights, "balancing"))
        assert (self.wpp_stats()["misses"], self.wpp_stats()["hits"]) == (1, 1)
        assert miss == fresh and hit == fresh

    def test_key_covers_weights_coordinates_and_policy(self, layout):
        tour, weights = layout
        vip = next(n for n, w in weights.items() if w > 1)
        moved = dict(tour.coordinates)
        moved["sink"] = Point(moved["sink"].x + 1.0, moved["sink"].y)
        variants = [
            (tour, weights, "balanced"),
            (tour, {**weights, vip: weights[vip] + 1}, "balanced"),
            (Tour(tour.order, moved), weights, "balanced"),
            (tour, weights, "shortest"),
        ]
        clear_caches()
        built = [_wpp_signature(*build_wpp_structure(*args)) for args in variants]
        assert (self.wpp_stats()["misses"], self.wpp_stats()["hits"]) == (4, 0)
        with caching_disabled():
            assert built == [_wpp_signature(*build_wpp_structure(*args)) for args in variants]

    def test_calls_return_independent_structures(self, layout):
        tour, weights = layout
        clear_caches()
        first, first_weights = build_wpp_structure(tour, weights, "shortest")
        expected = _wpp_signature(first, first_weights)
        u, v, key = next(e for e in first.edges() if "sink" not in e[:2])
        first.break_edge(u, v, "sink", key=key)
        first_weights["sink"] = 7
        second, second_weights = build_wpp_structure(tour, weights, "shortest")
        assert self.wpp_stats()["hits"] == 1
        assert second is not first
        assert _wpp_signature(second, second_weights) == expected

    def test_policy_instance_bypasses_the_memo(self, layout):
        tour, weights = layout
        clear_caches()
        by_name = _wpp_signature(*build_wpp_structure(tour, weights, "balanced"))
        for _ in range(2):
            built = build_wpp_structure(tour, weights, BalancingLengthPolicy())
            assert _wpp_signature(*built) == by_name
        assert (self.wpp_stats()["misses"], self.wpp_stats()["hits"]) == (1, 0)

    def test_cold_campaign_builds_the_wpp_once(self):
        # cold-sweep's campaign shape, at a smaller layout: W-TCTP misses and
        # RW-TCTP hits; the records do not depend on the memo.
        spec = spec_from_dict({
            "kind": "campaign",
            "base": {
                "strategy": "b-tctp",
                "scenario": {"family": "clustered", "params": {
                    "num_targets": 80, "num_mules": 4, "num_clusters": 8, "num_vips": 6,
                    "with_recharge_station": True, "mule_battery": 200_000.0,
                }},
                "sim": {"horizon": 20_000.0, "track_energy": True},
                "seed": 9,
            },
            "grid": {"strategy": [
                "b-tctp", "w-tctp", "rw-tctp", "chb", "sweep", "staggered-chb", "random",
            ]},
        })
        clear_caches()
        records = json.dumps(_json_sanitize(Campaign(spec).run(store=False).records))
        assert (self.wpp_stats()["misses"], self.wpp_stats()["hits"]) == (1, 1)
        clear_caches()
        with caching_disabled():
            uncached = json.dumps(_json_sanitize(Campaign(spec).run(store=False).records))
        assert records == uncached


class TestSharedWppThreads:
    """The cached WPP is shared by threads (the service's workers) through copies."""

    @pytest.mark.parametrize("num_vips", [6, 0])
    def test_threads_break_and_walk_copies_of_one_cached_wpp(self, num_vips):
        sc = uniform_scenario(num_targets=60, num_mules=2, seed=5, num_vips=num_vips, vip_weight=3)
        tour = build_hamiltonian_circuit(sc.patrol_points(), start="sink")
        weights = sc.weights()

        def work():
            structure, full_weights = build_wpp_structure(tour, weights, "balanced")
            wrp = insert_recharge_station(structure, full_weights, "R", Point(333.0, 444.0))
            walks = [build_patrol_walk(structure, "sink"), build_patrol_walk(wrp, "sink")]
            u, v, key = next(e for e in structure.edges() if "sink" not in e[:2])
            structure.break_edge(u, v, "sink", key=key)
            walks.append(build_patrol_walk(structure, "sink"))
            return structure.edges(), wrp.edges(), walks

        clear_caches()
        serial = work()
        (entry,) = wtctp._WPP_CACHE._data.values()
        adjacency = {n: entry.neighbors(n) for n in entry.nodes}
        runs = None if entry._runs is None else dict(entry._runs)
        branch = None if entry._branch is None else set(entry._branch)
        assert (runs is None) == (num_vips == 0)  # built before the entry was stored

        results, errors = [], []

        def worker():
            try:
                for _ in range(4):
                    results.append(work())
            except BaseException as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [serial] * 32
        assert {n: entry.neighbors(n) for n in entry.nodes} == adjacency
        # the entry holds the index its own build made, none a thread made
        assert entry._runs == runs and entry._branch == branch
        clear_caches()


class TestPlanner:
    def test_plan_has_route_per_mule(self, vip_scenario):
        plan = plan_wtctp(vip_scenario)
        assert set(plan.routes) == {m.id for m in vip_scenario.mules}

    def test_metadata(self, vip_scenario):
        plan = plan_wtctp(vip_scenario, policy="shortest")
        assert plan.metadata["wpp_length"] >= plan.metadata["hamiltonian_length"]
        assert plan.metadata["policy"] == "shortest"
        assert "g4" in plan.metadata["vip_cycles"]
        assert len(plan.metadata["vip_cycles"]["g4"]) == 2

    def test_vip_cycle_lengths_sum_to_wpp_length(self, vip_scenario):
        plan = plan_wtctp(vip_scenario, policy="balanced")
        cycles = plan.metadata["vip_cycles"]["g4"]
        assert sum(cycles) == pytest.approx(plan.metadata["wpp_length"], rel=1e-6)

    def test_strategy_name_includes_policy(self, vip_scenario):
        assert "balanced" in plan_wtctp(vip_scenario, policy="balanced").strategy
        assert "shortest" in plan_wtctp(vip_scenario, policy="shortest").strategy

    def test_without_initialization(self, vip_scenario):
        plan = plan_wtctp(vip_scenario, location_initialization=False)
        assert all(r.start_position() is None for r in plan.routes.values())

    def test_unweighted_scenario_reduces_to_btctp_path(self, simple_scenario):
        from repro.core.btctp import plan_btctp

        wplan = plan_wtctp(simple_scenario)
        bplan = plan_btctp(simple_scenario)
        assert wplan.metadata["wpp_length"] == pytest.approx(bplan.metadata["path_length"])


class TestSimulatedBehaviour:
    def test_vip_visited_twice_per_lap(self, vip_scenario):
        plan = plan_wtctp(vip_scenario, policy="balanced")
        result = PatrolSimulator(vip_scenario, plan, SimulationConfig(horizon=40_000)).run()
        counts = {t: result.visit_count(t) for t in ("g4", "g1")}
        # per full traversal the VIP is visited twice as often as an NTP
        assert counts["g4"] >= 1.7 * counts["g1"]

    def test_vip_mean_interval_smaller_than_ntp(self, vip_scenario):
        plan = plan_wtctp(vip_scenario, policy="balanced")
        result = PatrolSimulator(vip_scenario, plan, SimulationConfig(horizon=40_000)).run()
        intervals = per_target_intervals(result)
        vip_mean = sum(intervals["g4"]) / len(intervals["g4"])
        ntp_means = [sum(v) / len(v) for t, v in intervals.items() if t not in ("g4",)]
        assert vip_mean < min(ntp_means)

    def test_balanced_policy_has_lower_sd_than_shortest_on_average(self):
        """Figure 10's claim, checked over several seeds with one mule per walk.

        The break-edge policy shapes the spacing of a VIP's occurrences along a
        single patrol walk, so the comparison is made with one data mule (with
        several mules the mule phase offsets interfere with the cycle spacing —
        see EXPERIMENTS.md).  The paper averages 20 runs; a few seeds suffice
        for the ordering.
        """
        totals = {"shortest": 0.0, "balanced": 0.0}
        for seed in (3, 9, 17):
            sc = uniform_scenario(num_targets=14, num_mules=1, seed=seed, num_vips=2, vip_weight=3)
            for policy in ("shortest", "balanced"):
                plan = plan_wtctp(sc, policy=policy)
                res = PatrolSimulator(sc.fresh_copy(), plan, SimulationConfig(horizon=80_000)).run()
                totals[policy] += average_sd(res)
        assert totals["balanced"] < totals["shortest"]

    def test_every_target_visited(self, vip_scenario):
        plan = plan_wtctp(vip_scenario)
        result = PatrolSimulator(vip_scenario, plan, SimulationConfig(horizon=40_000)).run()
        expected = {t.id for t in vip_scenario.targets} | {vip_scenario.sink.id}
        assert set(result.visited_targets()) == expected
