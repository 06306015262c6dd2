"""Unit tests for repro.graphs.multitour.MultiTour (the WPP/WRP multigraph)."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour


@pytest.fixture
def square_multitour(square_tour) -> MultiTour:
    return MultiTour.from_tour(square_tour)


class TestConstruction:
    def test_from_tour_degrees(self, square_multitour):
        for node in square_multitour.nodes:
            assert square_multitour.degree(node) == 2

    def test_from_tour_length_matches(self, square_tour, square_multitour):
        assert square_multitour.length() == pytest.approx(square_tour.length())

    def test_copy_is_independent(self, square_multitour):
        clone = square_multitour.copy()
        clone.remove_edge("a", "b")
        assert square_multitour.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_add_node(self, square_multitour):
        square_multitour.add_node("r", Point(50, 50))
        assert "r" in square_multitour
        assert square_multitour.degree("r") == 0

    def test_add_duplicate_node_rejected(self, square_multitour):
        with pytest.raises(ValueError):
            square_multitour.add_node("a", Point(0, 0))


class TestEdgeSurgery:
    def test_add_edge_increments_degrees(self, square_multitour):
        square_multitour.add_edge("a", "c")
        assert square_multitour.degree("a") == 3
        assert square_multitour.degree("c") == 3

    def test_parallel_edges_allowed(self, square_multitour):
        k1 = square_multitour.add_edge("a", "c")
        k2 = square_multitour.add_edge("a", "c")
        assert k1 != k2
        assert square_multitour.degree("a") == 4

    def test_self_loop_rejected(self, square_multitour):
        with pytest.raises(ValueError):
            square_multitour.add_edge("a", "a")

    def test_edge_to_unknown_node_rejected(self, square_multitour):
        with pytest.raises(KeyError):
            square_multitour.add_edge("a", "zzz")

    def test_remove_edge(self, square_multitour):
        square_multitour.remove_edge("a", "b")
        assert not square_multitour.has_edge("a", "b")
        assert square_multitour.degree("a") == 1

    def test_remove_missing_edge_raises(self, square_multitour):
        with pytest.raises(KeyError):
            square_multitour.remove_edge("a", "c")

    def test_remove_specific_parallel_edge(self, square_multitour):
        k1 = square_multitour.add_edge("a", "c")
        square_multitour.add_edge("a", "c")
        square_multitour.remove_edge("a", "c", key=k1)
        assert square_multitour.has_edge("a", "c")
        assert square_multitour.degree("a") == 3

    def test_break_edge_preserves_endpoint_degrees(self, square_multitour):
        before_a = square_multitour.degree("a")
        before_b = square_multitour.degree("b")
        square_multitour.break_edge("a", "b", "c")
        assert square_multitour.degree("a") == before_a
        assert square_multitour.degree("b") == before_b
        assert square_multitour.degree("c") == 4  # the hub gains one cycle

    def test_break_edge_incident_to_hub_rejected(self, square_multitour):
        with pytest.raises(ValueError):
            square_multitour.break_edge("a", "b", "a")

    def test_num_edges(self, square_multitour):
        assert square_multitour.num_edges() == 4
        square_multitour.add_edge("a", "c")
        assert square_multitour.num_edges() == 5


class TestStructureQueries:
    def test_cycles_through(self, square_multitour):
        assert square_multitour.cycles_through("a") == 1
        square_multitour.break_edge("b", "c", "a")
        assert square_multitour.cycles_through("a") == 2

    def test_is_connected_true(self, square_multitour):
        assert square_multitour.is_connected()

    def test_is_connected_false_after_split(self, square_points):
        mt = MultiTour(square_points)
        mt.add_edge("a", "b")
        mt.add_edge("c", "d")
        assert not mt.is_connected()

    def test_is_eulerian(self, square_multitour):
        assert square_multitour.is_eulerian()
        square_multitour.add_edge("a", "c")  # odd degrees now
        assert not square_multitour.is_eulerian()

    def test_weight_profile(self, square_multitour):
        square_multitour.break_edge("b", "c", "d")
        profile = square_multitour.weight_profile()
        assert profile["d"] == 2
        assert profile["a"] == 1

    def test_edges_listed_once(self, square_multitour):
        edges = square_multitour.edges()
        assert len(edges) == 4
        keys = [k for _u, _v, k in edges]
        assert len(set(keys)) == 4


class TestEulerCircuit:
    def test_simple_cycle_circuit(self, square_multitour):
        walk = square_multitour.euler_circuit(start="a")
        assert walk[0] == walk[-1] == "a"
        assert len(walk) == 5  # 4 edges + closing repeat
        assert set(walk) == {"a", "b", "c", "d"}

    def test_circuit_uses_every_edge_once(self, square_multitour):
        square_multitour.break_edge("b", "c", "d")  # d now weight 2
        walk = square_multitour.euler_circuit(start="a")
        assert len(walk) - 1 == square_multitour.num_edges()
        assert walk.count("d") == 2

    def test_non_eulerian_raises(self, square_multitour):
        square_multitour.add_edge("a", "c")
        with pytest.raises(ValueError):
            square_multitour.euler_circuit()

    def test_walk_length_matches_structure_length(self, square_multitour):
        walk = square_multitour.euler_circuit(start="a")
        assert square_multitour.walk_length(walk) == pytest.approx(square_multitour.length())


def _count_connectivity_checks(monkeypatch) -> list[int]:
    """Count every connectivity BFS; is_eulerian() answered from its memo runs none."""
    calls = [0]
    original = MultiTour.is_connected

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(MultiTour, "is_connected", counting)
    return calls


class TestEulerianMemo:
    """is_eulerian() answers from a memo that edge surgery keeps truthful."""

    def test_remove_edge_that_disconnects_clears_the_memo(self, square_multitour):
        from repro.core.patrol_rules import build_patrol_walk

        # A square and a triangle joined by a doubled edge: Eulerian.
        mt = square_multitour
        mt.add_node("e", Point(300.0, 0.0))
        mt.add_node("f", Point(400.0, 0.0))
        mt.add_node("g", Point(350.0, 100.0))
        for u, v in (("e", "f"), ("f", "g"), ("g", "e"), ("b", "e"), ("b", "e")):
            mt.add_edge(u, v)
        assert mt.is_eulerian()
        mt.remove_edge("b", "e")
        mt.remove_edge("b", "e")  # every degree even again, but two components
        assert all(mt.degree(n) % 2 == 0 for n in mt.nodes)
        assert not mt.is_eulerian()
        with pytest.raises(ValueError, match="not Eulerian"):
            mt.euler_circuit(start="a")
        with pytest.raises(ValueError, match="must be Eulerian"):
            build_patrol_walk(mt, "a")

    def test_add_edge_leaving_an_odd_degree_clears_the_memo(self, square_multitour):
        from repro.core.patrol_rules import build_patrol_walk

        assert square_multitour.is_eulerian()
        square_multitour.add_edge("a", "c")
        with pytest.raises(ValueError, match="not Eulerian"):
            square_multitour.euler_circuit(start="a")
        with pytest.raises(ValueError, match="must be Eulerian"):
            build_patrol_walk(square_multitour, "a")

    def test_break_edge_onto_an_isolated_hub_keeps_true(self, square_multitour, monkeypatch):
        # The recharge-station surgery: an isolated node joins the walk.
        assert square_multitour.is_eulerian()
        square_multitour.add_node("r", Point(50.0, -40.0))
        square_multitour.break_edge("a", "b", "r")
        calls = _count_connectivity_checks(monkeypatch)
        assert square_multitour.is_eulerian()
        assert calls[0] == 0
        assert square_multitour.is_connected()  # the memo told the truth
        walk = square_multitour.euler_circuit(start="r")
        assert len(walk) - 1 == square_multitour.num_edges() == 5

    def test_break_edge_does_not_keep_false(self, square_points):
        # Two disjoint cycles are not Eulerian; breaking an edge of one onto
        # a node of the other joins them into one closed walk.
        mt = MultiTour({**square_points, "e": Point(300.0, 0.0), "f": Point(400.0, 0.0)})
        for u, v in (("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")):
            mt.add_edge(u, v)
        assert not mt.is_eulerian()
        mt.break_edge("a", "b", "e")
        assert mt.is_eulerian()

    def test_copy_carries_the_memo(self, square_multitour, monkeypatch):
        assert square_multitour.is_eulerian()
        calls = _count_connectivity_checks(monkeypatch)
        clone = square_multitour.copy()
        assert clone.is_eulerian()
        assert calls[0] == 0
        clone.add_edge("a", "c")
        assert not clone.is_eulerian()
        assert square_multitour.is_eulerian()
        assert calls[0] == 1

    def test_one_connectivity_check_per_wpp_build(self, ring_tour, monkeypatch):
        from repro.core.wtctp import build_weighted_patrolling_path

        calls = _count_connectivity_checks(monkeypatch)
        weights = {"g2": 4, "g5": 3, "g7": 2}
        structure, walk = build_weighted_patrolling_path(ring_tour, weights, "balanced")
        assert calls[0] == 1
        assert structure.visit_counts(walk)["g2"] == 4


def assert_runs_consistent(mt):
    """The run index covers every edge once, and every run is a maximal path
    over degree-2 non-branch nodes with its edges' math.hypot lengths."""
    runs, branch = mt._runs, mt._branch
    assert sorted(runs) == sorted(k for _u, _v, k in mt.edges())
    for run in set(runs.values()):
        assert all(runs[k] is run for k in run.keys)
        assert len(run.nodes) == len(run.keys) + 1 == len(run.lengths) + 1
        for (a, b), key, length in zip(zip(run.nodes, run.nodes[1:]), run.keys, run.lengths):
            assert (b, key) in mt.neighbors(a) and (a, key) in mt.neighbors(b)
            pa, pb = mt.point(a), mt.point(b)
            assert length == math.hypot(pa.x - pb.x, pa.y - pb.y)
        assert all(n not in branch and mt.degree(n) == 2 for n in run.nodes[1:-1])
        if run.nodes[0] not in branch:  # a cycle with no branch node
            assert run.nodes[0] == run.nodes[-1] and mt.degree(run.nodes[0]) == 2
        else:
            assert run.nodes[-1] in branch
    assert all(n in branch for n in mt.nodes if mt.degree(n) not in (0, 2))


class TestRunIndex:
    def test_from_tour_is_one_cycle_until_a_start_splits_it(self, ring_tour):
        mt = MultiTour.from_tour(ring_tour)
        assert mt._runs is None
        walk = mt.euler_circuit(start="g3")
        assert_runs_consistent(mt)
        (run,) = set(mt._runs.values())
        assert run.nodes[0] == run.nodes[-1] == "g3" and mt._branch == {"g3"}
        assert walk == list(run.nodes) or walk == list(run.nodes[::-1])

    def test_break_edge_keeps_the_index(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            coords = {f"n{i}": Point(*map(float, rng.integers(0, 4, 2) * 100)) for i in range(n)}
            mt = MultiTour(coords)
            order = list(coords)
            for a, b in zip(order, order[1:] + order[:1]):
                mt.add_edge(a, b)
            mt.euler_circuit(start=order[int(rng.integers(n))])
            for step in range(int(rng.integers(1, 12))):
                if rng.random() < 0.2:
                    hub = f"r{step}"
                    mt.add_node(hub, Point(*map(float, rng.uniform(0, 400, 2))))
                else:
                    hub = order[int(rng.integers(n))]
                candidates = [e for e in mt.edges() if hub not in e[:2]]
                if not candidates:
                    break
                u, v, key = candidates[int(rng.integers(len(candidates)))]
                mt.break_edge(u, v, hub, key=key if rng.random() < 0.5 else None)
                assert_runs_consistent(mt)
                if rng.random() < 0.3:
                    mt.euler_circuit(start=hub)
                    assert_runs_consistent(mt)

    def test_copies_own_their_index(self, ring_tour):
        mt = MultiTour.from_tour(ring_tour)
        mt.euler_circuit(start="sink")
        before = dict(mt._runs), set(mt._branch)
        clone = mt.copy()
        clone.break_edge("g4", "g5", "g1")
        clone.euler_circuit(start="g7")
        assert (mt._runs, mt._branch) == before
        assert_runs_consistent(mt)
        assert_runs_consistent(clone)

    def test_surgery_outside_break_edge_drops_the_index(self, ring_tour):
        mt = MultiTour.from_tour(ring_tour)
        mt.euler_circuit(start="sink")
        mt.add_node("r", Point(0.0, 0.0))  # an isolated node lies on no run
        assert mt._runs is not None
        mt.add_edge("g1", "g5")
        assert mt._runs is None and mt._branch is None
        mt._run_index()
        assert_runs_consistent(mt)
        mt.remove_edge("g1", "g5")
        assert mt._runs is None
        assert mt.euler_circuit(start="g2") == MultiTour.from_tour(ring_tour).euler_circuit(start="g2")


class TestCyclesAt:
    def test_single_cycle(self, square_multitour):
        cycles = square_multitour.cycles_at("a")
        assert len(cycles) == 1
        assert cycles[0].length == pytest.approx(square_multitour.length())

    def test_two_cycles_after_break(self, square_multitour):
        square_multitour.break_edge("b", "c", "d")
        cycles = square_multitour.cycles_at("d")
        assert len(cycles) == 2
        total = sum(c.length for c in cycles)
        assert total == pytest.approx(square_multitour.length())

    def test_cycles_at_node_not_in_walk(self, square_points):
        mt = MultiTour(square_points)
        mt.add_edge("a", "b")
        mt.add_edge("b", "c")
        mt.add_edge("c", "a")
        assert mt.cycles_at("d", walk=["a", "b", "c", "a"]) == []

    def test_cycles_by_hub_matches_cycles_at(self, ring_tour):
        from repro.core.wtctp import build_weighted_patrolling_path

        weights = {"g2": 3, "g6": 2}
        structure, walk = build_weighted_patrolling_path(ring_tour, weights, "balanced")
        by_hub = structure.cycles_by_hub(["g6", "g2", "sink", "absent"], walk)
        assert list(by_hub) == ["g6", "g2", "sink", "absent"]
        assert by_hub["absent"] == []
        for hub in ("g6", "g2", "sink"):
            one = structure.cycles_at(hub, walk)
            assert [c.nodes for c in by_hub[hub]] == [c.nodes for c in one]
            assert [c.length for c in by_hub[hub]] == [c.length for c in one]
            assert [c.length for c in one] == [structure.walk_length(c.nodes) for c in one]
        assert len(by_hub["g2"]) == 3

    def test_visit_counts(self, square_multitour):
        square_multitour.break_edge("b", "c", "d")
        walk = square_multitour.euler_circuit(start="a")
        counts = square_multitour.visit_counts(walk)
        assert counts["d"] == 2
        assert counts["a"] == 1

    def test_as_networkx_multigraph(self, square_multitour):
        square_multitour.add_edge("a", "c")
        g = square_multitour.as_networkx()
        assert g.number_of_edges() == 5


class TestEdgeCaseScenarios:
    """PR-4 satellite: single-target scenarios, all-equal weights, weight-1 VIPs."""

    def test_single_target_plus_sink_structure(self):
        # The smallest patrollable scenario: one target and the sink, joined
        # by two parallel edges (out and back) — a valid Eulerian structure.
        mt = MultiTour({"sink": Point(0, 0), "t": Point(10, 0)})
        mt.add_edge("sink", "t")
        mt.add_edge("sink", "t")
        assert mt.is_eulerian()
        walk = mt.euler_circuit(start="sink")
        assert walk[0] == walk[-1] == "sink"
        assert mt.visit_counts(walk) == {"sink": 1, "t": 1}
        assert mt.length() == pytest.approx(20.0)

    def test_single_target_scenario_end_to_end(self):
        from repro.baselines.base import get_strategy
        from repro.scenarios import get_scenario

        scenario = get_scenario("uniform", num_targets=1, num_mules=1, seed=3)
        for strategy in ("b-tctp", "chb", "sweep", "w-tctp"):
            plan = get_strategy(strategy).plan(scenario.fresh_copy())
            loop = plan.routes[scenario.mules[0].id].loop
            assert sorted(set(loop)) == sorted({scenario.sink.id, scenario.targets[0].id})

    def test_all_equal_vip_weights_balanced_degrees(self, square_tour):
        # Every target weight 2: each node must end with degree 4, and the
        # walk must visit each exactly twice per lap.
        from repro.core.wtctp import build_weighted_patrolling_path

        weights = {n: 2 for n in square_tour.order}
        structure, walk = build_weighted_patrolling_path(square_tour, weights, "shortest")
        for node in square_tour.order:
            assert structure.degree(node) == 4
            assert structure.cycles_through(node) == 2
        assert structure.visit_counts(walk) == weights

    def test_weight_one_vips_are_noops(self, square_tour):
        # "VIPs" of weight 1 must leave the structure untouched: the WPP is
        # exactly the lifted Hamiltonian circuit, for both policies.
        from repro.core.wtctp import build_wpp_structure

        base = MultiTour.from_tour(square_tour)
        for policy in ("shortest", "balanced"):
            structure, full = build_wpp_structure(
                square_tour, {n: 1 for n in square_tour.order}, policy
            )
            assert sorted(structure.edges()) == sorted(base.edges())
            assert structure.weight_profile() == {n: 1 for n in square_tour.order}

    def test_weight_one_vip_scenario_matches_unweighted_plan(self):
        # A scenario whose "VIPs" all have weight 1 must produce the same
        # W-TCTP walk as a plain B-TCTP circuit (every node once per lap).
        from repro.baselines.base import get_strategy
        from repro.scenarios import get_scenario

        scenario = get_scenario("uniform", num_targets=8, num_mules=2,
                                num_vips=3, vip_weight=1, seed=5)
        w_plan = get_strategy("w-tctp").plan(scenario.fresh_copy())
        b_plan = get_strategy("b-tctp").plan(scenario.fresh_copy())
        w_loop = next(iter(w_plan.routes.values())).loop
        b_loop = next(iter(b_plan.routes.values())).loop
        assert sorted(w_loop) == sorted(b_loop)  # same node multiset: no VIP expansion
        assert len(set(w_loop)) == len(w_loop)   # every node exactly once
