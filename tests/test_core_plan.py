"""Unit tests for repro.core.plan (route objects and PatrolPlan)."""

import itertools

import numpy as np
import pytest

from repro.core.plan import AlternatingLoopRoute, LoopRoute, PatrolPlan, StochasticRoute
from repro.geometry.point import Point

COORDS = {
    "a": Point(0, 0),
    "b": Point(100, 0),
    "c": Point(100, 100),
    "d": Point(0, 100),
    "r": Point(50, 50),
}


def take(route, n):
    return list(itertools.islice(route.waypoints(), n))


class TestLoopRoute:
    def test_waypoints_cycle(self):
        r = LoopRoute("m1", ["a", "b", "c"], COORDS)
        assert take(r, 7) == ["a", "b", "c", "a", "b", "c", "a"]

    def test_entry_index(self):
        r = LoopRoute("m1", ["a", "b", "c"], COORDS, entry_index=2)
        assert take(r, 4) == ["c", "a", "b", "c"]

    def test_entry_index_wraps(self):
        r = LoopRoute("m1", ["a", "b", "c"], COORDS, entry_index=5)
        assert take(r, 1) == ["c"]

    def test_lap_length_square(self):
        r = LoopRoute("m1", ["a", "b", "c", "d"], COORDS)
        assert r.lap_length() == pytest.approx(400.0)

    def test_start_position(self):
        r = LoopRoute("m1", ["a", "b"], COORDS, start=Point(1, 2))
        assert r.start_position() == Point(1, 2)

    def test_no_start_position_by_default(self):
        assert LoopRoute("m1", ["a", "b"], COORDS).start_position() is None

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            LoopRoute("m1", [], COORDS)

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            LoopRoute("m1", ["a", "zzz"], COORDS)

    def test_repeated_nodes_allowed(self):
        # a VIP appears several times per lap in a W-TCTP walk
        r = LoopRoute("m1", ["a", "b", "a", "c"], COORDS)
        assert take(r, 4) == ["a", "b", "a", "c"]

    def test_describe(self):
        d = LoopRoute("m1", ["a", "b", "c", "d"], COORDS, start=Point(0, 0)).describe()
        assert d["mule"] == "m1"
        assert d["lap_nodes"] == 4
        assert d["has_start_position"] is True

    def test_point_of(self):
        r = LoopRoute("m1", ["a", "b"], COORDS)
        assert r.point_of("b") == Point(100, 0)


class TestAlternatingLoopRoute:
    def _route(self, rounds):
        return AlternatingLoopRoute(
            "m1", ["a", "b", "c", "d"], ["a", "b", "r", "c", "d"], COORDS, patrol_rounds=rounds
        )

    def test_recharge_loop_every_r_rounds(self):
        r = self._route(rounds=3)
        lap1_2 = take(r, 8)
        assert "r" not in lap1_2
        lap3 = list(itertools.islice(r.waypoints(), 8, 13))
        # a fresh iterator: laps 1-2 are patrol (8 nodes), lap 3 is the recharge loop (5 nodes)
        assert "r" in lap3

    def test_rounds_of_one_always_recharges(self):
        r = self._route(rounds=1)
        assert "r" in take(r, 5)

    def test_entry_index_applies_to_first_lap_only(self):
        r = AlternatingLoopRoute("m1", ["a", "b", "c", "d"], ["a", "r"], COORDS,
                                 patrol_rounds=5, entry_index=2)
        seq = take(r, 8)
        assert seq[:4] == ["c", "d", "a", "b"]
        assert seq[4:8] == ["a", "b", "c", "d"]

    def test_lap_lengths(self):
        r = self._route(rounds=2)
        assert r.lap_length() == pytest.approx(400.0)
        assert r.recharge_lap_length() > 0

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            AlternatingLoopRoute("m1", [], ["a"], COORDS, patrol_rounds=2)

    def test_describe_includes_rounds(self):
        assert self._route(4).describe()["patrol_rounds"] == 4


class TestStochasticRoute:
    def test_only_candidates_emitted(self):
        r = StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=0)
        assert set(take(r, 50)) <= {"a", "b", "c"}

    def test_no_immediate_repeat_by_default(self):
        r = StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=1)
        seq = take(r, 200)
        assert all(x != y for x, y in zip(seq, seq[1:]))

    def test_repeats_allowed_when_disabled(self):
        r = StochasticRoute("m1", ["a", "b"], COORDS, seed=2, avoid_repeat=False)
        seq = take(r, 300)
        assert any(x == y for x, y in zip(seq, seq[1:]))

    def test_deterministic_for_seed(self):
        a = take(StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=7), 30)
        b = take(StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=7), 30)
        assert a == b

    def test_different_seeds_differ(self):
        a = take(StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=1), 30)
        b = take(StochasticRoute("m1", ["a", "b", "c"], COORDS, seed=2), 30)
        assert a != b

    def test_single_candidate_loop(self):
        r = StochasticRoute("m1", ["a"], COORDS, seed=0)
        assert take(r, 3) == ["a", "a", "a"]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            StochasticRoute("m1", [], COORDS)

    def test_external_rng_accepted(self):
        rng = np.random.default_rng(5)
        r = StochasticRoute("m1", ["a", "b"], COORDS, rng=rng)
        assert len(take(r, 10)) == 10


def frozen_scan(route):
    """The waypoint draw as a scan over the filtered candidates: the reference."""
    last = None
    while True:
        choices = route.candidates
        if route.avoid_repeat and last is not None and len(choices) > 1:
            choices = [c for c in choices if c != last]
        nxt = choices[int(route._rng.integers(len(choices)))]
        last = nxt
        yield nxt


MANY = {f"g{i}": Point(i, i % 7) for i in range(60)}


class TestStochasticDrawMatchesTheScan:
    """The O(1) draw gives the scan's waypoints and leaves its generator state."""

    @pytest.mark.parametrize("candidates,avoid_repeat", [
        (list(MANY), True),                        # unique: the O(1) draw
        (["g1", "g2", "g1", "g3", "g3"], True),    # duplicates: the scan
        (list(MANY), False),                       # repeats allowed
        (["g1"], True),
        (["g1", "g2"], True),
        (["g2", "g1"], False),
    ])
    @pytest.mark.parametrize("seed", [0, 20260808])
    def test_same_waypoints_and_generator_state(self, candidates, avoid_repeat, seed):
        routes = [StochasticRoute("m1", candidates, MANY, seed=seed, avoid_repeat=avoid_repeat)
                  for _ in range(2)]
        drawn = list(itertools.islice(routes[0].waypoints(), 10_000))
        scanned = list(itertools.islice(frozen_scan(routes[1]), 10_000))
        assert drawn == scanned
        assert routes[0]._rng.bit_generator.state == routes[1]._rng.bit_generator.state


class TestPatrolPlan:
    def test_route_lookup(self):
        routes = {"m1": LoopRoute("m1", ["a", "b"], COORDS)}
        plan = PatrolPlan(strategy="test", routes=routes)
        assert plan.route_for("m1") is routes["m1"]
        assert plan.mule_ids == ("m1",)

    def test_mismatched_key_rejected(self):
        with pytest.raises(ValueError):
            PatrolPlan(strategy="test", routes={"m2": LoopRoute("m1", ["a"], COORDS)})

    def test_empty_routes_rejected(self):
        with pytest.raises(ValueError):
            PatrolPlan(strategy="test", routes={})

    def test_total_lap_length_when_shared(self):
        routes = {
            "m1": LoopRoute("m1", ["a", "b", "c", "d"], COORDS),
            "m2": LoopRoute("m2", ["a", "b", "c", "d"], COORDS, entry_index=2),
        }
        plan = PatrolPlan(strategy="test", routes=routes)
        assert plan.total_lap_length() == pytest.approx(400.0)

    def test_total_lap_length_none_when_different(self):
        routes = {
            "m1": LoopRoute("m1", ["a", "b", "c", "d"], COORDS),
            "m2": LoopRoute("m2", ["a", "b"], COORDS),
        }
        assert PatrolPlan(strategy="test", routes=routes).total_lap_length() is None

    def test_describe_contains_metadata(self):
        plan = PatrolPlan(strategy="test", routes={"m1": LoopRoute("m1", ["a"], COORDS)},
                          metadata={"path_length": 42.0})
        desc = plan.describe()
        assert desc["strategy"] == "test"
        assert desc["path_length"] == 42.0
        assert len(desc["routes"]) == 1
