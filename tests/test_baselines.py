"""Unit tests for the Random, Sweep and CHB baselines and the strategy registry."""

import pytest

from repro.baselines.base import available_strategies, get_strategy
from repro.baselines.sweep import partition_targets_balanced, partition_targets_by_angle
from repro.core.plan import LoopRoute, StochasticRoute
from repro.geometry.point import Point
from repro.planning import compositions
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.metrics import average_sd
from repro.workloads.generator import uniform_scenario


class TestRegistry:
    def test_all_expected_strategies_present(self):
        names = available_strategies()
        for expected in ("random", "sweep", "chb", "b-tctp", "w-tctp", "rw-tctp"):
            assert expected in names

    def test_get_strategy_instantiates(self):
        builders = {
            "random": compositions.random_pipeline,
            "sweep": compositions.sweep_pipeline,
            "chb": compositions.chb_pipeline,
            "b-tctp": compositions.btctp_pipeline,
            "w-tctp": compositions.wtctp_pipeline,
            "rw-tctp": compositions.rwtctp_pipeline,
        }
        for name, builder in builders.items():
            assert get_strategy(name).spec == builder().spec, name

    def test_kwargs_forwarded(self):
        planner = get_strategy("w-tctp", policy="shortest")
        assert planner.spec.augment.params["policy"] == "shortest"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            get_strategy("definitely-not-a-strategy")

    def test_aliases_resolve_to_same_planner_type(self):
        # the memoized builder hands every equal lookup the same pipeline
        assert get_strategy("btctp") is get_strategy("b-tctp")
        assert get_strategy("tctp") is get_strategy("b-tctp")


class TestRandomPlanner:
    def test_routes_are_stochastic(self, fig1_scenario):
        plan = get_strategy("random", seed=1).plan(fig1_scenario)
        assert all(isinstance(r, StochasticRoute) for r in plan.routes.values())

    def test_candidates_include_sink_by_default(self, fig1_scenario):
        plan = get_strategy("random", seed=1).plan(fig1_scenario)
        route = next(iter(plan.routes.values()))
        assert "sink" in route.candidates

    def test_sink_excluded_when_disabled(self, fig1_scenario):
        plan = get_strategy("random", seed=1, include_sink=False).plan(fig1_scenario)
        route = next(iter(plan.routes.values()))
        assert "sink" not in route.candidates

    def test_seed_reproducibility(self, fig1_scenario):
        import itertools

        p1 = get_strategy("random", seed=5).plan(fig1_scenario)
        p2 = get_strategy("random", seed=5).plan(fig1_scenario)
        w1 = list(itertools.islice(p1.routes["m1"].waypoints(), 20))
        w2 = list(itertools.islice(p2.routes["m1"].waypoints(), 20))
        assert w1 == w2

    def test_mules_get_independent_streams(self, fig1_scenario):
        import itertools

        plan = get_strategy("random", seed=5).plan(fig1_scenario)
        w1 = list(itertools.islice(plan.routes["m1"].waypoints(), 30))
        w2 = list(itertools.islice(plan.routes["m2"].waypoints(), 30))
        assert w1 != w2

    def test_no_start_positions(self, fig1_scenario):
        plan = get_strategy("random", seed=0).plan(fig1_scenario)
        assert all(r.start_position() is None for r in plan.routes.values())


class TestSweepPartition:
    def _targets(self, n=12):
        sc = uniform_scenario(num_targets=n, num_mules=3, seed=2)
        return list(sc.targets), sc.field.center

    def test_partition_counts(self):
        targets, center = self._targets(12)
        groups = partition_targets_by_angle(targets, 3, center)
        assert len(groups) == 3
        assert sum(len(g) for g in groups) == 12

    def test_partition_disjoint(self):
        targets, center = self._targets(12)
        groups = partition_targets_by_angle(targets, 4, center)
        ids = [t.id for g in groups for t in g]
        assert len(ids) == len(set(ids))

    def test_balanced_partition_no_empty_groups(self):
        targets, center = self._targets(10)
        groups = partition_targets_balanced(targets, 5, center)
        assert all(groups)

    def test_more_groups_than_targets(self):
        targets, center = self._targets(3)
        groups = partition_targets_balanced(targets, 5, center)
        assert sum(len(g) for g in groups) == 3

    def test_invalid_group_count(self):
        targets, center = self._targets(5)
        with pytest.raises(ValueError):
            partition_targets_by_angle(targets, 0, center)


class TestSweepPlanner:
    def test_each_mule_gets_its_own_group_cycle(self, fig1_scenario):
        plan = get_strategy("sweep").plan(fig1_scenario)
        assert set(plan.routes) == {m.id for m in fig1_scenario.mules}
        loops = [tuple(r.loop) for r in plan.routes.values()]
        assert len(set(loops)) == len(loops)  # different groups -> different cycles

    def test_groups_cover_all_targets(self, fig1_scenario):
        plan = get_strategy("sweep").plan(fig1_scenario)
        covered = set()
        for info in plan.metadata["groups"]:
            covered.update(info["targets"])
        assert covered == {t.id for t in fig1_scenario.targets}

    def test_sink_included_in_every_group_cycle(self, fig1_scenario):
        plan = get_strategy("sweep").plan(fig1_scenario)
        assert all("sink" in r.loop for r in plan.routes.values())

    def test_sink_exclusion_option(self, fig1_scenario):
        plan = get_strategy("sweep", include_sink_in_groups=False).plan(fig1_scenario)
        assert any("sink" not in r.loop for r in plan.routes.values())

    def test_simulation_covers_all_targets(self, fig1_scenario):
        plan = get_strategy("sweep").plan(fig1_scenario)
        result = PatrolSimulator(fig1_scenario, plan, SimulationConfig(horizon=20_000)).run()
        assert set(result.visited_targets()) >= {t.id for t in fig1_scenario.targets}


class TestCHBPlanner:
    def test_shared_loop_no_start_positions(self, fig1_scenario):
        plan = get_strategy("chb").plan(fig1_scenario)
        loops = {tuple(r.loop) for r in plan.routes.values()}
        assert len(loops) == 1
        assert all(isinstance(r, LoopRoute) for r in plan.routes.values())
        assert all(r.start_position() is None for r in plan.routes.values())

    def test_loop_is_same_as_btctp_circuit(self, fig1_scenario):
        from repro.core.btctp import plan_btctp

        chb = get_strategy("chb").plan(fig1_scenario)
        btctp = plan_btctp(fig1_scenario)
        assert chb.metadata["path_length"] == pytest.approx(btctp.metadata["path_length"])

    def test_chb_has_higher_sd_than_btctp(self):
        sc = uniform_scenario(num_targets=15, num_mules=3, seed=6)
        from repro.core.btctp import plan_btctp

        chb_result = PatrolSimulator(sc.fresh_copy(), get_strategy("chb").plan(sc),
                                     SimulationConfig(horizon=40_000)).run()
        tctp_result = PatrolSimulator(sc.fresh_copy(), plan_btctp(sc),
                                      SimulationConfig(horizon=40_000)).run()
        assert average_sd(tctp_result) == pytest.approx(0.0, abs=1e-6)
        assert average_sd(chb_result) > average_sd(tctp_result)

    def test_entry_at_nearest_node(self):
        sc = uniform_scenario(num_targets=10, num_mules=2, seed=8)
        # place a mule right next to a specific target: it should enter the loop there
        target = sc.targets[0]
        sc.mules[0].position = Point(target.position.x + 1.0, target.position.y)
        plan = get_strategy("chb").plan(sc)
        route = plan.routes[sc.mules[0].id]
        assert route.loop[route.entry_index] == target.id
