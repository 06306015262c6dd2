"""Unit tests for repro.core.btctp (Section II algorithm)."""

import pytest

from repro.core.btctp import expected_visiting_interval, plan_btctp
from repro.core.plan import LoopRoute
from repro.geometry.point import distance
from repro.graphs.validation import validate_tour
from repro.planning import PipelineSpec, PlanningContext, stage_backend_info
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.metrics import average_sd, per_target_intervals


class TestExpectedVisitingInterval:
    def test_formula(self):
        assert expected_visiting_interval(4000.0, 4, 2.0) == pytest.approx(500.0)

    def test_single_mule(self):
        assert expected_visiting_interval(1000.0, 1, 2.0) == pytest.approx(500.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_visiting_interval(100.0, 0, 2.0)
        with pytest.raises(ValueError):
            expected_visiting_interval(100.0, 2, 0.0)


def stage_circuit(scenario):
    """Phase 1 alone: B-TCTP's ``hamiltonian`` tour stage on ``scenario``."""
    ctx = PlanningContext(scenario=scenario, spec=PipelineSpec())
    stage_backend_info("tour", "hamiltonian").factory(ctx)
    (lane,) = ctx.lanes
    return lane.tour


class TestCircuitConstruction:
    def test_circuit_covers_targets_and_sink(self, simple_scenario):
        tour = stage_circuit(simple_scenario)
        validate_tour(tour, expected_nodes=["g1", "g2", "g3", "g4", "sink"])
        # the plan patrols exactly this circuit
        assert plan_btctp(simple_scenario).metadata["tour"] == list(tour.order)

    def test_circuit_starts_at_sink(self, simple_scenario):
        tour = stage_circuit(simple_scenario)
        assert tour.order[0] == "sink"

    def test_all_mules_would_build_the_same_circuit(self, fig1_scenario):
        t1 = stage_circuit(fig1_scenario)
        t2 = stage_circuit(fig1_scenario)
        assert t1.order == t2.order


class TestPlan:
    def test_one_route_per_mule(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        assert set(plan.routes) == {m.id for m in fig1_scenario.mules}

    def test_routes_are_loop_routes_over_same_loop(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        loops = {tuple(r.loop) for r in plan.routes.values()}
        assert len(loops) == 1
        assert all(isinstance(r, LoopRoute) for r in plan.routes.values())

    def test_metadata_contains_expected_interval(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        expected = expected_visiting_interval(
            plan.metadata["path_length"], fig1_scenario.num_mules,
            fig1_scenario.params.mule_velocity
        )
        assert plan.metadata["expected_visiting_interval"] == pytest.approx(expected)

    def test_start_positions_present_with_initialization(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        assert all(r.start_position() is not None for r in plan.routes.values())

    def test_start_positions_absent_without_initialization(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario, location_initialization=False)
        assert all(r.start_position() is None for r in plan.routes.values())

    def test_start_positions_equally_spaced(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        sps = plan.metadata["start_points"]
        arcs = sorted(sp["arc"] for sp in sps)
        path_len = plan.metadata["path_length"]
        gaps = [b - a for a, b in zip(arcs, arcs[1:])] + [path_len - (arcs[-1] - arcs[0])]
        expected_gap = path_len / len(sps)
        assert all(g == pytest.approx(expected_gap, rel=1e-6) for g in gaps)

    def test_distinct_start_points_per_mule(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        starts = [r.start_position() for r in plan.routes.values()]
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                assert distance(starts[i], starts[j]) > 1e-6

    def test_alternative_tsp_methods(self, fig1_scenario):
        for method in ("nearest-neighbor", "christofides"):
            plan = plan_btctp(fig1_scenario, tsp_method=method)
            assert plan.metadata["path_length"] > 0


class TestSimulatedBehaviour:
    """End-to-end properties the paper claims for B-TCTP (Figures 7 and 8)."""

    def test_zero_sd_of_visiting_intervals(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        result = PatrolSimulator(fig1_scenario, plan, SimulationConfig(horizon=30_000)).run()
        assert average_sd(result) == pytest.approx(0.0, abs=1e-6)

    def test_intervals_match_closed_form(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        result = PatrolSimulator(fig1_scenario, plan, SimulationConfig(horizon=30_000)).run()
        expected = plan.metadata["expected_visiting_interval"]
        intervals = per_target_intervals(result)
        for target, ivs in intervals.items():
            assert len(ivs) >= 2, f"{target} visited too few times"
            for iv in ivs:
                assert iv == pytest.approx(expected, rel=1e-6)

    def test_every_target_visited(self, fig1_scenario):
        plan = plan_btctp(fig1_scenario)
        result = PatrolSimulator(fig1_scenario, plan, SimulationConfig(horizon=30_000)).run()
        visited = set(result.visited_targets())
        expected = {t.id for t in fig1_scenario.targets} | {fig1_scenario.sink.id}
        assert visited == expected

    def test_more_mules_shorten_interval_proportionally(self, fig1_scenario):
        results = {}
        for n in (2, 4):
            sc = fig1_scenario.with_mule_count(n)
            plan = plan_btctp(sc)
            res = PatrolSimulator(sc, plan, SimulationConfig(horizon=30_000)).run()
            intervals = [iv for ivs in per_target_intervals(res).values() for iv in ivs]
            results[n] = sum(intervals) / len(intervals)
        assert results[2] / results[4] == pytest.approx(2.0, rel=1e-3)

    def test_without_initialization_sd_is_positive(self):
        # mules bunched at the sink with no relocation -> unequal gaps -> SD > 0
        from repro.workloads.generator import uniform_scenario

        sc = uniform_scenario(num_targets=15, num_mules=3, seed=11)
        plan = plan_btctp(sc, location_initialization=False)
        result = PatrolSimulator(sc, plan, SimulationConfig(horizon=40_000)).run()
        assert average_sd(result) > 1.0
