"""Tests of the composable planning pipeline (:mod:`repro.planning`)."""

import copy
import json

import pytest

from repro.baselines.base import (
    available_strategies,
    get_strategy,
    strategy_info,
    strategy_params,
    validate_strategy_params,
)
from repro.core.plan import AlternatingLoopRoute, LoopRoute, StochasticRoute
from repro.planning import (
    STAGE_KINDS,
    PipelineSpec,
    PlanningPipeline,
    StageSpec,
    available_stage_backends,
    canonical_stage_backend,
    register_stage,
    stage_backend_info,
    validate_stage_params,
)
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec, get_scenario
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import fast_path_rejection


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("uniform", num_targets=12, num_mules=3,
                        num_vips=2, vip_weight=3, seed=4)


@pytest.fixture(scope="module")
def recharge_scenario():
    return get_scenario("uniform", num_targets=10, num_mules=2, num_vips=1,
                        vip_weight=3, mule_battery=200_000.0,
                        with_recharge_station=True, seed=2)


@pytest.fixture
def isolated_order_stages(monkeypatch):
    """Backends registered by the test go into a copy of the order-stage table."""
    from repro.planning import stages

    stages.available_stage_backends("order")  # copy the loaded built-ins
    monkeypatch.setitem(stages.STAGES, "order", copy.deepcopy(stages.STAGES["order"]))


# --------------------------------------------------------------------------- #
# Stage registry
# --------------------------------------------------------------------------- #

class TestStageRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_stage_backends("tour")) == {
            "hamiltonian", "sweep-sector", "cluster-first", "pool"}
        assert set(available_stage_backends("augment")) == {"none", "wpp", "recharge"}
        assert set(available_stage_backends("order")) == {
            "as-built", "ccw-angle", "reversed", "stochastic"}
        assert set(available_stage_backends("init")) == {
            "equal-spacing", "depot-start", "random-offset"}

    def test_aliases_resolve(self):
        assert canonical_stage_backend("init", "nearest") == "depot-start"
        assert canonical_stage_backend("order", "CCW") == "ccw-angle"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            available_stage_backends("tours")

    def test_unknown_backend_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'hamiltonian'"):
            canonical_stage_backend("tour", "hamiltonain")

    def test_param_table_derived_from_signature(self):
        info = stage_backend_info("tour", "hamiltonian")
        assert set(info.params) == {"tsp_method", "improve_tour"}
        assert info.params["tsp_method"].default == "hull-insertion"

    def test_validate_stage_params_unknown_param(self):
        with pytest.raises(ValueError, match="does not accept"):
            validate_stage_params("tour", "hamiltonian", {"tsp_methd": "x"})

    def test_validate_stage_params_bad_value(self):
        with pytest.raises(ValueError, match="did you mean 'nearest-neighbor'"):
            validate_stage_params("tour", "hamiltonian", {"tsp_method": "nearest-neighbour"})
        with pytest.raises(ValueError, match="num_clusters"):
            validate_stage_params("tour", "cluster-first", {"num_clusters": 0})
        with pytest.raises(ValueError, match="vip_weight"):
            validate_stage_params("augment", "recharge", {"vip_weight": -1})

    def test_custom_backend_registration(self, scenario, isolated_order_stages):
        @register_stage("order", "zigzag-test", description="test backend")
        def order_zigzag(ctx):
            for lane in ctx.lanes:
                loop = list(lane.tour.order)
                lane.loop = loop
                lane.walk = loop + loop[:1]
                lane.coords = lane.tour.coordinates

        spec = PipelineSpec(order="zigzag-test", init="depot-start")
        plan = PlanningPipeline(spec.validate(), name="zigzag").plan(scenario.fresh_copy())
        assert plan.strategy == "zigzag"

    def test_kwargs_backends_rejected(self):
        with pytest.raises(TypeError, match="explicit keyword parameter set"):
            register_stage("order", "catchall-test")(lambda ctx, **kw: None)

    def test_required_param_fails_validation_not_planning(self, isolated_order_stages):
        @register_stage("order", "needs-k-test", description="test backend")
        def order_needs_k(ctx, *, k: int):
            raise AssertionError("validation must reject the spec first")

        assert stage_backend_info("order", "needs-k-test").params["k"].required
        with pytest.raises(ValueError, match=r"requires parameter\(s\): k"):
            validate_stage_params("order", "needs-k-test", {})
        spec = PipelineSpec(order="needs-k-test", init="depot-start")
        with pytest.raises(ValueError, match="order stage backend 'needs-k-test' requires"):
            spec.validate()
        validate_stage_params("order", "needs-k-test", {"k": 2})


# --------------------------------------------------------------------------- #
# StageSpec / PipelineSpec
# --------------------------------------------------------------------------- #

class TestSpecs:
    def test_stage_spec_coercions_equivalent(self):
        a = StageSpec.coerce("wpp:policy=shortest")
        b = StageSpec.coerce({"name": "wpp", "params": {"policy": "shortest"}})
        c = StageSpec("wpp", {"policy": "shortest"})
        assert a == b == c

    def test_none_coerces_to_the_none_backend(self):
        # CLI-style parsers turn the literal string "none" into Python None
        # before coercion; the no-op augment backend is legitimately "none".
        assert StageSpec.coerce(None) == StageSpec("none")
        planner = get_strategy("pipeline", augment=None)
        assert planner.spec.augment.name == "none"

    def test_stage_spec_parses_typed_values(self):
        spec = StageSpec.coerce("cluster-first:num_clusters=4")
        assert spec.params == {"num_clusters": 4}
        assert StageSpec.coerce("x:flag=true").params == {"flag": True}
        assert StageSpec.coerce("x:seed=none").params == {"seed": None}

    def test_stage_spec_bad_spellings(self):
        with pytest.raises(ValueError, match="backend name"):
            StageSpec.coerce(":policy=shortest")
        with pytest.raises(ValueError, match="key=value"):
            StageSpec.coerce("wpp:policy")
        with pytest.raises(TypeError):
            StageSpec.coerce(42)

    def test_pipeline_spec_json_round_trip(self):
        spec = PipelineSpec(
            tour=StageSpec("cluster-first", {"num_clusters": 3}),
            augment="wpp:policy=shortest",
            order="ccw-angle",
            init="equal-spacing",
        )
        again = PipelineSpec.from_json(spec.to_json())
        assert again == spec
        assert json.loads(spec.to_json())["order"] == "ccw-angle"  # compact form

    def test_pipeline_spec_unknown_stage_key(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            PipelineSpec.from_dict({"tours": "hamiltonian"})

    def test_validate_rejects_incompatible_combinations(self):
        with pytest.raises(ValueError, match="cannot traverse a weighted structure"):
            PipelineSpec(augment="wpp", order="as-built").validate()
        with pytest.raises(ValueError, match="cannot traverse a weighted structure"):
            PipelineSpec(augment="wpp", order="stochastic", init="depot-start").validate()
        with pytest.raises(ValueError, match="depot-start"):
            PipelineSpec(tour="pool", order="stochastic", init="equal-spacing").validate()

    def test_validate_suggests_on_stage_typo(self):
        with pytest.raises(ValueError, match="did you mean 'equal-spacing'"):
            PipelineSpec(init="equal-spacin").validate()

    def test_compact_rendering(self):
        spec = PipelineSpec(augment="wpp:policy=shortest")
        assert spec.compact() == (
            'hamiltonian | wpp:policy="shortest" | as-built | equal-spacing'
        )


# --------------------------------------------------------------------------- #
# Cross-combined strategies
# --------------------------------------------------------------------------- #

NEW_STRATEGIES = ("sw-tctp", "cb-tctp", "crw-tctp", "b-tctp-cw", "staggered-chb")


class TestNewCompositions:
    def test_registered_and_listed(self):
        names = set(available_strategies(include_aliases=False))
        assert set(NEW_STRATEGIES) <= names
        assert "pipeline" in names

    def test_compositions_declared(self):
        for name in NEW_STRATEGIES + ("pipeline", "b-tctp", "random"):
            assert strategy_info(name).composition is not None

    @pytest.mark.parametrize("name", [n for n in NEW_STRATEGIES if n != "crw-tctp"])
    def test_plans_loop_routes(self, scenario, name):
        plan = get_strategy(name).plan(scenario.fresh_copy())
        assert set(plan.mule_ids) == {m.id for m in scenario.mules}
        assert all(type(r) is LoopRoute for r in plan.routes.values())

    def test_crw_tctp_alternating_routes(self, recharge_scenario):
        plan = get_strategy("crw-tctp").plan(recharge_scenario.fresh_copy())
        assert all(isinstance(r, AlternatingLoopRoute) for r in plan.routes.values())
        assert plan.strategy == "CRW-TCTP[balanced]"
        assert plan.metadata["patrol_rounds"] >= 1

    def test_crw_tctp_requires_recharge_station(self, scenario):
        with pytest.raises(ValueError, match="recharge station"):
            get_strategy("crw-tctp").plan(scenario.fresh_copy())

    def test_sw_tctp_expands_vips_per_sector(self, scenario):
        plan = get_strategy("sw-tctp").plan(scenario.fresh_copy())
        vip_visits = {t.id: 0 for t in scenario.vips()}
        for route in plan.routes.values():
            for node in route.loop:
                if node in vip_visits:
                    vip_visits[node] += 1
        weights = {t.id: t.weight for t in scenario.vips()}
        # each VIP sits in exactly one sector and appears weight times per lap there
        assert vip_visits == weights

    def test_b_tctp_cw_reverses_direction(self, scenario):
        forward = get_strategy("b-tctp").plan(scenario.fresh_copy())
        backward = get_strategy("b-tctp-cw").plan(scenario.fresh_copy())
        f_loop = next(iter(forward.routes.values())).loop
        b_loop = next(iter(backward.routes.values())).loop
        assert b_loop == [f_loop[0]] + f_loop[:0:-1]

    def test_staggered_chb_deterministic_per_seed(self, scenario):
        a = get_strategy("staggered-chb", seed=5).plan(scenario.fresh_copy())
        b = get_strategy("staggered-chb", seed=5).plan(scenario.fresh_copy())
        c = get_strategy("staggered-chb", seed=6).plan(scenario.fresh_copy())
        def starts(p):
            return [p.routes[m].start_position().as_tuple() for m in p.mule_ids]
        assert starts(a) == starts(b)
        assert starts(a) != starts(c)

    def test_cluster_first_visits_every_target_once(self, scenario):
        plan = get_strategy("cb-tctp", num_clusters=3).plan(scenario.fresh_copy())
        loop = next(iter(plan.routes.values())).loop
        expected = {t.id for t in scenario.targets} | {scenario.sink.id}
        assert sorted(loop) == sorted(expected)

    @pytest.mark.parametrize("name", [n for n in NEW_STRATEGIES if n != "crw-tctp"])
    def test_fastpath_eligible_and_identical(self, scenario, name):
        """Composed loop-route strategies ride the analytic fast path, byte-identically."""
        cfg_fast = SimulationConfig(horizon=15_000.0)
        cfg_slow = SimulationConfig(horizon=15_000.0, fast_path=False)
        s1 = scenario.fresh_copy()
        sim = PatrolSimulator(s1, get_strategy(name).plan(s1), cfg_fast)
        assert fast_path_rejection(sim) is None
        fast = sim.run()
        s2 = scenario.fresh_copy()
        slow = PatrolSimulator(s2, get_strategy(name).plan(s2), cfg_slow).run()
        assert [(v.time, v.node_id, v.mule_id) for v in fast.visits] == \
               [(v.time, v.node_id, v.mule_id) for v in slow.visits]
        assert fast.total_delivered_data() == slow.total_delivered_data()

    def test_crw_tctp_rides_the_fast_path(self, recharge_scenario):
        """Alternating routes are fast-path eligible (patrol×rounds + recharge lap)."""
        cfg_fast = SimulationConfig(horizon=10_000.0)
        cfg_slow = SimulationConfig(horizon=10_000.0, fast_path=False)
        s1 = recharge_scenario.fresh_copy()
        sim = PatrolSimulator(s1, get_strategy("crw-tctp").plan(s1), cfg_fast)
        assert fast_path_rejection(sim) is None
        fast = sim.run()
        s2 = recharge_scenario.fresh_copy()
        slow = PatrolSimulator(s2, get_strategy("crw-tctp").plan(s2), cfg_slow).run()
        assert [(v.time, v.node_id, v.mule_id) for v in fast.visits] == \
               [(v.time, v.node_id, v.mule_id) for v in slow.visits]
        assert fast.total_delivered_data() == slow.total_delivered_data()


# --------------------------------------------------------------------------- #
# The generic pipeline strategy + campaign integration
# --------------------------------------------------------------------------- #

class TestPipelineStrategy:
    def test_declares_the_four_stages(self):
        assert strategy_params("pipeline") == {"tour", "augment", "order", "init"}

    def test_compact_string_params(self, scenario):
        planner = get_strategy(
            "pipeline", tour="cluster-first:num_clusters=2",
            augment="wpp:policy=shortest", order="ccw-angle", init="depot-start",
        )
        plan = planner.plan(scenario.fresh_copy())
        assert plan.strategy == "Pipeline[cluster-first|wpp|ccw-angle|depot-start]"
        assert plan.metadata["pipeline"]["augment"]["params"] == {"policy": "shortest"}

    def test_invalid_composition_rejected_at_construction(self):
        with pytest.raises(ValueError, match="cannot traverse"):
            get_strategy("pipeline", augment="wpp", order="as-built")

    def test_plan_axes_sweep(self):
        base = RunSpec(
            strategy="pipeline",
            scenario=ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2}),
            sim=SimulationConfig(horizon=6000.0),
        )
        spec = CampaignSpec(base=base, grid={
            "plan.tour": ["hamiltonian", "cluster-first"],
            "plan.order": ["as-built", "reversed"],
        }, replications=1)
        cells = spec.cells()
        assert len(cells) == 4
        assert [c.params["tour"] for c in cells] == [
            "hamiltonian", "hamiltonian", "cluster-first", "cluster-first"]
        records = Campaign(spec).run().records
        assert len(records) == 4
        assert {r["plan.tour"] for r in records} == {"hamiltonian", "cluster-first"}

    def test_plan_axis_typo_fails_before_simulation(self):
        base = RunSpec(strategy="pipeline")
        with pytest.raises(ValueError, match="did you mean 'hamiltonian'"):
            CampaignSpec(base=base, grid={"plan.tour": ["hamiltonain"]}).cells()

    def test_plan_axis_unknown_stage_kind(self):
        base = RunSpec(strategy="pipeline")
        with pytest.raises(ValueError, match="must name a pipeline stage"):
            CampaignSpec(base=base, grid={"plan.tours": ["hamiltonian"]}).cells()

    def test_plan_axis_on_non_pipeline_strategy(self):
        base = RunSpec(strategy="b-tctp")
        with pytest.raises(ValueError, match="'pipeline' strategy"):
            CampaignSpec(base=base, grid={"plan.order": ["reversed"]}).cells()

    def test_new_strategies_sweep_as_grid_axis(self):
        base = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2}),
            sim=SimulationConfig(horizon=6000.0),
        )
        spec = CampaignSpec(base=base, grid={
            "strategy": ["b-tctp", "cb-tctp", "staggered-chb"]}, replications=2)
        records = Campaign(spec).run().records
        assert len(records) == 6
        assert {r["planner"] for r in records} == {"B-TCTP", "CB-TCTP", "Staggered-CHB"}

    def test_run_spec_json_round_trip_with_stage_params(self):
        spec = RunSpec(strategy="pipeline",
                       params={"tour": "cluster-first", "order": "reversed"})
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        again.validate()


# --------------------------------------------------------------------------- #
# Pre-run validation of strategy params (campaign symmetric to scenarios)
# --------------------------------------------------------------------------- #

class TestStrategyParamValidation:
    def test_bad_policy_fails_at_cells(self):
        base = RunSpec(strategy="w-tctp", params={"policy": "balancedd"})
        with pytest.raises(ValueError, match="did you mean 'balanced'"):
            CampaignSpec(base=base).cells()

    def test_bad_tsp_method_fails_at_cells(self):
        base = RunSpec(strategy="b-tctp", params={"tsp_method": "christofide"})
        with pytest.raises(ValueError, match="did you mean 'christofides'"):
            CampaignSpec(base=base).cells()

    def test_bad_grid_value_fails_at_cells(self):
        base = RunSpec(strategy="w-tctp")
        spec = CampaignSpec(base=base, grid={"policy": ["shortest", "shorttest"]})
        with pytest.raises(ValueError, match="did you mean 'shortest'"):
            spec.cells()

    def test_validator_only_sees_declared_subset(self):
        # shared params fan out: sweep does not declare policy, so the policy
        # value must not break validation of sweep cells
        base = RunSpec(strategy="b-tctp", params={"policy": "shortest"})
        spec = CampaignSpec(base=base, grid={"strategy": ["w-tctp", "sweep"]})
        assert len(spec.cells()) == 2

    def test_run_spec_validate_uses_validator(self):
        with pytest.raises(ValueError, match="did you mean"):
            RunSpec(strategy="rw-tctp", params={"policy": "ballanced"}).validate()

    def test_validate_strategy_params_unknown_strategy_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'b-tctp'"):
            validate_strategy_params("b-tcpt", {})

    def test_out_of_range_vip_weight(self):
        with pytest.raises(ValueError, match="vip_weight"):
            validate_strategy_params("rw-tctp", {"vip_weight": 0})

    def test_get_strategy_runs_the_validator(self):
        # the same pre-build rejection campaigns get, on the direct API path
        with pytest.raises(ValueError, match="num_clusters"):
            get_strategy("cb-tctp", num_clusters=0)
        with pytest.raises(ValueError, match="did you mean 'balanced'"):
            get_strategy("w-tctp", policy="balancedd")

    def test_cluster_first_rejects_nonpositive_cluster_count(self, scenario):
        from repro.planning.compositions import cb_tctp_pipeline
        pipe = cb_tctp_pipeline()
        spec = pipe.spec.with_stage("tour", StageSpec("cluster-first", {"num_clusters": 0}))
        with pytest.raises(ValueError, match="num_clusters"):
            PlanningPipeline(spec, name="x").plan(scenario.fresh_copy())

    def test_valid_params_pass(self):
        validate_strategy_params("w-tctp", {"policy": "shortest", "tsp_method": "christofides"})
        validate_strategy_params("random", {"seed": 3, "avoid_repeat": False})
        validate_strategy_params("pipeline", {"tour": "pool", "order": "stochastic",
                                              "init": "depot-start"})


# --------------------------------------------------------------------------- #
# The paper's strategies are their compositions
# --------------------------------------------------------------------------- #

class TestLegacyDelegation:
    def test_planner_pipeline_accessors(self, scenario):
        from repro.core.btctp import plan_btctp
        pipe = get_strategy("b-tctp", location_initialization=False)
        assert isinstance(pipe, PlanningPipeline)
        assert pipe.spec.init.name == "depot-start"
        plan_a = pipe.plan(scenario.fresh_copy())
        plan_b = plan_btctp(scenario.fresh_copy(), location_initialization=False)
        assert plan_a.metadata == plan_b.metadata

    def test_random_stochastic_routes(self, scenario):
        plan = get_strategy("random", seed=9).plan(scenario.fresh_copy())
        assert all(isinstance(r, StochasticRoute) for r in plan.routes.values())
        assert plan.metadata == {"seed": 9, "candidates": scenario.num_targets + 1}

    def test_stage_kinds_constant(self):
        assert STAGE_KINDS == ("tour", "augment", "order", "init")
