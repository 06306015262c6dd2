"""Tests for the unified execution API (repro.runner) and the registry metadata."""

import dataclasses
import itertools
import json
import random

import pytest

from repro.baselines.base import (
    available_strategies,
    canonical_strategy_name,
    filter_strategy_kwargs,
    get_strategy,
    strategy_info,
    strategy_params,
)
from repro.runner import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    RunSpec,
    execute_many,
    execute_run,
    group_mean,
    load_spec,
    spec_from_dict,
)
from repro.sim.engine import SimulationConfig
from repro.workloads.generator import ScenarioConfig

QUICK_SCENARIO = ScenarioConfig(num_targets=8, num_mules=2, mule_placement="random")
QUICK_SIM = SimulationConfig(horizon=8_000.0, track_energy=False)


def quick_spec(strategy="b-tctp", **overrides) -> RunSpec:
    defaults = dict(strategy=strategy, scenario=QUICK_SCENARIO, sim=QUICK_SIM, seed=3)
    defaults.update(overrides)
    return RunSpec(**defaults)


@pytest.fixture
def fresh_strategies(monkeypatch):
    """An unloaded strategy registry with the live one's built-in load."""
    from repro.baselines import base
    from repro.registry import Loader, Registry

    live = base.STRATEGIES
    fresh = Registry(live.noun, Loader(live.loader.load), info_type=live.info_type)
    monkeypatch.setattr(base, "STRATEGIES", fresh)
    return fresh


class TestRegistryMetadata:
    def test_declared_params_from_dataclass_fields(self):
        assert "policy" in strategy_params("w-tctp")
        assert "seed" in strategy_params("random")
        assert "policy" not in strategy_params("b-tctp")

    def test_canonical_name_resolves_aliases(self):
        assert canonical_strategy_name("btctp") == "b-tctp"
        assert canonical_strategy_name("TCTP") == "b-tctp"
        assert canonical_strategy_name("rw-tctp") == "rw-tctp"

    def test_canonical_name_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            canonical_strategy_name("nope")

    def test_available_canonical_only(self):
        canonical = available_strategies(include_aliases=False)
        assert "b-tctp" in canonical
        assert "btctp" not in canonical
        assert "btctp" in available_strategies()

    def test_get_strategy_rejects_undeclared_kwargs(self):
        with pytest.raises(ValueError, match="does not accept") as err:
            get_strategy("b-tctp", policy="shortest")
        assert "accepted:" in str(err.value)
        assert "tsp_method" in str(err.value)

    def test_filter_strategy_kwargs(self):
        shared = {"policy": "shortest", "seed": 7, "bogus": 1}
        assert filter_strategy_kwargs("w-tctp", shared) == {"policy": "shortest"}
        assert filter_strategy_kwargs("random", shared) == {"seed": 7}

    def test_strategy_info_carries_aliases_and_description(self):
        info = strategy_info("wtctp")
        assert info.name == "w-tctp"
        assert "wtctp" in info.aliases
        assert info.description

    def test_plain_function_factory_params_inspected(self, fresh_strategies):
        """Factories get their params from the signature, dataclasses included."""
        from dataclasses import dataclass, field

        from repro.baselines import base

        def make_planner(alpha=1.0, beta=2):
            return None

        @dataclass
        class DataclassPlanner:
            alpha: float = 1.0
            beta: int = 2
            # a field the constructor does not take is no strategy parameter
            cache: dict = field(default_factory=dict, init=False)

        for name, factory in (("fn-strategy", make_planner), ("dc-strategy", DataclassPlanner)):
            base.register_strategy(name, factory)
            assert base.strategy_params(name) == {"alpha", "beta"}
            base.get_strategy(name, alpha=3.0)  # declared kwarg forwarded
            for undeclared in ({"gamma": 1}, {"cache": {}}):
                with pytest.raises(ValueError, match="does not accept"):
                    base.get_strategy(name, **undeclared)

    def test_var_keyword_factory_stays_permissive(self, fresh_strategies):
        """Factories taking **kwargs keep the pre-declaration forward-everything behavior."""
        from repro.baselines import base

        captured = {}
        base.register_strategy("kw-strategy", lambda **kw: captured.update(kw))
        base.get_strategy("kw-strategy", anything=42)
        assert captured == {"anything": 42}
        assert base.filter_strategy_kwargs("kw-strategy", {"x": 1}) == {"x": 1}

    def test_custom_registration_never_shadows_builtins(self, fresh_strategies):
        """Registering first on a fresh registry must still load the defaults."""
        from repro.baselines import base

        assert not fresh_strategies.loader.done
        base.register_strategy("custom", lambda **kw: None, params=("seed",))
        names = base.available_strategies(include_aliases=False)
        assert "custom" in names
        assert {"random", "sweep", "chb", "b-tctp", "w-tctp", "rw-tctp"} <= set(names)


class TestRunSpecSerialization:
    def test_json_round_trip_defaults(self):
        spec = RunSpec(strategy="b-tctp")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_full(self):
        spec = quick_spec(
            strategy="w-tctp",
            params={"policy": "shortest"},
            metrics=("wpp_length", ("dcdt_series", {"num_points": 11})),
            labels={"cell": "a"},
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.metrics == ("wpp_length", ("dcdt_series", {"num_points": 11}))

    def test_scenario_positions_restored_as_tuples(self):
        spec = quick_spec(scenario=ScenarioConfig(sink_position=(10.0, 20.0)))
        restored = RunSpec.from_json(spec.to_json())
        assert restored.scenario.sink_position == (10.0, 20.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown run spec field"):
            RunSpec.from_dict({"strategy": "chb", "frobnicate": 1})
        with pytest.raises(ValueError, match="unknown scenario field"):
            RunSpec.from_dict({"strategy": "chb", "scenario": {"targets": 5}})

    def test_campaign_round_trip(self):
        spec = CampaignSpec(
            base=quick_spec(),
            grid={"strategy": ["chb", "b-tctp"], "num_mules": [2, 3]},
            replications=2,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_spec_from_dict_detects_kind(self):
        assert isinstance(spec_from_dict({"strategy": "chb"}), RunSpec)
        assert isinstance(spec_from_dict({"kind": "run", "strategy": "chb"}), RunSpec)
        campaign = spec_from_dict({"base": {"strategy": "chb"}, "replications": 2})
        assert isinstance(campaign, CampaignSpec)
        with pytest.raises(ValueError, match="unknown spec kind"):
            spec_from_dict({"kind": "fleet"})

    def test_load_spec_from_file(self, tmp_path):
        spec = CampaignSpec(base=quick_spec(), grid={"strategy": ["chb"]}, replications=3)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert load_spec(path) == spec


class TestCampaignExpansion:
    def test_cell_count_and_determinism(self):
        spec = CampaignSpec(
            base=quick_spec(),
            grid={"strategy": ["chb", "b-tctp"], "num_mules": [2, 3]},
            replications=2,
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2
        assert cells == spec.cells()

    def test_seed_schedule_matches_replicate_seeds(self):
        spec = CampaignSpec(base=quick_spec(seed=2011), replications=3)
        assert spec.seeds() == [2011, 3011, 4011]
        assert [c.seed for c in spec.cells()] == [2011, 3011, 4011]

    def test_axis_scope_resolution(self):
        spec = CampaignSpec(
            base=quick_spec(strategy="w-tctp"),
            grid={"num_targets": [5], "horizon": [1_000.0], "policy": ["shortest"]},
        )
        (cell,) = spec.cells()
        assert cell.scenario.num_targets == 5
        assert cell.sim.horizon == 1_000.0
        assert cell.params["policy"] == "shortest"
        assert cell.labels["replication"] == 0

    def test_explicit_scope_prefixes(self):
        spec = CampaignSpec(
            base=quick_spec(strategy="w-tctp"),
            grid={"scenario.num_vips": [1], "sim.track_energy": [True], "params.policy": ["balanced"]},
        )
        (cell,) = spec.cells()
        assert cell.scenario.num_vips == 1
        assert cell.sim.track_energy is True
        assert cell.params["policy"] == "balanced"

    def test_unknown_axis_scope_rejected(self):
        spec = CampaignSpec(base=quick_spec(), grid={"warp.factor": [9]})
        with pytest.raises(ValueError, match="unknown grid axis"):
            spec.cells()

    def test_bare_axis_matching_nothing_rejected(self):
        """A typo'd bare axis must error, not expand into N identical runs."""
        for axis in ("num_target", "communication_range"):
            spec = CampaignSpec(base=quick_spec(), grid={axis: [1, 2]})
            with pytest.raises(ValueError, match="matches no scenario/sim field"):
                spec.cells()

    def test_params_scoped_axis_no_strategy_declares_rejected(self):
        """An explicit params. axis is no escape hatch for a typo'd parameter."""
        spec = CampaignSpec(base=quick_spec(), grid={"params.tsp_methd": ["a", "b"]})
        with pytest.raises(ValueError, match="identical cells"):
            spec.cells()

    def test_typoed_base_param_rejected_at_expansion(self):
        spec = CampaignSpec(
            base=quick_spec(strategy="w-tctp", params={"polcy": "shortest"}),
            grid={"strategy": ["w-tctp", "b-tctp"]},
        )
        with pytest.raises(ValueError, match="polcy"):
            spec.cells()

    def test_shared_param_accepted_by_one_strategy_passes(self):
        spec = CampaignSpec(
            base=quick_spec(params={"policy": "shortest"}),
            grid={"strategy": ["b-tctp", "w-tctp"]},
        )
        assert spec.cells()  # 'policy' is declared by w-tctp, so the set is valid

    def test_bare_param_axis_allowed_when_any_strategy_declares_it(self):
        spec = CampaignSpec(
            base=quick_spec(),
            grid={"strategy": ["b-tctp", "w-tctp"], "policy": ["shortest"]},
        )
        by_strategy = {c.strategy: c for c in spec.cells()}
        assert by_strategy["w-tctp"].params == {"policy": "shortest"}

    def test_seed_axis_shifts_replication_schedule(self):
        spec = CampaignSpec(base=quick_spec(seed=0), grid={"seed": [100, 200]},
                            replications=2, seed_stride=10)
        cells = spec.cells()
        assert [c.seed for c in cells] == [100, 110, 200, 210]
        # the true seed lives in the record's seed column, not in a label
        assert all("seed" not in c.labels for c in cells)
        records = [execute_run(c) for c in cells]
        assert [r["seed"] for r in records] == [100, 110, 200, 210]
        assert records[0] != records[2]  # different seeds, different runs

    def test_shared_params_filtered_per_strategy(self):
        spec = CampaignSpec(
            base=quick_spec(params={"policy": "shortest"}),
            grid={"strategy": ["b-tctp", "w-tctp", "random"]},
        )
        by_strategy = {c.strategy: c for c in spec.cells()}
        assert "policy" not in by_strategy["b-tctp"].params
        assert by_strategy["w-tctp"].params == {"policy": "shortest"}
        # strategies declaring a seed get the cell's replication seed
        assert by_strategy["random"].params == {"seed": 3}

    def test_one_replace_expansion_matches_the_two_replace_loop(self):
        rng = random.Random(20260808)
        reached = dict.fromkeys(["random-seeded", "random-explicit", "seed-axis", "sim-axis",
                                 "scenario-axis", "plan-axis", "labels", "partial-param"], 0)
        for index in range(60):
            spec = drawn_campaign(rng)
            got, want = spec.cells(), frozen_two_replace_cells(spec)
            assert [c.to_json() for c in got] == [c.to_json() for c in want], index
            # to_json sorts its keys; records carry the labels in cell order.
            assert [json.dumps(c.to_dict()) for c in got] \
                == [json.dumps(c.to_dict()) for c in want], index
            strategies, grid = spec.grid["strategy"], spec.grid
            explicit = "seed" in spec.base.params
            reached["random-seeded"] += "random" in strategies and not explicit
            reached["random-explicit"] += "random" in strategies and explicit
            reached["seed-axis"] += "seed" in grid
            reached["sim-axis"] += any(axis.startswith("sim.") for axis in grid)
            reached["scenario-axis"] += any(axis.startswith("scenario.") for axis in grid)
            reached["plan-axis"] += any(axis.startswith("plan.") for axis in grid)
            reached["labels"] += bool(spec.base.labels)
            reached["partial-param"] += "policy" in spec.base.params and len(strategies) > 1
        assert min(reached.values()) >= 3, reached


def frozen_two_replace_cells(spec: CampaignSpec) -> list:
    """``CampaignSpec.cells()`` as it expanded with two replaces per replication.

    Each replication was the grid cell with its seed and labels replaced,
    then :meth:`RunSpec.with_strategy_defaults` (filter the params to the
    strategy's declared set, inject the seed) as a second replace.
    """
    from repro.runner.spec import _apply_axis

    scenario_params = spec._campaign_scenario_params()
    axes = list(spec.grid.items())
    cells = []
    for combo in itertools.product(*(values for _, values in axes)):
        run = spec.base
        labels = dict(spec.base.labels)
        for (axis, _), value in zip(axes, combo):
            run = _apply_axis(run, axis, value, scenario_params)
            if axis != "seed":
                labels[axis] = value
        run = dataclasses.replace(run, scenario=run.scenario.restricted_to_family().validate())
        for k, seed in enumerate(spec.seeds(base_seed=run.seed)):
            cell = dataclasses.replace(run, seed=seed, labels={**labels, "replication": k})
            cells.append(cell.with_strategy_defaults())
    return cells


def drawn_campaign(rng: random.Random) -> CampaignSpec:
    """A seeded campaign spec over the axes and params expansion treats apart."""
    from repro.scenarios import ScenarioSpec

    pool = ["b-tctp", "w-tctp", "random", "chb", "staggered-chb", "sweep"]
    if rng.random() < 0.3:
        pool = ["pipeline", "b-tctp", "random"]  # stage axes need the pipeline strategy
    strategies = rng.sample(pool, rng.randint(1, len(pool)))
    params = {}
    if rng.random() < 0.5:
        params["seed"] = rng.randrange(1_000)  # explicit: random keeps it
    if "w-tctp" in strategies and rng.random() < 0.7:
        params["policy"] = "shortest"  # declared by w-tctp alone
    grid: dict = {"strategy": strategies}
    if "pipeline" in strategies:
        grid["plan.order"] = rng.sample(["as-built", "reversed"], rng.randint(1, 2))
    if rng.random() < 0.4:
        grid["seed"] = [rng.randrange(100), rng.randrange(100, 200)]
    if rng.random() < 0.4:
        grid[rng.choice(["sim.horizon", "horizon"])] = [1_000.0, 2_500.0]
    if rng.random() < 0.3:
        grid["sim.fast_path"] = [True, False]
    if rng.random() < 0.4:
        grid["scenario.num_targets"] = [5, 7]
    if rng.random() < 0.3:
        grid["scenario.seed"] = [None, rng.randrange(50)]
    labels = {"study": "pin", "arm": rng.randrange(3)} if rng.random() < 0.5 else {}
    base = RunSpec(
        strategy=strategies[0],
        scenario=ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2},
                              seed=rng.choice([None, 42])),
        params=params,
        sim=SimulationConfig(horizon=4_000.0, track_energy=False),
        seed=rng.randrange(10_000),
        labels=labels,
    )
    return CampaignSpec(base=base, grid=rng.choice([grid, dict(reversed(grid.items()))]),
                        replications=rng.randint(1, 4), seed_stride=rng.choice([1, 1000]))


class TestExecuteRun:
    def test_record_contents(self):
        record = execute_run(quick_spec())
        assert record["strategy"] == "b-tctp"
        assert record["planner"] == "B-TCTP"
        assert record["seed"] == 3
        assert record["num_targets"] == 8
        assert record["average_sd"] == pytest.approx(0.0, abs=1e-6)
        assert record["average_dcdt"] > 0

    def test_extra_metrics_and_labels(self):
        record = execute_run(quick_spec(
            metrics=("path_length", ("dcdt_series", {"num_points": 5})),
            labels={"cell": "a1"},
        ))
        assert record["path_length"] > 0
        assert len(record["dcdt_series"]) == 5
        assert record["cell"] == "a1"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            execute_run(quick_spec(metrics=("definitely_not_a_metric",)))

    def test_undeclared_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            execute_run(quick_spec(params={"policy": "shortest"}))

    def test_seed_reaches_seed_declaring_strategy(self):
        """execute_run and Campaign must agree on seed injection (same record)."""
        spec = quick_spec(strategy="random", seed=5)
        direct = execute_run(spec)
        (via_campaign,) = Campaign(spec).run().records
        direct["replication"] = via_campaign["replication"]  # campaign-only label
        assert direct == via_campaign

    def test_explicit_seed_param_wins(self):
        spec = quick_spec(strategy="random", seed=5, params={"seed": 9})
        other = quick_spec(strategy="random", seed=5)
        assert execute_run(spec) != execute_run(other)

    def test_validate_surfaces_typoed_params(self):
        spec = quick_spec(strategy="w-tctp", params={"polcy": "shortest"})
        with pytest.raises(ValueError, match="polcy"):
            spec.validate()
        assert quick_spec(strategy="w-tctp", params={"policy": "shortest"}).validate()

    def test_typoed_metric_rejected_before_any_simulation(self):
        spec = quick_spec(metrics=("dcdt_seris",))
        with pytest.raises(ValueError, match="dcdt_seris"):
            spec.validate()
        with pytest.raises(ValueError, match="dcdt_seris"):
            CampaignSpec(base=spec, replications=2).cells()


class TestCampaignExecution:
    @pytest.fixture(scope="class")
    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            base=quick_spec(),
            grid={"strategy": ["chb", "b-tctp", "random"]},
            replications=2,
        )

    @pytest.fixture(scope="class")
    def serial(self, spec) -> CampaignResult:
        return Campaign(spec).run()

    def test_record_per_cell_in_order(self, spec, serial):
        assert len(serial) == len(spec.cells())
        assert [r["strategy"] for r in serial] == [c.strategy for c in spec.cells()]

    def test_parallel_identical_to_serial(self, spec, serial):
        parallel = Campaign(spec, max_workers=4).run()
        assert json.dumps(serial.records) == json.dumps(parallel.records)

    def test_records_are_json_safe(self, serial):
        assert json.loads(serial.to_json())["records"] == serial.records

    def test_group_mean(self, serial):
        sd = serial.group_mean("average_sd", by="strategy")
        assert sd["b-tctp"] == pytest.approx(0.0, abs=1e-6)
        assert sd["chb"] > 0.0
        keyed = serial.group_mean("average_sd", by=("strategy", "seed"))
        assert ("chb", 3) in keyed

    def test_save_json_and_csv(self, serial, tmp_path):
        json_path = serial.save_json(tmp_path / "records.json")
        payload = json.loads(json_path.read_text())
        assert len(payload["records"]) == len(serial)
        assert payload["spec"]["kind"] == "campaign"

        assert payload["_meta"]["library_version"]

        csv_path = serial.save_csv(tmp_path / "records.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(serial) + 1
        assert lines[0].startswith("strategy,")

    def test_progress_callback(self, spec):
        seen = []
        execute_many(spec.cells()[:2], progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_single_run_spec_coerced(self):
        result = Campaign(quick_spec()).run()
        assert len(result) == 1
        assert result.records[0]["replication"] == 0


class TestCampaignResultTables:
    def test_to_rows_scalar_only_drops_series(self):
        result = CampaignResult(records=[
            {"strategy": "chb", "average_sd": 1.0, "dcdt_series": [1.0, 2.0]},
            {"strategy": "b-tctp", "average_sd": 0.0, "dcdt_series": [3.0]},
        ])
        headers, rows = result.to_rows(scalar_only=True)
        assert headers == ["strategy", "average_sd"]
        assert rows == [["chb", 1.0], ["b-tctp", 0.0]]

    def test_columns_union_ordered(self):
        result = CampaignResult(records=[{"a": 1}, {"b": 2, "a": 3}])
        assert result.columns() == ["a", "b"]
        assert result.values("b") == [pytest.approx(float("nan"), nan_ok=True), 2]

    def test_to_json_is_strict_json_with_nan_metrics(self):
        result = CampaignResult(records=[
            {"strategy": "chb", "vip_sd": float("nan"), "series": [1.0, float("inf")]},
        ])
        payload = json.loads(result.to_json())
        assert payload["records"][0]["vip_sd"] is None
        assert payload["records"][0]["series"] == [1.0, None]
        assert "NaN" not in result.to_json()

    def test_group_mean_skips_nan(self):
        records = [
            {"k": "x", "v": 1.0},
            {"k": "x", "v": float("nan")},
            {"k": "x", "v": 3.0},
        ]
        assert group_mean(records, "v", by="k") == {"x": pytest.approx(2.0)}
