"""Tests for the scenario registry, ScenarioSpec, and the family catalog."""

import copy
import json

import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec, execute_run
from repro.scenarios import (
    ScenarioSpec,
    available_scenario_families,
    build_scenario,
    canonical_scenario_family,
    filter_scenario_kwargs,
    register_scenario,
    scenario_family_info,
    scenario_family_params,
    spec_from_scenario_config,
    validate_scenario_params,
)
from repro.sim.engine import SimulationConfig
from repro.workloads.generator import ScenarioConfig, generate_scenario

QUICK_SIM = SimulationConfig(horizon=6_000.0, track_energy=False)

RANDOMIZED_FAMILIES = (
    "uniform", "clustered", "paper-default", "corridor", "hotspot",
    "ring", "grid-jitter", "mixed-density",
)
DETERMINISTIC_FAMILIES = ("figure1", "single-vip", "grid")
NEW_FAMILIES = ("corridor", "hotspot", "ring", "grid-jitter", "mixed-density")


@pytest.fixture
def isolated_scenarios(monkeypatch):
    """Families registered by the test go into a copy of the loaded table."""
    from repro.scenarios import registry

    registry.available_scenario_families()  # copy the loaded built-ins
    monkeypatch.setattr(registry, "SCENARIOS", copy.deepcopy(registry.SCENARIOS))


class TestRegistry:
    def test_catalog_complete(self):
        names = available_scenario_families()
        assert set(RANDOMIZED_FAMILIES) | set(DETERMINISTIC_FAMILIES) <= set(names)
        assert len(NEW_FAMILIES) >= 5

    def test_aliases_resolve(self):
        assert canonical_scenario_family("grid_jitter") == "grid-jitter"
        assert canonical_scenario_family("ANNULUS") == "ring"
        assert canonical_scenario_family("single_vip") == "single-vip"
        assert "grid_jitter" in available_scenario_families(include_aliases=True)
        assert "grid_jitter" not in available_scenario_families()

    def test_unknown_family_lists_available(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            canonical_scenario_family("voronoi")
        with pytest.raises(ValueError, match="did you mean 'uniform'"):
            canonical_scenario_family("unifrom")

    def test_declared_params_with_defaults_and_types(self):
        info = scenario_family_info("ring")
        assert info.description
        param = info.params["ring_radius"]
        assert param.default == 300.0
        assert not param.required
        assert param.kind == "float"
        assert "num_targets" in scenario_family_params("uniform")
        assert "num_clusters" in scenario_family_params("clustered")
        assert "num_clusters" not in scenario_family_params("uniform")

    def test_filter_scenario_kwargs(self):
        shared = {"num_targets": 8, "num_mules": 2, "bogus": 1}
        assert filter_scenario_kwargs("uniform", shared) == {"num_targets": 8,
                                                             "num_mules": 2}
        assert filter_scenario_kwargs("figure1", shared) == {"num_mules": 2}

    def test_undeclared_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept.*did you mean 'num_targets'"):
            validate_scenario_params("uniform", {"num_tragets": 5})
        with pytest.raises(ValueError, match="does not accept"):
            build_scenario("ring", {"radius": 100.0})

    def test_decorator_registration(self, isolated_scenarios):
        @register_scenario("two-points", aliases=("pair",), description="two targets")
        def _two_points(*, seed: int = 0, spacing: float = 100.0):
            from repro.geometry.point import Point
            from repro.network.field import Field
            from repro.workloads.generator import assemble_scenario
            import numpy as np

            fld = Field(400.0, 400.0)
            pts = [Point(100.0, 200.0), Point(100.0 + spacing, 200.0)]
            return assemble_scenario(np.random.default_rng(seed), fld, pts, num_mules=1)

        assert "two-points" in available_scenario_families()
        assert scenario_family_params("pair") == {"spacing"}
        assert build_scenario("pair", {"spacing": 50.0}).num_targets == 2

    def test_duplicate_registration_rejected(self, isolated_scenarios):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("uniform", lambda *, seed=0: None)

    def test_var_keyword_factory_rejected(self):
        with pytest.raises(TypeError, match="explicit keyword parameter set"):
            register_scenario("kitchen-sink", lambda **kw: None)


class TestFamilyCatalog:
    @pytest.mark.parametrize("family", RANDOMIZED_FAMILIES + DETERMINISTIC_FAMILIES)
    def test_same_seed_same_scenario(self, family):
        a = build_scenario(family, seed=11)
        b = build_scenario(family, seed=11)
        assert [t.position for t in a.targets] == [t.position for t in b.targets]
        assert [t.weight for t in a.targets] == [t.weight for t in b.targets]
        assert [m.position for m in a.mules] == [m.position for m in b.mules]

    @pytest.mark.parametrize("family", RANDOMIZED_FAMILIES)
    def test_different_seeds_differ(self, family):
        a = build_scenario(family, seed=1)
        b = build_scenario(family, seed=2)
        assert [t.position for t in a.targets] != [t.position for t in b.targets]

    @pytest.mark.parametrize("family", RANDOMIZED_FAMILIES + DETERMINISTIC_FAMILIES)
    def test_targets_inside_field(self, family):
        sc = build_scenario(family, seed=3)
        assert all(sc.field.contains(t.position) for t in sc.targets)

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_new_families_support_vips(self, family):
        sc = build_scenario(family, {"num_targets": 12, "num_vips": 3,
                                     "vip_weight": 4}, seed=5)
        vips = [t for t in sc.targets if t.is_vip]
        assert len(vips) == 3
        assert all(t.weight == 4 for t in vips)

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_new_families_support_heterogeneous_data_rates(self, family):
        sc = build_scenario(family, {"num_targets": 10, "data_rate": 2.0,
                                     "data_rate_jitter": 0.5}, seed=5)
        rates = [t.data_rate for t in sc.targets]
        assert len(set(rates)) > 1
        assert all(1.0 <= r <= 3.0 for r in rates)

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_new_families_support_battery_and_recharge(self, family):
        sc = build_scenario(family, {"num_targets": 6, "mule_battery": 9_000.0,
                                     "with_recharge_station": True}, seed=5)
        assert sc.recharge_station is not None
        assert all(m.battery is not None and m.battery.capacity == 9_000.0
                   for m in sc.mules)

    def test_corridor_segments_leave_gaps(self):
        sc = build_scenario("corridor", {"num_targets": 60, "num_segments": 2,
                                         "gap_fraction": 0.5,
                                         "corridor_width": 10.0}, seed=7)
        xs = sorted(t.position.x for t in sc.targets)
        largest_gap = max(b - a for a, b in zip(xs, xs[1:]))
        assert largest_gap > 100.0  # the inter-segment gap dwarfs within-segment spacing
        mid = 800.0 / 2.0
        assert all(abs(t.position.y - mid) <= 5.0 + 1e-9 for t in sc.targets)

    def test_ring_targets_on_annulus(self):
        sc = build_scenario("ring", {"num_targets": 40, "ring_radius": 250.0,
                                     "ring_width": 40.0}, seed=7)
        centre = sc.field.center
        from repro.geometry.point import distance

        radii = [distance(t.position, centre) for t in sc.targets]
        assert all(229.9 <= r <= 270.1 for r in radii)

    def test_mixed_density_core_share(self):
        sc = build_scenario("mixed-density", {"num_targets": 40, "core_fraction": 0.75,
                                              "core_radius": 100.0}, seed=7)
        from repro.geometry.point import distance

        in_core = sum(distance(t.position, sc.field.center) <= 100.0 + 1e-6
                      for t in sc.targets)
        assert in_core >= 30  # 0.75 * 40 core draws (fringe may add a few by chance)

    def test_legacy_generator_paths_byte_identical(self):
        for dist, extra in (("uniform", {}), ("clustered", {"num_clusters": 3})):
            cfg = ScenarioConfig(num_targets=14, num_mules=3, distribution=dist,
                                 num_vips=2, mule_placement="random", **extra)
            legacy = generate_scenario(cfg, seed=9)
            via_registry = spec_from_scenario_config(cfg).build(9)
            assert [t.position for t in legacy.targets] == \
                   [t.position for t in via_registry.targets]
            assert [t.weight for t in legacy.targets] == \
                   [t.weight for t in via_registry.targets]
            assert [m.position for m in legacy.mules] == \
                   [m.position for m in via_registry.mules]


class TestFamilyValidation:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("corridor", {"num_segments": 0}),
            ("corridor", {"gap_fraction": 1.0}),
            ("corridor", {"corridor_width": -1.0}),
            ("hotspot", {"exponent": 1.0}),
            ("hotspot", {"num_hotspots": 0}),
            ("ring", {"ring_radius": -5.0}),
            ("ring", {"ring_width": 700.0}),
            ("grid-jitter", {"jitter": -1.0}),
            ("mixed-density", {"core_fraction": 1.5}),
            ("mixed-density", {"core_radius": 500.0}),
            ("grid", {"rows": 0}),
            ("uniform", {"num_targets": 0}),
            ("uniform", {"data_rate_jitter": 2.0}),
            ("clustered", {"num_clusters": 0}),
            ("clustered", {"cluster_radius": 400.0}),
        ],
    )
    def test_out_of_range_params_rejected_without_building(self, family, params):
        with pytest.raises(ValueError):
            validate_scenario_params(family, params)
        with pytest.raises(ValueError):
            ScenarioSpec(family, params).validate()


class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = ScenarioSpec("hotspot", {"num_targets": 9, "exponent": 3.0}, seed=4)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_positions_restored_as_tuples(self):
        spec = ScenarioSpec("uniform", {"sink_position": (10.0, 20.0)})
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.params["sink_position"] == (10.0, 20.0)
        assert restored == spec

    def test_sim_params_round_trip(self):
        from repro.network.scenario import SimulationParameters

        spec = ScenarioSpec("uniform", {"params": SimulationParameters(mule_velocity=3.0)})
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.params["params"].mule_velocity == 3.0
        assert restored == spec

    def test_declared_params_readable_as_attributes(self):
        spec = ScenarioSpec("ring", {"num_targets": 7})
        assert spec.num_targets == 7
        assert spec.ring_radius == 300.0  # declared default
        with pytest.raises(AttributeError):
            spec.nonexistent_knob

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario spec field"):
            ScenarioSpec.from_dict({"family": "ring", "parms": {}})

    def test_pinned_seed_wins_over_run_seed(self):
        pinned = ScenarioSpec("uniform", {"num_targets": 6}, seed=42)
        a = pinned.build(1)
        b = pinned.build(2)
        assert [t.position for t in a.targets] == [t.position for t in b.targets]


class TestRunnerIntegration:
    def quick_run(self, family, params=None, **overrides):
        defaults = dict(
            strategy="b-tctp",
            scenario=ScenarioSpec(family, dict(params or {})),
            sim=QUICK_SIM,
            seed=3,
        )
        defaults.update(overrides)
        return RunSpec(**defaults)

    def test_family_axis_sweeps_all_registered_families(self):
        families = available_scenario_families()
        spec = CampaignSpec(
            base=self.quick_run("uniform", {"num_targets": 6, "num_mules": 2}),
            grid={"scenario.family": families},
        )
        cells = spec.cells()
        assert [c.scenario.family for c in cells] == families
        # shared params are filtered per family: figure1 takes no num_targets
        by_family = {c.scenario.family: c for c in cells}
        assert "num_targets" not in by_family["figure1"].scenario.params
        assert by_family["ring"].scenario.params["num_targets"] == 6

    def test_family_axis_campaign_serial_equals_parallel(self):
        families = available_scenario_families()
        spec = CampaignSpec(
            base=self.quick_run("uniform", {"num_targets": 6, "num_mules": 2}),
            grid={"scenario.family": families},
        )
        serial = Campaign(spec).run()
        parallel = Campaign(spec, max_workers=2).run()
        assert json.dumps(serial.records) == json.dumps(parallel.records)
        assert len(serial) == len(families)

    def test_family_param_sweepable_as_axis(self):
        spec = CampaignSpec(
            base=self.quick_run("ring", {"num_targets": 6}),
            grid={"scenario.ring_radius": [200.0, 300.0]},
        )
        cells = spec.cells()
        assert [c.scenario.params["ring_radius"] for c in cells] == [200.0, 300.0]
        assert [c.labels["scenario.ring_radius"] for c in cells] == [200.0, 300.0]

    def test_battery_knob_shared_across_all_families(self):
        """Every family declares the battery knob as 'mule_battery', so a
        cross-family battery sweep reaches hand-crafted layouts too."""
        spec = CampaignSpec(
            base=self.quick_run("uniform", {"num_targets": 6, "num_mules": 2}),
            grid={"scenario.family": ["uniform", "figure1", "grid"],
                  "mule_battery": [500.0]},
        )
        for cell in spec.cells():
            assert cell.scenario.params["mule_battery"] == 500.0, cell.scenario.family
            scenario = cell.scenario.build(cell.seed)
            assert all(m.battery is not None and m.battery.capacity == 500.0
                       for m in scenario.mules), cell.scenario.family

    def test_bare_family_param_resolves_to_scenario(self):
        spec = CampaignSpec(
            base=self.quick_run("ring", {"num_targets": 6}),
            grid={"ring_radius": [150.0, 250.0]},
        )
        assert [c.scenario.params["ring_radius"] for c in spec.cells()] == [150.0, 250.0]

    def test_unknown_family_rejected_before_any_simulation(self):
        spec = CampaignSpec(base=self.quick_run("uniform"),
                            grid={"scenario.family": ["uniform", "voronoi"]})
        with pytest.raises(ValueError, match="unknown scenario family"):
            spec.cells()

    def test_typoed_scenario_param_axis_rejected(self):
        spec = CampaignSpec(base=self.quick_run("uniform"),
                            grid={"scenario.num_tragets": [5, 10]})
        with pytest.raises(ValueError, match="num_tragets"):
            spec.cells()

    def test_typoed_base_scenario_param_rejected(self):
        spec = CampaignSpec(base=self.quick_run("uniform", {"num_tragets": 5}),
                            replications=2)
        with pytest.raises(ValueError, match="num_tragets"):
            spec.cells()

    def test_out_of_range_scenario_param_rejected_before_run(self):
        spec = CampaignSpec(
            base=self.quick_run("clustered", {"cluster_radius": 500.0}),
            replications=2,
        )
        with pytest.raises(ValueError, match="cluster_radius"):
            spec.cells()

    def test_legacy_distribution_axis_still_sweeps_family(self):
        spec = CampaignSpec(
            base=self.quick_run("uniform", {"num_targets": 6, "num_mules": 2}),
            grid={"distribution": ["uniform", "clustered"]},
        )
        assert [c.scenario.family for c in spec.cells()] == ["uniform", "clustered"]

    def test_run_spec_json_round_trip_with_family(self):
        spec = self.quick_run("grid-jitter", {"num_targets": 7, "jitter": 10.0})
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.scenario.family == "grid-jitter"

    def test_legacy_run_spec_json_still_loads(self):
        legacy = {
            "kind": "run",
            "strategy": "chb",
            "scenario": {"num_targets": 6, "num_mules": 2, "distribution": "clustered",
                         "mule_placement": "random"},
            "seed": 5,
        }
        spec = RunSpec.from_dict(legacy)
        assert spec.scenario.family == "clustered"
        assert spec.scenario.params["num_targets"] == 6
        record = execute_run(RunSpec.from_dict({**legacy, "sim": {
            "horizon": 6000.0, "track_energy": False}}))
        assert record["num_targets"] == 6

    def test_execute_run_on_new_family(self):
        record = execute_run(self.quick_run("corridor", {"num_targets": 8,
                                                         "num_mules": 2}))
        assert record["num_targets"] == 8
        assert record["average_dcdt"] > 0

    def test_run_spec_validate_rejects_bad_scenario(self):
        with pytest.raises(ValueError, match="does not accept"):
            self.quick_run("ring", {"radius": 10}).validate()
        assert self.quick_run("ring", {"ring_radius": 200.0}).validate()
