"""Tests for the experiment harness (quick-sized runs of every figure reproduction).

These tests check the *shape* claims of the paper's figures on small but real
experiment runs — they are the automated counterpart of EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSettings,
    replicate_seeds,
    run_ablation_init,
    run_ablation_mules,
    run_ablation_tsp,
    run_energy_experiment,
    run_fig10,
    run_fig7,
    run_fig8,
    run_fig9,
)
from repro.experiments.common import run_strategy_on_scenario
from repro.workloads.generator import uniform_scenario

QUICK = ExperimentSettings.quick(replications=2, horizon=20_000.0, num_targets=10, num_mules=3)


class TestSettings:
    def test_default_matches_paper_protocol(self):
        assert ExperimentSettings().replications == 20

    def test_quick_overrides(self):
        s = ExperimentSettings.quick(replications=5)
        assert s.replications == 5
        assert s.horizon < ExperimentSettings().horizon

    def test_replicate_seeds_deterministic_and_distinct(self):
        s = ExperimentSettings.quick(replications=4)
        seeds = replicate_seeds(s)
        assert len(seeds) == 4
        assert len(set(seeds)) == 4
        assert seeds == replicate_seeds(s)

    def test_scenario_config_overrides(self):
        cfg = QUICK.scenario_config(num_vips=2, vip_weight=3)
        assert cfg.num_vips == 2
        assert cfg.num_targets == QUICK.num_targets


class TestRunStrategyHelper:
    def test_accepts_name_or_instance(self):
        sc = uniform_scenario(num_targets=8, num_mules=2, seed=1)
        by_name = run_strategy_on_scenario("chb", sc, horizon=10_000)
        assert by_name.strategy == "CHB"
        from repro.planning.compositions import chb_pipeline

        by_instance = run_strategy_on_scenario(chb_pipeline(), sc, horizon=10_000)
        assert by_instance.strategy == "CHB"

    def test_does_not_mutate_input_scenario(self):
        sc = uniform_scenario(num_targets=8, num_mules=2, seed=1)
        positions_before = [m.position for m in sc.mules]
        run_strategy_on_scenario("b-tctp", sc, horizon=10_000)
        assert [m.position for m in sc.mules] == positions_before


class TestFig7:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig7(QUICK)

    def test_all_strategies_present(self, data):
        assert set(data["series"]) == {"random", "sweep", "chb", "b-tctp"}

    def test_series_length(self, data):
        assert all(len(s) == 41 for s in data["series"].values())

    def test_tctp_is_flat(self, data):
        """The paper: 'its DCDT keeps a constant value'."""
        assert data["dcdt_spread"]["b-tctp"] < 0.05 * data["average_dcdt"]["b-tctp"]

    def test_random_fluctuates_more_than_tctp(self, data):
        assert data["dcdt_spread"]["random"] > data["dcdt_spread"]["b-tctp"]

    def test_random_has_largest_average_dcdt(self, data):
        avg = data["average_dcdt"]
        assert avg["random"] == max(avg.values())

    def test_chb_spread_exceeds_tctp(self, data):
        assert data["dcdt_spread"]["chb"] > data["dcdt_spread"]["b-tctp"]


class TestFig8:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig8(QUICK, target_counts=(8, 12), mule_counts=(2, 4))

    def test_grid_complete(self, data):
        assert set(data["grid"]["b-tctp"]) == {(8, 2), (8, 4), (12, 2), (12, 4)}

    def test_tctp_sd_is_zero_everywhere(self, data):
        """The paper: 'the SD of the proposed TCTP always keeps zero'."""
        for value in data["grid"]["b-tctp"].values():
            assert value == pytest.approx(0.0, abs=1e-6)

    def test_chb_sd_positive_everywhere(self, data):
        for value in data["grid"]["chb"].values():
            assert value > 0.0

    def test_rows_match_grid(self, data):
        for row in data["rows"]:
            h, n, chb_sd, tctp_sd = row
            assert data["grid"]["chb"][(h, n)] == pytest.approx(chb_sd)
            assert data["grid"]["b-tctp"][(h, n)] == pytest.approx(tctp_sd)


class TestFig9:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig9(QUICK, vip_counts=(1, 2), vip_weights=(2, 3))

    def test_both_policies_reported(self, data):
        assert set(data["dcdt"]) == {"shortest", "balanced"}

    def test_dcdt_increases_with_weight(self, data):
        for policy in data["policies"]:
            assert data["dcdt"][policy][(1, 3)] > data["dcdt"][policy][(1, 2)]

    def test_shortest_has_smaller_wpp_than_balanced(self, data):
        for key in data["wpp_length"]["shortest"]:
            assert data["wpp_length"]["shortest"][key] <= data["wpp_length"]["balanced"][key] + 1e-6

    def test_shortest_dcdt_not_larger_than_balanced(self, data):
        """The paper: 'the Shortest-Length Policy has smaller DCDT'."""
        for key in data["dcdt"]["shortest"]:
            assert data["dcdt"]["shortest"][key] <= data["dcdt"]["balanced"][key] + 1e-6


class TestFig10:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig10(QUICK, vip_counts=(1, 2), vip_weights=(2, 3))

    def test_balanced_sd_below_shortest(self, data):
        """The paper: the Balancing-Length policy keeps the SD small."""
        shortest_total = sum(data["sd"]["shortest"].values())
        balanced_total = sum(data["sd"]["balanced"].values())
        assert balanced_total < shortest_total

    def test_rows_shape(self, data):
        assert all(len(row) == 4 for row in data["rows"])


class TestEnergyExperiment:
    @pytest.fixture(scope="class")
    def data(self):
        return run_energy_experiment(
            ExperimentSettings.quick(replications=2, horizon=30_000.0, num_targets=8, num_mules=2),
            battery_capacities=(60_000.0,),
        )

    def test_rwtctp_survival_not_worse(self, data):
        detail = data["detail"][60_000.0]
        assert detail["RW-TCTP"]["survival"] >= detail["W-TCTP"]["survival"]

    def test_rwtctp_recharges(self, data):
        assert data["detail"][60_000.0]["RW-TCTP"]["recharges"] > 0

    def test_wtctp_mules_eventually_die(self, data):
        assert data["detail"][60_000.0]["W-TCTP"]["survival"] < 1.0

    def test_rwtctp_delivers_at_least_as_much_data(self, data):
        detail = data["detail"][60_000.0]
        assert detail["RW-TCTP"]["delivered"] >= detail["W-TCTP"]["delivered"]


class TestAblations:
    def test_ablation_init_shows_initialization_matters(self):
        data = run_ablation_init(QUICK, mule_counts=(3,))
        row = data["rows"][0]
        _n, sd_with, sd_without, _d1, _d2 = row
        assert sd_with == pytest.approx(0.0, abs=1e-6)
        assert sd_without > sd_with

    def test_ablation_mules_reports_measured_and_predicted(self):
        data = run_ablation_mules(
            ExperimentSettings.quick(replications=1, horizon=40_000.0, num_targets=10),
            mule_counts=(1, 2), num_vips=1, vip_weight=2,
        )
        assert len(data["rows"]) == 2
        detail = data["detail"]
        for n in (1, 2):
            for policy in ("shortest", "balanced"):
                entry = detail[n][policy]
                assert entry["measured"] >= 0.0
                assert entry["predicted"] >= 0.0
        # with a single mule the balanced policy's VIP SD prediction is the smaller one
        assert detail[1]["balanced"]["predicted"] <= detail[1]["shortest"]["predicted"] + 1e-6

    def test_ablation_tsp_reports_all_variants(self):
        data = run_ablation_tsp(
            ExperimentSettings.quick(replications=1, horizon=15_000.0, num_targets=10, num_mules=2),
            target_counts=(10,),
            simulate=False,
        )
        assert len(data["rows"]) == len(data["variants"])
        lengths = {label: length for _h, label, length, _d in data["rows"]}
        # 2-opt never worsens the nearest-neighbour tour
        assert lengths["nn+2opt"] <= lengths["nearest-neighbor"] + 1e-6
