"""Tests for the command-line interface (repro.cli)."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.strategy == "b-tctp"
        assert args.targets == 20

    def test_fig_commands_exist(self):
        parser = build_parser()
        for cmd in ("fig7", "fig8", "fig9", "fig10", "energy", "ablation-init", "ablation-tsp"):
            args = parser.parse_args([cmd, "--quick"])
            assert args.command == cmd
            assert args.quick is True

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--strategy", "nope"])


class TestStrategiesCommand:
    def test_lists_strategies(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "b-tctp" in out and "chb" in out
        # the listing shows the pipeline composition of each strategy
        assert "hamiltonian | none | as-built | equal-spacing" in out

    def test_json_output(self, capsys):
        assert main(["strategies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {s["name"]: s for s in payload["strategies"]}
        # the paper's six: parameters come from the builder signatures
        tctp = ["improve_tour", "location_initialization", "tsp_method"]
        expected = {
            "random": ([], ["avoid_repeat", "include_sink", "seed"]),
            "sweep": ([], ["include_sink_in_groups", "tsp_method"]),
            "chb": ([], ["improve_tour", "tsp_method"]),
            "b-tctp": (["btctp", "tctp"], tctp),
            "w-tctp": (["wtctp"], sorted(tctp + ["policy"])),
            "rw-tctp": (["rwtctp"],
                        sorted(tctp + ["policy", "treat_targets_as_vips", "vip_weight"])),
        }
        for name, (aliases, params) in expected.items():
            assert by_name[name]["aliases"] == aliases, name
            assert by_name[name]["params"] == params, name
        assert by_name["w-tctp"]["composition"]["augment"]["name"] == "wpp"
        # the new cross-combined strategies are listed too
        assert {"sw-tctp", "cb-tctp", "crw-tctp", "pipeline"} <= set(by_name)


class TestScenariosCommand:
    def test_lists_families_with_params(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for family in ("uniform", "clustered", "corridor", "hotspot", "ring",
                       "grid-jitter", "mixed-density", "figure1"):
            assert family in out
        assert "num_targets=20" in out

    def test_json_output(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {f["name"]: f for f in payload["families"]}
        assert "ring" in by_name
        assert by_name["ring"]["description"]
        params = {p["name"]: p for p in by_name["ring"]["params"]}
        assert params["ring_radius"]["default"] == 300.0


class TestScenarioOption:
    def test_simulate_with_scenario_family(self, capsys):
        code = main(["simulate", "--scenario", "ring:num_targets=8,ring_radius=200",
                     "--strategy", "b-tctp", "--seed", "1", "--horizon", "8000",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "ring"
        assert payload["num_targets"] == 8

    def test_simulate_unknown_family_clean_error(self, capsys):
        assert main(["simulate", "--scenario", "voronoi"]) == 2
        assert "unknown scenario family" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "unifrom:num_targets=5"]) == 2
        assert "did you mean 'uniform'" in capsys.readouterr().err

    def test_simulate_typoed_param_clean_error(self, capsys):
        assert main(["simulate", "--scenario", "ring:radius=10"]) == 2
        assert "does not accept" in capsys.readouterr().err

    def test_simulate_malformed_param_clean_error(self, capsys):
        assert main(["simulate", "--scenario", "ring:num_targets"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_simulate_non_numeric_value_clean_error(self, capsys):
        assert main(["simulate", "--scenario", "ring:num_targets=abc"]) == 2
        assert "error:" in capsys.readouterr().err


class TestParamOption:
    BASE = ["simulate", "--targets", "6", "--mules", "2", "--horizon", "5000", "--json"]

    def test_pipeline_strategy_with_stage_params(self, capsys):
        code = main(self.BASE + ["--strategy", "pipeline",
                                 "--param", "tour=cluster-first",
                                 "--param", "order=reversed"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "Pipeline[cluster-first|none|reversed|equal-spacing]"

    def test_augment_none_is_the_noop_backend(self, capsys):
        # 'none' parses to Python None at the CLI layer; it must still mean
        # the augment backend literally named "none"
        code = main(self.BASE + ["--strategy", "pipeline", "--param", "augment=none"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "|none|" in payload["strategy"]

    def test_pipeline_recharge_autoprovisions_station(self, capsys):
        # composition-based recharge detection must honour --param overrides
        code = main(self.BASE + ["--strategy", "pipeline",
                                 "--param", "augment=recharge",
                                 "--param", "order=ccw-angle"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"].startswith("Pipeline[hamiltonian|recharge")

    def test_incompatible_stages_clean_error(self, capsys):
        code = main(self.BASE + ["--strategy", "pipeline",
                                 "--param", "augment=wpp", "--param", "order=as-built"])
        assert code == 2
        assert "cannot traverse a weighted structure" in capsys.readouterr().err

    def test_stage_typo_clean_error_with_suggestion(self, capsys):
        code = main(self.BASE + ["--strategy", "pipeline", "--param", "tour=hamiltonain"])
        assert code == 2
        assert "did you mean 'hamiltonian'" in capsys.readouterr().err

    def test_out_of_range_param_clean_error(self, capsys):
        code = main(self.BASE + ["--strategy", "cb-tctp", "--param", "num_clusters=-5"])
        assert code == 2
        assert "num_clusters" in capsys.readouterr().err

    def test_malformed_param_clean_error(self, capsys):
        code = main(self.BASE + ["--strategy", "b-tctp", "--param", "tsp_method"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_sweep_non_numeric_value_clean_error(self, capsys):
        code = main(["sweep", "--scenario", "ring:ring_width=-5x",
                     "--strategies", "b-tctp", "--replications", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_with_scenario_family(self, capsys):
        code = main(["sweep", "--scenario", "corridor:num_targets=6,num_mules=2",
                     "--strategies", "b-tctp,chb", "--replications", "2",
                     "--horizon", "6000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 4
        assert payload["spec"]["base"]["scenario"]["family"] == "corridor"

    def test_sweep_bad_scenario_clean_error(self, capsys):
        code = main(["sweep", "--scenario", "clustered:cluster_radius=500",
                     "--strategies", "b-tctp", "--replications", "1"])
        assert code == 2
        assert "cluster_radius" in capsys.readouterr().err


class TestSimulateCommand:
    def test_btctp_table_output(self, capsys):
        code = main(["simulate", "--strategy", "b-tctp", "--targets", "8", "--mules", "2",
                     "--seed", "1", "--horizon", "15000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "average_dcdt" in out
        assert "B-TCTP" in out

    def test_json_output_is_parseable(self, capsys):
        code = main(["simulate", "--strategy", "chb", "--targets", "8", "--mules", "2",
                     "--seed", "1", "--horizon", "15000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_targets"] == 8
        assert payload["average_dcdt"] > 0

    def test_wtctp_policy_flag(self, capsys):
        code = main(["simulate", "--strategy", "w-tctp", "--policy", "shortest", "--targets", "8",
                     "--mules", "2", "--vips", "1", "--seed", "1", "--horizon", "15000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "shortest" in payload["strategy"]

    def test_rwtctp_gets_recharge_station_automatically(self, capsys):
        code = main(["simulate", "--strategy", "rw-tctp", "--targets", "6", "--mules", "2",
                     "--seed", "2", "--horizon", "20000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dead_mules"] == []

    def test_random_strategy_seeded(self, capsys):
        code = main(["simulate", "--strategy", "random", "--targets", "6", "--mules", "2",
                     "--seed", "3", "--horizon", "10000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_sd"] > 0


class TestSweepCommand:
    def test_sweep_json_records(self, capsys):
        code = main(["sweep", "--strategies", "b-tctp,sweep", "--replications", "2",
                     "--targets", "8", "--mules", "2", "--horizon", "8000",
                     "--workers", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 4
        strategies = {r["strategy"] for r in payload["records"]}
        assert strategies == {"b-tctp", "sweep"}
        assert payload["spec"]["kind"] == "campaign"

    def test_sweep_table_output(self, capsys):
        code = main(["sweep", "--strategies", "chb", "--replications", "2",
                     "--targets", "6", "--mules", "2", "--horizon", "6000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Summary over replications" in out
        assert "chb" in out

    def test_sweep_unknown_strategy_clean_error(self, capsys):
        code = main(["sweep", "--strategies", "b-tctp,frobnicate", "--replications", "1"])
        assert code == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_sweep_empty_strategies_clean_error(self, capsys):
        for raw in (",", ""):
            code = main(["sweep", "--strategies", raw, "--replications", "1"])
            assert code == 2
            assert "at least one strategy" in capsys.readouterr().err

    def test_sweep_spec_out_round_trips(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(["sweep", "--strategies", "b-tctp,chb", "--replications", "3",
                     "--targets", "6", "--mules", "2", "--horizon", "6000",
                     "--spec-out", str(spec_path)])
        assert code == 0
        from repro.runner import CampaignSpec, load_spec

        spec = load_spec(spec_path)
        assert isinstance(spec, CampaignSpec)
        assert spec.replications == 3
        assert spec.grid["strategy"] == ["b-tctp", "chb"]


class TestRunCommand:
    def test_run_spec_file(self, tmp_path, capsys):
        from repro.runner import CampaignSpec, RunSpec
        from repro.sim.engine import SimulationConfig
        from repro.workloads.generator import ScenarioConfig

        spec = CampaignSpec(
            base=RunSpec(strategy="b-tctp",
                         scenario=ScenarioConfig(num_targets=6, num_mules=2,
                                                 mule_placement="random"),
                         sim=SimulationConfig(horizon=6000.0, track_energy=False)),
            grid={"strategy": ["chb", "b-tctp"]},
            replications=2,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"

        code = main(["run", str(spec_path), "--json",
                     "--out", str(out_path), "--csv", str(csv_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 4
        assert json.loads(out_path.read_text())["records"] == payload["records"]
        assert csv_path.read_text().startswith("strategy,")

    def test_run_missing_or_invalid_spec_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text('{"strategy": "chb", "frobnicate": 1}')
        assert main(["run", str(bad)]) == 2
        assert "unknown run spec field" in capsys.readouterr().err

    def test_run_single_spec_typoed_param_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "typo.json"
        spec.write_text('{"kind": "run", "strategy": "w-tctp", "params": {"polcy": "shortest"}}')
        assert main(["run", str(spec)]) == 2
        assert "polcy" in capsys.readouterr().err

    def test_run_single_run_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({
            "kind": "run",
            "strategy": "chb",
            "scenario": {"num_targets": 6, "num_mules": 2, "mule_placement": "random"},
            "sim": {"horizon": 6000.0, "track_energy": False},
            "seed": 5,
        }))
        code = main(["run", str(spec_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 1
        assert payload["records"][0]["seed"] == 5


class TestFigureCommands:
    def test_fig8_quick_runs_and_prints_table(self, capsys):
        code = main(["fig8", "--quick", "--replications", "1", "--horizon", "12000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "SD" in out

    def test_fig9_quick_json(self, capsys):
        code = main(["fig9", "--quick", "--replications", "1", "--horizon", "12000", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["experiment"] == "fig9"

    def test_fig8_workers_flag_matches_serial(self, capsys):
        serial_code = main(["fig8", "--quick", "--replications", "2", "--horizon", "10000",
                            "--json"])
        serial_out = capsys.readouterr().out
        parallel_code = main(["fig8", "--quick", "--replications", "2", "--horizon", "10000",
                              "--workers", "2", "--json"])
        parallel_out = capsys.readouterr().out
        assert serial_code == parallel_code == 0
        serial = json.loads(serial_out[serial_out.index("{"):])
        parallel = json.loads(parallel_out[parallel_out.index("{"):])
        assert serial["grid"] == parallel["grid"]


_SWEEP_SMALL = ["sweep", "--strategies", "chb,b-tctp", "--replications", "2",
                "--targets", "6", "--mules", "2", "--horizon", "5000"]


class TestStoreFlags:
    def test_progress_prints_done_total_to_stderr(self, capsys):
        assert main([*_SWEEP_SMALL, "--progress", "--json"]) == 0
        err = capsys.readouterr().err
        assert "progress: 1/4" in err and "progress: 4/4" in err

    def test_sweep_with_store_resumes_and_reports_hits(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--progress", "--json"]) == 0
        first = capsys.readouterr()
        assert "store: 0 hits, 4 misses" in first.err
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--progress", "--json"]) == 0
        second = capsys.readouterr()
        assert "store: 4 hits, 0 misses" in second.err
        assert "progress: 4/4" in second.err
        a, b = json.loads(first.out)["records"], json.loads(second.out)["records"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_env_var_store_with_opt_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert main([*_SWEEP_SMALL, "--progress", "--json"]) == 0
        capsys.readouterr()
        assert main([*_SWEEP_SMALL, "--no-store", "--progress", "--json"]) == 0
        err = capsys.readouterr().err
        assert "store:" not in err          # opted out: no hits/misses line
        assert "progress: 1/4" in err       # every cell re-executed

    def test_run_spec_file_with_store(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "campaign",
            "base": {"strategy": "chb",
                     "scenario": {"family": "uniform",
                                  "params": {"num_targets": 6, "num_mules": 2}},
                     "sim": {"horizon": 5000.0, "track_energy": False}},
            "replications": 2,
        }))
        store_dir = str(tmp_path / "store")
        assert main(["run", str(spec_path), "--store", store_dir, "--progress",
                     "--json"]) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path), "--store", store_dir, "--progress",
                     "--json"]) == 0
        err = capsys.readouterr().err
        assert "store: 2 hits, 0 misses" in err


class TestStoreCommand:
    def _populate(self, tmp_path, capsys) -> str:
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        return store_dir

    def test_requires_a_configured_store(self, capsys):
        assert main(["store", "stats"]) == 2
        assert "no result store configured" in capsys.readouterr().err

    def test_stats_and_list(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        assert main(["store", "stats", "--dir", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        assert main(["store", "list", "--dir", store_dir, "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert len(entries) == 4
        assert {e["strategy"] for e in entries} == {"chb", "b-tctp"}
        assert main(["store", "list", "--dir", store_dir, "--strategy", "chb"]) == 0
        out = capsys.readouterr().out
        assert "chb" in out and "b-tctp" not in out

    def test_env_var_names_the_store(self, tmp_path, capsys, monkeypatch):
        store_dir = self._populate(tmp_path, capsys)
        monkeypatch.setenv("REPRO_STORE_DIR", store_dir)
        assert main(["store", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 4

    def test_gc_and_clear(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        assert main(["store", "gc", "--dir", store_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["store", "clear", "--dir", store_dir]) == 0
        assert "removed 4 entries" in capsys.readouterr().out

    def test_export_records(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        out_json = str(tmp_path / "records.json")
        out_csv = str(tmp_path / "records.csv")
        assert main(["store", "export", "--dir", store_dir, "--strategy", "chb",
                     "--out", out_json, "--csv", out_csv]) == 0
        capsys.readouterr()
        payload = json.loads(open(out_json).read())
        assert len(payload["records"]) == 2
        assert open(out_csv).read().startswith("strategy,")

    def test_export_needs_a_destination(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        assert main(["store", "export", "--dir", store_dir]) == 2
        assert "needs --out" in capsys.readouterr().err

    def test_export_where_filter(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        out_json = str(tmp_path / "filtered.json")
        assert main(["store", "export", "--dir", store_dir,
                     "--where", "replication=1..1", "--out", out_json]) == 0
        capsys.readouterr()
        assert len(json.loads(open(out_json).read())["records"]) == 2

    def test_malformed_where_clean_error(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        assert main(["store", "export", "--dir", store_dir, "--where", "nope",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_flags_an_action_would_ignore_are_rejected(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        # gc cannot scope deletion by strategy — refusing beats silently
        # sweeping everything.
        assert main(["store", "gc", "--dir", store_dir, "--strategy", "chb"]) == 2
        assert "--strategy does not apply to 'store gc'" in capsys.readouterr().err
        assert main(["store", "clear", "--dir", store_dir, "--where", "x=1"]) == 2
        assert "--where does not apply to 'store clear'" in capsys.readouterr().err
        assert main(["store", "list", "--dir", store_dir, "--max-age-days", "3"]) == 2
        assert "--max-age-days does not apply" in capsys.readouterr().err
        assert main(["store", "stats", "--dir", store_dir, "--limit", "2"]) == 2
        assert "--limit does not apply" in capsys.readouterr().err

    def test_list_honours_where_filters(self, tmp_path, capsys):
        store_dir = self._populate(tmp_path, capsys)
        assert main(["store", "list", "--dir", store_dir,
                     "--where", "replication=1", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert len(entries) == 2


class TestReportCommand:
    def test_report_over_stored_records(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 4
        groups = {g["strategy"]: g for g in payload["groups"]}
        assert set(groups) == {"chb", "b-tctp"}
        assert groups["b-tctp"]["runs"] == 2
        assert groups["b-tctp"]["mean average_sd"] == pytest.approx(0.0, abs=1e-9)

    def test_report_table_and_csv(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        csv_path = str(tmp_path / "summary.csv")
        assert main(["report", "--dir", store_dir, "--by", "strategy,seed",
                     "--metrics", "average_dcdt", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "Report over 4 stored records" in out
        assert open(csv_path).read().splitlines()[0] == "strategy,seed,mean average_dcdt,runs"

    def test_no_matching_records(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", store_dir, "--strategy", "sweep"]) == 1
        assert "no stored records match" in capsys.readouterr().err

    def test_unknown_metric_clean_error(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", store_dir, "--metrics", "no_such_metric"]) == 2
        assert "no column" in capsys.readouterr().err


#: Four cells; _declined_campaign runs them with the batch off, so the scalar
#: core runs (and times) them.
_SWEEP_DECLINED = ["sweep", "--strategies", "chb,random", "--replications", "2",
                   "--targets", "6", "--mules", "2", "--horizon", "5000", "--no-store"]


def _declined_campaign(tmp_path, *, obs_on: bool, progress: bool = False):
    """Run the _SWEEP_DECLINED cells via ``run --out`` with ``sim.obs`` set; returns the artifact.

    The spec also sets ``sim.batch_path`` off: the batch declines every cell.
    """
    spec_path = tmp_path / f"spec-{obs_on}.json"
    assert main([*_SWEEP_DECLINED, "--spec-out", str(spec_path)]) == 0
    spec = json.loads(spec_path.read_text())
    spec["base"]["sim"]["obs"] = obs_on
    spec["base"]["sim"]["batch_path"] = False
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / f"camp-{obs_on}.json"
    flags = ["--progress"] if progress else []
    assert main(["run", str(spec_path), "--no-store", "--out", str(out), *flags, "--json"]) == 0
    return out


class TestReproducibleStdout:
    def test_default_sweep_json_is_byte_identical(self, tmp_path, capsys):
        from repro.obs import obs_disabled
        from repro.sim.batchpath import batchpath_disabled

        def sweep() -> str:
            assert main([*_SWEEP_DECLINED, "--json"]) == 0
            return capsys.readouterr().out

        with obs_disabled():
            first, second = sweep(), sweep()
            with batchpath_disabled():
                unbatched = sweep()
            assert first == second == unbatched
            assert "timing" not in json.loads(first)["metadata"]
            observed = json.loads(_declined_campaign(tmp_path, obs_on=True).read_text())
        assert observed["metadata"]["timing"]["cells_timed"] >= 2
        assert observed["records"] == json.loads(first)["records"]


class TestReportTiming:
    def test_table_and_json_from_an_obs_artifact(self, tmp_path, capsys):
        out = _declined_campaign(tmp_path, obs_on=True)
        capsys.readouterr()
        assert main(["report", "--timing", str(out), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["campaigns"]
        timing = json.loads(out.read_text())["metadata"]["timing"]
        assert row["campaign"] == str(out) and row["cells"] == 4
        assert row["cells_timed"] == timing["cells_timed"] >= 2
        assert (row["planning_s"], row["simulation_s"]) \
            == (timing["planning_s"], timing["simulation_s"])
        assert row["simulation_s"] > 0 and 0 <= row["planning_share"] <= 1
        assert main(["report", "--timing", str(out)]) == 0
        table = capsys.readouterr().out
        assert "Plan vs sim wall-clock over 1 campaigns" in table
        assert f"{timing['simulation_s']:.3f}" in table

    def test_artifact_without_timing_block_exits_2(self, tmp_path, capsys):
        out = _declined_campaign(tmp_path, obs_on=False)
        capsys.readouterr()
        assert "timing" not in json.loads(out.read_text())["metadata"]
        assert main(["report", "--timing", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out} has no metadata.timing block; re-run the campaign "
            "with REPRO_OBS=1 (or sim.obs=true)\n")

    def test_unreadable_artifact_exits_2(self, tmp_path, capsys):
        assert main(["report", "--timing", str(tmp_path / "missing.json")]) == 2
        assert "error: cannot read campaign artifact" in capsys.readouterr().err
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["report", "--timing", str(broken), "--json"]) == 2
        assert "error: cannot read campaign artifact" in capsys.readouterr().err

    def test_progress_timing_line_needs_obs(self, tmp_path, capsys):
        _declined_campaign(tmp_path, obs_on=True, progress=True)
        err = capsys.readouterr().err
        assert re.search(r"^timing: planning \d+\.\d{3}s, simulation \d+\.\d{3}s "
                         r"\(\d+ cells timed\)$", err, re.MULTILINE)
        _declined_campaign(tmp_path, obs_on=False, progress=True)
        err = capsys.readouterr().err
        assert "progress: 4/4" in err and "timing:" not in err


class TestVersionFlag:
    def test_version_prints_library_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-patrol {repro.__version__}"

    def test_single_source_of_truth(self):
        # pyproject's dynamic version and the fingerprint code salt both read
        # repro.__version__; the CLI flag must never drift from them.
        import repro
        from repro.store.fingerprint import code_salt

        assert code_salt().endswith(repro.__version__)


class TestTransportsCommand:
    def test_lists_transports_with_options(self, capsys):
        assert main(["transports"]) == 0
        out = capsys.readouterr().out
        assert "http (rest)" in out
        assert "stdio (console)" in out
        assert "host=127.0.0.1" in out and "port=8422" in out

    def test_json_output(self, capsys):
        assert main(["transports", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {t["name"]: t for t in payload["transports"]}
        assert by_name["http"]["aliases"] == ["rest"]
        options = {o["name"]: o for o in by_name["http"]["options"]}
        assert options["port"] == {"name": "port", "kind": "int",
                                   "default": 8422, "required": False}
        assert by_name["stdio"]["options"] == []


class TestServeCommand:
    def test_unknown_transport_is_a_clean_error(self, capsys):
        assert main(["serve", "--transport", "htp", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "unknown transport" in err and "did you mean 'http'" in err

    def test_bad_worker_count_is_a_clean_error(self, capsys):
        assert main(["serve", "--workers", "0", "--no-store"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_stdio_serve_round_trip(self, capsys, monkeypatch):
        """`serve --transport stdio` is a full daemon run we can drive in-process."""
        import io

        spec = {"kind": "run", "strategy": "b-tctp", "seed": 1,
                "scenario": {"family": "uniform",
                             "params": {"num_targets": 5, "num_mules": 2}},
                "sim": {"horizon": 300.0, "track_energy": False}}
        lines = json.dumps(spec) + "\n" + json.dumps({"op": "stats"}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--transport", "stdio", "--no-store"]) == 0
        captured = capsys.readouterr()
        assert "no result store (coalescing only)" in captured.err
        events = [json.loads(line) for line in captured.out.splitlines()]
        assert [e["event"] for e in events] == ["start", "cell", "done", "stats"]
        assert events[1]["record"]["strategy"] == "b-tctp"
        assert events[3]["stats"]["executed"] == 1


class TestStoreStatsFormatter:
    def test_store_stats_json_is_the_shared_payload(self, tmp_path, capsys):
        from repro.store import ResultStore
        from repro.store.report import store_stats_payload

        store_dir = str(tmp_path / "store")
        assert main([*_SWEEP_SMALL, "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # byte-for-byte the document the daemon's /stats endpoint embeds
        assert payload == json.loads(
            json.dumps(store_stats_payload(ResultStore(store_dir)), sort_keys=True))
        assert payload["entries"] == 4
