"""Tests for the self-checking analysis layer (``repro-patrol check``).

Every rule id in the catalog is exercised with a seeded violation: the
determinism rules fire on the committed fixture files under
``tests/fixtures/analysis/``, the registry / fingerprint / schema rules fire
on synthetic inputs injected through the checkers' override parameters
(registering a bad entry for real would pollute the live registries, which
have no unregister).  The end-to-end tests assert the acceptance criteria:
``repro-patrol check --strict`` exits 0 on the repo itself, nonzero on a
fixture, and the fingerprint-coverage rule fails the build when a spec
dataclass grows a field with no hashing decision.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.registry
from repro import cli
from repro.analysis.check import CheckReport, render_json, render_text, run_check
from repro.analysis.determinism import DEFAULT_SCOPE, check_determinism, scope_files
from repro.analysis.findings import (
    Finding,
    load_baseline,
    split_suppressed,
    suppressed_rules_by_line,
    write_baseline,
)
from repro.analysis.fingerprint_coverage import (
    check_fingerprint_coverage,
    default_spec_classes,
)
from repro.analysis.registry_contract import (
    check_registries,
    documented_params,
    factory_location,
)
from repro.analysis.rules import ANALYZERS, RULE_IDS, RULES, rules_for_analyzer
from repro.analysis.schema_drift import (
    check_schema_drift,
    current_schemas,
    load_golden,
    spec_schema,
    write_golden,
)
from repro.baselines.base import StrategyInfo
from repro.runner.spec import RunSpec
from repro.scenarios.registry import ScenarioInfo, ScenarioParam
from repro.sim.engine import SimulationConfig

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


# --------------------------------------------------------------------------- #
# rule catalog
# --------------------------------------------------------------------------- #

class TestRuleCatalog:
    def test_ids_unique_and_well_formed(self):
        assert len(RULE_IDS) == len(RULES)
        for rule in RULES:
            assert rule.id == rule.id.lower()
            assert " " not in rule.id
            assert rule.analyzer in ANALYZERS
            assert rule.summary

    def test_every_analyzer_owns_rules(self):
        for analyzer in ANALYZERS:
            assert rules_for_analyzer(analyzer), analyzer

    def test_analyzer_partition_covers_catalog(self):
        by_analyzer = [r.id for a in ANALYZERS for r in rules_for_analyzer(a)]
        assert sorted(by_analyzer) == sorted(RULE_IDS)


# --------------------------------------------------------------------------- #
# determinism lint (fixture files, one per rule id)
# --------------------------------------------------------------------------- #

DET_FIXTURES = {
    "det-unseeded-random": "det_unseeded_random.py",
    "det-global-np-random": "det_global_np_random.py",
    "det-wall-clock": "det_wall_clock.py",
    "det-set-iteration": "det_set_iteration.py",
    "det-env-branch": "det_env_branch.py",
}


class TestDeterminismLint:
    @pytest.mark.parametrize("rule_id,filename", sorted(DET_FIXTURES.items()))
    def test_fixture_fires_exactly_its_rule(self, rule_id, filename):
        findings, sources = check_determinism([FIXTURES / filename])
        assert len(sources) == 1
        fired = {f.rule for f in findings}
        assert fired == {rule_id}
        assert len(findings) >= 2  # each fixture seeds at least two violations
        for finding in findings:
            assert finding.line > 0
            assert finding.path.endswith(filename)

    def test_seeded_idioms_not_flagged(self):
        # The fixtures also contain the *allowed* counterparts
        # (random.Random(seed), np.random.default_rng(seed), sorted(set(...)))
        # in dedicated functions; no finding may anchor inside them.
        findings, sources = check_determinism(
            [FIXTURES / "det_unseeded_random.py", FIXTURES / "det_global_np_random.py"]
        )
        for path, source in sources.items():
            allowed_lines = {
                lineno
                for lineno, line in enumerate(source.splitlines(), start=1)
                if "allowed" in line
            }
            for finding in findings:
                if finding.path == path:
                    assert finding.line not in allowed_lines, finding.format()

    def test_suppressed_fixture_is_clean_via_run_check(self):
        report = run_check(paths=[FIXTURES / "det_suppressed.py"])
        assert report.findings == []
        assert report.suppressed == 3
        assert report.ok

    def test_directory_path_recurses(self):
        findings, sources = check_determinism([FIXTURES])
        assert len(sources) == len(list(FIXTURES.glob("*.py")))
        assert {f.rule for f in findings} == set(DET_FIXTURES)

    def test_unparsable_file_raises(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        with pytest.raises(ValueError, match="cannot lint"):
            check_determinism([bad])

    def test_default_scope_covers_registered_code(self):
        files = scope_files()
        covered = {f.as_posix() for f in files}
        for package in DEFAULT_SCOPE:
            assert any(f"/repro/{package}/" in path or f"/repro/{package}.py" in path
                       for path in covered), package
        # every registry lookup runs through the shared registry module
        assert Path(repro.registry.__file__) in files


# --------------------------------------------------------------------------- #
# registry contract (synthetic registry tables)
# --------------------------------------------------------------------------- #

def _drifted_factory(alpha=1.0, gamma=2):
    return (alpha, gamma)


def _kwargs_factory(**kwargs):
    return kwargs


def _documented_factory(alpha=1.0):
    """Factory whose docstring drifted from its declaration.

    Parameters
    ----------
    alpha : float
        Declared and documented.
    beta : float
        Documented but never declared.
    """
    return alpha


def _scenario_factory(weights=None):
    return weights


def _strategy(factory, params, *, strict=True, description="synthetic"):
    return StrategyInfo(name="synthetic", factory=factory,
                        params=frozenset(params), strict=strict,
                        description=description)


class TestRegistryContract:
    def test_live_registries_are_clean(self):
        assert check_registries() == []

    def test_signature_drift(self):
        findings = check_registries(
            strategies={"drifty": _strategy(_drifted_factory, {"alpha", "beta"})},
            scenarios={}, stages={},
        )
        assert {f.rule for f in findings} == {"registry-signature-drift"}
        message = findings[0].message
        assert "beta" in message and "gamma" in message

    def test_undeclared_kwargs_and_missing_description(self):
        findings = check_registries(
            strategies={"loose": _strategy(_kwargs_factory, (), strict=False,
                                           description="")},
            scenarios={}, stages={},
        )
        fired = {f.rule for f in findings}
        assert fired == {"registry-undeclared-kwargs", "registry-missing-description"}

    def test_alias_shadow(self):
        strategies = {
            "grid-jitter": _strategy(_drifted_factory, {"alpha", "gamma"}),
            "grid_jitter": _strategy(_kwargs_factory, {"alpha", "gamma"}),
        }
        findings = check_registries(
            strategies=strategies,
            strategy_aliases={name: name for name in strategies},
            scenarios={}, stages={},
        )
        assert "registry-alias-shadow" in {f.rule for f in findings}

    def test_docstring_drift(self):
        findings = check_registries(
            strategies={"documented": _strategy(_documented_factory, {"alpha"})},
            scenarios={}, stages={},
        )
        assert {f.rule for f in findings} == {"registry-docstring-drift"}
        assert "beta" in findings[0].message

    def test_mutable_default_on_scenario(self):
        info = ScenarioInfo(
            name="weighted", factory=_scenario_factory,
            params={"weights": ScenarioParam("weights", default=[])},
            description="synthetic",
        )
        findings = check_registries(strategies={}, scenarios={"weighted": info},
                                    stages={})
        assert {f.rule for f in findings} == {"registry-mutable-default"}

    def test_param_ambiguity_with_sim_fields(self):
        sim_field = sorted(f.name for f in dataclasses.fields(SimulationConfig))[0]

        def _factory(**kwargs):
            return kwargs

        findings = check_registries(
            strategies={"clash": StrategyInfo(name="clash", factory=_factory,
                                              params=frozenset({sim_field}),
                                              strict=True,
                                              description="synthetic")},
            scenarios={}, stages={},
        )
        assert "registry-param-ambiguity" in {f.rule for f in findings}
        assert any(sim_field in f.message for f in findings)

    def test_findings_anchor_in_this_test_file(self):
        findings = check_registries(
            strategies={"drifty": _strategy(_drifted_factory, {"alpha", "beta"})},
            scenarios={}, stages={},
        )
        path, line = factory_location(_drifted_factory)
        assert findings[0].path == path
        assert findings[0].line == line
        assert path.endswith("test_analysis_check.py")

    def test_documented_params_parses_numpy_sections(self):
        assert documented_params(_documented_factory.__doc__) == {"alpha", "beta"}
        assert documented_params("no section here") is None
        multi = """Summary.

        Parameters
        ----------
        tsp_method, improve_tour : str
            A multi-name entry.
        seed : int
            Another.
        """
        assert documented_params(multi) == {"tsp_method", "improve_tour", "seed"}


# --------------------------------------------------------------------------- #
# fingerprint coverage
# --------------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class _RunSpecWithNotes(RunSpec):
    """RunSpec grown by one field *without* a hashing decision."""

    notes: str = ""


class TestFingerprintCoverage:
    def test_live_declaration_is_clean(self):
        assert check_fingerprint_coverage() == []

    def test_new_spec_field_fails_the_build(self):
        # Acceptance criterion: adding a field to a spec dataclass without a
        # FINGERPRINT_COVERAGE entry or exemption must produce a finding.
        classes = dict(default_spec_classes())
        classes["RunSpec"] = _RunSpecWithNotes
        findings = check_fingerprint_coverage(spec_classes=classes)
        assert {f.rule for f in findings} == {"fpr-uncovered-field"}
        assert any("RunSpec.notes" in f.message for f in findings)

    def test_exemption_with_reason_clears_new_field(self):
        classes = dict(default_spec_classes())
        classes["RunSpec"] = _RunSpecWithNotes
        findings = check_fingerprint_coverage(
            spec_classes=classes,
            exempt={("RunSpec", "notes"): "free-form annotation, never affects "
                                          "simulation output"},
        )
        assert findings == []

    def test_exemption_without_reason_still_fails(self):
        classes = dict(default_spec_classes())
        classes["RunSpec"] = _RunSpecWithNotes
        findings = check_fingerprint_coverage(
            spec_classes=classes, exempt={("RunSpec", "notes"): "  "},
        )
        assert {f.rule for f in findings} == {"fpr-uncovered-field"}
        assert "without a reason" in findings[0].message

    def test_stale_coverage_class(self):
        import repro.store.fingerprint as fp

        coverage = dict(fp.FINGERPRINT_COVERAGE)
        coverage["GhostSpec"] = {"x": "hashed"}
        findings = check_fingerprint_coverage(coverage=coverage)
        assert {f.rule for f in findings} == {"fpr-stale-entry"}
        assert "GhostSpec" in findings[0].message

    def test_stale_field_and_stale_exemption(self):
        import repro.store.fingerprint as fp

        coverage = {name: dict(table) for name, table in
                    fp.FINGERPRINT_COVERAGE.items()}
        coverage["RunSpec"]["vanished"] = "hashed"
        findings = check_fingerprint_coverage(
            coverage=coverage, exempt={("RunSpec", "also_gone"): "why"},
        )
        assert {f.rule for f in findings} == {"fpr-stale-entry"}
        messages = " | ".join(f.message for f in findings)
        assert "vanished" in messages and "also_gone" in messages

    def test_hashed_claim_must_match_the_code(self):
        # An empty canonicaliser cannot be reading any field: every 'hashed'
        # claim (and the asdict wildcard) becomes a lie.
        findings = check_fingerprint_coverage(fingerprint_source="x = 1\n")
        fired = {f.rule for f in findings}
        assert fired == {"fpr-unread-field"}
        assert any("RunSpec.strategy" in f.message for f in findings)
        assert any("asdict" in f.message for f in findings)


# --------------------------------------------------------------------------- #
# schema drift
# --------------------------------------------------------------------------- #

class TestSchemaDrift:
    def test_live_schemas_match_the_golden(self):
        assert check_schema_drift() == []

    def test_added_field_is_drift(self):
        current = current_schemas()
        golden = json.loads(json.dumps(current))  # deep copy
        current["RunSpec"]["fields"]["notes"] = {"type": "str", "default": "''"}
        findings = check_schema_drift(current=current, golden=golden)
        assert {f.rule for f in findings} == {"schema-drift"}
        assert "RunSpec.notes" in findings[0].message

    def test_changed_default_is_drift(self):
        current = current_schemas()
        golden = json.loads(json.dumps(current))
        golden["RunSpec"]["fields"]["seed"]["default"] = "7"
        findings = check_schema_drift(current=current, golden=golden)
        assert {f.rule for f in findings} == {"schema-drift"}
        assert "default" in findings[0].message

    def test_removed_class_is_missing_golden(self):
        current = current_schemas()
        golden = {name: schema for name, schema in current.items()
                  if name != "RunSpec"}
        findings = check_schema_drift(current=current, golden=golden)
        assert {f.rule for f in findings} == {"schema-missing-golden"}
        assert "RunSpec" in findings[0].message

    def test_missing_golden_file(self, monkeypatch):
        import repro.analysis.schema_drift as sd

        def _raise(path=None):
            raise FileNotFoundError("no golden")

        monkeypatch.setattr(sd, "load_golden", _raise)
        findings = sd.check_schema_drift()
        assert {f.rule for f in findings} == {"schema-missing-golden"}

    def test_golden_round_trip(self, tmp_path):
        golden_file = write_golden(tmp_path / "golden.json")
        assert load_golden(golden_file) == current_schemas()

    def test_spec_schema_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            spec_schema(int)


# --------------------------------------------------------------------------- #
# suppressions and baseline
# --------------------------------------------------------------------------- #

class TestSuppressionsAndBaseline:
    def test_suppression_comment_parsing(self):
        source = (
            "x = 1\n"
            "y = f()  # repro: allow[det-wall-clock, det-env-branch]\n"
            "z = g()  # repro: allow[fpr-uncovered-field]\n"
        )
        table = suppressed_rules_by_line(source)
        assert table == {
            2: frozenset({"det-wall-clock", "det-env-branch"}),
            3: frozenset({"fpr-uncovered-field"}),
        }

    def test_split_suppressed_honours_both_channels(self):
        findings = [
            Finding("det-wall-clock", "a.py", 2, "clock"),
            Finding("det-env-branch", "a.py", 5, "env"),
            Finding("det-set-iteration", "b.py", 1, "set"),
        ]
        sources = {"a.py": "x\ny  # repro: allow[det-wall-clock]\n"}
        baseline = frozenset({("det-set-iteration", "b.py", "set")})
        kept, suppressed, baselined = split_suppressed(
            findings, source_cache=sources, baseline=baseline
        )
        assert [f.rule for f in kept] == ["det-env-branch"]
        assert suppressed == 1
        assert baselined == 1

    def test_baseline_round_trip_ignores_lines(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [Finding("det-wall-clock", "a.py", 42, "m")])
        keys = load_baseline(baseline_file)
        assert keys == frozenset({("det-wall-clock", "a.py", "m")})

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text("{\"oops\": true}")
        with pytest.raises(ValueError, match="malformed"):
            load_baseline(baseline_file)

    def test_run_check_applies_a_written_baseline(self, tmp_path):
        fixture = FIXTURES / "det_wall_clock.py"
        first = run_check(paths=[fixture])
        assert first.findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, first.findings)
        second = run_check(paths=[fixture], baseline=baseline_file)
        assert second.findings == []
        assert second.baselined == len(first.findings)
        assert second.ok


# --------------------------------------------------------------------------- #
# orchestrator + CLI end-to-end
# --------------------------------------------------------------------------- #

class TestRunCheckEndToEnd:
    def test_repo_tree_passes_strict(self):
        # The acceptance bar: the repo's own code is clean under all four
        # analyzers (modulo the committed suppressions/baseline).
        report = run_check()
        assert report.errors == []
        assert report.analyzers == ("determinism", "registry", "fingerprint", "schema")
        assert report.findings == [], "\n".join(f.format() for f in report.findings)
        assert report.ok
        assert report.files_scanned > 30

    def test_only_filter_and_unknown_rule(self):
        report = run_check(paths=[FIXTURES / "det_wall_clock.py"],
                           only=["det-env-branch"])
        assert report.findings == []
        with pytest.raises(ValueError, match="unknown rule id"):
            run_check(only=["not-a-rule"])

    def test_render_text_and_json(self):
        report = run_check(paths=[FIXTURES / "det_wall_clock.py"])
        text = render_text(report)
        assert "det-wall-clock" in text and "finding(s)" in text
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["counts"]["det-wall-clock"] == len(report.findings)
        clean = CheckReport(findings=[], files_scanned=3)
        assert "check ok" in render_text(clean)

    def test_cli_strict_passes_on_repo(self, capsys):
        assert cli.main(["check", "--strict"]) == 0
        assert "check ok" in capsys.readouterr().out

    def test_cli_strict_fails_on_fixture(self, capsys):
        fixture = str(FIXTURES / "det_unseeded_random.py")
        assert cli.main(["check", "--strict", fixture]) == 1
        out = capsys.readouterr().out
        assert "det-unseeded-random" in out
        # without --strict the same findings are reported but do not gate
        assert cli.main(["check", fixture]) == 0

    def test_cli_json_report(self, capsys):
        fixture = str(FIXTURES / "det_env_branch.py")
        assert cli.main(["check", "--json", fixture]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert set(payload["counts"]) == {"det-env-branch"}

    def test_cli_rules_listing(self, capsys):
        assert cli.main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_cli_unknown_only_rule_is_usage_error(self, capsys):
        assert cli.main(["check", "--only", "bogus-rule"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_cli_write_baseline_then_clean(self, tmp_path, capsys):
        fixture = str(FIXTURES / "det_set_iteration.py")
        baseline = str(tmp_path / "baseline.json")
        assert cli.main(["check", fixture, "--baseline", baseline,
                         "--write-baseline"]) == 0
        capsys.readouterr()
        assert cli.main(["check", "--strict", fixture, "--baseline", baseline]) == 0
        assert "check ok" in capsys.readouterr().out
