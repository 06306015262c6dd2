"""Command-line interface: simulate, run declarative specs, sweep, or regenerate figures.

Examples
--------
Run one strategy on a random scenario and print the interval metrics::

    python -m repro simulate --strategy b-tctp --targets 20 --mules 4 --seed 3

Pick any registered scenario family (see ``python -m repro scenarios``)::

    python -m repro simulate --scenario corridor:num_targets=24,gap_fraction=0.4
    python -m repro sweep --scenario ring:num_vips=2 --strategies b-tctp,w-tctp

Execute a declarative run/campaign spec authored as a JSON file::

    python -m repro run spec.json --workers 4 --json

Sweep several strategies over seeded replications, in parallel::

    python -m repro sweep --strategies b-tctp,sweep --replications 8 --workers 4 --json

Resume a sweep from the persistent result store, with progress on stderr::

    python -m repro sweep --strategies chb,b-tctp --store ~/.cache/repro-store --progress

Inspect / aggregate the store across past campaigns (see ``docs/STORE.md``)::

    python -m repro store stats
    python -m repro report --by strategy --metrics average_sd

List what is available (strategies, scenario families + parameters)::

    python -m repro strategies
    python -m repro scenarios --json

Run the static self-checking analyzers (registry contracts, determinism,
fingerprint coverage, spec-schema drift — see ``docs/ANALYSIS.md``)::

    python -m repro check --strict
    python -m repro check --rules
    python -m repro check src/repro/sim/engine.py

Regenerate the paper's figures (full protocol, 20 replications)::

    python -m repro fig7
    python -m repro fig8 --quick --workers 4   # small/quick variant, 4 processes
    python -m repro fig9
    python -m repro fig10

Extension experiments (energy lifetimes and the ablation studies)::

    python -m repro energy
    python -m repro ablation-init
    python -m repro ablation-tsp
    python -m repro ablation-mules

Every subcommand is documented with examples in ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Sequence

from repro.baselines.base import (
    available_strategies,
    filter_strategy_kwargs,
    get_strategy,
    strategy_info,
    strategy_params,
)
from repro.experiments import ExperimentSettings
from repro.experiments import (
    ablation_init,
    ablation_mules,
    ablation_tsp,
    ext_energy,
    fig10_policy_sd,
    fig7_dcdt,
    fig8_sd,
    fig9_policy_dcdt,
)
from repro.experiments.reporting import format_table, print_report
from repro.runner import Campaign, CampaignResult, CampaignSpec, RunSpec, load_spec
from repro.scenarios import ScenarioSpec, spec_from_scenario_config
from repro.planning.spec import parse_param_value, split_stage_params
from repro.planning.stages import canonical_stage_backend
from repro.scenarios.registry import all_scenario_infos
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.metrics import average_dcdt, average_sd, interval_statistics, max_visiting_interval
from repro.store import MergeConflictError, ResultStore, default_store, parse_filter_expression
from repro.store.report import (
    entry_rows,
    export_records_csv,
    export_records_json,
    store_stats_payload,
    summarize_records,
)
from repro.workloads.generator import ScenarioConfig

__all__ = ["main", "build_parser"]


_FIGURE_RUNNERS: dict[str, Callable] = {
    "fig7": fig7_dcdt.main,
    "fig8": fig8_sd.main,
    "fig9": fig9_policy_dcdt.main,
    "fig10": fig10_policy_sd.main,
    "energy": ext_energy.main,
    "ablation-init": ablation_init.main,
    "ablation-tsp": ablation_tsp.main,
    "ablation-mules": ablation_mules.main,
}

# One accurate help line per figure/extension command (shown by --help and
# documented with examples in docs/CLI.md).
_FIGURE_HELP: dict[str, str] = {
    "fig7": "reproduce Figure 7: DCDT per visit index (Random/Sweep/CHB/B-TCTP)",
    "fig8": "reproduce Figure 8: average SD over the (#targets, #mules) grid",
    "fig9": "reproduce Figure 9: W-TCTP policy DCDT over (#VIPs, VIP weight)",
    "fig10": "reproduce Figure 10: W-TCTP policy SD over (#VIPs, VIP weight)",
    "energy": "extension: W-TCTP vs RW-TCTP battery lifetime and deliveries",
    "ablation-init": "ablation: what B-TCTP's location initialisation contributes",
    "ablation-tsp": "ablation: tour-construction heuristics (hull/NN/Christofides/2-opt)",
    "ablation-mules": "ablation: visiting-interval scaling with the number of mules",
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default=None, metavar="FAMILY[:k=v,...]",
                        help="scenario family spec, e.g. 'ring:num_targets=24,num_vips=2' "
                             "(see the 'scenarios' command); overrides the legacy "
                             "--targets/--mules/--clustered flags")
    parser.add_argument("--targets", type=int, default=20)
    parser.add_argument("--mules", type=int, default=4)
    parser.add_argument("--vips", type=int, default=0)
    parser.add_argument("--vip-weight", type=int, default=2)
    parser.add_argument("--policy", default="balanced", choices=["shortest", "balanced"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=float, default=60_000.0)
    parser.add_argument("--battery", type=float, default=None)
    parser.add_argument("--recharge", action="store_true", help="place a recharge station")
    parser.add_argument("--clustered", action="store_true", help="use disconnected target clusters")


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Resumable-execution flags shared by the run/sweep subcommands."""
    parser.add_argument("--store", nargs="?", const=True, default=None, metavar="DIR",
                        help="resume from / write back to a persistent result store; "
                             "with no DIR, uses $REPRO_STORE_DIR (or the user cache "
                             "directory)")
    parser.add_argument("--no-store", action="store_true",
                        help="never touch a result store, even when REPRO_STORE_DIR is set")
    parser.add_argument("--progress", action="store_true",
                        help="print done/total progress (and store hits/misses) to stderr")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-patrol",
        description="Reproduction of the ICPP 2011 data-mule patrolling paper "
                    "(B-TCTP / W-TCTP / RW-TCTP).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one strategy on one generated scenario")
    sim.add_argument("--strategy", default="b-tctp", choices=available_strategies())
    sim.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="extra strategy parameter (repeatable), e.g. "
                          "--param tour=cluster-first with --strategy pipeline")
    _add_scenario_arguments(sim)
    sim.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    run = sub.add_parser("run", help="execute a declarative RunSpec / CampaignSpec JSON file")
    run.add_argument("spec", help="path to the spec file (see repro.runner.load_spec)")
    run.add_argument("--workers", type=int, default=None,
                     help="fan campaign cells out over this many processes")
    run.add_argument("--json", action="store_true", help="emit the tidy records as JSON")
    run.add_argument("--out", default=None, help="also save records (+ spec) to this JSON file")
    run.add_argument("--csv", default=None, help="also export the scalar columns to this CSV file")
    _add_store_arguments(run)

    sweep = sub.add_parser(
        "sweep", help="cross strategies with seeded replications and run them as a campaign"
    )
    sweep.add_argument("--strategies", default="b-tctp",
                       help="comma-separated registry names, e.g. 'b-tctp,sweep,chb'")
    sweep.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="extra shared strategy parameter (repeatable); each "
                            "strategy keeps the subset it declares")
    sweep.add_argument("--replications", type=int, default=4)
    sweep.add_argument("--workers", type=int, default=None)
    _add_scenario_arguments(sweep)
    sweep.add_argument("--json", action="store_true", help="emit the tidy records as JSON")
    sweep.add_argument("--out", default=None, help="also save records (+ spec) to this JSON file")
    sweep.add_argument("--csv", default=None, help="also export the records to this CSV file")
    sweep.add_argument("--spec-out", default=None,
                       help="write the generated CampaignSpec to this JSON file and exit")
    _add_store_arguments(sweep)

    for name in _FIGURE_RUNNERS:
        p = sub.add_parser(name, help=_FIGURE_HELP[name])
        p.add_argument("--quick", action="store_true",
                       help="small replication count / short horizon (for smoke runs)")
        p.add_argument("--replications", type=int, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="fan replication cells out over this many processes")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    lst = sub.add_parser(
        "strategies",
        help="list the registered strategies (aliases, parameters, pipeline composition)",
    )
    lst.add_argument("--json", action="store_true")

    fams = sub.add_parser(
        "scenarios", help="list the registered scenario families and their parameters"
    )
    fams.add_argument("--json", action="store_true")

    trans = sub.add_parser(
        "transports", help="list the registered serve-daemon transports and their options"
    )
    trans.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the simulation service daemon: accept RunSpec/CampaignSpec "
             "over a transport, coalesce duplicate in-flight work, stream "
             "NDJSON results (see docs/SERVICE.md)",
    )
    serve.add_argument("--transport", default="http",
                       help="registered transport name (see the 'transports' "
                            "command); default: http")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (http transport); 0.0.0.0 exposes "
                            "the daemon beyond loopback")
    serve.add_argument("--port", type=int, default=8422,
                       help="TCP port (http transport); 0 picks an ephemeral port")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads executing cells (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max admitted-but-unfinished cells; a request whose "
                            "new cells do not fit is rejected with 429 + "
                            "Retry-After (default: 64)")
    serve.add_argument("--store", nargs="?", const=True, default=None, metavar="DIR",
                       help="serve cached records from / write results to this "
                            "result store; with no DIR, uses $REPRO_STORE_DIR "
                            "(or the user cache directory)")
    serve.add_argument("--no-store", action="store_true",
                       help="serve without a result store (in-flight coalescing "
                            "still deduplicates concurrent identical requests)")

    shard = sub.add_parser(
        "shard",
        help="split a campaign into disjoint resumable shards and run them "
             "(shard -> run anywhere -> store merge; see docs/SHARDING.md)",
    )
    shard.add_argument("action", choices=["create", "run"],
                       help="create: write a shard manifest from a campaign spec; "
                            "run: execute one shard of a manifest")
    shard.add_argument("target", metavar="FILE",
                       help="campaign spec JSON (create) or shard manifest JSON (run)")
    shard.add_argument("--num-shards", type=int, default=None, metavar="N",
                       help="create: how many disjoint shards to split into")
    shard.add_argument("--out", "-o", default=None, metavar="FILE",
                       help="create: where to write the manifest (default: stdout)")
    shard.add_argument("--index", type=int, default=None, metavar="I",
                       help="run: which shard of the manifest to execute")
    shard.add_argument("--workers", type=int, default=None,
                       help="run: execute the shard's cells over N worker processes")
    shard.add_argument("--json", action="store_true",
                       help="run: emit the shard's records as JSON")
    _add_store_arguments(shard)

    store = sub.add_parser(
        "store", help="inspect / maintain the persistent result store (see docs/STORE.md)"
    )
    store.add_argument("action", choices=["list", "stats", "gc", "clear", "export", "merge"],
                       help="list entries, show stats, sweep stale entries, drop "
                            "everything, export stored records to CSV/JSON, or "
                            "merge shard stores into this one")
    store.add_argument("--dir", default=None, metavar="DIR",
                       help="store directory (default: $REPRO_STORE_DIR)")
    store.add_argument("--strategy", default=None,
                       help="list/export: filter by strategy registry name")
    store.add_argument("--family", default=None, help="list/export: filter by scenario family")
    store.add_argument("--where", action="append", metavar="KEY=VALUE",
                       help="list/export: extra record/spec filter (repeatable): key=value, "
                            "key=lo..hi (inclusive range) or key=a|b|c (membership)")
    store.add_argument("--limit", type=int, default=None,
                       help="list/export: cap the number of entries")
    store.add_argument("--max-age-days", type=float, default=None,
                       help="gc: also remove entries older than this many days")
    store.add_argument("--keep-other-versions", action="store_true",
                       help="gc: keep entries written by other library versions")
    store.add_argument("--out", default=None, help="export: write records to this JSON file")
    store.add_argument("--csv", default=None, help="export: write records to this CSV file")
    store.add_argument("--from-dir", dest="from_dir", nargs="+", default=None, metavar="DIR",
                       help="merge: shard store directories to union into the "
                            "--dir store (duplicates are benign; conflicting "
                            "records for one fingerprint abort the merge)")
    store.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    check = sub.add_parser(
        "check",
        help="run the static self-checking analyzers (registry contracts, "
             "determinism, fingerprint coverage, schema drift; see docs/ANALYSIS.md)",
    )
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="lint only these files/directories (determinism "
                            "rules only); default: the whole tree, all analyzers")
    check.add_argument("--strict", action="store_true",
                       help="exit nonzero when any finding survives "
                            "suppressions and the baseline (the CI gate)")
    check.add_argument("--only", default=None, metavar="RULES",
                       help="comma-separated rule ids to run (see --rules)")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline file of tolerated findings "
                            "(default: .repro-analysis-baseline.json when present)")
    check.add_argument("--write-baseline", action="store_true",
                       help="write the current findings to the baseline file and exit")
    check.add_argument("--write-golden", action="store_true",
                       help="re-record the golden spec schemas and exit")
    check.add_argument("--rules", action="store_true",
                       help="list the rule catalog and exit")
    check.add_argument("--json", action="store_true",
                       help="emit the machine-readable report (the CI artifact format)")

    report = sub.add_parser(
        "report",
        help="aggregate stored records across past campaigns (group means per strategy/...)",
    )
    report.add_argument("--dir", default=None, metavar="DIR",
                        help="store directory (default: $REPRO_STORE_DIR)")
    report.add_argument("--strategy", default=None, help="filter by strategy registry name")
    report.add_argument("--family", default=None, help="filter by scenario family")
    report.add_argument("--where", action="append", metavar="KEY=VALUE",
                        help="extra record/spec filter (repeatable): key=value, "
                             "key=lo..hi or key=a|b|c")
    report.add_argument("--metrics", default="average_dcdt,average_sd",
                        help="comma-separated record columns to average")
    report.add_argument("--by", default="strategy",
                        help="comma-separated grouping columns (default: strategy)")
    report.add_argument("--limit", type=int, default=None, help="cap the number of entries")
    report.add_argument("--csv", default=None, help="also write the summary table to this CSV file")
    report.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    report.add_argument("--timing", action="append", metavar="CAMPAIGN_JSON",
                        help="instead of store aggregation: show the plan-time vs "
                             "sim-time wall-clock split of saved campaign artifacts "
                             "(repeatable; reads the metadata.timing block that "
                             "Campaign.run records when observability is enabled)")
    report.add_argument("--dispatch", action="append", metavar="CAMPAIGN_JSON",
                        help="instead of store aggregation: show the per-reason "
                             "fastpath/batchpath dispatch outcomes of saved campaign "
                             "artifacts (repeatable; reads the metadata.obs block "
                             "recorded when observability is enabled)")

    obs = sub.add_parser(
        "obs",
        help="inspect observability artifacts: campaign metadata.obs summaries "
             "and span logs (see docs/OBSERVABILITY.md)",
    )
    obs.add_argument("artifact", metavar="FILE",
                     help="a campaign artifact JSON (from run/sweep --out with "
                          "observability on) or a .spans.jsonl span log")
    obs.add_argument("--trace", default=None, metavar="OUT.json",
                     help="span-log input only: also write a Chrome Trace Event "
                          "JSON file (load it at https://ui.perfetto.dev)")
    obs.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    settings = ExperimentSettings.quick() if args.quick else ExperimentSettings()
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.workers is not None:
        overrides["max_workers"] = args.workers
    if overrides:
        settings = dataclasses.replace(settings, **overrides)
    return settings


def _strategy_needs_recharge(name: str, extra_params: "dict | None" = None) -> bool:
    """Whether the strategy's pipeline composition weaves in a recharge station.

    ``extra_params`` are explicit ``--param`` overrides: a ``pipeline``
    strategy invoked with ``--param augment=recharge`` needs a station even
    though its *default* composition does not.
    """
    augment_override = (extra_params or {}).get("augment")
    if augment_override is not None or "augment" in (extra_params or {}):
        try:
            from repro.planning.spec import StageSpec

            spec = StageSpec.coerce(augment_override)
            return canonical_stage_backend("augment", spec.name) == "recharge"
        except (ValueError, TypeError):
            return False  # malformed overrides get their own error downstream
    try:
        info = strategy_info(name)
    except ValueError:
        return False  # unknown names get their own, clearer error downstream
    if info.composition is not None:
        try:
            return canonical_stage_backend("augment", info.composition.augment.name) == "recharge"
        except ValueError:  # pragma: no cover - composition with custom backend
            return False
    return name.replace("_", "-").startswith("rw")


def _scenario_config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    try:
        extra = _extra_strategy_params(args)
    except ValueError:
        extra = {}  # malformed --param entries surface from the main path
    needs_recharge = args.recharge or any(
        _strategy_needs_recharge(s, extra) for s in _strategies_from_args(args)
    )
    return ScenarioConfig(
        num_targets=args.targets,
        num_mules=args.mules,
        num_vips=args.vips,
        vip_weight=args.vip_weight,
        distribution="clustered" if args.clustered else "uniform",
        mule_battery=args.battery if args.battery is not None else (200_000.0 if needs_recharge else None),
        with_recharge_station=needs_recharge,
        mule_placement="random",
    )


def _parse_scenario_option(raw: str) -> ScenarioSpec:
    """Parse ``--scenario FAMILY[:key=val,...]`` into a validated spec."""
    family, _, rest = raw.partition(":")
    family = family.strip()
    if not family:
        raise ValueError(
            "--scenario needs a family name, e.g. 'ring' or 'ring:num_targets=24'"
        )
    params = {}
    for item in split_stage_params(rest):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(
                f"--scenario parameter {item!r} must look like key=value"
            )
        params[key.strip()] = parse_param_value(value.strip())
    return ScenarioSpec(family=family, params=params).validate()


def _extra_strategy_params(args: argparse.Namespace) -> dict:
    """Parse repeated ``--param KEY=VALUE`` flags into a params dict."""
    params: dict = {}
    for item in getattr(args, "param", None) or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--param {item!r} must look like key=value")
        params[key.strip()] = parse_param_value(value.strip())
    return params


def _scenario_spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario of a simulate/sweep invocation (``--scenario`` wins)."""
    if getattr(args, "scenario", None):
        return _parse_scenario_option(args.scenario)
    return spec_from_scenario_config(_scenario_config_from_args(args))


def _strategies_from_args(args: argparse.Namespace) -> list[str]:
    raw = getattr(args, "strategies", None)
    if raw is None:  # not the sweep command; an empty --strategies must NOT fall through
        raw = getattr(args, "strategy", "b-tctp")
    return [s.strip() for s in raw.split(",") if s.strip()]


def _strategy_kwargs(strategy: str, args: argparse.Namespace) -> dict:
    """CLI flags a strategy declares it accepts — no per-strategy special-casing."""
    return filter_strategy_kwargs(strategy, {"policy": args.policy, "seed": args.seed})


def _run_simulate(args: argparse.Namespace) -> int:
    try:
        kwargs = _strategy_kwargs(args.strategy, args)
        # Explicit --param entries are NOT filtered: a typo must surface.
        kwargs.update(_extra_strategy_params(args))
        planner = get_strategy(args.strategy, **kwargs)
        spec = _scenario_spec_from_args(args)
        scenario = spec.build(args.seed)
        # Plan-time failures (missing recharge station, incompatible stage
        # combinations, ...) are configuration errors, not bugs: clean exit 2.
        plan = planner.plan(scenario)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = PatrolSimulator(scenario, plan, SimulationConfig(horizon=args.horizon)).run()

    stats = interval_statistics(result)
    payload = {
        "strategy": plan.strategy,
        "scenario": scenario.name,
        "num_targets": scenario.num_targets,
        "num_mules": scenario.num_mules,
        "average_dcdt": average_dcdt(result),
        "average_sd": average_sd(result),
        "max_visiting_interval": max_visiting_interval(result),
        "delivered_data": result.total_delivered_data(),
        "total_distance": result.total_distance(),
        "dead_mules": result.dead_mules(),
        **{f"interval_{k}": v for k, v in stats.items()},
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [[k, v] for k, v in payload.items()]
        print_report(format_table(["metric", "value"], rows,
                                  title=f"Simulation of {plan.strategy} on {scenario.name}"))
    return 0


def _cli_store_arg(args: argparse.Namespace):
    """The ``store=`` value of a run/sweep invocation (``--no-store`` wins)."""
    if getattr(args, "no_store", False):
        return False
    return getattr(args, "store", None)


def _progress_callback(args: argparse.Namespace):
    """``progress(done, total)`` printer for ``--progress`` (stderr), else None."""
    if not getattr(args, "progress", False):
        return None

    def _print_progress(done: int, total: int) -> None:
        print(f"progress: {done}/{total}", file=sys.stderr)

    return _print_progress


def _report_store_counts(result: CampaignResult, args: argparse.Namespace) -> None:
    info = result.metadata.get("store")
    if info and getattr(args, "progress", False):
        print(f"store: {info['hits']} hits, {info['misses']} misses ({info['root']})",
              file=sys.stderr)
    _report_timing_counts(result, args)


def _report_timing_counts(result: CampaignResult, args: argparse.Namespace) -> None:
    """``--progress`` stderr line for the plan-time vs sim-time split."""
    info = result.metadata.get("timing")
    if info and getattr(args, "progress", False) and info.get("cells_timed"):
        print(
            f"timing: planning {info['planning_s']:.3f}s, "
            f"simulation {info['simulation_s']:.3f}s "
            f"({info['cells_timed']} cells timed)",
            file=sys.stderr,
        )


def _write_span_artifacts(result: CampaignResult, out: str) -> None:
    """``<out stem>.spans.jsonl`` + ``<out stem>.trace.json`` next to ``--out``.

    Only written when the campaign recorded an ``obs`` metadata block (the
    registry was on) and spans survived in the process registry — i.e. a
    plain run without ``REPRO_OBS=1`` / ``sim.obs`` writes nothing extra.
    """
    from pathlib import Path

    from repro import obs as _obs_pkg

    if not result.metadata.get("obs"):
        return
    spans = _obs_pkg.spans()
    if not spans:
        return
    stem = Path(out).with_suffix("")
    log_path = stem.with_suffix(".spans.jsonl")
    trace_path = stem.with_suffix(".trace.json")
    _obs_pkg.write_span_log(log_path, spans)
    _obs_pkg.write_trace(trace_path, spans)
    print(f"obs: wrote {len(spans)} spans to {log_path} and a Chrome trace "
          f"to {trace_path}", file=sys.stderr)


def _emit_campaign_result(result: CampaignResult, args: argparse.Namespace, title: str) -> None:
    if args.out:
        result.save_json(args.out)
        _write_span_artifacts(result, args.out)
    if args.csv:
        result.save_csv(args.csv)
    if args.json:
        print(result.to_json())
        return
    headers, rows = result.to_rows(scalar_only=True)
    print_report(format_table(headers, rows, title=title))
    summary = result.group_mean("average_dcdt", by="strategy")
    sd = result.group_mean("average_sd", by="strategy")
    print_report(format_table(
        ["strategy", "mean DCDT (s)", "mean SD (s)"],
        [[name, summary[name], sd[name]] for name in sorted(summary)],
        title="Summary over replications",
    ))


def _run_spec_file(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.spec)
        if isinstance(spec, RunSpec):
            spec.validate()  # a typo'd param in a hand-written spec must surface
        campaign = Campaign(spec, max_workers=args.workers)
        campaign.cells()  # spec-shaped failures (bad axes/params) get the clean error
    except (FileNotFoundError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Execution errors are bugs, not bad specs — let them traceback.
    result = campaign.run(progress=_progress_callback(args), store=_cli_store_arg(args))
    _report_store_counts(result, args)
    kind = "campaign" if isinstance(spec, CampaignSpec) else "run"
    _emit_campaign_result(result, args, title=f"Records of {kind} spec {args.spec}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    strategies = _strategies_from_args(args)
    if not strategies:
        print("error: --strategies must name at least one strategy", file=sys.stderr)
        return 2
    try:
        for strategy in strategies:
            strategy_params(strategy)  # fail fast on unknown names, before any simulation
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shared = {"policy": args.policy} if any(
        "policy" in strategy_params(s) for s in strategies
    ) else {}
    try:
        shared.update(_extra_strategy_params(args))
        base = RunSpec(
            strategy=strategies[0],
            scenario=_scenario_spec_from_args(args),
            params=shared,
            sim=SimulationConfig(horizon=args.horizon),
            seed=args.seed,
        )
        spec = CampaignSpec(
            base=base,
            grid={"strategy": strategies},
            replications=args.replications,
        )
        campaign = Campaign(spec, max_workers=args.workers)
        campaign.cells()  # typo'd scenario family/params fail before simulating
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.spec_out:
        from repro.store.io import atomic_write_text

        atomic_write_text(args.spec_out, spec.to_json() + "\n")
        print(f"wrote campaign spec to {args.spec_out}")
        return 0
    result = campaign.run(progress=_progress_callback(args), store=_cli_store_arg(args))
    _report_store_counts(result, args)
    _emit_campaign_result(
        result, args,
        title=f"Sweep of {', '.join(strategies)} x {args.replications} replications",
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "run":
        return _run_spec_file(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "strategies":
        return _run_strategies_listing(args)
    if args.command == "scenarios":
        return _run_scenarios_listing(args)
    if args.command == "transports":
        return _run_transports_listing(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "shard":
        return _run_shard_command(args)
    if args.command == "store":
        return _run_store_command(args)
    if args.command == "report":
        return _run_report_command(args)
    if args.command == "obs":
        return _run_obs_command(args)
    if args.command == "check":
        return _run_check_command(args)
    if args.command in _FIGURE_RUNNERS:
        settings = _settings_from_args(args)
        data = _FIGURE_RUNNERS[args.command](settings)
        if getattr(args, "json", False):
            print(json.dumps(_jsonable(data), indent=2, sort_keys=True))
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _run_strategies_listing(args: argparse.Namespace) -> int:
    """List the registered strategies: aliases, params, pipeline composition."""
    strategies = []
    for name in available_strategies(include_aliases=False):
        info = strategy_info(name)
        composition = info.composition
        strategies.append({
            "name": info.name,
            "aliases": list(info.aliases),
            "description": info.description,
            "params": sorted(info.params),
            "composition": composition.to_dict() if composition is not None else None,
        })
    if args.json:
        print(json.dumps({"strategies": strategies}, indent=2, default=str))
        return 0
    rows = []
    for entry in strategies:
        name = entry["name"] + (
            f" ({', '.join(entry['aliases'])})" if entry["aliases"] else ""
        )
        composition = entry["composition"]
        if composition is not None:
            stages = " | ".join(
                c if isinstance(c, str) else c["name"]
                for c in (composition[k] for k in ("tour", "augment", "order", "init"))
            )
        else:
            stages = "-"
        rows.append([name, entry["description"],
                     ", ".join(entry["params"]) or "(none)", stages])
    print_report(format_table(
        ["strategy (aliases)", "description", "parameters",
         "pipeline (tour | augment | order | init)"],
        rows, title="Registered strategies",
    ))
    return 0


def _run_scenarios_listing(args: argparse.Namespace) -> int:
    """List the registered scenario families (mirror of the strategy listing)."""
    return _print_param_listing(
        args, all_scenario_infos(), key="families", params_key="params",
        headers=["family (aliases)", "description", "parameters"],
        title="Registered scenario families",
    )


def _run_transports_listing(args: argparse.Namespace) -> int:
    """List the registered serve-daemon transports (mirror of 'scenarios')."""
    # Lazy import: only the service subcommands need the service package.
    from repro.service import all_transport_infos

    return _print_param_listing(
        args, all_transport_infos(), key="transports", params_key="options",
        headers=["transport (aliases)", "description", "options"],
        title="Registered serve transports",
    )


def _print_param_listing(
    args: argparse.Namespace, infos: dict, *, key: str, params_key: str,
    headers: list[str], title: str,
) -> int:
    """Print a registry whose entries declare :class:`repro.registry.Param` tables."""
    entries = [
        {
            "name": name,
            "aliases": list(info.aliases),
            "description": info.description,
            params_key: [
                {
                    "name": p.name,
                    "kind": p.kind,
                    **({} if p.required else {"default": p.default}),
                    "required": p.required,
                }
                for p in info.params.values()
            ],
        }
        for name, info in sorted(infos.items())
    ]
    if args.json:
        print(json.dumps({key: entries}, indent=2, default=str))
        return 0
    rows = []
    for entry in entries:
        signature = ", ".join(
            p["name"] if p["required"] else f"{p['name']}={p['default']}"
            for p in entry[params_key]
        )
        name = entry["name"] + (
            f" ({', '.join(entry['aliases'])})" if entry["aliases"] else ""
        )
        rows.append([name, entry["description"], signature or "(none)"])
    print_report(format_table(headers, rows, title=title))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the simulation service daemon until interrupted."""
    from repro.service import ServiceScheduler, filter_transport_kwargs, get_transport

    try:
        scheduler = ServiceScheduler(
            store=_cli_store_arg(args),
            workers=args.workers,
            queue_limit=args.queue_limit,
        )
        # One shared flag set; each transport keeps the options it declares
        # (stdio takes neither --host nor --port).
        options = filter_transport_kwargs(
            args.transport, {"host": args.host, "port": args.port}
        )
        transport = get_transport(args.transport, scheduler, **options)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = scheduler.store
    backing = "no result store (coalescing only)" if store is None \
        else f"result store at {store.root}"
    endpoint = getattr(transport, "url", f"transport {args.transport!r}")
    print(f"serving on {endpoint}: {args.workers} worker(s), "
          f"queue limit {args.queue_limit}, {backing}", file=sys.stderr)
    try:
        transport.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        scheduler.shutdown(wait=True)
    return 0


def _run_shard_command(args: argparse.Namespace) -> int:
    """Split a campaign into shards (create) or execute one shard (run)."""
    from repro.runner.sharding import load_manifest, make_manifest, run_shard, write_manifest

    if args.action == "create":
        if args.num_shards is None:
            print("error: shard create needs --num-shards N", file=sys.stderr)
            return 2
        try:
            spec = load_spec(args.target)
            if args.out:
                write_manifest(spec, args.num_shards, args.out)
                manifest = load_manifest(args.out)
            else:
                manifest = make_manifest(spec, args.num_shards)
                print(json.dumps(manifest, indent=2, sort_keys=True))
        except (FileNotFoundError, json.JSONDecodeError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sizes = [len(s["cells"]) for s in manifest["shards"]]
        where = args.out if args.out else "stdout"
        print(f"shard: split {manifest['num_cells']} cells into "
              f"{manifest['num_shards']} shards ({min(sizes)}-{max(sizes)} "
              f"cells each) -> {where}", file=sys.stderr if not args.out else sys.stdout)
        return 0

    # run
    if args.index is None:
        print("error: shard run needs --index I", file=sys.stderr)
        return 2
    try:
        manifest = load_manifest(args.target)
    except (FileNotFoundError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.index < manifest["num_shards"]:
        print(f"error: shard index {args.index} out of range: manifest has "
              f"{manifest['num_shards']} shards", file=sys.stderr)
        return 2
    result = run_shard(
        manifest, args.index,
        store=_cli_store_arg(args), max_workers=args.workers,
        progress=_progress_callback(args),
    )
    _report_store_counts(result, args)
    if args.json:
        print(result.to_json())
    else:
        shard_info = result.metadata["shard"]
        print(f"shard {shard_info['index']}/{shard_info['num_shards']}: "
              f"{len(result)} records")
    return 0


def _open_store(args: argparse.Namespace) -> "ResultStore | None":
    """The store a ``store``/``report`` invocation addresses (``--dir`` wins)."""
    if args.dir:
        return ResultStore(args.dir)
    store = default_store()
    if store is None:
        print("error: no result store configured: pass --dir DIR or set REPRO_STORE_DIR",
              file=sys.stderr)
    return store


def _parse_where(args: argparse.Namespace) -> dict:
    filters = {}
    for item in getattr(args, "where", None) or []:
        key, condition = parse_filter_expression(item)
        filters[key] = condition
    return filters


# Which store-command flags each action consumes; anything else given on the
# command line is a mistake that must not be silently ignored ("store gc
# --strategy chb" scoping a deletion that gc cannot scope).
_STORE_ACTION_FLAGS = {
    "list": ("strategy", "family", "where", "limit"),
    "stats": (),
    "gc": ("max_age_days", "keep_other_versions"),
    "clear": (),
    "export": ("strategy", "family", "where", "limit", "out", "csv"),
    "merge": ("from_dir",),
}
_STORE_FLAG_DEFAULTS = {
    "strategy": None, "family": None, "where": None, "limit": None,
    "max_age_days": None, "keep_other_versions": False, "out": None, "csv": None,
    "from_dir": None,
}


def _reject_unused_store_flags(args: argparse.Namespace) -> "str | None":
    """The first flag the chosen store action would silently ignore, if any."""
    allowed = _STORE_ACTION_FLAGS[args.action]
    for flag, default in _STORE_FLAG_DEFAULTS.items():
        if flag not in allowed and getattr(args, flag) != default:
            return "--" + flag.replace("_", "-")
    return None


def _run_store_command(args: argparse.Namespace) -> int:
    """Maintain the result store: list / stats / gc / clear / export."""
    unused = _reject_unused_store_flags(args)
    if unused is not None:
        print(f"error: {unused} does not apply to 'store {args.action}'", file=sys.stderr)
        return 2
    store = _open_store(args)
    if store is None:
        return 2

    if args.action == "stats":
        # The same document the serve daemon's /stats endpoint embeds — one
        # formatter, two surfaces (see repro.store.report.store_stats_payload).
        stats = store_stats_payload(store)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            rows = [[k, stats[k]] for k in
                    ("root", "entries", "payload_bytes")]
            rows += [[f"entries @ {v}", n] for v, n in sorted(stats["library_versions"].items())]
            print_report(format_table(["stat", "value"], rows, title="Result store"))
        return 0

    if args.action == "list":
        try:
            filters = _parse_where(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if filters:  # content filters need the payloads; plain listings do not
            entries = store.query(strategy=args.strategy, family=args.family,
                                  limit=args.limit, where=filters)
        else:
            entries = store.entries(strategy=args.strategy, family=args.family,
                                    limit=args.limit)
        if args.json:
            payload = [
                {"fingerprint": e.fingerprint, "strategy": e.strategy, "family": e.family,
                 "seed": e.seed, "created_at": e.created_at,
                 "library_version": e.library_version}
                for e in entries
            ]
            print(json.dumps({"entries": payload}, indent=2, sort_keys=True))
        else:
            headers, rows = entry_rows(entries)
            print_report(format_table(headers, rows,
                                      title=f"Stored runs ({len(entries)}) in {store.root}"))
        return 0

    if args.action == "gc":
        removed = store.gc(max_age_days=args.max_age_days,
                           keep_other_versions=args.keep_other_versions)
        print(f"gc: removed {removed} entries from {store.root}")
        return 0

    if args.action == "clear":
        removed = store.clear()
        print(f"clear: removed {removed} entries from {store.root}")
        return 0

    if args.action == "merge":
        if not args.from_dir:
            print("error: store merge needs --from-dir DIR [DIR ...]", file=sys.stderr)
            return 2
        totals = {"merged": 0, "duplicates": 0}
        for source in args.from_dir:
            try:
                counts = store.merge_from(source)
            except MergeConflictError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            totals["merged"] += counts["merged"]
            totals["duplicates"] += counts["duplicates"]
            print(f"merge: {source}: {counts['merged']} merged, "
                  f"{counts['duplicates']} duplicates")
        if args.json:
            print(json.dumps({"root": str(store.root), **totals}, indent=2, sort_keys=True))
        else:
            print(f"merged {totals['merged']} entries "
                  f"({totals['duplicates']} duplicates) into {store.root}")
        return 0

    # export
    try:
        filters = _parse_where(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out and not args.csv:
        print("error: store export needs --out FILE (JSON) and/or --csv FILE", file=sys.stderr)
        return 2
    entries = store.query(strategy=args.strategy, family=args.family,
                          limit=args.limit, where=filters)
    if args.out:
        export_records_json(entries, args.out)
        print(f"wrote {len(entries)} records to {args.out}")
    if args.csv:
        export_records_csv(entries, args.csv)
        print(f"wrote {len(entries)} records to {args.csv}")
    return 0


def _run_check_command(args: argparse.Namespace) -> int:
    """Run the static self-checking analyzers (see docs/ANALYSIS.md)."""
    # Lazy import: the analyzers pull in ast/inspect machinery no other
    # subcommand needs.
    from repro.analysis.check import render_json, render_text, run_check
    from repro.analysis.rules import RULES

    if args.rules:
        if args.json:
            print(json.dumps({"rules": [
                {"id": r.id, "analyzer": r.analyzer, "summary": r.summary}
                for r in RULES
            ]}, indent=2))
        else:
            rows = [[r.id, r.analyzer, r.summary] for r in RULES]
            print_report(format_table(["rule id", "analyzer", "summary"], rows,
                                      title="Analysis rule catalog"))
        return 0

    if args.write_golden:
        from repro.analysis.schema_drift import write_golden

        golden_file = write_golden()
        print(f"wrote golden spec schemas to {golden_file}")
        return 0

    only = None
    if args.only:
        only = [item.strip() for item in args.only.split(",") if item.strip()]
    try:
        # When re-recording the baseline, the old one (which may not even
        # exist yet) must not filter the findings being recorded.
        baseline = None if args.write_baseline else args.baseline
        report = run_check(paths=args.paths or None, only=only, baseline=baseline)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        from repro.analysis.findings import BASELINE_DEFAULT, write_baseline

        baseline_path = args.baseline or BASELINE_DEFAULT
        write_baseline(baseline_path, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return 0

    print(render_json(report) if args.json else render_text(report))
    if args.strict and not report.ok:
        return 1
    return 0


def _report_timing_split(paths: "list[str]", *, as_json: bool) -> int:
    """Plan-time vs sim-time split across saved campaign artifacts.

    ``Campaign.run`` records the ``metadata.timing`` block from its obs
    spans, so only artifacts of campaigns run with observability enabled
    (``REPRO_OBS=1`` or ``sim.obs``) carry one.
    """
    from pathlib import Path

    rows = []
    for path in paths:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read campaign artifact {path}: {exc}", file=sys.stderr)
            return 2
        metadata = payload.get("metadata") or {}
        timing = metadata.get("timing")
        if not timing:
            print(f"error: {path} has no metadata.timing block; re-run the campaign "
                  "with REPRO_OBS=1 (or sim.obs=true)", file=sys.stderr)
            return 2
        planning, simulation = timing["planning_s"], timing["simulation_s"]
        total = planning + simulation
        rows.append({
            "campaign": str(path),
            "cells": metadata.get("num_cells", len(payload.get("records", []))),
            "cells_timed": timing["cells_timed"],
            "planning_s": planning,
            "simulation_s": simulation,
            "planning_share": planning / total if total else None,
        })
    if as_json:
        print(json.dumps({"campaigns": rows}, indent=2, sort_keys=True))
        return 0
    headers = ["campaign", "cells", "cells_timed", "planning_s", "simulation_s",
               "planning_share"]
    table = [
        [r["campaign"], r["cells"], r["cells_timed"],
         f"{r['planning_s']:.3f}", f"{r['simulation_s']:.3f}",
         "" if r["planning_share"] is None else f"{r['planning_share']:.1%}"]
        for r in rows
    ]
    print_report(format_table(headers, table,
                              title=f"Plan vs sim wall-clock over {len(rows)} campaigns"))
    return 0


def _format_obs_labels(labels: "dict | None") -> str:
    return ",".join(f"{key}={value}" for key, value in sorted((labels or {}).items()))


def _dispatch_rows(path: str, obs_doc: dict) -> list[dict]:
    """Per-reason dispatch rows out of one artifact's ``metadata.obs`` block."""
    rows = []
    for counter in obs_doc.get("counters", []):
        if counter.get("name") not in ("sim_dispatch", "batch_dispatch"):
            continue
        labels = counter.get("labels") or {}
        rows.append({
            "campaign": str(path),
            "counter": counter["name"],
            "outcome": labels.get("outcome", ""),
            "reason": labels.get("reason", ""),
            "count": counter.get("value", 0),
        })
    rows.sort(key=lambda r: (r["counter"], r["outcome"], r["reason"]))
    return rows


def _report_dispatch_split(paths: "list[str]", *, as_json: bool) -> int:
    """Fastpath/batchpath dispatch outcomes across saved campaign artifacts.

    The ``run``/``sweep`` side of the story: with observability enabled
    (``REPRO_OBS=1`` or ``sim.obs``), ``Campaign.run`` embeds the registry
    snapshot in ``metadata.obs``; this renders its ``sim_dispatch`` /
    ``batch_dispatch`` counters — which cells took a vectorized path and,
    for the ones that fell back, the per-reason breakdown.
    """
    from pathlib import Path

    rows = []
    for path in paths:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read campaign artifact {path}: {exc}", file=sys.stderr)
            return 2
        obs_doc = (payload.get("metadata") or {}).get("obs")
        if not obs_doc:
            print(f"error: {path} has no metadata.obs block; re-run the campaign "
                  "with REPRO_OBS=1 (or sim.obs=true) to record dispatch counters",
                  file=sys.stderr)
            return 2
        rows.extend(_dispatch_rows(path, obs_doc))
    if as_json:
        print(json.dumps({"dispatch": rows}, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no dispatch counters recorded (the campaign ran no simulation cells)")
        return 0
    table = [[r["campaign"], r["counter"], r["outcome"], r["reason"], r["count"]]
             for r in rows]
    print_report(format_table(
        ["campaign", "counter", "outcome", "reason", "count"], table,
        title=f"Dispatch outcomes over {len(paths)} campaigns",
    ))
    return 0


def _obs_artifact_summary(path, payload: dict, *, as_json: bool) -> int:
    """Render the ``metadata.obs`` block of one campaign artifact."""
    obs_doc = (payload.get("metadata") or {}).get("obs")
    if not obs_doc:
        print(f"error: {path} has no metadata.obs block; re-run the campaign "
              "with REPRO_OBS=1 (or sim.obs=true) to record one", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(obs_doc, indent=2, sort_keys=True))
        return 0
    counters = obs_doc.get("counters", [])
    if counters:
        print_report(format_table(
            ["counter", "labels", "value"],
            [[c["name"], _format_obs_labels(c.get("labels")), c.get("value", 0)]
             for c in counters],
            title=f"Counters of {path}",
        ))
    hists = obs_doc.get("histograms", [])
    if hists:
        print_report(format_table(
            ["histogram", "labels", "count", "sum", "min", "max"],
            [[h["name"], _format_obs_labels(h.get("labels")), h.get("count", 0),
              h.get("sum", 0), h.get("min", ""), h.get("max", "")]
             for h in hists],
            title="Histograms",
        ))
    dispatch = _dispatch_rows(path, obs_doc)
    if dispatch:
        print_report(format_table(
            ["counter", "outcome", "reason", "count"],
            [[r["counter"], r["outcome"], r["reason"], r["count"]] for r in dispatch],
            title="Dispatch outcomes",
        ))
    spans = obs_doc.get("spans") or {}
    print(f"spans: {spans.get('recorded', 0)} recorded, {spans.get('dropped', 0)} dropped")
    return 0


def _obs_span_log_summary(path, *, trace_out: "str | None", as_json: bool) -> int:
    """Summarise (and optionally convert) a ``.spans.jsonl`` span log."""
    from repro.obs import read_span_log, write_trace

    try:
        spans = read_span_log(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if trace_out:
        write_trace(trace_out, spans)
        print(f"wrote Chrome trace to {trace_out} ({len(spans)} spans); "
              "load it at https://ui.perfetto.dev", file=sys.stderr)
    groups: "dict[tuple[str, str], list[float]]" = {}
    for span in spans:
        groups.setdefault((span.get("cat", "repro"), span["name"]), []).append(
            float(span.get("dur", 0.0))
        )
    rows = [
        {"cat": cat, "name": name, "count": len(durs),
         "total_ms": sum(durs) / 1000.0, "max_ms": max(durs) / 1000.0}
        for (cat, name), durs in sorted(groups.items())
    ]
    if as_json:
        print(json.dumps({"spans": len(spans), "groups": rows},
                         indent=2, sort_keys=True))
        return 0
    print_report(format_table(
        ["cat", "span", "count", "total_ms", "max_ms"],
        [[r["cat"], r["name"], r["count"], f"{r['total_ms']:.3f}",
          f"{r['max_ms']:.3f}"] for r in rows],
        title=f"{len(spans)} spans in {path}",
    ))
    return 0


def _run_obs_command(args: argparse.Namespace) -> int:
    """Inspect observability artifacts (campaign metadata.obs / span logs)."""
    from pathlib import Path

    path = Path(args.artifact)
    if path.suffix == ".jsonl":
        return _obs_span_log_summary(path, trace_out=args.trace, as_json=args.json)
    if args.trace:
        print("error: --trace needs a .spans.jsonl span log input (the "
              "<out>.spans.jsonl file written next to run/sweep --out)",
              file=sys.stderr)
        return 2
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read campaign artifact {path}: {exc}", file=sys.stderr)
        return 2
    return _obs_artifact_summary(path, payload, as_json=args.json)


def _run_report_command(args: argparse.Namespace) -> int:
    """Aggregate stored records (group means) without re-simulating anything."""
    if getattr(args, "timing", None):
        return _report_timing_split(args.timing, as_json=args.json)
    if getattr(args, "dispatch", None):
        return _report_dispatch_split(args.dispatch, as_json=args.json)
    store = _open_store(args)
    if store is None:
        return 2
    try:
        filters = _parse_where(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = store.query(strategy=args.strategy, family=args.family,
                          limit=args.limit, where=filters)
    entries = [e for e in entries if e.record is not None]
    if not entries:
        print("no stored records match the filters", file=sys.stderr)
        return 1
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    by_columns = [b.strip() for b in args.by.split(",") if b.strip()] or ["strategy"]
    by = by_columns[0] if len(by_columns) == 1 else tuple(by_columns)
    try:
        headers, rows = summarize_records(entries, metrics=metrics, by=by)
    except KeyError as exc:
        print(f"error: stored records have no column {exc.args[0]!r}", file=sys.stderr)
        return 2
    if args.csv:
        from repro.experiments.reporting import to_csv
        from repro.store.io import atomic_write_text

        atomic_write_text(args.csv, to_csv(headers, rows), newline="")
        print(f"wrote summary to {args.csv}")
    if args.json:
        groups = [dict(zip(headers, row)) for row in rows]
        print(json.dumps({"records": len(entries), "groups": _jsonable(groups)},
                         indent=2, sort_keys=True, default=str))
        return 0
    print_report(format_table(
        headers, rows,
        title=f"Report over {len(entries)} stored records in {store.root}",
    ))
    return 0


def _jsonable(obj):
    """Convert experiment dictionaries (which may use tuple keys) into JSON-safe data."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
