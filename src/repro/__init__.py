"""repro — reproduction of "Patrolling Mechanisms for Disconnected Targets in
Wireless Mobile Data Mules Networks" (Chang, Lin, Hsieh, Ho — ICPP 2011).

The package implements the paper's three patrolling algorithms (B-TCTP,
W-TCTP, RW-TCTP), the baselines they are compared against (Random, Sweep,
CHB), the wireless data-mule network substrate, a discrete-event patrolling
simulator, an experiment harness regenerating every figure of the paper's
evaluation section, a unified execution API (:mod:`repro.runner`) that turns
declarative run specs into (optionally parallel) campaigns of simulations,
and a pluggable scenario registry (:mod:`repro.scenarios`) whose family
catalog spans the paper's workloads plus corridor / hotspot / ring /
grid-jitter / mixed-density layouts.

Quickstart
----------
Describe a run as data, execute it, read the paper's metrics:

>>> from repro import RunSpec, ScenarioSpec, execute_run
>>> spec = RunSpec(strategy="b-tctp",
...                scenario=ScenarioSpec("uniform", {"num_targets": 15, "num_mules": 3}),
...                seed=1)
>>> record = execute_run(spec)
>>> round(record["average_sd"], 3)   # B-TCTP visits every target at a fixed cadence
0.0

Scale the same description to a strategy sweep with seeded replications,
fanned out over worker processes (records are identical serial or parallel):

>>> from repro import Campaign, CampaignSpec
>>> campaign = CampaignSpec(base=spec, grid={"strategy": ["chb", "b-tctp"]},
...                         replications=4)
>>> result = Campaign(campaign, max_workers=4).run()   # doctest: +SKIP
>>> result.group_mean("average_sd", by="strategy")     # doctest: +SKIP

The same specs round-trip through JSON and run from the command line::

    python -m repro run spec.json --workers 4
    python -m repro sweep --strategies b-tctp,sweep --replications 8 --workers 4
"""

from repro.core import (
    PatrolPlan,
    plan_btctp,
    plan_rwtctp,
    plan_wtctp,
)
from repro.baselines import (
    StrategyInfo,
    get_strategy,
    available_strategies,
    canonical_strategy_name,
    strategy_params,
    validate_strategy_params,
)
from repro.network import Scenario, SimulationParameters, Target, Sink, RechargeStation, DataMule
from repro.planning import (
    PipelineSpec,
    PlanningPipeline,
    StageSpec,
    available_stage_backends,
    register_stage,
)
from repro.runner import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    RunSpec,
    execute_run,
    load_spec,
)
from repro.scenarios import (
    ScenarioSpec,
    available_scenario_families,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_family_info,
    scenario_family_params,
)
from repro.sim import PatrolSimulator, SimulationConfig, SimulationResult
from repro.store import ResultStore, run_fingerprint
from repro.workloads import (
    ScenarioConfig,
    generate_scenario,
    uniform_scenario,
    clustered_scenario,
    figure1_scenario,
    single_vip_scenario,
    grid_scenario,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "PatrolPlan",
    "plan_btctp",
    "plan_wtctp",
    "plan_rwtctp",
    # strategy registry
    "StrategyInfo",
    "get_strategy",
    "available_strategies",
    "canonical_strategy_name",
    "strategy_params",
    "validate_strategy_params",
    # composable planning pipeline
    "PipelineSpec",
    "StageSpec",
    "PlanningPipeline",
    "register_stage",
    "available_stage_backends",
    # network substrate
    "Scenario",
    "SimulationParameters",
    "Target",
    "Sink",
    "RechargeStation",
    "DataMule",
    # unified execution API
    "RunSpec",
    "CampaignSpec",
    "Campaign",
    "CampaignResult",
    "execute_run",
    "load_spec",
    # persistent result store
    "ResultStore",
    "run_fingerprint",
    # simulator
    "PatrolSimulator",
    "SimulationConfig",
    "SimulationResult",
    # scenario registry
    "ScenarioSpec",
    "available_scenario_families",
    "build_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_family_info",
    "scenario_family_params",
    # workloads
    "ScenarioConfig",
    "generate_scenario",
    "uniform_scenario",
    "clustered_scenario",
    "figure1_scenario",
    "single_vip_scenario",
    "grid_scenario",
]
