"""Shared plumbing for the figure-reproduction experiments.

Every experiment follows the same pattern: describe a grid of run cells
(scenario config × strategy × replication seed), execute them through the
:mod:`repro.runner` campaign executor — serially or across worker processes,
per :attr:`ExperimentSettings.max_workers` — and reduce the tidy records to
the figure's series.  This module centralises the settings object and the
spec-building helpers so the per-figure modules only describe their parameter
grids and reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.baselines.base import PatrolStrategy, get_strategy
from repro.core.plan import PatrolPlan
from repro.network.scenario import Scenario
from repro.runner.campaign import execute_many, execute_resumable, group_mean, group_records
from repro.runner.spec import CampaignSpec, RunSpec
from repro.store import resolve_store
from repro.scenarios import ScenarioSpec
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.recorder import SimulationResult
from repro.workloads.generator import ScenarioConfig

__all__ = [
    "ExperimentSettings",
    "replicate_seeds",
    "run_strategy_on_scenario",
    "simulate_plan",
    "averaged_metric",
    "experiment_campaign",
    "run_experiment_cells",
    "group_mean",
    "group_records",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Run-size knobs shared by all experiments.

    The defaults reproduce the paper's protocol (20 replications); the
    benchmark suite and the test suite use smaller values through the
    ``quick()`` constructor so they stay fast.  ``max_workers`` fans the
    independent replication cells out over that many worker processes
    (``None`` runs serially; results are identical either way).
    """

    replications: int = 20
    horizon: float = 60_000.0
    base_seed: int = 2011      # the paper's publication year, for determinism with no magic
    num_targets: int = 20
    num_mules: int = 4
    mule_placement: str = "random"
    distribution: str = "uniform"
    max_workers: int | None = None
    # Experiments are resumable by default: None uses the persistent result
    # store when one is configured (REPRO_STORE_DIR / repro.store.configure),
    # False opts out, True/path/ResultStore force one — the semantics of
    # repro.store.resolve_store.  Records are byte-identical either way.
    store: Any = None

    @classmethod
    def quick(cls, **overrides) -> "ExperimentSettings":
        """Small settings for tests / smoke benchmarks (3 replications, short horizon)."""
        defaults = dict(replications=3, horizon=25_000.0, num_targets=12, num_mules=3)
        defaults.update(overrides)
        return cls(**defaults)

    def scenario_config(self, **overrides) -> ScenarioConfig:
        """Legacy scenario config following these settings (see :meth:`scenario_spec`)."""
        base = dict(
            num_targets=self.num_targets,
            num_mules=self.num_mules,
            distribution=self.distribution,
            mule_placement=self.mule_placement,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def scenario_spec(self, **overrides) -> ScenarioSpec:
        """Scenario spec following these settings, with per-experiment overrides.

        ``distribution`` (here or in ``overrides``) names the scenario family
        — any registered family works, not only the paper's ``uniform`` /
        ``clustered``; the remaining overrides are family parameters.
        """
        params = dict(
            num_targets=self.num_targets,
            num_mules=self.num_mules,
            mule_placement=self.mule_placement,
        )
        params.update(overrides)
        family = params.pop("distribution", self.distribution)
        return ScenarioSpec(family=family, params=params)

    def sim_config(self, *, track_energy: bool = True, **overrides) -> SimulationConfig:
        """Simulator config following these settings."""
        return SimulationConfig(horizon=self.horizon, track_energy=track_energy, **overrides)


def replicate_seeds(settings: ExperimentSettings) -> list[int]:
    """Deterministic list of per-replication seeds."""
    return [settings.base_seed + 1000 * k for k in range(settings.replications)]


def experiment_campaign(
    settings: ExperimentSettings,
    strategy: str,
    *,
    grid: Mapping[str, Sequence[Any]] | None = None,
    params: Mapping[str, Any] | None = None,
    metrics: Sequence = (),
    track_energy: bool = True,
    labels: Mapping[str, Any] | None = None,
    **scenario_overrides,
) -> CampaignSpec:
    """A campaign over ``settings``' replications with a per-experiment grid.

    The base cell follows the settings' scenario/simulator knobs (plus
    ``scenario_overrides``); ``grid`` adds the experiment's swept axes and
    ``labels`` tags every record (useful when composing the cells of several
    campaigns into one batch).
    """
    base = RunSpec(
        strategy=strategy,
        scenario=settings.scenario_spec(**scenario_overrides),
        params=dict(params or {}),
        sim=settings.sim_config(track_energy=track_energy),
        seed=settings.base_seed,
        metrics=tuple(metrics),
        labels=dict(labels or {}),
    )
    return CampaignSpec(base=base, grid=dict(grid or {}), replications=settings.replications)


def run_experiment_cells(
    cells: "Iterable[RunSpec] | CampaignSpec",
    settings: ExperimentSettings,
) -> list[dict]:
    """Execute expanded run cells with the settings' worker budget.

    When a result store is in play (``settings.store``; by default the
    configured ``REPRO_STORE_DIR`` store, if any), already-computed cells are
    served from it and only the misses simulate — re-running an experiment
    suite after touching one strategy re-executes only the affected cells.
    Pass ``ExperimentSettings(store=False)`` to opt out.
    """
    if isinstance(cells, CampaignSpec):
        cells = cells.cells()
    store = resolve_store(settings.store)
    if store is None:
        return execute_many(cells, max_workers=settings.max_workers)
    records, _, _ = execute_resumable(cells, store=store, max_workers=settings.max_workers)
    return records


def simulate_plan(scenario: Scenario, plan: PatrolPlan, *, horizon: float,
                  track_energy: bool = True) -> SimulationResult:
    """Run one simulation of ``plan`` on ``scenario``, which the run leaves untouched."""
    sim = PatrolSimulator(scenario, plan,
                          SimulationConfig(horizon=horizon, track_energy=track_energy))
    return sim.run()


def run_strategy_on_scenario(
    strategy: "str | PatrolStrategy",
    scenario: Scenario,
    *,
    horizon: float,
    track_energy: bool = True,
    **strategy_kwargs,
) -> SimulationResult:
    """Plan + simulate in one call; ``strategy`` may be a registry name or an instance.

    This is the in-memory sibling of :func:`repro.runner.execute_run` for
    callers that already hold a :class:`Scenario` object (or a planner
    instance) rather than a declarative config.
    """
    planner = get_strategy(strategy, **strategy_kwargs) if isinstance(strategy, str) else strategy
    working = scenario.fresh_copy()
    plan = planner.plan(working)
    return simulate_plan(working, plan, horizon=horizon, track_energy=track_energy)


def averaged_metric(
    values: Iterable[float],
) -> float:
    """Mean of the finite values (experiments ignore NaNs from unvisited targets)."""
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    return float(arr.mean()) if arr.size else float("nan")
