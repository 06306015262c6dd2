"""Pluggable scenario construction: a registry of scenario families.

The package is the workload-side twin of the strategy registry
(:mod:`repro.baselines.base`); both are :class:`repro.registry.Registry`
tables:

* :func:`register_scenario` — decorator registering a scenario family with a
  declared parameter table (names, defaults, types), aliases and a
  description;
* :class:`ScenarioSpec` — one scenario as JSON-round-trippable data
  (``family`` + ``params`` + optional pinned ``seed``), the type carried by
  :class:`repro.runner.RunSpec`;
* :func:`build_scenario` — resolve a family name, validate the parameters
  and build the :class:`~repro.network.scenario.Scenario`;
* :mod:`repro.scenarios.families` — the built-in catalog: the paper's
  ``uniform`` / ``clustered`` / ``paper-default`` generators, the
  hand-crafted ``figure1`` / ``single-vip`` / ``grid`` layouts, and the
  extended spatial families ``corridor``, ``hotspot``, ``ring``,
  ``grid-jitter`` and ``mixed-density``.

New workloads arrive as data: register a family once and it is immediately
sweepable as a campaign grid axis (``"scenario.family"``), runnable from
``RunSpec`` JSON files and from the CLI (``--scenario family:key=val,...``),
and listed by ``repro-patrol scenarios``.
"""

from repro.scenarios.registry import (
    REQUIRED,
    ScenarioInfo,
    ScenarioParam,
    available_scenario_families,
    build_scenario,
    canonical_scenario_family,
    filter_scenario_kwargs,
    get_scenario,
    register_scenario,
    scenario_family_info,
    scenario_family_params,
    validate_scenario_params,
)
from repro.scenarios.spec import ScenarioSpec, spec_from_scenario_config

__all__ = [
    "REQUIRED",
    "ScenarioInfo",
    "ScenarioParam",
    "ScenarioSpec",
    "available_scenario_families",
    "build_scenario",
    "canonical_scenario_family",
    "filter_scenario_kwargs",
    "get_scenario",
    "register_scenario",
    "scenario_family_info",
    "scenario_family_params",
    "spec_from_scenario_config",
    "validate_scenario_params",
]
