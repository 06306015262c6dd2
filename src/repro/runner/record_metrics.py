"""Named metric extractors evaluated on finished runs.

Run specs stay declarative (and JSON-serialisable) by referring to extra
metrics *by name*; the executor looks the names up here and calls
``fn(scenario, plan, result, **params)`` after the simulation finishes.
The built-in extractors cover everything the paper's figure experiments
need beyond the standard record columns; downstream code can add more with
:func:`register_metric`.  An extractor may read anything of the result (its
visit and delivery lists are built on first read when a fast tier ran the
cell), the plan and the scenario's layout; the scenario's mules are left in
their final state only when the cell ran per cell, so an extractor should
not read them.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.plan import PatrolPlan
from repro.network.scenario import Scenario
from repro.sim.metrics import average_sd, dcdt_series, interval_statistics
from repro.sim.recorder import SimulationResult

__all__ = ["register_metric", "available_metrics", "compute_metric", "metric_name"]

MetricFn = Callable[..., Any]

_METRICS: dict[str, MetricFn] = {}


def register_metric(name: str, fn: MetricFn | None = None):
    """Register ``fn`` as the extractor behind ``name`` (usable as a decorator)."""
    if fn is None:
        def decorator(f: MetricFn) -> MetricFn:
            register_metric(name, f)
            return f
        return decorator
    if name in _METRICS:
        raise ValueError(f"metric {name!r} is already registered")
    _METRICS[name] = fn
    return fn


def available_metrics() -> list[str]:
    """Names of all registered metric extractors."""
    return sorted(_METRICS)


def metric_name(entry: "str | tuple[str, dict]") -> str:
    """The record-column name of a metric entry (``"name"`` or ``(name, params)``)."""
    return entry if isinstance(entry, str) else entry[0]


def compute_metric(
    entry: "str | tuple[str, dict]",
    scenario: Scenario,
    plan: PatrolPlan,
    result: SimulationResult,
) -> Any:
    """Evaluate one metric entry on a finished run."""
    if isinstance(entry, str):
        name, params = entry, {}
    else:
        name, params = entry
    try:
        fn = _METRICS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown metric {name!r}; available: {', '.join(available_metrics())}"
        ) from exc
    return fn(scenario, plan, result, **params)


# --------------------------------------------------------------------------- #
# Built-in extractors
# --------------------------------------------------------------------------- #

@register_metric("dcdt_series")
def _dcdt_series(scenario, plan, result, *, num_points: int = 41):
    """Per-visit-index mean DCDT series (Figure 7's curves)."""
    return dcdt_series(result, num_points=num_points)


@register_metric("vip_sd")
def _vip_sd(scenario, plan, result):
    """Average visiting-interval SD restricted to the VIP targets (NaN if none)."""
    vip_ids = [t.id for t in scenario.targets if t.is_vip]
    if not vip_ids:
        return float("nan")
    return average_sd(result, targets=vip_ids)


@register_metric("vip_sd_or_all")
def _vip_sd_or_all(scenario, plan, result):
    """VIP-restricted interval SD, falling back to all targets when no VIPs exist.

    This is Figure 10's ``vip_only`` semantics: a scenario without VIPs is
    scored on all targets rather than reported as NaN.
    """
    vip_ids = [t.id for t in scenario.targets if t.is_vip]
    return average_sd(result, targets=vip_ids or None)


@register_metric("predicted_vip_sd")
def _predicted_vip_sd(scenario, plan, result):
    """Analytic VIP interval SD for a fixed-walk plan with equally spaced mules."""
    from repro.analysis.theory import analyze_loop

    walk = plan.metadata.get("walk")
    vip_ids = [t.id for t in scenario.targets if t.is_vip]
    if walk is None or not vip_ids:
        return float("nan")
    analysis = analyze_loop(walk, scenario.patrol_points(), num_mules=scenario.num_mules,
                            velocity=scenario.params.mule_velocity)
    sds = [analysis.sd(v) for v in vip_ids if v in analysis.occurrences]
    return float(np.mean(sds)) if sds else float("nan")


@register_metric("wpp_length")
def _wpp_length(scenario, plan, result):
    """Length of the weighted patrolling path (W-TCTP / RW-TCTP plans)."""
    return plan.metadata.get("wpp_length", float("nan"))


@register_metric("path_length")
def _path_length(scenario, plan, result):
    """Length of the phase-1 Hamiltonian circuit (B-TCTP / CHB plans)."""
    return plan.metadata.get("path_length", float("nan"))


@register_metric("expected_visiting_interval")
def _expected_interval(scenario, plan, result):
    """The closed-form ``|P| / (n v)`` interval, when the plan reports one."""
    return plan.metadata.get("expected_visiting_interval", float("nan"))


@register_metric("survival_fraction")
def _survival_fraction(scenario, plan, result):
    """Fraction of mules still alive at the end of the horizon."""
    return len(result.surviving_mules()) / max(len(result.traces), 1)


@register_metric("total_recharges")
def _total_recharges(scenario, plan, result):
    """Total recharge events across the fleet."""
    return sum(trace.recharges for trace in result.traces.values())


@register_metric("interval_stats")
def _interval_stats(scenario, plan, result):
    """The full interval-statistics dictionary (nested; JSON-safe)."""
    return interval_statistics(result)
