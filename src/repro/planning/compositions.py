"""Named stage compositions: every strategy of the library as pipeline data.

The six legacy strategies (B/W/RW-TCTP, CHB, Sweep, Random) are expressed
here as four-stage compositions whose output is **byte-identical** to the
historical fused planners — each carries a metadata profile reproducing its
exact historical ``PatrolPlan.metadata``.  On top of those, this module
registers cross-combined strategies the fused planners could not express
(sweep-sector tours with VIP expansion, cluster-first tours with recharge
weaving, reversed traversal, random-offset initialisation) and the generic
``pipeline`` strategy whose four stage parameters make any composition
sweepable from campaign grids (``plan.tour``, ``plan.order``, ...) and the
CLI.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping

from repro.core.btctp import expected_visiting_interval
from repro.planning.pipeline import (
    PlanningContext,
    PlanningPipeline,
    start_point_table,
)
from repro.planning.spec import PipelineSpec, StageSpec

__all__ = [
    "btctp_pipeline",
    "chb_pipeline",
    "sweep_pipeline",
    "random_pipeline",
    "wtctp_pipeline",
    "rwtctp_pipeline",
    "pipeline_strategy",
    "register_builtin_compositions",
]


# --------------------------------------------------------------------------- #
# Historical metadata profiles (byte-compat with the fused planners)
# --------------------------------------------------------------------------- #

def _btctp_metadata(ctx: PlanningContext) -> dict:
    lane = ctx.lanes[0]
    scenario = ctx.scenario
    metadata: dict[str, Any] = {
        "path_length": lane.tour.length(),
        "tour": lane.loop,
        "expected_visiting_interval": expected_visiting_interval(
            lane.tour.length(), scenario.num_mules, scenario.params.mule_velocity
        ),
    }
    if lane.start_points is not None:
        metadata["start_points"] = start_point_table(lane.start_points)
    return metadata


def _chb_metadata(ctx: PlanningContext) -> dict:
    lane = ctx.lanes[0]
    return {"path_length": lane.tour.length(), "tour": lane.loop}


def _sweep_metadata(ctx: PlanningContext) -> dict:
    return {"groups": [dict(lane.meta) for lane in ctx.lanes]}


def _random_metadata(ctx: PlanningContext) -> dict:
    stochastic = ctx.lanes[0].stochastic or {}
    return {"seed": stochastic.get("seed"), "candidates": len(stochastic.get("candidates", ()))}


def _wtctp_metadata(ctx: PlanningContext) -> dict:
    lane = ctx.lanes[0]
    return {
        "hamiltonian_length": lane.tour.length(),
        "wpp_length": lane.structure.length(),
        "walk": lane.loop,
        "policy": ctx.facts["policy"],
        "vip_cycles": {
            vip.id: [c.length for c in lane.structure.cycles_at(vip.id, lane.walk)]
            for vip in ctx.scenario.vips()
        },
    }


def _rwtctp_metadata(ctx: PlanningContext) -> dict:
    lane = ctx.lanes[0]
    return {
        "hamiltonian_length": lane.tour.length(),
        "wpp_length": lane.structure.length(),
        "wrp_length": lane.recharge_structure.length(),
        "patrol_rounds": lane.patrol_rounds,
        "policy": ctx.facts["policy"],
        "recharge_station": lane.recharge_id,
    }


# --------------------------------------------------------------------------- #
# The six legacy strategies as compositions
# --------------------------------------------------------------------------- #

def _memoize_pipeline(builder: Callable[..., PlanningPipeline]):
    """Reuse pipeline instances across plans with equal parameters.

    A :class:`PlanningPipeline` is immutable and carries no per-plan state
    (every ``plan()`` call threads a fresh context), so planners that are
    constructed repeatedly — every campaign cell builds its strategy — share
    one pipeline per parameter combination instead of re-coercing the stage
    specs each time.  Unhashable parameter values (dict-form stage specs)
    fall through to a direct build.
    """
    cache: dict[tuple, PlanningPipeline] = {}

    @functools.wraps(builder)
    def wrapper(**kwargs) -> PlanningPipeline:
        try:
            key = tuple(sorted(kwargs.items()))
            cached = cache.get(key)
        except TypeError:
            return builder(**kwargs)
        if cached is None:
            if len(cache) > 256:  # unbounded param sweeps must not leak
                cache.clear()
            cached = cache[key] = builder(**kwargs)
        return cached

    return wrapper


@_memoize_pipeline
def btctp_pipeline(
    *, tsp_method: str = "hull-insertion", improve_tour: bool = False,
    location_initialization: bool = True, name: str = "B-TCTP",
) -> PlanningPipeline:
    """``hamiltonian | none | as-built | equal-spacing`` (Section II)."""
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": improve_tour}),
        augment=StageSpec("none"),
        order=StageSpec("as-built"),
        init=StageSpec("equal-spacing" if location_initialization else "depot-start"),
    )
    return PlanningPipeline(spec, name=name, metadata_profile=_btctp_metadata)


@_memoize_pipeline
def chb_pipeline(
    *, tsp_method: str = "hull-insertion", improve_tour: bool = False, name: str = "CHB",
) -> PlanningPipeline:
    """``hamiltonian | none | as-built | depot-start`` (reference [5])."""
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": improve_tour}),
        augment=StageSpec("none"),
        order=StageSpec("as-built"),
        init=StageSpec("depot-start"),
    )
    return PlanningPipeline(spec, name=name, metadata_profile=_chb_metadata)


@_memoize_pipeline
def sweep_pipeline(
    *, include_sink_in_groups: bool = True, tsp_method: str = "hull-insertion",
    name: str = "Sweep",
) -> PlanningPipeline:
    """``sweep-sector | none | as-built | depot-start`` (reference [4])."""
    spec = PipelineSpec(
        tour=StageSpec("sweep-sector", {
            "include_sink_in_groups": include_sink_in_groups, "tsp_method": tsp_method,
        }),
        augment=StageSpec("none"),
        order=StageSpec("as-built"),
        init=StageSpec("depot-start"),
    )
    return PlanningPipeline(spec, name=name, metadata_profile=_sweep_metadata)


@_memoize_pipeline
def random_pipeline(
    *, seed: "int | None" = 0, include_sink: bool = True, avoid_repeat: bool = True,
    name: str = "Random",
) -> PlanningPipeline:
    """``pool | none | stochastic | depot-start`` (the Random baseline)."""
    spec = PipelineSpec(
        tour=StageSpec("pool", {"include_sink": include_sink}),
        augment=StageSpec("none"),
        order=StageSpec("stochastic", {"seed": seed, "avoid_repeat": avoid_repeat}),
        init=StageSpec("depot-start"),
    )
    return PlanningPipeline(spec, name=name, metadata_profile=_random_metadata)


@_memoize_pipeline
def wtctp_pipeline(
    *, policy: str = "balanced", tsp_method: str = "hull-insertion",
    improve_tour: bool = False, location_initialization: bool = True, name: str = "W-TCTP",
) -> PlanningPipeline:
    """``hamiltonian | wpp | ccw-angle | equal-spacing`` (Section III)."""
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": improve_tour}),
        augment=StageSpec("wpp", {"policy": policy}),
        order=StageSpec("ccw-angle"),
        init=StageSpec("equal-spacing" if location_initialization else "depot-start"),
    )
    return PlanningPipeline(spec, name=name + "[{policy}]", metadata_profile=_wtctp_metadata)


@_memoize_pipeline
def rwtctp_pipeline(
    *, policy: str = "balanced", tsp_method: str = "hull-insertion",
    improve_tour: bool = False, location_initialization: bool = True,
    treat_targets_as_vips: bool = False, vip_weight: int = 2, name: str = "RW-TCTP",
) -> PlanningPipeline:
    """``hamiltonian | recharge | ccw-angle | equal-spacing`` (Section IV)."""
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": improve_tour}),
        augment=StageSpec("recharge", {
            "policy": policy,
            "treat_targets_as_vips": treat_targets_as_vips,
            "vip_weight": vip_weight,
        }),
        order=StageSpec("ccw-angle"),
        init=StageSpec("equal-spacing" if location_initialization else "depot-start"),
    )
    return PlanningPipeline(spec, name=name + "[{policy}]", metadata_profile=_rwtctp_metadata)


#: Builders of the legacy compositions, keyed by strategy registry name.
LEGACY_PIPELINES: Mapping[str, Callable[..., PlanningPipeline]] = {
    "b-tctp": btctp_pipeline,
    "chb": chb_pipeline,
    "sweep": sweep_pipeline,
    "random": random_pipeline,
    "w-tctp": wtctp_pipeline,
    "rw-tctp": rwtctp_pipeline,
}


def composition_validator(builder: Callable[..., PlanningPipeline]):
    """Strategy-level parameter validator derived from a pipeline builder.

    Builds the composition from the given params (without planning anything)
    and validates every stage — so a typo'd ``tsp_method`` or out-of-range
    ``vip_weight`` in a campaign grid fails before any simulation runs, with
    the stage registry's did-you-mean suggestions.
    """

    def validate(params: Mapping[str, Any]) -> None:
        kwargs = {k: v for k, v in params.items() if k != "seed" or _accepts_seed(builder)}
        builder(**kwargs).validate()

    def _accepts_seed(fn: Callable) -> bool:
        import inspect

        return "seed" in inspect.signature(fn).parameters

    return validate


# --------------------------------------------------------------------------- #
# New cross-combined strategies
# --------------------------------------------------------------------------- #

@_memoize_pipeline
def sw_tctp_pipeline(
    *, policy: str = "balanced", include_sink_in_groups: bool = True,
    tsp_method: str = "hull-insertion",
) -> PlanningPipeline:
    """Sweep-sector circuits with per-sector W-TCTP VIP expansion.

    Previously inexpressible: Sweep ignored target weights, W-TCTP required a
    single shared circuit.  Here each mule's sector circuit gets the Section
    III cycle construction for the VIPs inside its sector, traversed with the
    counter-clockwise angle rule.
    """
    spec = PipelineSpec(
        tour=StageSpec("sweep-sector", {
            "include_sink_in_groups": include_sink_in_groups, "tsp_method": tsp_method,
        }),
        augment=StageSpec("wpp", {"policy": policy}),
        order=StageSpec("ccw-angle"),
        init=StageSpec("depot-start"),
    )
    return PlanningPipeline(spec, name="SW-TCTP[{policy}]")


@_memoize_pipeline
def cb_tctp_pipeline(*, num_clusters: "int | None" = None) -> PlanningPipeline:
    """Cluster-first tour with B-TCTP's equal-spacing initialisation."""
    spec = PipelineSpec(
        tour=StageSpec("cluster-first", {"num_clusters": num_clusters}),
        augment=StageSpec("none"),
        order=StageSpec("as-built"),
        init=StageSpec("equal-spacing"),
    )
    return PlanningPipeline(spec, name="CB-TCTP")


@_memoize_pipeline
def crw_tctp_pipeline(
    *, policy: str = "balanced", num_clusters: "int | None" = None,
    treat_targets_as_vips: bool = False, vip_weight: int = 2,
) -> PlanningPipeline:
    """Cluster-first tour with Section-IV recharge weaving (needs a station)."""
    spec = PipelineSpec(
        tour=StageSpec("cluster-first", {"num_clusters": num_clusters}),
        augment=StageSpec("recharge", {
            "policy": policy,
            "treat_targets_as_vips": treat_targets_as_vips,
            "vip_weight": vip_weight,
        }),
        order=StageSpec("ccw-angle"),
        init=StageSpec("equal-spacing"),
    )
    return PlanningPipeline(spec, name="CRW-TCTP[{policy}]")


@_memoize_pipeline
def btctp_cw_pipeline(
    *, tsp_method: str = "hull-insertion", improve_tour: bool = False,
) -> PlanningPipeline:
    """B-TCTP patrolled clockwise: the shared circuit, traversal reversed."""
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": improve_tour}),
        augment=StageSpec("none"),
        order=StageSpec("reversed"),
        init=StageSpec("equal-spacing"),
    )
    return PlanningPipeline(spec, name="B-TCTP-CW")


@_memoize_pipeline
def staggered_chb_pipeline(
    *, seed: "int | None" = 0, tsp_method: str = "hull-insertion",
) -> PlanningPipeline:
    """CHB's shared circuit with seeded random arc-offset initialisation.

    Sits between CHB (mules bunch where deployed) and B-TCTP (perfect equal
    spacing): the offsets are uncoordinated but at least spread over the lap.
    """
    spec = PipelineSpec(
        tour=StageSpec("hamiltonian", {"tsp_method": tsp_method, "improve_tour": False}),
        augment=StageSpec("none"),
        order=StageSpec("as-built"),
        init=StageSpec("random-offset", {"seed": seed}),
    )
    return PlanningPipeline(spec, name="Staggered-CHB")


# --------------------------------------------------------------------------- #
# The generic, fully sweepable pipeline strategy
# --------------------------------------------------------------------------- #

@_memoize_pipeline
def pipeline_strategy(
    *,
    tour: "str | Mapping | StageSpec" = "hamiltonian",
    augment: "str | Mapping | StageSpec" = "none",
    order: "str | Mapping | StageSpec" = "as-built",
    init: "str | Mapping | StageSpec" = "equal-spacing",
) -> PlanningPipeline:
    """Compose a planning pipeline from four stage specs.

    Each parameter accepts a backend name (``"ccw-angle"``), a compact string
    with parameters (``"wpp:policy=shortest"``), or a
    ``{"name": ..., "params": {...}}`` dict — exactly the spellings campaign
    grid axes (``plan.tour``, ``plan.order``, ...) and the CLI's ``--param``
    option pass through.

    Examples
    --------
    >>> from repro.baselines.base import get_strategy
    >>> planner = get_strategy("pipeline", tour="cluster-first", order="reversed")
    >>> planner.name
    'Pipeline[cluster-first|none|reversed|equal-spacing]'
    """
    spec = PipelineSpec(tour=tour, augment=augment, order=order, init=init).validate()
    name = f"Pipeline[{spec.tour.name}|{spec.augment.name}|{spec.order.name}|{spec.init.name}]"
    return PlanningPipeline(spec, name=name)


def _validate_pipeline_params(params: Mapping[str, Any]) -> None:
    pipeline_strategy(**{k: v for k, v in params.items()})


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #

def register_builtin_compositions() -> None:
    """Register the cross-combined strategies and the generic ``pipeline``.

    Called by the strategy registry's lazy built-in load, which runs once
    per process (:class:`repro.registry.Loader`).
    """
    from repro.baselines.base import register_strategy

    entries = (
        ("sw-tctp", sw_tctp_pipeline, ("sweep-w",),
         "sweep-sector circuits with per-sector W-TCTP VIP expansion"),
        ("cb-tctp", cb_tctp_pipeline, ("cluster-b",),
         "cluster-first tour + equally spaced start points"),
        ("crw-tctp", crw_tctp_pipeline, ("cluster-rw",),
         "cluster-first tour + recharge weaving (needs a recharge station)"),
        ("b-tctp-cw", btctp_cw_pipeline, ("btctp-cw",),
         "B-TCTP traversed clockwise (reversed patrol direction)"),
        ("staggered-chb", staggered_chb_pipeline, (),
         "shared circuit + seeded random arc-offset initialisation"),
    )
    for name, builder, aliases, description in entries:
        register_strategy(
            name, builder, aliases=aliases, description=description,
            validator=composition_validator(builder), composition=builder().spec,
        )
    register_strategy(
        "pipeline", pipeline_strategy, aliases=("composed",),
        description="any four-stage composition: tour | augment | order | init "
                    "(each a stage spec like 'wpp:policy=shortest')",
        validator=_validate_pipeline_params, composition=PipelineSpec(),
    )
