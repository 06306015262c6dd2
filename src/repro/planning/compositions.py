"""Named stage compositions: every strategy of the library as pipeline data.

The paper's six strategies — B-, W- and RW-TCTP (Sections II–IV) and the
Random, Sweep and CHB baselines (Section V) — are the four-stage
compositions built by the ``*_pipeline`` functions below.  Each carries a
metadata profile that fixes its ``PatrolPlan.metadata``;
``tests/test_planning_identity.py`` holds the plans to golden records.
Beside them sit cross-combined strategies (sweep-sector tours with VIP
expansion, cluster-first tours with recharge weaving, reversed traversal,
random-offset initialisation) and the generic ``pipeline`` strategy, whose
four stage parameters make any composition sweepable from campaign grids
(``plan.tour``, ``plan.order``, ...) and the CLI.

The builders *are* the strategy factories: ``get_strategy("w-tctp",
policy="shortest")`` returns ``wtctp_pipeline(policy="shortest")``.  The
six paper builders also take ``name``, the display name their plans record
as ``PatrolPlan.strategy``; it is not a strategy parameter.
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
# Metadata profiles of the paper's six strategies
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
            hub: [c.length for c in cycles]
            for hub, cycles in lane.structure.cycles_by_hub(
                [vip.id for vip in ctx.scenario.vips()], lane.walk
            ).items()
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
# The paper's six strategies
# --------------------------------------------------------------------------- #

def _memoize_pipeline(builder: Callable[..., PlanningPipeline]):
    """Reuse pipeline instances across plans with equal parameters.

    A :class:`PlanningPipeline` is immutable and carries no per-plan state
    (every ``plan()`` call threads a fresh context), so strategies looked up
    repeatedly — every campaign cell calls ``get_strategy`` — share one
    pipeline per parameter combination instead of re-coercing the stage
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
    """B-TCTP (Section II): ``hamiltonian | none | as-built | equal-spacing``.

    Every mule builds the same convex-hull insertion circuit over the targets
    plus the sink; equal-length segmentation then gives each mule a start
    point, so every target is visited every ``|P| / (n·v)`` seconds.

    Parameters
    ----------
    tsp_method:
        Hamiltonian-circuit heuristic: ``"hull-insertion"`` (paper default),
        ``"nearest-neighbor"`` or ``"christofides"``.
    improve_tour:
        Run a 2-opt pass on the circuit (ablation EXT-A2; the paper does not).
    location_initialization:
        Perform the phase-2 start-point assignment.  Disabling it (the
        ``depot-start`` init stage) degrades B-TCTP into "CHB with shared
        direction" and is used by the EXT-A1 ablation to isolate the
        contribution of the initialisation step.
    """
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
    """CHB (reference [5]): ``hamiltonian | none | as-built | depot-start``.

    "The CHB approach constructs an efficient Hamiltonian Circuit and then
    all DMs visit each target along the constructed Hamiltonian Circuit.
    However, the CHB approach does not consider the situations of the
    scenario with different weighted targets and the recharge problem."
    (Section V)

    The circuit is B-TCTP's phase 1 — the same convex-hull insertion — but
    there is **no location initialisation**: each mule simply enters the
    circuit at its nearest node and follows it.  Mules therefore stay bunched
    the way they were deployed, consecutive gaps along the circuit differ,
    and the per-target visiting intervals oscillate periodically — the
    behaviour Figures 7 and 8 attribute to CHB.

    Parameters
    ----------
    tsp_method, improve_tour:
        As for :func:`btctp_pipeline`.
    """
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
    """Sweep (reference [4]): ``sweep-sector | none | as-built | depot-start``.

    One angular-sector circuit per mule (see :mod:`repro.baselines.sweep`),
    each patrolled independently from wherever the mule was deployed.

    Parameters
    ----------
    include_sink_in_groups:
        Put the sink on every sector circuit so collected data can be delivered.
    tsp_method:
        Heuristic for each sector circuit, as for :func:`btctp_pipeline`.
    """
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
    """Random: ``pool | none | stochastic | depot-start``.

    "The Random approach randomly selects the non-visited target as its next
    destination" (Section V).  The candidate pool replaces a constructed
    circuit, and the stochastic order stage draws each next waypoint online
    from a seeded per-mule stream, so a run is reproducible but the mules are
    uncoordinated — which is exactly why the Data Collection Delay Time
    fluctuates wildly in Figure 7.

    Parameters
    ----------
    seed:
        Base seed; mule ``i`` uses sub-stream ``i`` of this seed so adding a
        mule does not perturb the others' trajectories.
    include_sink:
        Whether the sink is part of the random destination pool (it is, per
        Section 2.1 — mules must still return data to the sink occasionally).
    avoid_repeat:
        Do not pick the target the mule is currently standing on.
    """
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
    """W-TCTP (Section III): ``hamiltonian | wpp | ccw-angle | equal-spacing``.

    Plans record ``W-TCTP[<policy>]`` as their strategy.

    Parameters
    ----------
    policy:
        ``"shortest"`` (Exp. 1) or ``"balanced"`` (Exp. 2) break-edge policy.
    tsp_method, improve_tour:
        Passed through to the phase-1 Hamiltonian-circuit construction.
    location_initialization:
        Space the mules equally along the WPP before patrolling (paper default).
    """
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
    """RW-TCTP (Section IV): ``hamiltonian | recharge | ccw-angle | equal-spacing``.

    The scenario needs a recharge station and mule batteries.  Plans record
    ``RW-TCTP[<policy>]`` as their strategy.

    Parameters
    ----------
    policy:
        Break-edge policy used for the underlying WPP construction.
    tsp_method, improve_tour:
        Passed through to the phase-1 Hamiltonian-circuit construction.
    location_initialization:
        Space the mules equally along the WRP before patrolling (paper default).
    treat_targets_as_vips:
        Section IV opens with "treat the recharge station as a NTP and all the
        targets are treated as VIPs"; in the evaluation the target weights of
        the scenario are used as-is.  When this flag is set, every target of
        weight 1 is promoted to ``vip_weight`` before building the WPP.
    vip_weight:
        Promotion weight used when ``treat_targets_as_vips`` is enabled.
    """
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


def composition_validator(builder: Callable[..., PlanningPipeline]):
    """Strategy-level parameter validator derived from a pipeline builder.

    Builds the composition from the given params (without planning anything)
    and validates every stage — so a typo'd ``tsp_method`` or out-of-range
    ``vip_weight`` in a campaign grid fails before any simulation runs, with
    the stage registry's did-you-mean suggestions.
    """

    def validate(params: Mapping[str, Any]) -> None:
        builder(**params).validate()

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


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #

def register_builtin_compositions() -> None:
    """Register every built-in strategy, with its builder as the factory.

    The builder's signature declares the strategy parameters, its default
    build is the listed composition, and :func:`composition_validator`
    checks parameter values before any run.  Called by the strategy
    registry's lazy built-in load, which runs once per process
    (:class:`repro.registry.Loader`).
    """
    from repro.baselines.base import register_strategy

    entries = (
        ("random", random_pipeline, (),
         "uncoordinated baseline: every mule wanders to a random target"),
        ("sweep", sweep_pipeline, (),
         "one angular target group per mule, each patrolled independently"),
        ("chb", chb_pipeline, (),
         "shared convex-hull circuit, no location initialisation"),
        ("b-tctp", btctp_pipeline, ("btctp", "tctp"),
         "basic TCTP: shared circuit + equally spaced start points"),
        ("w-tctp", wtctp_pipeline, ("wtctp",),
         "weighted TCTP: VIP-aware weighted patrolling path"),
        ("rw-tctp", rwtctp_pipeline, ("rwtctp",),
         "recharge-aware weighted TCTP (needs a recharge station)"),
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
        ("pipeline", pipeline_strategy, ("composed",),
         "any four-stage composition: tour | augment | order | init "
         "(each a stage spec like 'wpp:policy=shortest')"),
    )
    for name, builder, aliases, description in entries:
        register_strategy(
            name, builder, aliases=aliases, description=description,
            validator=composition_validator(builder), composition=builder().spec,
        )
