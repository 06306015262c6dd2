"""Composable planning pipeline: tour | augment | order | init.

Every patrol strategy in the library is one four-stage composition (see
:mod:`repro.planning.pipeline`); each stage is a registered, pluggable
backend (:mod:`repro.planning.stages` / :mod:`repro.planning.backends`); a
composition is round-trippable data (:class:`PipelineSpec`); and named
compositions — the paper's six strategies plus the new cross-combinations —
live in :mod:`repro.planning.compositions`, wired into the strategy registry.

Quick tour::

    from repro.planning import PipelineSpec, PlanningPipeline
    from repro.scenarios import get_scenario

    spec = PipelineSpec(tour="cluster-first", augment="wpp:policy=shortest",
                        order="ccw-angle", init="equal-spacing")
    plan = PlanningPipeline(spec.validate(), name="demo").plan(get_scenario("ring"))

or, through the strategy registry (sweepable from campaigns and the CLI)::

    from repro import get_strategy
    planner = get_strategy("pipeline", tour="cluster-first", order="reversed")
"""

from repro.planning.stages import (
    STAGE_KINDS,
    StageBackendInfo,
    StageParam,
    available_stage_backends,
    canonical_stage_backend,
    register_stage,
    stage_backend_info,
    validate_stage_params,
)
from repro.planning.spec import PipelineSpec, StageSpec
from repro.planning.pipeline import Lane, PlanningContext, PlanningPipeline

__all__ = [
    "STAGE_KINDS",
    "StageParam",
    "StageBackendInfo",
    "register_stage",
    "available_stage_backends",
    "canonical_stage_backend",
    "stage_backend_info",
    "validate_stage_params",
    "StageSpec",
    "PipelineSpec",
    "Lane",
    "PlanningContext",
    "PlanningPipeline",
]
