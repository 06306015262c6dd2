"""The composable planning pipeline: four stages from scenario to patrol plan.

Every strategy in the library — the paper's three TCTP variants, the three
baselines, and any cross-combination — is the same four-stage computation:

1. **tour** — build the base circuit(s): one shared Hamiltonian circuit
   (TCTP/CHB), one angular-sector circuit per mule (Sweep), a cluster-first
   chain, or a bare candidate pool (Random);
2. **augment** — lift each circuit into a weighted patrol structure: the WPP
   cycle construction of Section III, the recharge-path weaving of Section
   IV, or nothing;
3. **order** — fix the traversal: the counter-clockwise minimal-included-angle
   patrolling rule, the circuit's as-built order, its reverse, or online
   stochastic waypoint selection;
4. **init** — place the mules: equal-spacing start points with the paper's
   energy-based conflict rule, depot-start (enter at the nearest waypoint),
   or seeded random arc offsets.

The pipeline threads a :class:`PlanningContext` through the four registered
backends (see :mod:`repro.planning.stages`) and assembles the final
:class:`~repro.core.plan.PatrolPlan`.  Stage state flows through
:class:`Lane` objects — one lane per independent patrol circuit, so shared-
circuit strategies use a single lane covering every mule while Sweep-style
strategies use one lane per mule.  Every composition builds its routes from
the same route classes (:class:`~repro.core.plan.LoopRoute` and friends), so
the analytic fast path of :mod:`repro.sim.fastpath` applies to any composed
strategy exactly as it does to the paper's six.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from repro.core.plan import MuleRoute, PatrolPlan
from repro.core.start_points import StartPoint
from repro.geometry.point import Point
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour
from repro.network.scenario import Scenario
from repro.obs import registry as _obs
from repro.planning.spec import PipelineSpec
from repro.planning.stages import stage_backend_info

__all__ = ["Lane", "PlanningContext", "PlanningPipeline"]


@dataclass(slots=True)
class Lane:
    """One independent patrol circuit and the mules assigned to it.

    The tour stage creates lanes; the augment and order stages refine them in
    place; the init stage reads the finished lanes to construct routes.
    """

    mule_ids: tuple[str, ...]
    #: the constructed base circuit; ``None`` for pool lanes, which carry a
    #: bare candidate set instead (no circuit to traverse).
    tour: "Tour | None"
    #: candidate waypoints of a pool lane (stochastic ordering draws from these).
    candidates: "list[str] | None" = None
    #: target ids of the lane's group (sector/cluster partitions); ``None``
    #: when the lane covers the whole scenario.
    group_targets: "tuple[str, ...] | None" = None
    #: lane-local metadata contributed by the tour stage (e.g. Sweep's groups).
    meta: dict = dc_field(default_factory=dict)

    # -- augment stage ---------------------------------------------------- #
    structure: "MultiTour | None" = None
    recharge_structure: "MultiTour | None" = None
    weights: "dict[str, int] | None" = None
    recharge_id: "str | None" = None
    patrol_rounds: int = 1

    # -- order stage ------------------------------------------------------ #
    #: closed traversal walk (first node repeated at the end) and its lap.
    walk: "list[str] | None" = None
    loop: "list[str] | None" = None
    recharge_loop: "list[str] | None" = None
    coords: "dict[str, Point] | None" = None
    #: set by the stochastic order backend: ``{"seed", "avoid_repeat", "candidates"}``.
    stochastic: "dict | None" = None

    # -- init stage ------------------------------------------------------- #
    start_points: "tuple[StartPoint, ...] | None" = None

    @property
    def augmented(self) -> bool:
        return self.structure is not None


@dataclass(slots=True)
class PlanningContext:
    """Mutable state threaded through the four pipeline stages."""

    scenario: Scenario
    spec: PipelineSpec
    lanes: list[Lane] = dc_field(default_factory=list)
    #: cross-stage facts for metadata/naming (e.g. the resolved policy name).
    facts: dict[str, Any] = dc_field(default_factory=dict)

    @property
    def single_lane(self) -> "Lane | None":
        """The lane, when the whole scenario runs on one shared circuit."""
        return self.lanes[0] if len(self.lanes) == 1 else None

    def lane_mules(self, lane: Lane):
        """The lane's mule objects, in scenario order."""
        mules = self.scenario.mules
        if len(lane.mule_ids) == len(mules):  # the common shared-circuit lane
            return list(mules)
        wanted = set(lane.mule_ids)
        return [m for m in mules if m.id in wanted]


class PlanningPipeline:
    """Executable form of a :class:`PipelineSpec`; satisfies ``PatrolStrategy``.

    Parameters
    ----------
    spec:
        The four-stage composition to run.
    name:
        Display name recorded as ``PatrolPlan.strategy``.  May contain
        ``{policy}``, which resolves to the augment stage's break-edge policy
        name at planning time (mirroring ``"W-TCTP[balanced]"``).
    metadata_profile:
        Optional callable mapping the finished :class:`PlanningContext` to the
        plan's metadata dict.  The paper's six strategies install profiles
        that fix their metadata (see :mod:`repro.planning.compositions`);
        other compositions default to :func:`default_metadata`.

    Examples
    --------
    >>> from repro.planning import PipelineSpec, PlanningPipeline
    >>> from repro.scenarios import get_scenario
    >>> spec = PipelineSpec(tour="hamiltonian", augment="none",
    ...                     order="as-built", init="equal-spacing")
    >>> plan = PlanningPipeline(spec, name="demo").plan(get_scenario("uniform"))
    >>> sorted(plan.mule_ids)[:2]
    ['m1', 'm2']
    """

    def __init__(
        self,
        spec: PipelineSpec,
        *,
        name: str = "pipeline",
        metadata_profile: "Callable[[PlanningContext], dict] | None" = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.metadata_profile = metadata_profile
        # Backend resolution memoized per pipeline: specs are immutable and
        # campaign cells re-plan through shared pipeline instances.
        self._resolved: "list[tuple[str, str, Callable, dict]] | None" = None
        self._name_is_template = "{policy}" in name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PlanningPipeline({self.spec.compact()!r}, name={self.name!r})"

    # ------------------------------------------------------------------ #
    def validate(self) -> "PlanningPipeline":
        """Validate the underlying spec (names, params, stage compatibility)."""
        self.spec.validate()
        return self

    def plan(self, scenario: Scenario) -> PatrolPlan:
        """Run the four stages and assemble the patrol plan."""
        if self._resolved is None:
            self._resolved = [
                (kind, stage.name,
                 stage_backend_info(kind, stage.name).factory, dict(stage.params))
                for kind, stage in self.spec.stages()
            ]
        ctx = PlanningContext(scenario=scenario, spec=self.spec)
        routes: "dict[str, MuleRoute] | None" = None
        for kind, backend, factory, params in self._resolved:
            with _obs.span(f"stage:{kind}", cat="planning", backend=backend):
                result = factory(ctx, **params)
            if kind == "init":
                routes = result
        assert routes is not None  # the init stage always returns the routes
        try:
            ordered = {m.id: routes[m.id] for m in scenario.mules}
        except KeyError:
            missing = [m.id for m in scenario.mules if m.id not in routes]
            raise ValueError(f"init stage produced no route for mule(s): {missing}") from None
        profile = self.metadata_profile or default_metadata
        return PatrolPlan(
            strategy=self._display_name(ctx), routes=ordered, metadata=profile(ctx)
        )

    def _display_name(self, ctx: PlanningContext) -> str:
        if self._name_is_template:
            return self.name.format(policy=ctx.facts.get("policy", "?"))
        return self.name


def default_metadata(ctx: PlanningContext) -> dict:
    """Stage-derived metadata for composed strategies.

    The paper's six strategies install their own profiles instead (see
    :mod:`repro.planning.compositions`); everything else gets this uniform
    assembly: the pipeline composition itself plus whatever the stages
    produced (tour/structure lengths, traversal walk, groups, start points).
    """
    md: dict[str, Any] = {"pipeline": ctx.spec.to_dict()}
    lane = ctx.single_lane
    if lane is None:
        md["groups"] = [dict(ln.meta) for ln in ctx.lanes if ln.meta]
        return md
    if lane.stochastic is not None:
        md["seed"] = lane.stochastic.get("seed")
        md["candidates"] = len(lane.stochastic.get("candidates", ()))
        return md
    md["path_length"] = lane.tour.length()
    if lane.structure is not None:
        md["wpp_length"] = lane.structure.length()
        if "policy" in ctx.facts:
            md["policy"] = ctx.facts["policy"]
    if lane.recharge_structure is not None:
        md["wrp_length"] = lane.recharge_structure.length()
        md["patrol_rounds"] = lane.patrol_rounds
        md["recharge_station"] = lane.recharge_id
    if lane.loop is not None:
        md["walk"] = list(lane.loop)
    if lane.start_points is not None:
        md["start_points"] = start_point_table(lane.start_points)
    return md


def start_point_table(start_points) -> list[dict]:
    """The JSON-safe start-point table (B-TCTP metadata format)."""
    return [
        {"index": sp.index, "x": sp.position.x, "y": sp.position.y, "arc": sp.arc_length}
        for sp in start_points
    ]
