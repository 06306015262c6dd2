"""Built-in stage backends: every planning step of the library as a plug-in.

Each backend is one step of the paper's algorithms or baselines — the
byte-identity tests in ``tests/test_planning_identity.py`` hold the six
paper compositions to golden plans — or one of the cross-combinable
backends (cluster-first tours, reversed ordering, random-offset
initialisation) that the cross-combined strategies add.

Backend contract (see :mod:`repro.planning.stages`):

* every backend takes the :class:`~repro.planning.pipeline.PlanningContext`
  as its only positional argument and declares stage parameters keyword-only;
* **tour** backends populate ``ctx.lanes``;
* **augment** and **order** backends refine the lanes in place;
* **init** backends return the finished ``{mule_id: MuleRoute}`` mapping.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.sweep import partition_targets_balanced
from repro.core.plan import AlternatingLoopRoute, LoopRoute, MuleRoute, StochasticRoute
from repro.core.policies import POLICIES, get_policy
from repro.core.rwtctp import compute_patrol_rounds, insert_recharge_station
from repro.core.start_points import (
    StartPoint,
    _entry_index_after,
    assign_mules_to_start_points,
    compute_start_points,
)
from repro.core.wtctp import build_wpp_structure
from repro.core.patrol_rules import build_patrol_walk
from repro.geometry.point import as_point, centroid
from repro.geometry.polyline import Polyline
from repro.graphs.hamiltonian import TOUR_BUILDERS, build_hamiltonian_circuit
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_tour, validate_walk_visits
from repro.planning.pipeline import Lane, PlanningContext
from repro.planning.stages import register_stage
from repro.registry import did_you_mean

__all__: list[str] = []  # backends are reached through the stage registry


# --------------------------------------------------------------------------- #
# Shared parameter validators
# --------------------------------------------------------------------------- #

def _check_tsp_method(params: dict) -> None:
    method = params.get("tsp_method")
    if method is not None and method not in TOUR_BUILDERS:
        raise ValueError(
            f"unknown tour construction method {method!r}; expected one of "
            f"{sorted(TOUR_BUILDERS)}{did_you_mean(method, TOUR_BUILDERS)}"
        )


def _check_policy(params: dict) -> None:
    policy = params.get("policy")
    if isinstance(policy, str) and policy.lower() not in POLICIES:
        raise ValueError(
            f"unknown break-edge policy {policy!r}; expected one of "
            f"{sorted(set(POLICIES))}{did_you_mean(policy, POLICIES)}"
        )


# --------------------------------------------------------------------------- #
# Tour stage
# --------------------------------------------------------------------------- #

@register_stage(
    "tour", "hamiltonian", aliases=("hull", "shared-circuit"),
    description="one shared Hamiltonian circuit over all targets plus the sink",
    validator=_check_tsp_method,
)
def tour_hamiltonian(
    ctx: PlanningContext, *, tsp_method: str = "hull-insertion", improve_tour: bool = False
) -> None:
    # Construction (and the optional 2-opt pass) runs the planning kernels
    # (see repro.planning.kernels), memoized by content.
    scenario = ctx.scenario
    coords = scenario.patrol_points()
    tour = build_hamiltonian_circuit(
        coords, method=tsp_method, improve=improve_tour, start=scenario.sink.id
    )
    validate_tour(tour, expected_nodes=list(coords))
    ctx.lanes = [Lane(mule_ids=tuple(m.id for m in scenario.mules), tour=tour)]


@register_stage(
    "tour", "sweep-sector", aliases=("sector",),
    description="one angular-sector circuit per mule (the Sweep partition)",
    validator=_check_tsp_method,
)
def tour_sweep_sector(
    ctx: PlanningContext, *, include_sink_in_groups: bool = True,
    tsp_method: str = "hull-insertion",
) -> None:
    scenario = ctx.scenario
    center = scenario.field.center if scenario.field is not None else centroid(
        [t.position for t in scenario.targets]
    )
    groups = partition_targets_balanced(list(scenario.targets), scenario.num_mules, center)
    lanes: list[Lane] = []
    for mule, group in zip(scenario.mules, groups):
        coords = {t.id: t.position for t in group}
        if include_sink_in_groups or not coords:
            coords[scenario.sink.id] = scenario.sink.position
        start = scenario.sink.id if scenario.sink.id in coords else next(iter(coords))
        tour = build_hamiltonian_circuit(coords, method=tsp_method, start=start)
        lanes.append(Lane(
            mule_ids=(mule.id,),
            tour=tour,
            group_targets=tuple(t.id for t in group),
            meta={
                "mule": mule.id,
                "targets": [t.id for t in group],
                "cycle_length": tour.length(),
            },
        ))
    ctx.lanes = lanes


def _check_cluster_params(params: dict) -> None:
    k = params.get("num_clusters")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise ValueError(f"num_clusters must be a positive integer or None, got {k!r}")


def _kmeans_labels(pts: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-means: farthest-point seeding + a bounded Lloyd loop."""
    n = len(pts)
    if k >= n:
        return np.arange(n)
    seeds = [0]
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    while len(seeds) < k:
        nxt = int(np.argmax(d2))
        seeds.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    centroids = pts[seeds].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(25):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        updated = centroids.copy()
        for j in range(k):
            members = pts[labels == j]
            if len(members):
                updated[j] = members.mean(axis=0)
        if np.allclose(updated, centroids):
            break
        centroids = updated
    return labels


@register_stage(
    "tour", "cluster-first", aliases=("cluster",),
    description="cluster targets (deterministic k-means), chain the clusters "
                "nearest-first from the sink, nearest-neighbour inside each",
    validator=_check_cluster_params,
)
def tour_cluster_first(ctx: PlanningContext, *, num_clusters: "int | None" = None) -> None:
    scenario = ctx.scenario
    coords = scenario.patrol_points()
    targets = list(scenario.targets)
    if not targets:
        raise ValueError("cluster-first tours need at least one target")
    if num_clusters is None:
        k = max(1, int(round(math.sqrt(len(targets)))))
    else:
        k = int(num_clusters)
        if k < 1:
            raise ValueError(f"num_clusters must be a positive integer or None, got {num_clusters!r}")
    k = min(k, len(targets))
    pts = np.array([[t.position.x, t.position.y] for t in targets], dtype=float)
    labels = _kmeans_labels(pts, k)
    clusters = [[t for t, lab in zip(targets, labels) if lab == j] for j in range(k)]
    clusters = [c for c in clusters if c]

    order = [scenario.sink.id]
    current = scenario.sink.position
    while clusters:
        ci = min(
            range(len(clusters)),
            key=lambda i: (current.distance_to(centroid([t.position for t in clusters[i]])), i),
        )
        cluster = clusters.pop(ci)
        while cluster:
            ti = min(
                range(len(cluster)),
                key=lambda i: (current.distance_to(cluster[i].position), str(cluster[i].id)),
            )
            nxt = cluster.pop(ti)
            order.append(nxt.id)
            current = nxt.position
    tour = Tour(order, coords)
    validate_tour(tour, expected_nodes=list(coords))
    ctx.lanes = [Lane(mule_ids=tuple(m.id for m in scenario.mules), tour=tour)]


@register_stage(
    "tour", "pool", aliases=("candidates",),
    description="no constructed circuit: the bare candidate pool (targets "
                "plus, optionally, the sink) for online waypoint selection",
)
def tour_pool(ctx: PlanningContext, *, include_sink: bool = True) -> None:
    scenario = ctx.scenario
    candidates = [t.id for t in scenario.targets]
    if include_sink:
        candidates.append(scenario.sink.id)
    lane = Lane(
        mule_ids=tuple(m.id for m in scenario.mules),
        tour=None,
        candidates=candidates,
    )
    # Full coordinate map (sink included even when it is not a candidate),
    # exactly what the stochastic routes historically received.
    lane.coords = scenario.patrol_points()
    ctx.lanes = [lane]


# --------------------------------------------------------------------------- #
# Augment stage
# --------------------------------------------------------------------------- #

@register_stage(
    "augment", "none", aliases=("identity",),
    description="no augmentation: traverse the base circuit as constructed",
)
def augment_none(ctx: PlanningContext) -> None:
    return None


def _require_tour(lane: Lane, stage: str):
    if lane.tour is None:
        raise ValueError(
            f"the {stage!r} stage needs a constructed circuit; 'pool' tours "
            "provide only a candidate set"
        )
    return lane.tour


@register_stage(
    "augment", "wpp", aliases=("weighted", "vip"),
    description="Section III cycle construction: a VIP of weight w joins w "
                "cycles of the weighted patrolling path",
    validator=_check_policy,
)
def augment_wpp(ctx: PlanningContext, *, policy: str = "balanced") -> None:
    weights = ctx.scenario.weights()
    for lane in ctx.lanes:
        tour = _require_tour(lane, "wpp augment")
        # A one-node circuit (a sweep sector holding only the sink) has no
        # edge to break: its lane patrols the node as built.
        if len(tour.order) > 1:
            lane.structure, lane.weights = build_wpp_structure(tour, weights, policy)
    ctx.facts["policy"] = get_policy(policy).name


def _check_recharge_params(params: dict) -> None:
    _check_policy(params)
    w = params.get("vip_weight")
    if w is not None and (not isinstance(w, int) or isinstance(w, bool) or w < 1):
        raise ValueError(f"vip_weight must be a positive integer, got {w!r}")


@register_stage(
    "augment", "recharge", aliases=("wrp", "recharge-weave"),
    description="Section IV: build the WPP, then weave the recharge station "
                "in (Exp. 3) and schedule Equation (4)'s patrol rounds",
    validator=_check_recharge_params,
)
def augment_recharge(
    ctx: PlanningContext, *, policy: str = "balanced",
    treat_targets_as_vips: bool = False, vip_weight: int = 2,
) -> None:
    scenario = ctx.scenario
    if scenario.recharge_station is None:
        raise ValueError(
            "the recharge augment stage requires a scenario with a recharge station"
        )
    weights = scenario.weights()
    if treat_targets_as_vips:
        weights = {
            n: (max(w, vip_weight) if n != scenario.sink.id else w)
            for n, w in weights.items()
        }
    station = scenario.recharge_station
    for lane in ctx.lanes:
        tour = _require_tour(lane, "recharge augment")
        lane.structure, lane.weights = build_wpp_structure(tour, weights, policy)
        lane.recharge_structure = insert_recharge_station(
            lane.structure, lane.weights, station.id, station.position
        )
        lane.recharge_id = station.id
        lane.patrol_rounds = compute_patrol_rounds(scenario, lane.structure.length())
    ctx.facts["policy"] = get_policy(policy).name


# --------------------------------------------------------------------------- #
# Order stage
# --------------------------------------------------------------------------- #

def _trim_closed_walk(walk: "list[str]") -> "list[str]":
    """One lap of a closed walk (drop the repeated head, if any)."""
    if len(walk) > 1 and walk[0] == walk[-1]:
        return list(walk[:-1])
    return list(walk)


def _natural_walks(lane: Lane) -> None:
    """The lane's natural traversal: as-built for plain circuits, the
    counter-clockwise minimal-included-angle patrolling rule for structures."""
    if lane.tour is None:
        raise ValueError(
            "this order backend needs a constructed circuit; the 'pool' tour "
            "provides only a candidate set (use order='stochastic')"
        )
    if lane.structure is None and lane.recharge_structure is None:
        loop = list(lane.tour.order)
        lane.loop = loop
        lane.walk = loop + loop[:1]
        lane.coords = lane.tour.coordinates
        return
    start = lane.tour.order[0]
    walk = build_patrol_walk(lane.structure, start)
    if lane.weights is not None:
        validate_walk_visits(walk, lane.weights)
    lane.walk = walk
    lane.loop = _trim_closed_walk(walk)
    lane.coords = lane.structure.coordinates
    if lane.recharge_structure is not None:
        recharge_walk = build_patrol_walk(lane.recharge_structure, start)
        combined = dict(lane.weights or {})
        combined[lane.recharge_id] = 1
        validate_walk_visits(recharge_walk, combined)
        lane.recharge_loop = _trim_closed_walk(recharge_walk)
        # superset: includes the recharge station
        lane.coords = lane.recharge_structure.coordinates


@register_stage(
    "order", "as-built", aliases=("forward", "tour-order"),
    description="traverse the circuit in construction order",
)
def order_as_built(ctx: PlanningContext) -> None:
    for lane in ctx.lanes:
        if lane.augmented:
            raise ValueError(
                "as-built ordering cannot traverse a weighted structure; "
                "use the 'ccw-angle' (or 'reversed') order backend"
            )
        _natural_walks(lane)


@register_stage(
    "order", "ccw-angle", aliases=("ccw", "angle-rule"),
    description="the paper's counter-clockwise minimal-included-angle "
                "patrolling rule (a specific Euler circuit of the structure)",
)
def order_ccw_angle(ctx: PlanningContext) -> None:
    for lane in ctx.lanes:
        if lane.structure is None:
            tour = _require_tour(lane, "ccw-angle order")
            # A plain circuit is still a (degree-2) structure; the angle rule
            # picks a deterministic direction around it.  A one-node circuit
            # has no edge, and its lane patrols the node as built.
            if len(tour.order) > 1:
                lane.structure = MultiTour.from_tour(tour)
        _natural_walks(lane)


@register_stage(
    "order", "reversed", aliases=("cw", "clockwise"),
    description="the natural traversal, reversed (clockwise patrol)",
)
def order_reversed(ctx: PlanningContext) -> None:
    for lane in ctx.lanes:
        _natural_walks(lane)
        lane.loop = [lane.loop[0]] + lane.loop[:0:-1]
        lane.walk = lane.loop + lane.loop[:1]
        if lane.recharge_loop is not None:
            lane.recharge_loop = [lane.recharge_loop[0]] + lane.recharge_loop[:0:-1]


@register_stage(
    "order", "stochastic", aliases=("random-walk",),
    description="online waypoint selection: each next target drawn from a "
                "seeded per-mule random stream",
)
def order_stochastic(
    ctx: PlanningContext, *, seed: "int | None" = 0, avoid_repeat: bool = True
) -> None:
    for lane in ctx.lanes:
        if lane.augmented:
            raise ValueError("stochastic ordering cannot traverse a weighted structure")
        lane.stochastic = {
            "seed": seed,
            "avoid_repeat": bool(avoid_repeat),
            # Pool lanes carry an explicit candidate set; for constructed
            # circuits the tour's nodes are the candidates.
            "candidates": list(lane.candidates if lane.candidates is not None
                               else lane.tour.order),
        }
        if lane.coords is None:  # pool lanes already carry the full map
            lane.coords = ctx.scenario.patrol_points()


# --------------------------------------------------------------------------- #
# Init stage
# --------------------------------------------------------------------------- #

def _make_route(lane: Lane, mule_id: str, *, entry_index: int, start) -> MuleRoute:
    if lane.recharge_loop is not None:
        return AlternatingLoopRoute(
            mule_id,
            lane.loop,
            lane.recharge_loop,
            lane.coords,
            patrol_rounds=lane.patrol_rounds,
            entry_index=entry_index,
            start=start,
        )
    return LoopRoute(mule_id, lane.loop, lane.coords, entry_index=entry_index, start=start)


def _require_lap(lane: Lane, backend: str) -> None:
    if lane.stochastic is not None or lane.loop is None:
        raise ValueError(
            f"the {backend!r} initialisation needs a fixed patrol lap; "
            "stochastic routes have none (use 'depot-start')"
        )


@register_stage(
    "init", "equal-spacing", aliases=("location-initialization", "start-points"),
    description="Section 2.2-B location initialisation: equal-length start "
                "points, closest-first claims, energy-based displacement",
)
def init_equal_spacing(ctx: PlanningContext) -> "dict[str, MuleRoute]":
    routes: dict[str, MuleRoute] = {}
    for lane in ctx.lanes:
        _require_lap(lane, "equal-spacing")
        mules = ctx.lane_mules(lane)
        start_points = compute_start_points(lane.loop, lane.coords, len(mules))
        assignment = assign_mules_to_start_points(
            start_points,
            {m.id: m.position for m in mules},
            {m.id: m.remaining_energy for m in mules},
        )
        lane.start_points = start_points
        for mule in mules:
            sp = assignment.start_point_for(mule.id)
            routes[mule.id] = _make_route(
                lane, mule.id, entry_index=sp.entry_index, start=sp.position
            )
    return routes


@register_stage(
    "init", "depot-start", aliases=("nearest", "as-deployed"),
    description="no initialisation phase: each mule starts where it was "
                "deployed and enters the lap at its nearest waypoint",
)
def init_depot_start(ctx: PlanningContext) -> "dict[str, MuleRoute]":
    routes: dict[str, MuleRoute] = {}
    for lane in ctx.lanes:
        mules = ctx.lane_mules(lane)
        if lane.stochastic is not None:
            seed_seq = np.random.SeedSequence(lane.stochastic["seed"])
            children = seed_seq.spawn(len(mules))
            for child, mule in zip(children, mules):
                routes[mule.id] = StochasticRoute(
                    mule.id,
                    lane.stochastic["candidates"],
                    lane.coords,
                    rng=np.random.default_rng(child),
                    avoid_repeat=lane.stochastic["avoid_repeat"],
                )
            continue
        # Resolve the lap's coordinates once; the per-mule scan below matches
        # the historical tie-breaking exactly (first index of minimal distance).
        lap_points = [lane.coords[n] for n in lane.loop]
        for mule in mules:
            position = mule.position
            entry = min(
                range(len(lap_points)),
                key=lambda i: position.distance_to(lap_points[i]),
            )
            routes[mule.id] = _make_route(lane, mule.id, entry_index=entry, start=None)
    return routes


def _check_offset_seed(params: dict) -> None:
    seed = params.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ValueError(f"seed must be an integer or None, got {seed!r}")


@register_stage(
    "init", "random-offset", aliases=("staggered",),
    description="seeded uniform-random arc-length offsets along the lap "
                "(uncoordinated spacing, for ablating the start-point rule)",
    validator=_check_offset_seed,
)
def init_random_offset(ctx: PlanningContext, *, seed: "int | None" = 0) -> "dict[str, MuleRoute]":
    routes: dict[str, MuleRoute] = {}
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for lane in ctx.lanes:
        _require_lap(lane, "random-offset")
        mules = ctx.lane_mules(lane)
        pts = [as_point(lane.coords[n]) for n in lane.loop]
        poly = Polyline(pts, closed=True)
        total = poly.length
        cumulative = [poly.arc_length_of_vertex(i) for i in range(len(lane.loop))]
        offsets = rng.uniform(0.0, total if total > 0 else 1.0, size=len(mules))
        start_points: list[StartPoint] = []
        for index, (mule, raw) in enumerate(zip(mules, offsets)):
            s = float(raw) % total if total > 0 else 0.0
            entry = _entry_index_after(s, cumulative, total)
            position = poly.point_at(s)
            start_points.append(
                StartPoint(index=index, position=position, arc_length=s, entry_index=entry)
            )
            routes[mule.id] = _make_route(lane, mule.id, entry_index=entry, start=position)
        lane.start_points = tuple(start_points)
    return routes
