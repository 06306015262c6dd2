"""W-TCTP: Weighted TCTP (Section III).

Phase 1 — weighted patrolling path (WPP) construction: starting from the
Hamiltonian circuit of B-TCTP, each VIP ``g_i`` (weight ``w_i > 1``) triggers
``w_i - 1`` cycle-construction steps that break an edge of the current path and
reconnect the break points to the VIP.  VIPs are processed in descending
weight (priority ``p_i = w_i``); break edges are chosen by either the
Shortest-Length or the Balancing-Length policy.

Phase 2 — patrolling strategy: the traversal order through each VIP is fixed
by the counter-clockwise minimal-included-angle rule
(:mod:`repro.core.patrol_rules`), so every mule follows the identical closed
walk in which a VIP of weight ``w`` appears ``w`` times per lap.  Location
initialisation then spaces the mules equally along that walk, exactly as in
B-TCTP.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.patrol_rules import build_patrol_walk
from repro.core.plan import PatrolPlan
from repro.core.policies import BreakEdgePolicy, get_policy
from repro.geometry.cache import ContentCache, points_fingerprint
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_walk_visits, validate_weighted_patrolling_path
from repro.network.scenario import Scenario

__all__ = [
    "build_wpp_structure",
    "build_weighted_patrolling_path",
    "plan_wtctp",
]


# Finished WPPs memoized by content: the tour's node order, the fingerprint
# of its coordinates, the per-node weights in tour order and the resolved
# policy class (so aliases share an entry).  W-TCTP and RW-TCTP build the same
# WPP on one layout; RW-TCTP then weaves the recharge station into a copy.
# The entry itself is never handed out: every call returns a copy, because
# callers own (and may edit) the structure they get.
_WPP_CACHE = ContentCache("wpp_structure", maxsize=32)


def build_wpp_structure(
    tour: Tour,
    weights: Mapping[str, int],
    policy: "str | BreakEdgePolicy" = "balanced",
) -> tuple[MultiTour, dict[str, int]]:
    """Phase 1 only: the WPP multigraph plus the resolved per-node weights.

    This is the cycle-construction half of
    :func:`build_weighted_patrolling_path` — the augment stage of the
    composable planning pipeline; traversal-order extraction (the patrolling
    rule) is a separate stage.

    Returns
    -------
    (structure, full_weights):
        The WPP as a :class:`MultiTour` (VIP ``g_i`` has degree ``2 w_i``) and
        the weight of every tour node (absent nodes defaulted to 1).  Both are
        the caller's own: a policy given by name is memoized by content (see
        :mod:`repro.geometry.cache`), and every call returns a fresh copy of
        the memoized structure.  A :class:`BreakEdgePolicy` instance always
        builds afresh.
    """
    policy_obj = get_policy(policy)
    full_weights = {n: int(weights.get(n, 1)) for n in tour.order}
    for node, w in full_weights.items():
        if w < 1:
            raise ValueError(f"weight of {node!r} must be >= 1, got {w}")

    if isinstance(policy, BreakEdgePolicy):
        structure = _build_wpp(tour, full_weights, policy_obj)
    else:
        key = (
            tour.order,
            points_fingerprint(tour.points_in_order()),
            tuple(full_weights.values()),
            type(policy_obj),
        )
        structure = _WPP_CACHE.get_or_compute(
            key, lambda: _build_wpp(tour, full_weights, policy_obj)
        )
    return structure.copy(), full_weights


def _build_wpp(
    tour: Tour, full_weights: dict[str, int], policy: BreakEdgePolicy
) -> MultiTour:
    structure = MultiTour.from_tour(tour)
    # Descending weight = descending priority (Section 3.1-B); deterministic
    # tie-break on the identifier so all mules build the same WPP.
    vips = sorted(
        (n for n, w in full_weights.items() if w > 1),
        key=lambda n: (-full_weights[n], str(n)),
    )
    for vip in vips:
        policy.apply(structure, vip, full_weights[vip])

    validate_weighted_patrolling_path(structure, full_weights)
    return structure


def build_weighted_patrolling_path(
    tour: Tour,
    weights: Mapping[str, int],
    policy: "str | BreakEdgePolicy" = "balanced",
) -> tuple[MultiTour, list[str]]:
    """Construct the WPP multigraph and its traversal walk from a Hamiltonian circuit.

    Parameters
    ----------
    tour:
        The phase-1 Hamiltonian circuit (every target exactly once).
    weights:
        Node -> weight; nodes absent from the mapping default to weight 1.
        Weights below 1 are rejected.
    policy:
        Break-edge policy name or instance (``"shortest"`` / ``"balanced"``).

    Returns
    -------
    (structure, walk):
        The WPP as a :class:`MultiTour` (VIP ``g_i`` has degree ``2 w_i``) and
        the closed traversal walk chosen by the patrolling rule (first node
        repeated at the end).
    """
    structure, full_weights = build_wpp_structure(tour, weights, policy)
    start = tour.order[0]
    walk = build_patrol_walk(structure, start)
    validate_walk_visits(walk, full_weights)
    return structure, walk


def plan_wtctp(
    scenario: Scenario,
    *,
    policy: str = "balanced",
    tsp_method: str = "hull-insertion",
    improve_tour: bool = False,
    location_initialization: bool = True,
) -> PatrolPlan:
    """Plan W-TCTP on ``scenario`` (see :func:`~repro.planning.compositions.wtctp_pipeline`)."""
    from repro.planning.compositions import wtctp_pipeline

    return wtctp_pipeline(
        policy=policy,
        tsp_method=tsp_method,
        improve_tour=improve_tour,
        location_initialization=location_initialization,
    ).plan(scenario)
