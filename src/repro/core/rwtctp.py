"""RW-TCTP: W-TCTP with recharge (Section IV).

Each mule constructs two structures:

* the **weighted patrolling path** (WPP ``P̄``), exactly as in W-TCTP, and
* the **weighted recharge path** (WRP ``P̃``), obtained from the WPP by
  breaking the edge that minimises Exp. (3)
  ``|g_y R| + |g_{y+1} R| - |g_y g_{y+1}|`` and connecting both break points
  to the recharge station ``R``.

Equation (4) then gives the number of rounds a full battery supports,

    r = M_Energy / ( |P̄| · c_m + h · c_s ),

and the schedule is: patrol the WPP for ``r - 1`` laps, then take the WRP lap
(which passes through ``R``) to recharge, and repeat.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.patrol_rules import build_patrol_walk
from repro.core.plan import PatrolPlan
from repro.energy.model import EnergyModel, patrolling_rounds
from repro.geometry.point import Point, distance
from repro.graphs.multitour import MultiTour
from repro.graphs.validation import validate_walk_visits, validate_weighted_recharge_path
from repro.network.scenario import Scenario

__all__ = [
    "insert_recharge_station",
    "build_weighted_recharge_path",
    "compute_patrol_rounds",
    "plan_rwtctp",
]


def insert_recharge_station(
    wpp: MultiTour,
    weights: Mapping[str, int],
    recharge_id: str,
    recharge_position: Point,
) -> MultiTour:
    """Structure surgery only: weave the recharge station into a WPP.

    The break edge is the one minimising Exp. (3); both break points are
    connected to the recharge station, which therefore joins the structure as
    a weight-1 node (Definition 5).  This is the augment-stage half of
    :func:`build_weighted_recharge_path`; walk extraction (the patrolling
    rule) is a separate pipeline stage.
    """
    wrp = wpp.copy()
    wrp.add_node(recharge_id, recharge_position)

    candidates = [(u, v, k) for (u, v, k) in wrp.edges() if recharge_id not in (u, v)]
    if not candidates:
        raise ValueError("weighted patrolling path has no edge to break for the recharge station")

    def added_length(edge: tuple[str, str, int]) -> float:
        u, v, _k = edge
        return (
            distance(wrp.point(u), recharge_position)
            + distance(wrp.point(v), recharge_position)
            - distance(wrp.point(u), wrp.point(v))
        )

    u, v, key = min(candidates, key=lambda e: (added_length(e), str(e[0]), str(e[1])))
    wrp.break_edge(u, v, recharge_id, key=key)

    validate_weighted_recharge_path(wrp, weights, recharge_id)
    return wrp


def build_weighted_recharge_path(
    wpp: MultiTour,
    weights: Mapping[str, int],
    recharge_id: str,
    recharge_position: Point,
    *,
    walk_start: str,
) -> tuple[MultiTour, list[str]]:
    """Insert the recharge station into a WPP, producing the WRP and its walk."""
    wrp = insert_recharge_station(wpp, weights, recharge_id, recharge_position)
    walk = build_patrol_walk(wrp, walk_start)
    combined = dict(weights)
    combined[recharge_id] = 1
    validate_walk_visits(walk, combined)
    return wrp, walk


def compute_patrol_rounds(scenario: Scenario, wpp_length: float) -> int:
    """Equation (4) with the scenario's energy model and mule battery capacity."""
    model: EnergyModel = scenario.params.energy_model
    capacities = [
        m.battery.capacity for m in scenario.mules if m.battery is not None
    ]
    if not capacities:
        raise ValueError("RW-TCTP requires mules with batteries (finite M_Energy)")
    m_energy = min(capacities)  # plan for the weakest mule so nobody dies
    r = patrolling_rounds(m_energy, wpp_length, scenario.num_targets, model)
    return max(r, 1)


def plan_rwtctp(
    scenario: Scenario,
    *,
    policy: str = "balanced",
    tsp_method: str = "hull-insertion",
    improve_tour: bool = False,
    location_initialization: bool = True,
    treat_targets_as_vips: bool = False,
    vip_weight: int = 2,
) -> PatrolPlan:
    """Plan RW-TCTP on ``scenario`` (see :func:`~repro.planning.compositions.rwtctp_pipeline`)."""
    from repro.planning.compositions import rwtctp_pipeline

    return rwtctp_pipeline(
        policy=policy,
        tsp_method=tsp_method,
        improve_tour=improve_tour,
        location_initialization=location_initialization,
        treat_targets_as_vips=treat_targets_as_vips,
        vip_weight=vip_weight,
    ).plan(scenario)
