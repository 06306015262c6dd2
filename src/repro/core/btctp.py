"""B-TCTP: the Basic Target-Coverage Target-Patrolling algorithm (Section II).

Phase 1 — path construction: every data mule independently builds the same
Hamiltonian circuit over all targets plus the sink, using the convex-hull
insertion heuristic (the same construction the CHB baseline uses).

Phase 2 — patrolling strategy: the most-north target becomes the reference
start point; the circuit is partitioned into ``n`` equal-length segments whose
endpoints are the start points; every mule drives to its assigned start point
(closest first, energy-based displacement on conflicts) and then patrols the
circuit counter-clockwise.  Because consecutive mules are separated by exactly
``|P| / n`` metres of path and move at the same speed, every target is visited
every ``|P| / (n·v)`` seconds with zero variance — the property Figures 7 and
8 of the paper demonstrate.
"""

from __future__ import annotations

from repro.core.plan import PatrolPlan
from repro.network.scenario import Scenario

__all__ = ["plan_btctp", "expected_visiting_interval"]


def expected_visiting_interval(path_length: float, num_mules: int, velocity: float) -> float:
    """Closed-form visiting interval of B-TCTP: ``|P| / (n * v)``.

    With the mules equally spaced along the circuit and all moving at the same
    velocity, every point of the path (hence every target) is passed by some
    mule exactly once per ``|P| / (n v)`` seconds.
    """
    if num_mules <= 0:
        raise ValueError("num_mules must be positive")
    if velocity <= 0:
        raise ValueError("velocity must be positive")
    return path_length / (num_mules * velocity)


def plan_btctp(scenario: Scenario, *, tsp_method: str = "hull-insertion",
               improve_tour: bool = False, location_initialization: bool = True) -> PatrolPlan:
    """Plan B-TCTP on ``scenario`` (see :func:`~repro.planning.compositions.btctp_pipeline`)."""
    from repro.planning.compositions import btctp_pipeline

    return btctp_pipeline(
        tsp_method=tsp_method,
        improve_tour=improve_tour,
        location_initialization=location_initialization,
    ).plan(scenario)
