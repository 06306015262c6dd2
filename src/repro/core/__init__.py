"""The paper's contribution: the B-TCTP, W-TCTP and RW-TCTP patrolling algorithms.

* :mod:`repro.core.btctp` — Section II: shared Hamiltonian circuit, equal-length
  segmentation and location initialisation.
* :mod:`repro.core.wtctp` — Section III: Weighted Patrolling Path construction
  with the Shortest-Length / Balancing-Length break-edge policies and the
  counter-clockwise-angle patrolling rule.
* :mod:`repro.core.rwtctp` — Section IV: Weighted Recharge Path and the
  energy-aware round schedule.

These modules hold the algorithms' building blocks and the plan model; the
planning pipeline's stages call them, and each algorithm as a whole is a
stage composition (:mod:`repro.planning.compositions`).  ``plan_btctp``,
``plan_wtctp`` and ``plan_rwtctp`` plan one scenario in one call.
"""

from repro.core.plan import LoopRoute, AlternatingLoopRoute, StochasticRoute, MuleRoute, PatrolPlan
from repro.core.start_points import compute_start_points, assign_mules_to_start_points, StartPointAssignment
from repro.core.policies import (
    BreakEdgePolicy,
    ShortestLengthPolicy,
    BalancingLengthPolicy,
    get_policy,
)
from repro.core.patrol_rules import angle_walk, build_patrol_walk
from repro.core.btctp import plan_btctp
from repro.core.wtctp import plan_wtctp, build_weighted_patrolling_path
from repro.core.rwtctp import plan_rwtctp, build_weighted_recharge_path

__all__ = [
    "MuleRoute",
    "LoopRoute",
    "AlternatingLoopRoute",
    "StochasticRoute",
    "PatrolPlan",
    "compute_start_points",
    "assign_mules_to_start_points",
    "StartPointAssignment",
    "BreakEdgePolicy",
    "ShortestLengthPolicy",
    "BalancingLengthPolicy",
    "get_policy",
    "angle_walk",
    "build_patrol_walk",
    "plan_btctp",
    "plan_wtctp",
    "build_weighted_patrolling_path",
    "plan_rwtctp",
    "build_weighted_recharge_path",
]
