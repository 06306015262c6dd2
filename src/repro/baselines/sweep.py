"""The Sweep baseline's target partition (reference [4]: "Sweep Coverage with Mobile Sensors").

"The Sweep approach initially divides the DMs into several groups and then
each DM individually patrols the targets of one group" (Section V).  We
partition the targets into one group per data mule by sweeping an angular
sector around the field centre (a deterministic stand-in for CSWEEP's
partitioning); the ``sweep-sector`` tour stage then builds a
convex-hull-insertion cycle per group (always including the sink so collected
data can be delivered), and each mule patrols its own group's cycle
(:func:`repro.planning.compositions.sweep_pipeline`).  Because the groups'
cycles have very different lengths, the visiting intervals oscillate — the
behaviour Figure 7 shows for Sweep.
"""

from __future__ import annotations

import math

from repro.geometry.point import Point
from repro.network.targets import Target

__all__ = ["partition_targets_by_angle", "partition_targets_balanced"]


def partition_targets_by_angle(targets: list[Target], num_groups: int, center: Point) -> list[list[Target]]:
    """Split targets into contiguous angular sectors around ``center``.

    Targets are sorted by their polar angle and chopped into ``num_groups``
    consecutive runs of (as near as possible) equal cardinality, which mimics a
    sweep-line partition of the field.
    """
    if num_groups <= 0:
        raise ValueError("num_groups must be positive")
    ordered = sorted(
        targets,
        key=lambda t: (math.atan2(t.position.y - center.y, t.position.x - center.x), t.id),
    )
    groups: list[list[Target]] = [[] for _ in range(num_groups)]
    n = len(ordered)
    for i, t in enumerate(ordered):
        # proportional assignment keeps group sizes within one of each other
        g = min(i * num_groups // max(n, 1), num_groups - 1)
        groups[g].append(t)
    return groups


def partition_targets_balanced(targets: list[Target], num_groups: int, center: Point) -> list[list[Target]]:
    """Angular partition followed by rebalancing of empty groups.

    Guarantees every group is non-empty whenever there are at least as many
    targets as groups (a mule with nothing to patrol would sit idle forever).
    """
    groups = partition_targets_by_angle(targets, num_groups, center)
    if len(targets) < num_groups:
        return groups
    # Move targets from the largest groups into empty ones.
    for group in groups:
        while not group:
            donor = max(range(len(groups)), key=lambda j: len(groups[j]))
            if len(groups[donor]) <= 1:
                break
            group.append(groups[donor].pop())
    return groups

