"""The W-TCTP patrolling rule (Section 3.2): deterministic traversal of a WPP.

At a VIP several cycles meet, so a data mule arriving there has a choice of
outgoing edges.  The paper's rule makes every mule take the same choice:

    "When a DM arrives at a VIP ``g_i`` from target ``g_j``, it selects a
    target ``g_k`` ... which has minimal included angle with the former route
    ``g_j`` to ``g_i`` in the counterclockwise direction, as its next visiting
    target."

Applied at every node (an NTP has only one remaining edge, so the rule is
trivial there), this yields one specific Euler circuit of the WPP multigraph.
The walk therefore ranks edges only where the structure's runs meet (see
:mod:`repro.graphs.multitour`) and crosses each chosen run whole.

The angle rule is a greedy edge pairing and often returns to its start with
edges left: on 12 cold 400-target layouts (seeds 7, 13 and 23) it stranded 15
to 338 of 421 edges on 21 of 36 W-TCTP and RW-TCTP walks.
:func:`build_patrol_walk` then splices in the remaining edges
Hierholzer-style, preserving the angle-chosen prefix, so the returned walk is
always a complete traversal.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.geometry.angles import included_angle
from repro.graphs.multitour import MultiTour

__all__ = ["angle_walk", "build_patrol_walk", "next_edge_by_angle"]

NodeId = Hashable


def next_edge_by_angle(
    structure: MultiTour,
    current: NodeId,
    previous: NodeId | None,
    available: Sequence[tuple[NodeId, int]],
) -> tuple[NodeId, int]:
    """Pick the outgoing edge with minimal CCW included angle w.r.t. the incoming edge.

    ``available`` is a list of ``(neighbor, edge_key)`` pairs still untraversed.
    When there is no previous node (the very first step) the edge with the
    smallest heading measured from the positive x axis is taken, which is an
    arbitrary but deterministic convention shared by every mule.
    """
    if not available:
        raise ValueError("no available edges to choose from")
    if len(available) == 1:  # every NTP step: nothing to rank
        return available[0]
    cur_pt = structure.point(current)

    def sort_key(item: tuple[NodeId, int]) -> tuple[float, str, int]:
        neighbor, key = item
        nb_pt = structure.point(neighbor)
        if previous is None:
            angle = math.atan2(nb_pt.y - cur_pt.y, nb_pt.x - cur_pt.x) % (2.0 * math.pi)
        else:
            prev_pt = structure.point(previous)
            if prev_pt == cur_pt or nb_pt == cur_pt:
                angle = 2.0 * math.pi  # degenerate geometry: rank last
            else:
                angle = included_angle(cur_pt, prev_pt, nb_pt)
                if angle <= 1e-12:
                    # A zero angle would mean going straight back along the
                    # incoming direction; treat it as a full turn so genuine
                    # alternatives win, mirroring "minimal angle in the CCW
                    # direction" (the rotation is strictly positive).
                    angle = 2.0 * math.pi
        return (angle, str(neighbor), key)

    return min(available, key=sort_key)


def angle_walk(structure: MultiTour, start: NodeId, *, strict: bool = False) -> list[NodeId]:
    """Traverse the structure with the CCW-angle rule; returns a closed node walk.

    The returned list starts and ends at ``start`` and uses every edge exactly
    once when the greedy rule succeeds.  With ``strict=True`` a ``ValueError``
    is raised if the greedy rule strands untraversed edges; otherwise the
    caller (:func:`build_patrol_walk`) is expected to repair the walk.
    """
    if start not in structure:
        raise KeyError(start)
    walk = structure._nodes_along(start, _angle_trail(structure, start)[0])
    total_edges = structure.num_edges()
    if strict and (len(walk) - 1 < total_edges or walk[-1] != start):
        raise ValueError(
            "angle-based traversal did not produce a complete closed walk "
            f"({len(walk) - 1}/{total_edges} edges used, ended at {walk[-1]!r})"
        )
    return walk


def build_patrol_walk(structure: MultiTour, start: NodeId) -> list[NodeId]:
    """Complete closed patrol walk (every edge exactly once), angle rule first.

    Uses the :func:`angle_walk` traversal; when the greedy rule strands
    edges (most walks on cold layouts, see the module docstring) they are
    covered by Euler sub-circuits spliced into the walk at a shared node
    (standard Hierholzer repair).  The result always satisfies Definition
    3's "the path itself is a cycle" requirement provided the structure is
    Eulerian.
    """
    if not structure.is_eulerian():
        raise ValueError("patrol structure must be Eulerian to admit a closed patrol walk")

    crossed, used = _angle_trail(structure, start)
    walk = structure._nodes_along(start, crossed)
    if len(walk) - 1 == structure.num_edges() and walk[-1] == start:
        return walk
    if walk[-1] != start:
        # Close the walk through unused edges if possible; otherwise restart
        # cleanly from a pure Hierholzer circuit (still deterministic).
        return structure.euler_circuit(start=start)
    crossed = structure._splice(start, crossed, used)
    if crossed is None:  # disconnected leftovers should be impossible for Eulerian input
        return structure.euler_circuit(start=start)
    return structure._nodes_along(start, crossed)


def _angle_trail(structure: MultiTour, start: NodeId):
    """The angle rule's trail from ``start``: it chooses only where runs meet."""
    return structure._trail(
        start,
        lambda current, previous, available: next_edge_by_angle(
            structure, current, previous, available
        ),
    )
