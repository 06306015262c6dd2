"""The W-TCTP patrolling rule (Section 3.2): deterministic traversal of a WPP.

At a VIP several cycles meet, so a data mule arriving there has a choice of
outgoing edges.  The paper's rule makes every mule take the same choice:

    "When a DM arrives at a VIP ``g_i`` from target ``g_j``, it selects a
    target ``g_k`` ... which has minimal included angle with the former route
    ``g_j`` to ``g_i`` in the counterclockwise direction, as its next visiting
    target."

Applied at every node (an NTP has only one remaining edge, so the rule is
trivial there), this yields one specific Euler circuit of the WPP multigraph.
The angle rule can occasionally paint itself into a corner on adversarial
geometries (it is a greedy edge pairing); :func:`build_patrol_walk` therefore
falls back to splicing in the remaining edges Hierholzer-style, preserving the
angle-chosen prefix, so the returned walk is always a complete traversal.
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
    used: set[int] = set()
    walk: list[NodeId] = [start]
    current: NodeId = start
    previous: NodeId | None = None
    total_edges = structure.num_edges()

    while len(used) < total_edges:
        available = [(nb, k) for nb, k in structure.neighbors(current) if k not in used]
        if not available:
            break
        neighbor, key = next_edge_by_angle(structure, current, previous, available)
        used.add(key)
        walk.append(neighbor)
        previous, current = current, neighbor

    if strict and (len(used) < total_edges or current != start):
        raise ValueError(
            "angle-based traversal did not produce a complete closed walk "
            f"({len(used)}/{total_edges} edges used, ended at {current!r})"
        )
    return walk


def build_patrol_walk(structure: MultiTour, start: NodeId) -> list[NodeId]:
    """Complete closed patrol walk (every edge exactly once), angle rule first.

    Uses :func:`angle_walk`; if the greedy rule terminates early the remaining
    edges are covered by Euler sub-circuits spliced into the walk at a shared
    node (standard Hierholzer repair).  The result always satisfies
    Definition 3's "the path itself is a cycle" requirement provided the
    structure is Eulerian.
    """
    if not structure.is_eulerian():
        raise ValueError("patrol structure must be Eulerian to admit a closed patrol walk")

    walk = angle_walk(structure, start, strict=False)
    total_edges = structure.num_edges()

    used_edges = _edges_of_walk(structure, walk)
    if len(used_edges) == total_edges and walk[0] == walk[-1]:
        return walk

    # Repair: splice Euler circuits of the unused sub-multigraph into the walk.
    remaining = structure.copy()
    for u, v, key_hint in used_edges:
        remaining.remove_edge(u, v, key_hint)

    walk = list(walk)
    if walk[0] != walk[-1]:
        # Close the walk through unused edges if possible; otherwise restart
        # cleanly from a pure Hierholzer circuit (still deterministic).
        return structure.euler_circuit(start=start)

    guard = 0
    while remaining.num_edges() > 0:
        guard += 1
        if guard > total_edges + 1:  # pragma: no cover - defensive
            return structure.euler_circuit(start=start)
        anchor_pos = next(
            (i for i, node in enumerate(walk) if remaining.neighbors(node)), None
        )
        if anchor_pos is None:  # disconnected leftovers should be impossible for Eulerian input
            return structure.euler_circuit(start=start)
        anchor = walk[anchor_pos]
        # The leftovers may form several disjoint even-degree components; cover
        # the one touching the walk at this anchor and splice it in.
        sub = remaining.euler_circuit(start=anchor, require_connected=False)
        # Remove the sub-circuit's edges from the remaining structure.
        for a, b in zip(sub[:-1], sub[1:]):
            remaining.remove_edge(a, b)
        walk = walk[:anchor_pos] + sub + walk[anchor_pos + 1 :]
    return walk


def _edges_of_walk(structure: MultiTour, walk: Sequence[NodeId]) -> list[tuple[NodeId, NodeId, int | None]]:
    """Map consecutive walk nodes back to concrete (u, v, key) edges, greedily."""
    available: dict[frozenset, list[int]] = {}
    for u, v, k in structure.edges():
        available.setdefault(frozenset((u, v)), []).append(k)
    out: list[tuple[NodeId, NodeId, int | None]] = []
    for a, b in zip(walk[:-1], walk[1:]):
        keys = available.get(frozenset((a, b)), [])
        key = keys.pop() if keys else None
        out.append((a, b, key))
    return out
