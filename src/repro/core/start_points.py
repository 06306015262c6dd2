"""B-TCTP start points and location initialisation (Section 2.2-B).

"Each DM will treat the most north target point as the first start point to
partition the path P into n equal-length segments ... The end points of each
partitioned segment are called start points.  After calculating all start
points, each DM performs the location initialization task.  Each of them
moves to the closest start point.  If there are more than one DMs staying at
the same start point, the DM with higher remaining energy will move to next
start point along the constructed path P."

The same procedure is reused by W-TCTP and RW-TCTP on the weighted walk, so
it is implemented once here over an arbitrary closed node walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.geometry.point import Point, as_point, distance, northmost_index
from repro.geometry.polyline import Polyline

__all__ = ["StartPoint", "StartPointAssignment", "compute_start_points", "assign_mules_to_start_points"]


@dataclass(frozen=True)
class StartPoint:
    """One of the ``n`` equally spaced start points on the patrolling path."""

    index: int
    position: Point
    arc_length: float       # arc length from the walk's reference vertex
    entry_index: int        # index (into the walk) of the first node reached after this point

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StartPoint(index={self.index}, s={self.arc_length:.1f})"


@dataclass(frozen=True)
class StartPointAssignment:
    """Result of the location-initialisation task."""

    start_points: tuple[StartPoint, ...]
    # mule id -> start point index
    assignment: dict[str, int]

    def start_point_for(self, mule_id: str) -> StartPoint:
        return self.start_points[self.assignment[mule_id]]


def compute_start_points(
    walk: Sequence[str],
    coordinates: Mapping[str, Point],
    num_mules: int,
) -> tuple[StartPoint, ...]:
    """Partition the closed ``walk`` into ``num_mules`` equal-length segments.

    The reference (first) start point is placed at the most-north node of the
    walk, exactly as in the paper.  Each start point records the index of the
    walk node that follows it so a mule knows which waypoint to head to after
    reaching its start position.
    """
    if num_mules <= 0:
        raise ValueError("num_mules must be positive")
    walk = list(walk)
    if not walk:
        raise ValueError("walk must be non-empty")
    pts = [as_point(coordinates[n]) for n in walk]
    poly = Polyline(pts, closed=True)
    total = poly.length

    # Reference start point: the most-north *node occurrence* of the walk.
    north = northmost_index(pts)
    offset = poly.arc_length_of_vertex(north)

    # Cumulative arc length of each walk vertex, for entry-index lookup.
    cumulative = [poly.arc_length_of_vertex(i) for i in range(len(walk))]

    step = total / num_mules if total > 0 else 0.0
    start_points: list[StartPoint] = []
    for k in range(num_mules):
        s = (offset + k * step) % total if total > 0 else 0.0
        position = poly.point_at(s)
        entry = _entry_index_after(s, cumulative, total)
        start_points.append(StartPoint(index=k, position=position, arc_length=s, entry_index=entry))
    return tuple(start_points)


def _entry_index_after(s: float, cumulative: Sequence[float], total: float, *, eps: float = 1e-9) -> int:
    """Index of the first walk vertex at arc length >= ``s`` (wrapping around)."""
    if total <= 0:
        return 0
    for i, c in enumerate(cumulative):
        if c >= s - eps:
            return i
    return 0  # wrapped past the last vertex: the next node is the walk head


def assign_mules_to_start_points(
    start_points: Sequence[StartPoint],
    mule_positions: Mapping[str, Point],
    remaining_energy: Mapping[str, float] | None = None,
) -> StartPointAssignment:
    """Assign each mule to a distinct start point following the paper's tie rule.

    Every mule first claims its closest start point.  Whenever several mules
    claim the same start point, the mule with the *highest remaining energy*
    keeps moving to the next start point along the path (counter-clockwise),
    repeatedly, until every start point holds exactly one mule.

    The procedure terminates because the number of mules equals the number of
    start points and each displacement strictly advances a mule along the
    cyclic sequence of start points.
    """
    start_points = list(start_points)
    n = len(start_points)
    mule_ids = list(mule_positions)
    if len(mule_ids) != n:
        raise ValueError(
            f"number of mules ({len(mule_ids)}) must equal number of start points ({n})"
        )
    if remaining_energy is None:
        remaining_energy = {m: float("inf") for m in mule_ids}

    # Initial claim: closest start point (ties broken deterministically by index).
    claim: dict[str, int] = {}
    for mule_id in mule_ids:
        pos = as_point(mule_positions[mule_id])
        claim[mule_id] = min(
            range(n), key=lambda k: (distance(pos, start_points[k].position), k)
        )

    # Conflict resolution: at an over-claimed start point the highest-energy
    # mule advances to the next start point along the path.
    max_iterations = n * n + n
    for _ in range(max_iterations):
        occupancy: dict[int, list[str]] = {}
        for mule_id, k in claim.items():
            occupancy.setdefault(k, []).append(mule_id)
        conflict = next((k for k, mules in occupancy.items() if len(mules) > 1), None)
        if conflict is None:
            break
        contenders = occupancy[conflict]
        # Highest remaining energy moves on; deterministic tie-break on id.
        mover = max(contenders, key=lambda m: (remaining_energy.get(m, 0.0), m))
        claim[mover] = (claim[mover] + 1) % n
    else:  # pragma: no cover - defensive: the loop above always converges
        raise RuntimeError("location initialisation failed to converge")

    return StartPointAssignment(start_points=tuple(start_points), assignment=claim)
