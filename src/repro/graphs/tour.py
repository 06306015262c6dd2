"""Simple-cycle tour representation (the Hamiltonian circuit ``P``).

A :class:`Tour` stores an ordering of node identifiers plus their coordinates.
It is immutable from the outside (mutating operations return new tours), which
keeps the path-construction algorithms easy to reason about and lets tests
compare tours structurally.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.geometry.point import Point, as_point, distance
from repro.geometry.polyline import Polyline

__all__ = ["Tour"]

NodeId = Hashable


class Tour:
    """A closed tour (simple cycle) over a set of nodes with 2-D coordinates.

    Parameters
    ----------
    order:
        Node identifiers in visiting order.  The tour is closed implicitly:
        the last node connects back to the first.  Each identifier must appear
        exactly once.
    coordinates:
        Mapping from node identifier to its ``Point`` (or ``(x, y)``).
    """

    def __init__(self, order: Sequence[NodeId], coordinates: Mapping[NodeId, Point]) -> None:
        order = list(order)
        if not order:
            raise ValueError("a tour needs at least one node")
        if len(set(order)) != len(order):
            raise ValueError("tour order contains duplicate nodes")
        missing = [node for node in order if node not in coordinates]
        if missing:
            raise ValueError(f"coordinates missing for nodes: {missing!r}")
        self._order: list[NodeId] = order
        self._coords: dict[NodeId, Point] = {node: as_point(coordinates[node]) for node in order}
        self._length: float | None = None  # lazily computed; tours are immutable

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> tuple[NodeId, ...]:
        """Node identifiers in visiting order (without repeating the first)."""
        return tuple(self._order)

    @property
    def coordinates(self) -> dict[NodeId, Point]:
        """Copy of the node -> coordinate mapping."""
        return dict(self._coords)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._coords

    def __iter__(self):
        return iter(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tour):
            return NotImplemented
        return self._order == other._order and self._coords == other._coords

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tour(n={len(self)}, length={self.length():.1f})"

    def position_of(self, node: NodeId) -> int:
        """Index of ``node`` in the visiting order."""
        return self._order.index(node)

    def point(self, node: NodeId) -> Point:
        """Coordinate of ``node``."""
        return self._coords[node]

    def points_in_order(self) -> list[Point]:
        """Coordinates in visiting order."""
        return [self._coords[n] for n in self._order]

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """All tour edges ``(g_i, g_{i+1})`` including the closing edge."""
        n = len(self._order)
        return [(self._order[i], self._order[(i + 1) % n]) for i in range(n)]

    def edge_length(self, a: NodeId, b: NodeId) -> float:
        """Euclidean length of the edge between nodes ``a`` and ``b``."""
        return distance(self._coords[a], self._coords[b])

    def length(self) -> float:
        """Total length of the closed tour (computed once per instance).

        The arc length of the closed :class:`Polyline` through the tour, the
        parametrisation every start-point computation uses.
        """
        if self._length is None:
            pts = self.points_in_order()
            self._length = 0.0 if len(pts) < 2 else Polyline(pts, closed=True).length
        return self._length

    def polyline(self) -> Polyline:
        """Closed :class:`Polyline` through the tour's coordinates."""
        return Polyline(self.points_in_order(), closed=True)

    def successor(self, node: NodeId) -> NodeId:
        """The node visited immediately after ``node``."""
        i = self.position_of(node)
        return self._order[(i + 1) % len(self._order)]

    def predecessor(self, node: NodeId) -> NodeId:
        """The node visited immediately before ``node``."""
        i = self.position_of(node)
        return self._order[(i - 1) % len(self._order)]

    # ------------------------------------------------------------------ #
    # Transformations (all return new tours)
    # ------------------------------------------------------------------ #
    def rotated_to(self, start: NodeId) -> "Tour":
        """Same cycle, re-expressed so that ``start`` is the first node."""
        i = self.position_of(start)
        new_order = self._order[i:] + self._order[:i]
        return Tour(new_order, self._coords)

    def reversed(self) -> "Tour":
        """The same cycle traversed in the opposite direction (start preserved)."""
        new_order = [self._order[0]] + list(reversed(self._order[1:]))
        return Tour(new_order, self._coords)

    def counterclockwise(self) -> "Tour":
        """Return this tour oriented counter-clockwise (positive signed area).

        The paper always walks patrolling cycles in the counter-clockwise
        direction; normalising the orientation makes the patrolling rule and
        the tests deterministic.
        """
        if self.signed_area() >= 0.0 or len(self) < 3:
            return self
        return self.reversed()

    def signed_area(self) -> float:
        """Signed area of the tour polygon (positive when counter-clockwise)."""
        pts = np.asarray([(p.x, p.y) for p in self.points_in_order()], dtype=float)
        if pts.shape[0] < 3:
            return 0.0
        x, y = pts[:, 0], pts[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def with_node_inserted(self, node: NodeId, point: Point, position: int) -> "Tour":
        """New tour with ``node`` inserted before index ``position``."""
        if node in self._coords:
            raise ValueError(f"node {node!r} already present in tour")
        new_order = list(self._order)
        new_order.insert(position % (len(new_order) + 1), node)
        coords = dict(self._coords)
        coords[node] = as_point(point)
        return Tour(new_order, coords)

    def without_node(self, node: NodeId) -> "Tour":
        """New tour with ``node`` removed."""
        if node not in self._coords:
            raise KeyError(node)
        new_order = [n for n in self._order if n != node]
        coords = {n: p for n, p in self._coords.items() if n != node}
        return Tour(new_order, coords)

    # ------------------------------------------------------------------ #
    # Queries used by the TCTP algorithms
    # ------------------------------------------------------------------ #
    def insertion_cost(self, point: Point, position: int) -> float:
        """Extra length incurred by inserting ``point`` before index ``position``."""
        n = len(self._order)
        prev_node = self._order[(position - 1) % n]
        next_node = self._order[position % n]
        a = self._coords[prev_node]
        b = self._coords[next_node]
        p = as_point(point)
        return distance(a, p) + distance(p, b) - distance(a, b)

    def nearest_node(self, point: Point) -> NodeId:
        """Node whose coordinate is closest to ``point``."""
        p = as_point(point)
        return min(self._order, key=lambda n: distance(self._coords[n], p))

    def as_networkx(self):
        """Export the tour as a ``networkx.Graph`` cycle (for interop / debugging)."""
        import networkx as nx

        g = nx.Graph()
        for node in self._order:
            g.add_node(node, pos=self._coords[node].as_tuple())
        for a, b in self.edges():
            g.add_edge(a, b, weight=self.edge_length(a, b))
        return g

    @classmethod
    def from_points(cls, points: Iterable[Point], *, ids: Sequence[NodeId] | None = None) -> "Tour":
        """Build a tour that visits ``points`` in the given order.

        Node identifiers default to ``0..n-1``.
        """
        pts = [as_point(p) for p in points]
        if ids is None:
            ids = list(range(len(pts)))
        if len(ids) != len(pts):
            raise ValueError("ids and points must have the same length")
        return cls(list(ids), dict(zip(ids, pts)))
