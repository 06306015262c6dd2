"""Weighted patrol structures (the WPP ``P̄`` and the WRP ``P̃``).

Definition 3 of the paper says a Weighted Patrolling Path is a closed walk in
which every target ``g_i`` is intersected by exactly ``w_i`` cycles, and the
walk itself is a single cycle.  Structurally this is an Eulerian multigraph in
which an NTP has degree 2 and a VIP of weight ``w`` has degree ``2w``.  The
walk a data mule actually follows is an Euler circuit of that multigraph; the
W-TCTP patrolling rule (minimal counter-clockwise included angle) picks a
specific, deterministic Euler circuit.

:class:`MultiTour` stores the multigraph (with parallel edges allowed, since
two cycles may share the chord between a VIP and a break point) together with
node coordinates, and provides edge surgery (``break_edge``), length queries,
Euler-circuit extraction, and decomposition into the per-VIP cycles needed by
the Balancing-Length policy and by the validation helpers.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping, Sequence

from repro.geometry.point import Point, as_point, distance
from repro.graphs.tour import Tour

__all__ = ["MultiTour", "CycleInfo"]

NodeId = Hashable
Edge = tuple[NodeId, NodeId, int]  # (u, v, key)


class CycleInfo:
    """One cycle of a weighted patrol structure passing through a hub node."""

    __slots__ = ("hub", "nodes", "length")

    def __init__(self, hub: NodeId, nodes: tuple[NodeId, ...], length: float) -> None:
        self.hub = hub
        self.nodes = nodes
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CycleInfo(hub={self.hub!r}, n={len(self.nodes)}, length={self.length:.1f})"


class MultiTour:
    """An undirected multigraph patrol structure with 2-D node coordinates."""

    def __init__(self, coordinates: Mapping[NodeId, Point]) -> None:
        self._coords: dict[NodeId, Point] = {n: as_point(p) for n, p in coordinates.items()}
        # adjacency: node -> list of (neighbor, key); parallel edges get distinct keys
        self._adj: dict[NodeId, list[tuple[NodeId, int]]] = {n: [] for n in self._coords}
        self._next_key = 0
        # Lazy total-length memo, invalidated by edge surgery.  The memo holds
        # the exact float the summation produced, so repeated length() queries
        # (the balancing policy evaluates candidate structures repeatedly) are
        # free and byte-identical to recomputation.
        self._length_memo: float | None = None
        # Lazy is_eulerian() memo.  add_edge/remove_edge clear it; break_edge
        # keeps a True (see there), so a WPP built by w - 1 cycle
        # constructions per VIP runs one connectivity BFS, not one per VIP.
        self._eulerian_memo: bool | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tour(cls, tour: Tour) -> "MultiTour":
        """Lift a Hamiltonian circuit into a multigraph (every node degree 2)."""
        mt = cls(tour.coordinates)
        for a, b in tour.edges():
            mt.add_edge(a, b)
        return mt

    def copy(self) -> "MultiTour":
        """Deep copy (edges keep their keys)."""
        other = MultiTour(self._coords)
        other._adj = {n: list(neigh) for n, neigh in self._adj.items()}
        other._next_key = self._next_key
        other._length_memo = self._length_memo
        other._eulerian_memo = self._eulerian_memo
        return other

    # ------------------------------------------------------------------ #
    # Node / coordinate access
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._coords)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._coords

    def point(self, node: NodeId) -> Point:
        return self._coords[node]

    @property
    def coordinates(self) -> dict[NodeId, Point]:
        return dict(self._coords)

    def add_node(self, node: NodeId, point: Point) -> None:
        """Add an isolated node (used when inserting the recharge station).

        An isolated node takes no part in :meth:`is_eulerian`, so its memo stays.
        """
        if node in self._coords:
            raise ValueError(f"node {node!r} already present")
        self._coords[node] = as_point(point)
        self._adj[node] = []

    # ------------------------------------------------------------------ #
    # Edge surgery
    # ------------------------------------------------------------------ #
    def add_edge(self, u: NodeId, v: NodeId) -> int:
        """Add an (undirected) edge and return its key."""
        if u not in self._coords or v not in self._coords:
            raise KeyError(f"both endpoints must be nodes of the structure: {u!r}, {v!r}")
        if u == v:
            raise ValueError("self-loop edges are not allowed in a patrol structure")
        key = self._next_key
        self._next_key += 1
        self._adj[u].append((v, key))
        self._adj[v].append((u, key))
        self._length_memo = None
        self._eulerian_memo = None
        return key

    def remove_edge(self, u: NodeId, v: NodeId, key: int | None = None) -> None:
        """Remove one edge between ``u`` and ``v`` (a specific parallel edge if ``key`` given)."""
        candidates = [k for (n, k) in self._adj[u] if n == v and (key is None or k == key)]
        if not candidates:
            raise KeyError(f"no edge between {u!r} and {v!r}" + ("" if key is None else f" with key {key}"))
        k = candidates[0]
        self._adj[u].remove((v, k))
        self._adj[v].remove((u, k))
        self._length_memo = None
        self._eulerian_memo = None

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return any(n == v for (n, _k) in self._adj.get(u, []))

    def break_edge(self, u: NodeId, v: NodeId, hub: NodeId, *, key: int | None = None) -> tuple[int, int]:
        """Perform the paper's cycle-construction surgery.

        Removes the break edge ``(u, v)`` and connects both break points to the
        VIP ``hub``, creating one additional cycle through ``hub``.  Returns
        the keys of the two new chord edges.

        An Eulerian structure stays Eulerian: ``u`` and ``v`` keep their
        degree, ``hub`` gains two, and the chords join ``u`` and ``v``
        through ``hub`` (an isolated ``hub`` joins the walk there).
        """
        if hub in (u, v):
            raise ValueError("the break edge must not be incident to the hub VIP")
        eulerian = self._eulerian_memo
        self.remove_edge(u, v, key)
        keys = self.add_edge(u, hub), self.add_edge(v, hub)
        if eulerian:
            self._eulerian_memo = True
        return keys

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def degree(self, node: NodeId) -> int:
        return len(self._adj[node])

    def cycles_through(self, node: NodeId) -> int:
        """Number of cycles intersecting at ``node`` (``degree / 2``)."""
        return self.degree(node) // 2

    def neighbors(self, node: NodeId) -> list[tuple[NodeId, int]]:
        """Neighbours of ``node`` as ``(neighbor, edge_key)`` pairs (parallel edges repeated)."""
        return list(self._adj[node])

    def edges(self) -> list[Edge]:
        """All edges exactly once as ``(u, v, key)`` with an arbitrary but stable orientation."""
        seen: set[int] = set()
        out: list[Edge] = []
        for u, neigh in self._adj.items():
            for v, k in neigh:
                if k not in seen:
                    seen.add(k)
                    out.append((u, v, k))
        return out

    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self._adj.values()) // 2

    def edge_length(self, u: NodeId, v: NodeId) -> float:
        return distance(self._coords[u], self._coords[v])

    def length(self) -> float:
        """Total length of the patrol structure = length of one full traversal.

        Memoized until the next edge surgery; the cached value is the exact
        float the summation produced, so callers see identical results
        whether they hit the memo or force recomputation.
        """
        if self._length_memo is None:
            self._length_memo = sum(self.edge_length(u, v) for u, v, _k in self.edges())
        return self._length_memo

    def is_connected(self) -> bool:
        """True when every node with at least one edge is reachable from any other."""
        active = [n for n in self._coords if self._adj[n]]
        if not active:
            return False
        seen = {active[0]}
        stack = [active[0]]
        while stack:
            cur = stack.pop()
            for nxt, _k in self._adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return all(n in seen for n in active)

    def is_eulerian(self) -> bool:
        """True when a single closed walk can traverse every edge exactly once."""
        if self._eulerian_memo is None:
            self._eulerian_memo = self.is_connected() and all(
                self.degree(n) % 2 == 0 for n in self._coords if self._adj[n]
            )
        return self._eulerian_memo

    # ------------------------------------------------------------------ #
    # Walk extraction
    # ------------------------------------------------------------------ #
    def euler_circuit(self, start: NodeId | None = None, *, require_connected: bool = True) -> list[NodeId]:
        """An Euler circuit (Hierholzer) as a node sequence, first node repeated at the end.

        This is the *fallback* traversal; the angle-based W-TCTP patrolling
        rule lives in :mod:`repro.core.patrol_rules` and produces a specific
        Euler circuit of the same multigraph.

        With ``require_connected=False`` only the even-degree condition is
        checked and the circuit covers the connected component containing
        ``start`` — used when splicing leftover sub-circuits into a walk.
        """
        if require_connected:
            if not self.is_eulerian():
                raise ValueError("patrol structure is not Eulerian; cannot extract a closed walk")
        else:
            if any(self.degree(n) % 2 for n in self._coords if self._adj[n]):
                raise ValueError("patrol structure has odd-degree nodes; no closed walk exists")
        if start is None:
            start = next(n for n in self._coords if self._adj[n])
        remaining: dict[NodeId, list[tuple[NodeId, int]]] = {
            n: list(neigh) for n, neigh in self._adj.items()
        }
        # An edge leaves its own end of the walk when taken; its twin in the
        # other endpoint's list is skipped when it surfaces there.
        used = bytearray(self._next_key)
        stack: list[NodeId] = [start]
        circuit: list[NodeId] = []
        while stack:
            neigh = remaining[stack[-1]]
            while neigh and used[neigh[-1][1]]:
                neigh.pop()
            if neigh:
                v, k = neigh.pop()
                used[k] = 1
                stack.append(v)
            else:
                circuit.append(stack.pop())
        circuit.reverse()
        return circuit

    def walk_length(self, walk: Sequence[NodeId]) -> float:
        """Length of a node-sequence walk over this structure's coordinates."""
        return sum(
            distance(self._coords[a], self._coords[b]) for a, b in zip(walk[:-1], walk[1:])
        )

    # ------------------------------------------------------------------ #
    # Cycle decomposition around a hub (used by validation / balancing metrics)
    # ------------------------------------------------------------------ #
    def cycles_at(self, hub: NodeId, walk: Sequence[NodeId] | None = None) -> list[CycleInfo]:
        """Decompose a traversal into the cycles that intersect at ``hub``.

        The walk (an Euler circuit, computed if not supplied) is split at each
        occurrence of ``hub``; every maximal sub-walk between two consecutive
        occurrences, closed back through ``hub``, is one of the ``w_hub``
        cycles of Definition 2.
        """
        if walk is None:
            walk = self.euler_circuit(start=hub)
        return self.cycles_by_hub([hub], walk)[hub]

    def cycles_by_hub(
        self, hubs: Sequence[NodeId], walk: Sequence[NodeId]
    ) -> dict[NodeId, list[CycleInfo]]:
        """:meth:`cycles_at` for every hub in ``hubs`` on one walk.

        Each walk edge is measured once; a cycle's length is the built-in
        ``sum`` of its edges in walk order, as :meth:`walk_length` sums them.
        """
        walk = list(walk)
        closed = walk[:-1] if walk and walk[0] == walk[-1] else walk
        coords = self._coords
        # edge i runs from closed[i] to closed[i + 1], wrapping at the end
        lengths = [
            distance(coords[a], coords[b]) for a, b in zip(closed, closed[1:] + closed[:1])
        ]
        out: dict[NodeId, list[CycleInfo]] = {}
        for hub in hubs:
            if hub not in closed:
                out[hub] = []
                continue
            # rotate so the walk starts at the hub
            first = closed.index(hub)
            rotated = closed[first:] + closed[:first]
            rotated_lengths = lengths[first:] + lengths[:first]
            positions = [i for i, n in enumerate(rotated) if n == hub]
            ends = positions[1:] + [len(rotated)]
            out[hub] = [
                CycleInfo(hub, tuple(rotated[pos:end]) + (hub,), sum(rotated_lengths[pos:end]))
                for pos, end in zip(positions, ends)
            ]
        return out

    def weight_profile(self) -> dict[NodeId, int]:
        """Implied weight of every node (``degree / 2``); zero-degree nodes report 0."""
        return {n: self.degree(n) // 2 for n in self._coords}

    def visit_counts(self, walk: Sequence[NodeId]) -> Counter:
        """How many times each node appears in ``walk`` (closing duplicate removed)."""
        if len(walk) >= 2 and walk[0] == walk[-1]:
            walk = walk[:-1]
        return Counter(walk)

    def as_networkx(self):
        """Export as a ``networkx.MultiGraph`` with ``pos`` and ``weight`` attributes."""
        import networkx as nx

        g = nx.MultiGraph()
        for n, p in self._coords.items():
            g.add_node(n, pos=p.as_tuple())
        for u, v, k in self.edges():
            g.add_edge(u, v, key=k, weight=self.edge_length(u, v))
        return g
