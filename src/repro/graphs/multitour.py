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

Almost every node of a WPP has degree 2 (381 of the 401 nodes of a 400-target
layout with 20 VIPs), so a walk over it has a choice only at a few hubs.  The
structure therefore keeps a private *run index*: a run is a maximal path whose
interior nodes have degree 2, and its two ends are branch nodes (a node whose
degree is not 2, or a node some circuit or walk started from).  Circuits and
walks step from branch node to branch node over whole runs, so they cost one
Python step per run, not per node, and ``break_edge`` keeps the index up to
date in place.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import sub
from typing import Callable, Hashable, Mapping, Sequence

from repro.geometry.point import Point, as_point, distance
from repro.graphs.tour import Tour

__all__ = ["MultiTour", "CycleInfo"]

NodeId = Hashable
Edge = tuple[NodeId, NodeId, int]  # (u, v, key)


class _Run:
    """A maximal path whose interior nodes have degree 2 and start no walk.

    ``keys[i]`` joins ``nodes[i]`` and ``nodes[i + 1]``, and ``lengths[i]`` is
    its ``math.hypot`` length, the float :func:`distance` gives.  Both ends
    are branch nodes (one node for a loop), except in a cycle that has no
    branch node at all: its first node is then no branch node.  A run is
    never changed, only replaced, so copies of a structure share their runs.
    """

    __slots__ = ("nodes", "keys", "lengths")

    def __init__(self, nodes: tuple, keys: tuple[int, ...], lengths: tuple[float, ...]) -> None:
        self.nodes = nodes
        self.keys = keys
        self.lengths = lengths


# A run crossed by a walk, and whether it was crossed from nodes[0] on.
Crossing = tuple[_Run, bool]


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
        # The run index (see the module docstring): edge key -> the run that
        # holds it, and the branch nodes.  Built on the first circuit or walk,
        # kept by break_edge and add_node, dropped by add_edge/remove_edge.
        self._runs: dict[int, _Run] | None = None
        self._branch: set[NodeId] | None = None

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
        """Deep copy (edges keep their keys); the copy gets a run index of its own."""
        other = MultiTour.__new__(MultiTour)
        other._coords = dict(self._coords)  # the Points are frozen
        other._adj = dict(zip(self._adj, map(list, self._adj.values())))
        other._next_key = self._next_key
        other._length_memo = self._length_memo
        other._eulerian_memo = self._eulerian_memo
        other._runs = None if self._runs is None else dict(self._runs)
        other._branch = None if self._branch is None else set(self._branch)
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

        An isolated node takes no part in :meth:`is_eulerian`, so its memo
        stays, and it lies on no run, so the run index stays too.
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
        key = self._link(u, v)
        self._runs = self._branch = None
        return key

    def _link(self, u: NodeId, v: NodeId) -> int:
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
        self._unlink(u, v, key)
        self._runs = self._branch = None

    def _unlink(self, u: NodeId, v: NodeId, key: int | None) -> int:
        """Remove the edge and return its key: ``key``, or the first ``u``-``v`` entry of ``u``'s list."""
        candidates = [k for (n, k) in self._adj[u] if n == v and (key is None or k == key)]
        if not candidates:
            raise KeyError(f"no edge between {u!r} and {v!r}" + ("" if key is None else f" with key {key}"))
        k = candidates[0]
        self._adj[u].remove((v, k))
        self._adj[v].remove((u, k))
        self._length_memo = None
        self._eulerian_memo = None
        return k

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

        The run index, if built, is updated in place: ``hub`` becomes a branch
        node, the run holding the removed edge splits there, and each half
        ends in its chord to ``hub`` (a cycle with no branch node opens into
        one loop through ``hub``).
        """
        if hub in (u, v):
            raise ValueError("the break edge must not be incident to the hub VIP")
        eulerian = self._eulerian_memo
        indexed = self._runs is not None
        if indexed:
            self._run_index(hub)
        removed = self._unlink(u, v, key)
        keys = self._link(u, hub), self._link(v, hub)
        if indexed:
            self._reroute(removed, (u, v), keys, hub)
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
        ``start``.
        """
        self._require_closed_walk(require_connected)
        if start is None:
            start = next(n for n in self._coords if self._adj[n])
        return self._nodes_along(start, self._hierholzer(start, bytearray(self._next_key)))

    def _euler_runs(self, start: NodeId) -> list[Crossing]:
        """:meth:`euler_circuit` from ``start`` as the runs it crosses, in order."""
        self._require_closed_walk(True)
        return self._hierholzer(start, bytearray(self._next_key))

    def _require_closed_walk(self, require_connected: bool) -> None:
        if require_connected:
            if not self.is_eulerian():
                raise ValueError("patrol structure is not Eulerian; cannot extract a closed walk")
        elif any(self.degree(n) % 2 for n in self._coords if self._adj[n]):
            raise ValueError("patrol structure has odd-degree nodes; no closed walk exists")

    def _hierholzer(self, start: NodeId, used: bytearray) -> list[Crossing]:
        """Hierholzer's circuit from ``start`` over the edges ``used`` leaves out.

        At a branch node it takes the last unused entry of the node's list,
        as the node-level algorithm does, and crosses that entry's run.  At an
        interior node the node-level algorithm has one unused edge on the way
        forward and none on the way back, so the node list is the same.  The
        end keys of every crossed run are set in ``used``.
        """
        runs = self._run_index(start)
        adj = self._adj
        remaining: dict[NodeId, list[tuple[NodeId, int]]] = {}
        stack: list[tuple[NodeId, _Run | None, bool]] = [(start, None, True)]
        crossed: list[Crossing] = []
        while stack:
            node = stack[-1][0]
            neigh = remaining.get(node)
            if neigh is None:
                neigh = remaining[node] = list(adj[node])
            # An edge leaves its own end of the walk when taken; its twin in
            # the far end's list is skipped when it surfaces there.
            while neigh and used[neigh[-1][1]]:
                neigh.pop()
            if neigh:
                key = neigh.pop()[1]
                run = runs[key]
                used[run.keys[0]] = used[run.keys[-1]] = 1
                if key == run.keys[0] and node == run.nodes[0]:
                    stack.append((run.nodes[-1], run, True))
                else:
                    stack.append((run.nodes[0], run, False))
            else:
                _node, run, forward = stack.pop()
                if run is not None:
                    crossed.append((run, forward))
        crossed.reverse()
        return crossed

    def _trail(
        self,
        start: NodeId,
        choose: Callable[[NodeId, NodeId | None, list[tuple[NodeId, int]]], tuple[NodeId, int]],
    ) -> tuple[list[Crossing], bytearray]:
        """A greedy trail from ``start`` until it runs out of unused edges.

        At every branch node ``choose(node, previous, available)`` picks one
        of the node's unused ``(neighbor, key)`` entries (in adjacency order)
        and the trail crosses that entry's run; ``previous`` is the node the
        trail arrived from (``None`` at the start).  Returns the crossed runs
        and the ``used`` marks of their end keys.
        """
        runs = self._run_index(start)
        adj = self._adj
        used = bytearray(self._next_key)
        total = len(runs)
        count = 0
        crossed: list[Crossing] = []
        node, previous = start, None
        while count < total:
            available = [entry for entry in adj[node] if not used[entry[1]]]
            if not available:
                break
            key = choose(node, previous, available)[1]
            run = runs[key]
            keys, nodes = run.keys, run.nodes
            used[keys[0]] = used[keys[-1]] = 1
            count += len(keys)
            forward = key == keys[0] and node == nodes[0]
            crossed.append((run, forward))
            if forward:
                previous, node = nodes[-2], nodes[-1]
            else:
                previous, node = nodes[1], nodes[0]
        return crossed, used

    def _splice(self, start: NodeId, crossed: list[Crossing], used: bytearray) -> list[Crossing] | None:
        """Hierholzer repair of a closed trail that left edges unused.

        The edges the trail used are counted per node pair, as a greedy
        assignment of each pair's keys in :meth:`edges` order (last first)
        counts them: among parallel edges it may keep another key than the
        trail took.  Then, while edges are left, the leftovers' Euler circuit
        from the first trail node that touches them is spliced in there.
        Returns ``None`` when no trail node touches them (not for an
        Eulerian structure).
        """
        self._count_parallel_keys(crossed, used)
        adj = self._adj
        left = len(self._runs) - sum(len(run.keys) for run, _forward in crossed)
        out = list(crossed)
        position = 0  # the trail node after out[position - 1]; start at 0
        while left > 0:
            # Only branch nodes touch the leftovers: an interior node of a
            # crossed run has both its edges in that run.
            while True:
                if position > len(out):
                    return None
                if position == 0:
                    node = start
                else:
                    run, forward = out[position - 1]
                    node = run.nodes[-1] if forward else run.nodes[0]
                if any(not used[key] for _v, key in adj[node]):
                    break
                position += 1
            # The circuit covers the anchor's component of the leftovers, so
            # none of its nodes touches them afterwards.
            circuit = self._hierholzer(node, used)
            left -= sum(len(run.keys) for run, _forward in circuit)
            out[position:position] = circuit
            position += len(circuit)
        return out

    def _count_parallel_keys(self, crossed: list[Crossing], used: bytearray) -> None:
        """Mark, per node pair, the last keys in :meth:`edges` order as used.

        Parallel edges between two nodes are one-edge runs between branch
        nodes, or the two edges of a loop run through a degree-2 node (which
        a trail crosses whole), so only crossed one-edge runs can move.
        """
        pairs: dict[frozenset, list[int]] = {}
        for run, _forward in crossed:
            if len(run.keys) == 1:
                pairs.setdefault(frozenset(run.nodes), []).append(run.keys[0])
        order: list[NodeId] | None = None
        for pair, taken in pairs.items():
            a, b = pair
            if sum(1 for n, _k in self._adj[a] if n == b) == len(taken):
                continue
            if order is None:
                order = list(self._adj)
            if order.index(b) < order.index(a):
                a, b = b, a
            keys = [k for n, k in self._adj[a] if n == b]
            for key in taken:
                used[key] = 0
            for key in keys[-len(taken):]:
                used[key] = 1

    @staticmethod
    def _nodes_along(start: NodeId, crossed: Sequence[Crossing]) -> list[NodeId]:
        """The node walk from ``start`` over the crossed runs."""
        walk = [start]
        for run, forward in crossed:
            walk += run.nodes[1:] if forward else run.nodes[-2::-1]
        return walk

    @staticmethod
    def _lengths_along(crossed: Sequence[Crossing]) -> list[float]:
        """The edge lengths of the crossed runs, in walk order."""
        lengths: list[float] = []
        for run, forward in crossed:
            lengths += run.lengths if forward else run.lengths[::-1]
        return lengths

    # ------------------------------------------------------------------ #
    # The run index
    # ------------------------------------------------------------------ #
    def _run_index(self, *starts: NodeId) -> dict[int, _Run]:
        """Edge key -> run, built on first use; each of ``starts`` becomes a branch node."""
        if self._runs is None:
            self._build_runs()
        for node in starts:
            if node not in self._branch:
                self._make_branch(node)
        return self._runs

    def _build_runs(self) -> None:
        """Trace every run in O(n): from each branch node, then the cycles left."""
        adj = self._adj
        self._branch = {n for n, neigh in adj.items() if len(neigh) != 2}
        self._runs = {}
        for node, neigh in adj.items():
            if node in self._branch:
                for nxt, key in neigh:
                    if key not in self._runs:
                        self._trace(node, nxt, key)
        for node, neigh in adj.items():
            if neigh and neigh[0][1] not in self._runs:
                self._trace(node, *neigh[0])

    def _trace(self, node: NodeId, nxt: NodeId, key: int) -> None:
        """Follow edge ``key`` from ``node`` through degree-2 nodes to a branch node or back to ``node``."""
        adj, branch = self._adj, self._branch
        nodes, keys = [node], [key]
        while nxt not in branch and nxt != node:
            nodes.append(nxt)
            (a, ka), (b, kb) = adj[nxt]
            nxt, key = (b, kb) if ka == key else (a, ka)
            keys.append(key)
        nodes.append(nxt)
        points = [self._coords[n] for n in nodes]
        lengths = [math.hypot(p.x - q.x, p.y - q.y) for p, q in zip(points, points[1:])]
        self._put(tuple(nodes), tuple(keys), tuple(lengths))

    def _put(self, nodes: tuple, keys: tuple[int, ...], lengths: tuple[float, ...]) -> None:
        run = _Run(nodes, keys, lengths)
        self._runs.update(dict.fromkeys(keys, run))

    def _make_branch(self, node: NodeId) -> None:
        """Split the run through ``node`` there (a cycle with no branch node turns to start there)."""
        neigh = self._adj[node]
        if neigh:
            run = self._runs[neigh[0][1]]
            nodes, keys, lengths = run.nodes, run.keys, run.lengths
            i = nodes.index(node)
            if nodes[0] in self._branch:
                self._put(nodes[:i + 1], keys[:i], lengths[:i])
                self._put(nodes[i:], keys[i:], lengths[i:])
            elif i:
                self._put(nodes[i:] + nodes[1:i + 1], keys[i:] + keys[:i], lengths[i:] + lengths[:i])
        self._branch.add(node)

    def _reroute(self, removed: int, ends: tuple[NodeId, NodeId], chords: tuple[int, int], hub: NodeId) -> None:
        """:meth:`break_edge`'s index update: the removed edge's run ends in the chords to ``hub``."""
        run = self._runs.pop(removed)
        nodes, keys, lengths = run.nodes, run.keys, run.lengths
        i = keys.index(removed)
        a, b = nodes[i], nodes[i + 1]
        ka, kb = chords if a == ends[0] else chords[::-1]
        h = self._coords[hub]
        pa, pb = self._coords[a], self._coords[b]
        la, lb = math.hypot(pa.x - h.x, pa.y - h.y), math.hypot(pb.x - h.x, pb.y - h.y)
        if nodes[0] in self._branch:
            self._put(nodes[:i + 1] + (hub,), keys[:i] + (ka,), lengths[:i] + (la,))
            self._put((hub,) + nodes[i + 1:], (kb,) + keys[i + 1:], (lb,) + lengths[i + 1:])
        else:  # a cycle with no branch node opens into one loop through the hub
            self._put(
                (hub,) + nodes[i + 1:] + nodes[1:i + 1] + (hub,),
                (kb,) + keys[i + 1:] + keys[:i] + (ka,),
                (lb,) + lengths[i + 1:] + lengths[:i] + (la,),
            )

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

        Each walk edge is measured once, by :func:`distance`'s subtractions
        and ``math.hypot`` mapped over the coordinates; a cycle's length is
        the built-in ``sum`` of its edges in walk order, as
        :meth:`walk_length` sums them.
        """
        walk = list(walk)
        closed = walk[:-1] if walk and walk[0] == walk[-1] else walk
        points = list(map(self._coords.__getitem__, closed))
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        # edge i runs from closed[i] to closed[i + 1], wrapping at the end
        lengths = list(map(math.hypot, map(sub, xs, xs[1:] + xs[:1]), map(sub, ys, ys[1:] + ys[:1])))
        at: dict[NodeId, list[int]] = {hub: [] for hub in hubs}
        for i, node in enumerate(closed):
            if node in at:
                at[node].append(i)
        out: dict[NodeId, list[CycleInfo]] = {}
        for hub in hubs:
            positions = at[hub]
            if not positions:
                out[hub] = []
                continue
            # rotate so the walk starts at the hub
            first = positions[0]
            rotated = closed[first:] + closed[:first]
            rotated_lengths = lengths[first:] + lengths[:first]
            starts = [pos - first for pos in positions]
            ends = starts[1:] + [len(rotated)]
            out[hub] = [
                CycleInfo(hub, tuple(rotated[pos:end]) + (hub,), sum(rotated_lengths[pos:end]))
                for pos, end in zip(starts, ends)
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
