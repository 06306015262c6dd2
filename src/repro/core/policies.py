"""Break-edge selection policies for W-TCTP cycle construction (Section 3.1-A).

To make a VIP ``g_k`` of weight ``w`` be visited ``w`` times per traversal,
W-TCTP performs ``w - 1`` rounds of *cycle construction*: pick a break edge
``(g_y, g_{y+1})`` of the current patrol structure, remove it, and connect
both break points to the VIP.  Two policies choose the break edges:

* **Shortest-Length Policy** (Exp. 1): pick the edge minimising the added
  length ``|g_y g_k| + |g_{y+1} g_k| - |g_y g_{y+1}|`` — the total WPP stays
  as short as possible but the resulting cycles can be very unbalanced.
* **Balancing-Length Policy** (Exp. 2): pick break edges so the ``w`` cycle
  lengths are as close as possible to ``L_avg = |P̄| / w`` — the visiting
  intervals of the VIP become similar at the cost of a longer WPP.
"""

from __future__ import annotations

import abc
import bisect
from typing import Hashable, Sequence

import numpy as np

from repro.geometry.point import distance
from repro.graphs.multitour import MultiTour

__all__ = [
    "BreakEdgePolicy",
    "ShortestLengthPolicy",
    "BalancingLengthPolicy",
    "get_policy",
    "POLICIES",
]

NodeId = Hashable


class BreakEdgePolicy(abc.ABC):
    """Strategy object selecting break edges for one VIP."""

    name: str = "abstract"

    @abc.abstractmethod
    def apply(self, structure: MultiTour, vip: NodeId, weight: int) -> None:
        """Mutate ``structure`` so that ``weight`` cycles intersect at ``vip``."""

    # ------------------------------------------------------------------ #
    @staticmethod
    def candidate_edges(structure: MultiTour, vip: NodeId) -> list[tuple[NodeId, NodeId, int]]:
        """Edges eligible as break edges: every current edge not incident to the VIP."""
        return [(u, v, k) for (u, v, k) in structure.edges() if vip not in (u, v)]

    @staticmethod
    def added_length(structure: MultiTour, vip: NodeId, u: NodeId, v: NodeId) -> float:
        """Length increase of replacing edge ``(u, v)`` with chords ``(u, vip)`` and ``(v, vip)``."""
        pu, pv, pk = structure.point(u), structure.point(v), structure.point(vip)
        return distance(pu, pk) + distance(pv, pk) - distance(pu, pv)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class ShortestLengthPolicy(BreakEdgePolicy):
    """Exp. (1): repeatedly break the edge whose replacement adds the least length."""

    name = "shortest"

    def apply(self, structure: MultiTour, vip: NodeId, weight: int) -> None:
        if weight < 1:
            raise ValueError("weight must be >= 1")
        for _ in range(weight - 1):
            candidates = self.candidate_edges(structure, vip)
            if not candidates:
                raise ValueError(
                    f"no break edge available for VIP {vip!r}; "
                    "the structure is too small for the requested weight"
                )
            u, v, key = min(
                candidates,
                key=lambda e: (self.added_length(structure, vip, e[0], e[1]), str(e[0]), str(e[1])),
            )
            structure.break_edge(u, v, vip, key=key)


class BalancingLengthPolicy(BreakEdgePolicy):
    """Exp. (2): choose break edges so the cycle lengths approach ``|P̄| / w``.

    Implementation: walk the current structure as a closed circuit starting at
    the VIP and place the ``w - 1`` break edges at the circuit positions whose
    cumulative arc length is closest to the ideal equal-partition marks
    ``k * L / w`` — this directly targets Exp. (2)'s objective of making every
    cycle length approach ``L_avg``.  A local refinement pass then tries
    moving each chosen break edge to a neighbouring edge whenever that lowers
    the imbalance ``sum_f | len(C_f) - L_avg |``.
    """

    name = "balanced"

    def __init__(self, *, refine: bool = True, refine_window: int = 3) -> None:
        self.refine = refine
        self.refine_window = max(int(refine_window), 0)

    def apply(self, structure: MultiTour, vip: NodeId, weight: int) -> None:
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if weight == 1:
            return
        # The circuit from the VIP (closed there), as the runs it crosses.
        crossed = structure._euler_runs(vip)
        walk = structure._nodes_along(vip, crossed)
        lengths = structure._lengths_along(crossed)
        # Cumulative length up to the *start* of each walk edge: one
        # sequential sum along the circuit, as a running total adds them.
        cumulative = np.zeros(len(lengths) + 1)
        np.cumsum(lengths, out=cumulative[1:])
        total = float(cumulative[-1])
        if total <= 0:
            raise ValueError("cannot balance a zero-length structure")

        # The circuit starts at the VIP, so each edge incident to it is the
        # first or the last edge of a crossed run (position 0 and the last
        # one when the VIP has degree 2).
        eligible = np.ones(len(lengths), dtype=bool)
        position = 0
        for run, forward in crossed:
            first, last = (run.nodes[0], run.nodes[-1]) if forward else (run.nodes[-1], run.nodes[0])
            if first == vip:
                eligible[position] = False
            position += len(run.keys)
            if last == vip:
                eligible[position - 1] = False
        eligible = np.flatnonzero(eligible)
        if len(eligible) < weight - 1:
            raise ValueError(
                f"not enough eligible break edges for VIP {vip!r} with weight {weight}"
            )

        chosen = self._initial_selection(cumulative, eligible, total, weight)
        if self.refine:
            chosen = self._refine(
                structure, vip, walk, cumulative.tolist(), eligible.tolist(), chosen, total, weight
            )

        for i in sorted(chosen):
            structure.break_edge(walk[i], walk[i + 1], vip)

    # ------------------------------------------------------------------ #
    # Edge ``i`` of the circuit runs from ``walk[i]`` to ``walk[i + 1]``;
    # ``cumulative[i]`` is the circuit length up to its start.
    def _initial_selection(
        self,
        cumulative: np.ndarray,
        eligible: np.ndarray,
        total: float,
        weight: int,
    ) -> list[int]:
        """Greedy: for each ideal mark pick the nearest still-unused eligible edge.

        ``argmin`` keeps the first of equal distances, in eligible order.
        """
        l_avg = total / weight
        free = eligible
        # midpoint of each edge is its representative position on the circuit
        mid = 0.5 * (cumulative[free] + cumulative[free + 1])
        chosen: list[int] = []
        for k in range(1, weight):
            best = int(np.argmin(np.abs(mid - k * l_avg)))
            chosen.append(int(free[best]))
            free = np.delete(free, best)
            mid = np.delete(mid, best)
        return chosen

    def _imbalance(
        self,
        structure: MultiTour,
        vip: NodeId,
        walk: Sequence[NodeId],
        cumulative: Sequence[float],
        chosen: Sequence[int],
        total: float,
        weight: int,
    ) -> float:
        """Exp. (2) objective for a given choice of break-edge positions."""
        l_avg = (self._structure_length_after(structure, vip, walk, chosen, total)) / weight
        cycle_lengths = self._cycle_lengths(structure, vip, walk, cumulative, chosen, total)
        return sum(abs(c - l_avg) for c in cycle_lengths)

    def _structure_length_after(
        self,
        structure: MultiTour,
        vip: NodeId,
        walk: Sequence[NodeId],
        chosen: Sequence[int],
        total: float,
    ) -> float:
        length = total
        for i in chosen:
            length += self.added_length(structure, vip, walk[i], walk[i + 1])
        return length

    def _cycle_lengths(
        self,
        structure: MultiTour,
        vip: NodeId,
        walk: Sequence[NodeId],
        cumulative: Sequence[float],
        chosen: Sequence[int],
        total: float,
    ) -> list[float]:
        """Lengths of the cycles produced by breaking the chosen edges.

        Break positions split the VIP-rooted circuit into ``w`` arcs; each
        cycle consists of one arc plus the chord(s) reconnecting its endpoints
        to the VIP.
        """
        pk = structure.point(vip)
        ordered = sorted(chosen)
        lengths: list[float] = []
        # Arc boundaries: start of circuit, each break, end of circuit.
        prev_pos = 0.0
        prev_chord = 0.0  # chord from VIP to the arc's first node (0 for the true start)
        for i in ordered:
            arc = cumulative[i] - prev_pos
            chord_end = distance(structure.point(walk[i]), pk)
            lengths.append(prev_chord + arc + chord_end)
            prev_pos = cumulative[i + 1]
            prev_chord = distance(structure.point(walk[i + 1]), pk)
        lengths.append(prev_chord + (total - prev_pos))
        return lengths

    def _refine(
        self,
        structure: MultiTour,
        vip: NodeId,
        walk: Sequence[NodeId],
        cumulative: Sequence[float],
        eligible: Sequence[int],
        chosen: list[int],
        total: float,
        weight: int,
    ) -> list[int]:
        """Move each break edge within ``refine_window`` eligible places while that lowers the imbalance.

        ``eligible`` is sorted, so an edge's place in it is a bisection.
        """
        best = list(chosen)
        best_score = self._imbalance(structure, vip, walk, cumulative, best, total, weight)
        improved = True
        while improved:
            improved = False
            for slot in range(len(best)):
                base_pos = bisect.bisect_left(eligible, best[slot])
                for delta in range(-self.refine_window, self.refine_window + 1):
                    if delta == 0:
                        continue
                    p = base_pos + delta
                    if not 0 <= p < len(eligible):
                        continue
                    candidate_edge = eligible[p]
                    if candidate_edge in best:
                        continue
                    trial = list(best)
                    trial[slot] = candidate_edge
                    score = self._imbalance(structure, vip, walk, cumulative, trial, total, weight)
                    if score < best_score - 1e-9:
                        best, best_score = trial, score
                        improved = True
        return best


POLICIES: dict[str, type[BreakEdgePolicy]] = {
    ShortestLengthPolicy.name: ShortestLengthPolicy,
    BalancingLengthPolicy.name: BalancingLengthPolicy,
    # common aliases
    "shortest-length": ShortestLengthPolicy,
    "balancing": BalancingLengthPolicy,
    "balancing-length": BalancingLengthPolicy,
    "balance": BalancingLengthPolicy,
}


def get_policy(policy: "str | BreakEdgePolicy") -> BreakEdgePolicy:
    """Resolve a policy name (``"shortest"`` / ``"balanced"``) or pass an instance through."""
    if isinstance(policy, BreakEdgePolicy):
        return policy
    try:
        return POLICIES[policy.lower()]()
    except KeyError as exc:
        raise ValueError(
            f"unknown break-edge policy {policy!r}; expected one of {sorted(set(POLICIES))}"
        ) from exc
