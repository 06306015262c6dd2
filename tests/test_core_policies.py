"""Unit tests for repro.core.policies (Shortest-Length / Balancing-Length break-edge selection).

``TestWppDifferential`` fuzzes the WPP construction against frozen copies of
the reference Hierholzer circuit and break-edge selection.  Its seed and case
count follow the planning fuzz knobs::

    REPRO_PLANNING_FUZZ_SEED=123 REPRO_PLANNING_FUZZ_CASES=80 \
        pytest tests/test_core_policies.py -k WppDifferential
"""

import math
import os
import re

import numpy as np
import pytest

from repro.core.policies import (
    BalancingLengthPolicy,
    BreakEdgePolicy,
    ShortestLengthPolicy,
    get_policy,
)
from repro.geometry.point import Point, distance
from repro.graphs.hamiltonian import convex_hull_insertion_tour
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_weighted_patrolling_path


def ring_structure(n=12, radius=200.0):
    coords = {
        f"g{i}": Point(400 + radius * math.cos(2 * math.pi * i / n),
                       400 + radius * math.sin(2 * math.pi * i / n))
        for i in range(n)
    }
    tour = convex_hull_insertion_tour(coords)
    return MultiTour.from_tour(tour), coords


class TestGetPolicy:
    def test_by_name(self):
        assert isinstance(get_policy("shortest"), ShortestLengthPolicy)
        assert isinstance(get_policy("balanced"), BalancingLengthPolicy)

    def test_aliases(self):
        assert isinstance(get_policy("Shortest-Length"), ShortestLengthPolicy)
        assert isinstance(get_policy("balancing-length"), BalancingLengthPolicy)
        assert isinstance(get_policy("balance"), BalancingLengthPolicy)

    def test_instance_passthrough(self):
        p = ShortestLengthPolicy()
        assert get_policy(p) is p

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_policy("magic")


class TestCandidateEdges:
    def test_excludes_edges_incident_to_vip(self):
        structure, _ = ring_structure(6)
        candidates = BreakEdgePolicy.candidate_edges(structure, "g0")
        assert all("g0" not in (u, v) for u, v, _k in candidates)
        assert len(candidates) == 4  # 6 edges minus the 2 incident to g0

    def test_added_length_is_triangle_inequality_slack(self):
        structure, coords = ring_structure(6)
        added = BreakEdgePolicy.added_length(structure, "g0", "g2", "g3")
        direct = coords["g2"].distance_to(coords["g3"])
        via = coords["g2"].distance_to(coords["g0"]) + coords["g3"].distance_to(coords["g0"])
        assert added == pytest.approx(via - direct)
        assert added >= 0


class TestShortestLengthPolicy:
    @pytest.mark.parametrize("weight", [2, 3, 4])
    def test_vip_degree_after_apply(self, weight):
        structure, _ = ring_structure(12)
        ShortestLengthPolicy().apply(structure, "g0", weight)
        assert structure.degree("g0") == 2 * weight
        assert structure.is_eulerian()

    def test_weight_one_is_noop(self):
        structure, _ = ring_structure(8)
        before = structure.length()
        ShortestLengthPolicy().apply(structure, "g0", 1)
        assert structure.length() == pytest.approx(before)

    def test_minimises_added_length_greedily(self):
        structure, _ = ring_structure(12)
        pristine = structure.copy()
        policy = ShortestLengthPolicy()
        best = min(
            policy.added_length(pristine, "g0", u, v)
            for u, v, _k in policy.candidate_edges(pristine, "g0")
        )
        before = structure.length()
        policy.apply(structure, "g0", 2)
        assert structure.length() - before == pytest.approx(best)

    def test_invalid_weight_rejected(self):
        structure, _ = ring_structure(8)
        with pytest.raises(ValueError):
            ShortestLengthPolicy().apply(structure, "g0", 0)

    def test_too_large_weight_raises(self):
        # a triangle has only 1 edge not incident to the hub: weight 3 is impossible
        coords = {"a": Point(0, 0), "b": Point(100, 0), "c": Point(50, 80)}
        structure = MultiTour.from_tour(Tour(["a", "b", "c"], coords))
        with pytest.raises(ValueError):
            ShortestLengthPolicy().apply(structure, "a", 3)

    def test_other_nodes_keep_degree_two(self):
        structure, _ = ring_structure(10)
        ShortestLengthPolicy().apply(structure, "g0", 3)
        for node in structure.nodes:
            if node != "g0":
                assert structure.degree(node) == 2


class TestBalancingLengthPolicy:
    @pytest.mark.parametrize("weight", [2, 3, 4])
    def test_vip_degree_after_apply(self, weight):
        structure, _ = ring_structure(16)
        BalancingLengthPolicy().apply(structure, "g0", weight)
        assert structure.degree("g0") == 2 * weight
        assert structure.is_eulerian()

    def test_cycles_are_balanced_on_a_ring(self):
        structure, _ = ring_structure(16)
        BalancingLengthPolicy().apply(structure, "g0", 2)
        cycles = structure.cycles_at("g0")
        assert len(cycles) == 2
        lengths = sorted(c.length for c in cycles)
        # on a symmetric ring the two cycles should be within ~25% of each other
        assert lengths[1] / lengths[0] < 1.35

    def test_balanced_spread_not_worse_than_shortest(self):
        s_short, _ = ring_structure(20)
        s_bal, _ = ring_structure(20)
        ShortestLengthPolicy().apply(s_short, "g0", 3)
        BalancingLengthPolicy().apply(s_bal, "g0", 3)

        def spread(structure):
            lengths = [c.length for c in structure.cycles_at("g0")]
            return max(lengths) - min(lengths)

        assert spread(s_bal) <= spread(s_short) + 1e-6

    def test_shortest_total_length_not_longer_than_balanced(self):
        s_short, _ = ring_structure(20)
        s_bal, _ = ring_structure(20)
        ShortestLengthPolicy().apply(s_short, "g0", 3)
        BalancingLengthPolicy().apply(s_bal, "g0", 3)
        assert s_short.length() <= s_bal.length() + 1e-6

    def test_weight_one_is_noop(self):
        structure, _ = ring_structure(8)
        before = structure.length()
        BalancingLengthPolicy().apply(structure, "g0", 1)
        assert structure.length() == pytest.approx(before)

    def test_refinement_can_be_disabled(self):
        structure, _ = ring_structure(16)
        BalancingLengthPolicy(refine=False).apply(structure, "g0", 3)
        assert structure.degree("g0") == 6

    def test_not_enough_edges_raises(self):
        coords = {"a": Point(0, 0), "b": Point(100, 0), "c": Point(50, 80)}
        structure = MultiTour.from_tour(Tour(["a", "b", "c"], coords))
        with pytest.raises(ValueError):
            BalancingLengthPolicy().apply(structure, "a", 3)

    def test_structure_remains_valid_wpp(self):
        structure, coords = ring_structure(14)
        BalancingLengthPolicy().apply(structure, "g3", 3)
        weights = {n: (3 if n == "g3" else 1) for n in coords}
        validate_weighted_patrolling_path(structure, weights)


class TestMultiVipInteraction:
    def test_two_vips_processed_sequentially(self):
        structure, coords = ring_structure(16)
        ShortestLengthPolicy().apply(structure, "g0", 2)
        ShortestLengthPolicy().apply(structure, "g8", 3)
        assert structure.degree("g0") == 4
        assert structure.degree("g8") == 6
        weights = {n: 1 for n in coords}
        weights.update({"g0": 2, "g8": 3})
        validate_weighted_patrolling_path(structure, weights)

    def test_balanced_two_vips(self):
        structure, coords = ring_structure(16)
        BalancingLengthPolicy().apply(structure, "g0", 2)
        BalancingLengthPolicy().apply(structure, "g8", 2)
        weights = {n: 1 for n in coords}
        weights.update({"g0": 2, "g8": 2})
        validate_weighted_patrolling_path(structure, weights)


FUZZ_SEED = int(os.environ.get("REPRO_PLANNING_FUZZ_SEED", "20260808"))
FUZZ_CASES = int(os.environ.get("REPRO_PLANNING_FUZZ_CASES", "40"))


def _reference_euler_circuit(structure, start=None):
    """Frozen reference Hierholzer: used edges stay in a set and every
    adjacency list is trimmed lazily from its end."""
    if start is None:
        start = next(n for n in structure.nodes if structure.degree(n))
    remaining = {n: structure.neighbors(n) for n in structure.nodes}
    used = set()

    def next_unused(node):
        while remaining[node]:
            v, k = remaining[node][-1]
            if k in used:
                remaining[node].pop()
                continue
            return v, k
        return None

    stack = [start]
    circuit = []
    while stack:
        node = stack[-1]
        nxt = next_unused(node)
        if nxt is None:
            circuit.append(stack.pop())
        else:
            v, k = nxt
            used.add(k)
            stack.append(v)
    circuit.reverse()
    return circuit


def _reference_cycles_at(structure, hub, walk):
    """Frozen reference cycle decomposition: each cycle re-measured on its own."""
    closed = walk[:-1] if walk[0] == walk[-1] else list(walk)
    if hub not in closed:
        return []
    first = closed.index(hub)
    rotated = closed[first:] + closed[:first]
    positions = [i for i, n in enumerate(rotated) if n == hub]
    cycles = []
    for idx, pos in enumerate(positions):
        end = positions[idx + 1] if idx + 1 < len(positions) else len(rotated)
        segment = rotated[pos:end] + [hub]
        length = sum(
            distance(structure.point(a), structure.point(b))
            for a, b in zip(segment[:-1], segment[1:])
        )
        cycles.append((tuple(segment), length))
    return cycles


class _ReferenceBalancing(BalancingLengthPolicy):
    """Frozen reference selection: a running sum of edge lengths and ``min()``."""

    def apply(self, structure, vip, weight):
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if weight == 1:
            return
        walk = _reference_euler_circuit(structure, vip)
        edges = list(zip(walk[:-1], walk[1:]))
        cumulative = [0.0]
        for a, b in edges:
            cumulative.append(cumulative[-1] + structure.edge_length(a, b))
        total = cumulative[-1]
        if total <= 0:
            raise ValueError("cannot balance a zero-length structure")
        eligible = [i for i, (a, b) in enumerate(edges) if vip not in (a, b)]
        if len(eligible) < weight - 1:
            raise ValueError(
                f"not enough eligible break edges for VIP {vip!r} with weight {weight}"
            )
        chosen = self._initial_selection(edges, cumulative, eligible, total, weight)
        if self.refine:
            chosen = self._refine(structure, vip, edges, cumulative, eligible, chosen, total, weight)
        for i in sorted(chosen):
            a, b = edges[i]
            structure.break_edge(a, b, vip)

    def _initial_selection(self, edges, cumulative, eligible, total, weight):
        l_avg = total / weight
        chosen = []
        used = set()
        for k in range(1, weight):
            mark = k * l_avg
            best = min(
                (i for i in eligible if i not in used),
                key=lambda i: abs(0.5 * (cumulative[i] + cumulative[i + 1]) - mark),
            )
            chosen.append(best)
            used.add(best)
        return chosen


def _random_eulerian_structure(rng) -> MultiTour:
    """A seeded Eulerian multigraph of 5-400 nodes with parallel edges.

    A random Hamiltonian cycle, then random surgery: cycle constructions onto
    random hubs (some of them isolated nodes, as the recharge station is) and
    doubled edges.  Every step keeps the structure Eulerian.
    """
    n = int(rng.integers(5, 401))
    layout = rng.random()
    if layout < 0.3:
        pts = rng.uniform(0, 1000, (n, 2))
    elif layout < 0.6:  # a lattice: exact length ties
        pts = np.round(rng.uniform(0, 1000, (n, 2)) / 125) * 125
    else:  # a few shared points
        pts = rng.integers(0, 3, (n, 2)) * 250.0
    mt = MultiTour({f"n{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)})
    permutation = rng.permutation(n)
    if layout >= 0.8:  # runs of coincident nodes: zero-length edges tie exactly
        permutation = sorted(permutation, key=lambda i: tuple(pts[i]))
    order = [f"n{i}" for i in permutation]
    for a, b in zip(order, order[1:] + order[:1]):
        mt.add_edge(a, b)
    for step in range(int(rng.integers(0, min(n, 60)))):
        roll = rng.random()
        if roll < 0.1:
            hub = f"r{step}"
            mt.add_node(hub, Point(*rng.uniform(0, 1000, 2)))
        else:
            hub = f"n{rng.integers(n)}"
        if roll < 0.8:
            candidates = [e for e in mt.edges() if hub not in e[:2]]
            u, v, key = candidates[rng.integers(len(candidates))]
            mt.break_edge(u, v, hub, key=key)
        else:
            u, v, _key = mt.edges()[rng.integers(mt.num_edges())]
            mt.add_edge(u, v)
            mt.add_edge(u, v)
    return mt


class TestWppDifferential:
    def test_euler_circuit_and_cycles_match_the_reference(self):
        rng = np.random.default_rng(FUZZ_SEED)
        for case in range(FUZZ_CASES):
            mt = _random_eulerian_structure(rng)
            active = [n for n in mt.nodes if mt.degree(n)]
            starts = [None, *(active[i] for i in rng.integers(0, len(active), 3))]
            for start in starts:
                walk = mt.euler_circuit(start=start)
                assert walk == _reference_euler_circuit(mt, start), (
                    f"case {case} (seed {FUZZ_SEED}): circuit from {start!r} diverged"
                )
            hubs = [n for n in active if mt.degree(n) > 2][:8] + [active[0]]
            by_hub = mt.cycles_by_hub(hubs, walk)
            for hub in hubs:
                got = [(c.nodes, c.length.hex()) for c in by_hub[hub]]
                want = [(nodes, length.hex()) for nodes, length in _reference_cycles_at(mt, hub, walk)]
                assert got == want, f"case {case} (seed {FUZZ_SEED}): cycles at {hub!r} diverged"

    def test_balancing_picks_the_reference_break_edges(self):
        rng = np.random.default_rng(FUZZ_SEED + 1)
        for case in range(FUZZ_CASES):
            mt = _random_eulerian_structure(rng)
            refine = bool(case % 2)
            ours, theirs = mt.copy(), mt.copy()
            targets = [node for node in mt.nodes if node.startswith("n")]
            for vip in rng.choice(targets, 3, replace=False).tolist():
                weight = int(rng.integers(2, 6))
                try:
                    _ReferenceBalancing(refine=refine).apply(theirs, vip, weight)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        BalancingLengthPolicy(refine=refine).apply(ours, vip, weight)
                    continue
                BalancingLengthPolicy(refine=refine).apply(ours, vip, weight)
                assert ours.edges() == theirs.edges(), (
                    f"case {case} (seed {FUZZ_SEED + 1}): VIP {vip!r} weight {weight} "
                    f"refine={refine} broke different edges"
                )
            assert ours.is_eulerian()
