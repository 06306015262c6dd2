"""Unit tests for repro.core.policies (Shortest-Length / Balancing-Length break-edge selection).

``TestWppDifferential`` fuzzes the WPP construction against frozen copies of
the node-level Hierholzer circuit and break-edge selection,
``TestWalkDifferential`` the patrol walk against a frozen copy of the
node-level angle walk and its repair, and ``TestDegenerateLayouts`` plans
W-TCTP, RW-TCTP and SW-TCTP on degenerate layouts with and without those
references.  Their seed and case count follow the planning fuzz knobs::

    REPRO_PLANNING_FUZZ_SEED=123 REPRO_PLANNING_FUZZ_CASES=80 \
        pytest tests/test_core_policies.py -k "Differential or Degenerate"
"""

import json
import math
import os
import re

import numpy as np
import pytest

from plan_golden import serialize_plan
from repro.baselines.base import get_strategy
from repro.core import policies, rwtctp, wtctp
from repro.core.patrol_rules import angle_walk, build_patrol_walk, next_edge_by_angle

from repro.core.policies import (
    BalancingLengthPolicy,
    BreakEdgePolicy,
    ShortestLengthPolicy,
    get_policy,
)
from repro.energy.battery import Battery
from repro.geometry.cache import clear_caches
from repro.geometry.point import Point, distance
from repro.graphs.hamiltonian import build_hamiltonian_circuit, convex_hull_insertion_tour
from repro.graphs.multitour import MultiTour
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_weighted_patrolling_path
from repro.network.mules import DataMule
from repro.network.scenario import Scenario
from repro.network.targets import RechargeStation, Sink, Target
from repro.planning import backends


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
    """Frozen reference selection: a node-level circuit, a running sum of edge
    lengths, ``min()`` and a refinement over per-node ``edges`` and ``pos_of``."""

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

    def _imbalance(self, structure, vip, edges, cumulative, chosen, total, weight):
        l_avg = (self._structure_length_after(structure, vip, edges, chosen, total)) / weight
        cycle_lengths = self._cycle_lengths(structure, vip, edges, cumulative, chosen, total)
        return sum(abs(c - l_avg) for c in cycle_lengths)

    def _structure_length_after(self, structure, vip, edges, chosen, total):
        length = total
        for i in chosen:
            a, b = edges[i]
            length += self.added_length(structure, vip, a, b)
        return length

    def _cycle_lengths(self, structure, vip, edges, cumulative, chosen, total):
        pk = structure.point(vip)
        lengths = []
        prev_pos = 0.0
        prev_chord = 0.0
        for i in sorted(chosen):
            a, b = edges[i]
            arc = cumulative[i] - prev_pos
            chord_end = distance(structure.point(a), pk)
            lengths.append(prev_chord + arc + chord_end)
            prev_pos = cumulative[i + 1]
            prev_chord = distance(structure.point(b), pk)
        lengths.append(prev_chord + (total - prev_pos))
        return lengths

    def _refine(self, structure, vip, edges, cumulative, eligible, chosen, total, weight):
        eligible_sorted = sorted(eligible)
        pos_of = {i: p for p, i in enumerate(eligible_sorted)}
        best = list(chosen)
        best_score = self._imbalance(structure, vip, edges, cumulative, best, total, weight)
        improved = True
        while improved:
            improved = False
            for slot in range(len(best)):
                base_pos = pos_of[best[slot]]
                for delta in range(-self.refine_window, self.refine_window + 1):
                    if delta == 0:
                        continue
                    p = base_pos + delta
                    if not 0 <= p < len(eligible_sorted):
                        continue
                    candidate_edge = eligible_sorted[p]
                    if candidate_edge in best:
                        continue
                    trial = list(best)
                    trial[slot] = candidate_edge
                    score = self._imbalance(structure, vip, edges, cumulative, trial, total, weight)
                    if score < best_score - 1e-9:
                        best, best_score = trial, score
                        improved = True
        return best


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


def _reference_angle_walk(structure, start, *, strict=False):
    """Frozen reference angle walk: one step per node, ranking a fresh
    ``neighbors()`` copy at every node."""
    if start not in structure:
        raise KeyError(start)
    used = set()
    walk = [start]
    current = start
    previous = None
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


def _reference_build_patrol_walk(structure, start):
    """Frozen reference patrol walk: the node-level angle walk, then the
    Hierholzer repair on a copy with the walk's edges removed one by one."""
    if not structure.is_eulerian():
        raise ValueError("patrol structure must be Eulerian to admit a closed patrol walk")

    walk = _reference_angle_walk(structure, start, strict=False)
    total_edges = structure.num_edges()

    used_edges = _reference_edges_of_walk(structure, walk)
    if len(used_edges) == total_edges and walk[0] == walk[-1]:
        return walk

    remaining = structure.copy()
    for u, v, key_hint in used_edges:
        remaining.remove_edge(u, v, key_hint)

    walk = list(walk)
    if walk[0] != walk[-1]:
        return _reference_euler_circuit(structure, start)

    guard = 0
    while remaining.num_edges() > 0:
        guard += 1
        if guard > total_edges + 1:
            return _reference_euler_circuit(structure, start)
        anchor_pos = next(
            (i for i, node in enumerate(walk) if remaining.neighbors(node)), None
        )
        if anchor_pos is None:
            return _reference_euler_circuit(structure, start)
        anchor = walk[anchor_pos]
        sub = _reference_euler_circuit(remaining, anchor)
        for a, b in zip(sub[:-1], sub[1:]):
            remaining.remove_edge(a, b)
        walk = walk[:anchor_pos] + sub + walk[anchor_pos + 1 :]
    return walk


def _reference_edges_of_walk(structure, walk):
    """Frozen greedy key assignment: each walk step takes the last unused key
    of its node pair, in ``edges()`` order."""
    available = {}
    for u, v, k in structure.edges():
        available.setdefault(frozenset((u, v)), []).append(k)
    out = []
    for a, b in zip(walk[:-1], walk[1:]):
        keys = available.get(frozenset((a, b)), [])
        key = keys.pop() if keys else None
        out.append((a, b, key))
    return out


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


def _cut_more_cycles(rng, mt):
    """Break a few more edges onto random hubs of an indexed structure, with
    and without a key (without one, the first entry of the pair goes)."""
    active = [n for n in mt.nodes if mt.degree(n)]
    for _ in range(int(rng.integers(0, 6))):
        hub = active[rng.integers(len(active))]
        candidates = [e for e in mt.edges() if hub not in e[:2]]
        u, v, key = candidates[rng.integers(len(candidates))]
        mt.break_edge(u, v, hub, key=key if rng.random() < 0.5 else None)


class TestWalkDifferential:
    def test_patrol_walks_match_the_reference(self):
        # The run index is built by a first circuit, kept through more cycle
        # constructions and carried into a copy, as a WPP's is.  Random
        # tours strand the angle rule often, so the repair runs in most cases.
        rng = np.random.default_rng(FUZZ_SEED + 2)
        repaired = 0
        for case in range(FUZZ_CASES):
            mt = _random_eulerian_structure(rng)
            active = [n for n in mt.nodes if mt.degree(n)]
            mt.euler_circuit(start=active[rng.integers(len(active))])
            _cut_more_cycles(rng, mt)
            walker = mt.copy()
            edges = mt.edges()
            for start in [active[i] for i in rng.integers(0, len(active), 3)]:
                reference = _reference_angle_walk(mt, start)
                assert angle_walk(walker, start) == reference, (
                    f"case {case} (seed {FUZZ_SEED + 2}): angle walk from {start!r} diverged"
                )
                repaired += len(reference) - 1 < mt.num_edges()
                assert build_patrol_walk(walker, start) == _reference_build_patrol_walk(mt, start), (
                    f"case {case} (seed {FUZZ_SEED + 2}): patrol walk from {start!r} diverged"
                )
            assert walker.edges() == edges
        assert repaired > 0

    def test_parallel_chords_keep_the_greedy_keys(self, monkeypatch):
        # Two one-edge runs between the hubs a and b.  From some starts the
        # angle rule strands edges after taking the a-b edge that the greedy
        # key assignment leaves unused, so the repair's Hierholzer must read
        # the adjacency order with the other key removed.
        coords = {"a": Point(200, 0), "b": Point(100, 150), "c": Point(200, 100), "d": Point(50, 50)}
        mt = MultiTour(coords)
        for u, v in [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "b")]:
            mt.add_edge(u, v)
        moved = []
        count_parallel_keys = MultiTour._count_parallel_keys

        def spy(self, crossed, used):
            before = bytes(used)
            count_parallel_keys(self, crossed, used)
            moved.append(bytes(used) != before)

        monkeypatch.setattr(MultiTour, "_count_parallel_keys", spy)
        for start in mt.nodes:
            assert build_patrol_walk(mt, start) == _reference_build_patrol_walk(mt, start)
            assert angle_walk(mt, start) == _reference_angle_walk(mt, start)
        assert any(moved)


# --------------------------------------------------------------------------- #
# Degenerate layouts through the W-TCTP family
# --------------------------------------------------------------------------- #

LAYOUTS = ["collinear", "coincident", "duplicates", "target-on-sink", "lattice", "few-targets"]


def _degenerate_scenario(rng, layout):
    n = int(rng.integers(1, 4)) if layout == "few-targets" else int(rng.integers(4, 40))
    if layout == "collinear":  # a slanted line, unsorted, some points repeated
        t = rng.uniform(0, 900, n)
        t[rng.random(n) < 0.2] = t[0]
        angle = rng.uniform(0.1, 1.4)
        pts = np.column_stack([50 + t * math.cos(angle), 50 + t * math.sin(angle)])
        sink = (50.0, 50.0) if rng.random() < 0.5 else (500.0, 20.0)
    elif layout == "coincident":  # a few shared points
        pts = rng.integers(0, 3, (n, 2)) * 250.0
        sink = (250.0, 250.0)
    elif layout == "lattice":
        pts = np.round(rng.uniform(0, 1000, (n, 2)) / 125) * 125
        sink = (500.0, 500.0)
    else:
        pts = rng.uniform(0, 1000, (n, 2))
        sink = (500.0, 500.0)
    if layout == "duplicates":
        pts[rng.integers(n, size=n // 3)] = pts[rng.integers(n, size=n // 3)]
    if layout == "target-on-sink":
        pts[rng.integers(n)] = sink
    weights = np.ones(n, dtype=int)
    vips = rng.choice(n, int(rng.integers(0, min(n, 4) + 1)), replace=False)
    weights[vips] = rng.integers(2, 5, len(vips))
    station = pts[rng.integers(n)] if rng.random() < 0.3 else rng.uniform(0, 1000, 2)
    targets = [
        Target(f"g{i}", Point(float(x), float(y)), weight=int(w))
        for i, ((x, y), w) in enumerate(zip(pts, weights))
    ]
    sink_node = Sink("sink", Point(*sink))
    mules = [
        DataMule(f"m{i}", sink_node.position, battery=Battery(2_000_000.0))
        for i in range(int(rng.integers(1, 5)))
    ]
    return Scenario(
        targets=targets, sink=sink_node, mules=mules,
        recharge_station=RechargeStation("R", Point(float(station[0]), float(station[1]))),
        name=layout,
    )


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _wpp_outcome(scenario):
    """The WPP (edges) and its patrol walk, built from the scenario's tour."""

    def compute():
        tour = build_hamiltonian_circuit(scenario.patrol_points(), start=scenario.sink.id)
        structure, walk = wtctp.build_weighted_patrolling_path(tour, scenario.weights())
        return json.dumps([structure.edges(), walk])

    return _outcome(compute)


def _plan_outcome(strategy, scenario):
    return _outcome(lambda: json.dumps(serialize_plan(get_strategy(strategy).plan(scenario)), sort_keys=True))


@pytest.fixture
def node_level_wpp(monkeypatch):
    """A function that swaps the frozen node-level circuit, selection and
    walk in for the rest of the test, and makes any use of the run index fail."""

    def swap():
        for name, cls in list(policies.POLICIES.items()):
            if cls is BalancingLengthPolicy:
                monkeypatch.setitem(policies.POLICIES, name, _ReferenceBalancing)
        for module in (wtctp, rwtctp, backends):
            monkeypatch.setattr(module, "build_patrol_walk", _reference_build_patrol_walk)

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference leg reached the run index")

        monkeypatch.setattr(MultiTour, "_run_index", forbidden)

    return swap


class TestDegenerateLayouts:
    def test_wtctp_family_matches_the_node_level_references(self, node_level_wpp):
        # Each case plans, validates and equals the reference plan (the WPP,
        # its walk and the three strategies' serialized plans), or raises
        # the same ValueError with the same message on both sides.
        rng = np.random.default_rng(FUZZ_SEED + 3)
        cases = []
        for case in range(FUZZ_CASES):
            layout = LAYOUTS[case % len(LAYOUTS)]
            cases.append((case, layout, _degenerate_scenario(rng, layout)))
        strategies = ["w-tctp", "rw-tctp", "sw-tctp"]

        def outcomes(scenario):
            clear_caches()
            return [_wpp_outcome(scenario)] + [
                _plan_outcome(name, scenario) for name in strategies
            ]

        ours = [outcomes(scenario) for _case, _layout, scenario in cases]
        node_level_wpp()
        planned = 0
        for (case, layout, scenario), got in zip(cases, ours):
            want = outcomes(scenario)
            for label, a, b in zip(["wpp"] + strategies, got, want):
                assert a == b, f"case {case} ({layout}, seed {FUZZ_SEED + 3}): {label} diverged"
            planned += sum(not outcome.startswith("ValueError") for outcome in got)
        clear_caches()
        assert planned > len(cases)

    def test_sw_tctp_plans_wherever_sweep_does_without_vips(self):
        # With fewer targets than mules some sweep sector holds only the
        # sink: a one-node circuit, which sw-tctp patrols as sweep does.
        rng = np.random.default_rng(FUZZ_SEED + 3)
        lone_sink = 0
        for case in range(FUZZ_CASES):
            layout = LAYOUTS[case % len(LAYOUTS)]
            drawn = _degenerate_scenario(rng, layout)
            scenario = Scenario(
                targets=[Target(t.id, t.position) for t in drawn.targets], sink=drawn.sink,
                mules=drawn.mules, recharge_station=drawn.recharge_station, name=layout,
            )
            if _plan_outcome("sweep", scenario).startswith("ValueError"):
                continue
            outcome = _plan_outcome("sw-tctp", scenario)
            assert not outcome.startswith("ValueError"), \
                f"case {case} ({layout}, seed {FUZZ_SEED + 3}): {outcome}"
            lone_sink += len(scenario.targets) < len(scenario.mules)
        assert lone_sink >= 1

    @pytest.mark.parametrize("num_mules", [2, 3, 4])
    def test_sw_tctp_patrols_a_sector_of_the_sink_alone(self, num_mules):
        import dataclasses

        from repro.runner import RunSpec, execute_run
        from repro.scenarios import ScenarioSpec
        from repro.sim import batchpath
        from repro.sim.engine import SimulationConfig

        spec = RunSpec(strategy="sw-tctp",
                       scenario=ScenarioSpec("uniform", {"num_targets": 1,
                                                         "num_mules": num_mules}),
                       sim=SimulationConfig(horizon=8_000.0), seed=5)
        plan = get_strategy("sw-tctp").plan(spec.scenario.build(spec.seed))
        assert [route.loop for route in plan.routes.values()] \
            == [["sink", "g1"]] + [["sink"]] * (num_mules - 1)
        batched = batchpath.batch_execute_records([spec])[0]
        with batchpath.batchpath_disabled():
            scalar = execute_run(spec)
        event = execute_run(dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, fast_path=False)))
        assert batched is not None
        assert json.dumps(batched) == json.dumps(scalar) == json.dumps(event)
