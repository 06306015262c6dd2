"""The scalar planning loops, frozen as the reference the kernels are held to.

:mod:`repro.planning.kernels` is the program's only implementation of hull
insertion, nearest neighbour, 2-opt and Or-opt.  The four Python loops it
was written from live on here, copied from the library unchanged and
wrapped as builders with the public signatures of
:mod:`repro.graphs.hamiltonian` and :mod:`repro.graphs.improve`.  Each reads
its distances from :func:`repro.geometry.point.distance_matrix`, the values
the library's loops read.

:func:`reference_planning` swaps them in for a block, so a differential leg
plans, simulates and records through the library's own entry points with
only the four heuristics changed::

    with reference_planning():
        record = execute_run(spec)      # every tour built by the loops below

Usable from a child process or a script too: put this directory on
``sys.path`` and ``from planning_reference import reference_planning``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable, Iterator, Mapping

from repro.geometry.cache import clear_caches
from repro.geometry.hull import convex_hull_indices
from repro.geometry.point import Point, as_point, distance, distance_matrix
from repro.graphs import hamiltonian, improve
from repro.graphs.tour import Tour

__all__ = [
    "convex_hull_insertion_tour",
    "nearest_neighbor_tour",
    "two_opt",
    "or_opt",
    "reference_planning",
]

NodeId = Hashable


def convex_hull_insertion_tour(coordinates: Mapping[NodeId, Point]) -> Tour:
    """Convex-hull cheapest insertion: an O(n^2) Python scan per inserted point."""
    nodes = list(coordinates)
    if not nodes:
        raise ValueError("cannot build a tour over zero targets")
    pts = [as_point(coordinates[n]) for n in nodes]
    if len(nodes) <= 3:
        return Tour(nodes, dict(zip(nodes, pts))).counterclockwise()

    dmat = distance_matrix(pts)
    hull = convex_hull_indices(pts)
    tour_idx = list(hull)
    remaining = [i for i in range(len(nodes)) if i not in set(hull)]

    while remaining:
        best = None  # (cost, point_index, insert_position)
        m = len(tour_idx)
        for p in remaining:
            for pos in range(m):
                a = tour_idx[pos]
                b = tour_idx[(pos + 1) % m]
                cost = dmat[a, p] + dmat[p, b] - dmat[a, b]
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, p, pos + 1)
        assert best is not None
        _, p, pos = best
        tour_idx.insert(pos, p)
        remaining.remove(p)

    order = [nodes[i] for i in tour_idx]
    return Tour(order, dict(zip(nodes, pts))).counterclockwise()


def nearest_neighbor_tour(
    coordinates: Mapping[NodeId, Point], *, start: NodeId | None = None
) -> Tour:
    """Greedy nearest neighbour, one ``min`` over the unvisited nodes per step."""
    nodes = list(coordinates)
    if not nodes:
        raise ValueError("cannot build a tour over zero targets")
    pts = {n: as_point(coordinates[n]) for n in nodes}
    if start is None:
        start = nodes[0]
    if start not in pts:
        raise KeyError(start)
    unvisited = set(nodes)
    unvisited.discard(start)
    order = [start]
    current = start
    while unvisited:
        nxt = min(unvisited, key=lambda n: (distance(pts[current], pts[n]), str(n)))
        order.append(nxt)
        unvisited.discard(nxt)
        current = nxt
    return Tour(order, pts).counterclockwise()


def _tour_matrix(tour: Tour):
    nodes = list(tour.order)
    return nodes, distance_matrix([tour.point(n) for n in nodes])


def two_opt(tour: Tour, *, max_rounds: int = 50, tol: float = 1e-9) -> Tour:
    """2-opt: the first improving reversal of a row-major (i, j) scan per round."""
    n = len(tour)
    if n < 4:
        return tour
    nodes, dmat = _tour_matrix(tour)
    order = list(range(n))

    improved = True
    rounds = 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for i in range(n - 1):
            a, b = order[i], order[i + 1]
            for j in range(i + 2, n):
                c = order[j]
                d = order[(j + 1) % n]
                if d == a:
                    continue
                delta = (dmat[a, c] + dmat[b, d]) - (dmat[a, b] + dmat[c, d])
                if delta < -tol:
                    order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                    improved = True
                    break
            if improved:
                break
    new_order = [nodes[i] for i in order]
    return Tour(new_order, tour.coordinates).counterclockwise()


def or_opt(tour: Tour, *, segment_lengths: tuple[int, ...] = (1, 2, 3), max_rounds: int = 30,
           tol: float = 1e-9) -> Tour:
    """Or-opt: the first improving relocation of a 1-3 node chain per round."""
    n = len(tour)
    if n < 5:
        return tour
    nodes, dmat = _tour_matrix(tour)
    order = list(range(n))

    def try_round() -> bool:
        nonlocal order
        for seg_len in segment_lengths:
            for i in range(n):
                seg = [order[(i + k) % n] for k in range(seg_len)]
                prev_node = order[(i - 1) % n]
                next_node = order[(i + seg_len) % n]
                if prev_node in seg or next_node in seg:
                    continue
                removal_gain = (
                    dmat[prev_node, seg[0]] + dmat[seg[-1], next_node] - dmat[prev_node, next_node]
                )
                rest = [x for x in order if x not in seg]
                m = len(rest)
                for j in range(m):
                    a = rest[j]
                    b = rest[(j + 1) % m]
                    insertion_cost = dmat[a, seg[0]] + dmat[seg[-1], b] - dmat[a, b]
                    if insertion_cost < removal_gain - tol:
                        order = rest[: j + 1] + seg + rest[j + 1 :]
                        return True
        return False

    rounds = 0
    while rounds < max_rounds and try_round():
        rounds += 1
    new_order = [nodes[i] for i in order]
    return Tour(new_order, tour.coordinates).counterclockwise()


@contextmanager
def reference_planning() -> Iterator[None]:
    """Build every tour with the loops above inside the block.

    Swaps them in where the library looks its heuristics up at call time:
    the ``hull-insertion`` and ``nearest-neighbor`` entries of
    :data:`repro.graphs.hamiltonian.TOUR_BUILDERS`,
    ``hamiltonian.nearest_neighbor_tour`` (which ``_build_circuit`` calls to
    pass ``start``), and ``improve.two_opt`` / ``improve.or_opt`` (the
    ``improve=True`` pass and :func:`repro.graphs.improve.improve_tour`).

    Every cache is cleared on entry and again on exit, so no tour, plan or
    batch row computed on one side of the block is served on the other: the
    batch keys its rows by spec alone, and the tour memo's key names the
    builder but not the 2-opt pass.  Everything is restored on exit, also
    when the block raises.
    """
    builders = hamiltonian.TOUR_BUILDERS
    saved = (
        builders["hull-insertion"],
        builders["nearest-neighbor"],
        hamiltonian.nearest_neighbor_tour,
        improve.two_opt,
        improve.or_opt,
    )
    clear_caches()
    builders["hull-insertion"] = convex_hull_insertion_tour
    builders["nearest-neighbor"] = nearest_neighbor_tour
    hamiltonian.nearest_neighbor_tour = nearest_neighbor_tour
    improve.two_opt = two_opt
    improve.or_opt = or_opt
    try:
        yield
    finally:
        (
            builders["hull-insertion"],
            builders["nearest-neighbor"],
            hamiltonian.nearest_neighbor_tour,
            improve.two_opt,
            improve.or_opt,
        ) = saved
        clear_caches()
