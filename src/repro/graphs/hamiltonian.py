"""Hamiltonian-circuit construction heuristics (phase 1 of every TCTP variant).

The paper builds its base patrolling path with the convex-hull concept of
reference [5]: start from the convex hull of the targets and repeatedly insert
the interior target whose insertion is cheapest.  That heuristic is what the
``CHB`` baseline of Section V is named after, and it is also the default
``Hamiltonian_CycleConstruct()`` used by B-TCTP / W-TCTP / RW-TCTP.

Alternative constructions (nearest-neighbour, Christofides via networkx) are
provided for the ablation experiment EXT-A2 and as drop-in replacements.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

import numpy as np

from repro.geometry.cache import ContentCache, points_fingerprint
from repro.geometry.hull import convex_hull_indices
from repro.geometry.point import Point, as_array, as_point, distance_matrix
from repro.graphs.tour import Tour

__all__ = [
    "convex_hull_insertion_tour",
    "nearest_neighbor_tour",
    "christofides_tour",
    "build_hamiltonian_circuit",
    "TOUR_BUILDERS",
]

NodeId = Hashable


def convex_hull_insertion_tour(coordinates: Mapping[NodeId, Point]) -> Tour:
    """Convex-hull cheapest-insertion tour (the CHB construction of ref. [5]).

    1. Start with the convex hull of all targets (already a sub-tour).
    2. Repeatedly pick the (interior point, edge) pair whose insertion
       increases the tour length least, and insert it.

    Deterministic for a given input ordering, so every data mule builds the
    same circuit — a requirement of the distributed algorithms in the paper.
    The rounds run in :func:`repro.planning.kernels.cheapest_insertion_order`,
    which picks what a row-major scan keeping the first cost below the best
    by more than 1e-12 would pick.
    """
    nodes = list(coordinates)
    if not nodes:
        raise ValueError("cannot build a tour over zero targets")
    pts = [as_point(coordinates[n]) for n in nodes]
    if len(nodes) <= 3:
        return Tour(nodes, dict(zip(nodes, pts))).counterclockwise()

    # Imported here: importing the repro.planning package at module load
    # would knot the graphs <-> planning import order.
    from repro.planning import kernels

    tour_idx = kernels.cheapest_insertion_order(
        distance_matrix(pts), convex_hull_indices(pts), len(nodes)
    )
    order = [nodes[i] for i in tour_idx]
    return Tour(order, dict(zip(nodes, pts))).counterclockwise()


def nearest_neighbor_tour(
    coordinates: Mapping[NodeId, Point], *, start: NodeId | None = None
) -> Tour:
    """Greedy nearest-neighbour tour starting from ``start`` (default: first node).

    Each step takes the closest unvisited node by ``(math.hypot distance,
    str(id))``, via :func:`repro.planning.kernels.nearest_neighbor_order`.
    """
    nodes = list(coordinates)
    if not nodes:
        raise ValueError("cannot build a tour over zero targets")
    pts = {n: as_point(coordinates[n]) for n in nodes}
    if start is None:
        start = nodes[0]
    if start not in pts:
        raise KeyError(start)
    from repro.planning import kernels

    order_idx = kernels.nearest_neighbor_order(
        as_array([pts[n] for n in nodes]), [str(n) for n in nodes], nodes.index(start)
    )
    return Tour([nodes[i] for i in order_idx], pts).counterclockwise()


def christofides_tour(coordinates: Mapping[NodeId, Point]) -> Tour:
    """Christofides 1.5-approximation tour via ``networkx`` (ablation comparator)."""
    import networkx as nx

    nodes = list(coordinates)
    if not nodes:
        raise ValueError("cannot build a tour over zero targets")
    pts = {n: as_point(coordinates[n]) for n in nodes}
    if len(nodes) <= 3:
        return Tour(nodes, pts).counterclockwise()
    # Complete graph in one pass from the distance matrix instead of an
    # O(n^2) per-pair distance()+add_edge loop.  Zero-weight edges between
    # coincident points are added too: christofides needs a complete graph.
    dmat = distance_matrix([pts[n] for n in nodes])
    iu, ju = np.triu_indices(len(nodes), k=1)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_weighted_edges_from(
        (nodes[i], nodes[j], w)
        for i, j, w in zip(iu.tolist(), ju.tolist(), dmat[iu, ju].tolist())
    )
    cycle = nx.approximation.christofides(g, weight="weight")
    # networkx returns a closed walk with the start repeated at the end
    order = list(cycle[:-1])
    return Tour(order, pts).counterclockwise()


TOUR_BUILDERS: dict[str, Callable[[Mapping[NodeId, Point]], Tour]] = {
    "hull-insertion": convex_hull_insertion_tour,
    "nearest-neighbor": nearest_neighbor_tour,
    "christofides": christofides_tour,
}

# Finished circuits memoized by (node ids, coordinates content, method,
# improve, start).  Tours are immutable, so campaign cells that share a
# scenario — every strategy of a grid axis, every replication with a pinned
# scenario seed — reuse the constructed (and improved) circuit instead of
# re-running the O(n^2)/O(n^3) heuristics.  A hit returns the *same* Tour
# instance the miss path produced, so results are identical either way.  The
# builder's own circuit, before 2-opt and rotation, has an entry of its own
# that both the plain and the improved circuit start from.
_TOUR_CACHE = ContentCache("hamiltonian_tour", maxsize=256)


def build_hamiltonian_circuit(
    coordinates: Mapping[NodeId, Point],
    *,
    method: str = "hull-insertion",
    improve: bool = False,
    start: NodeId | None = None,
) -> Tour:
    """Build the shared Hamiltonian circuit used by all patrolling algorithms.

    Parameters
    ----------
    coordinates:
        Node -> point mapping (targets plus the sink).
    method:
        One of ``"hull-insertion"`` (paper default), ``"nearest-neighbor"``,
        ``"christofides"``.
    improve:
        Apply a 2-opt improvement pass after construction.
    start:
        Rotate the resulting cycle so this node comes first (e.g. the sink).

    Notes
    -----
    Results are memoized by content (see :mod:`repro.geometry.cache`): two
    calls with equal node ids, coordinates and options share one immutable
    :class:`Tour` instance, and a call that differs only in ``improve``
    reuses the other's construction.  Disable via
    :func:`repro.geometry.cache.configure` to force reconstruction.
    """
    builder = TOUR_BUILDERS.get(method)
    if builder is None:
        raise ValueError(
            f"unknown tour construction method {method!r}; expected one of {sorted(TOUR_BUILDERS)}"
        )
    nodes = tuple(coordinates)
    # The builder object is part of the key so swapping a TOUR_BUILDERS entry
    # at runtime can never serve a circuit constructed by the old builder.
    content = (nodes, points_fingerprint([coordinates[n] for n in nodes]), method, builder)
    return _TOUR_CACHE.get_or_compute(
        content + (bool(improve), start),
        lambda: _finish(_constructed(coordinates, content, start), improve, start),
    )


def _constructed(coordinates: Mapping[NodeId, Point], content: tuple, start: NodeId | None) -> Tour:
    """The builder's circuit before 2-opt and rotation, memoized for both variants.

    2-opt scans from the circuit's first node, so it must start from this
    circuit, not from a rotated one.  Nearest neighbour grows its circuit from
    ``start``, so ``start`` is part of its key.
    """
    method, builder = content[2], content[3]
    if method == "nearest-neighbor":
        return _TOUR_CACHE.get_or_compute(
            ("construction",) + content + (start,),
            lambda: nearest_neighbor_tour(coordinates, start=start),
        )
    return _TOUR_CACHE.get_or_compute(("construction",) + content, lambda: builder(coordinates))


def _finish(tour: Tour, improve: bool, start: NodeId | None) -> Tour:
    if improve:
        from repro.graphs.improve import two_opt

        tour = two_opt(tour)
    if start is not None and start in tour:
        tour = tour.rotated_to(start)
    return tour.counterclockwise().rotated_to(start) if start is not None and start in tour else tour.counterclockwise()
