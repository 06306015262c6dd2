"""Local-search tour improvement (2-opt and Or-opt).

The paper's heuristics stop at the convex-hull insertion circuit; these
improvement passes are provided for the EXT-A2 ablation (how much does a
better Hamiltonian circuit shrink the visiting interval?) and as optional
post-processing for users of the library.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.geometry.point import distance_matrix
from repro.graphs.tour import Tour

__all__ = ["two_opt", "or_opt", "improve_tour"]

NodeId = Hashable


def _tour_matrix(tour: Tour) -> tuple[list[NodeId], np.ndarray]:
    nodes = list(tour.order)
    return nodes, distance_matrix([tour.point(n) for n in nodes])


def two_opt(tour: Tour, *, max_rounds: int = 50, tol: float = 1e-9) -> Tour:
    """Classic 2-opt: reverse tour segments while any reversal shortens the tour.

    Runs improvement rounds until no improving move exists or ``max_rounds``
    is reached; each round applies the first improving reversal of a
    row-major (i, j) scan, evaluated as one broadcast O(n^2) delta matrix
    (:func:`repro.planning.kernels.two_opt_order`).
    """
    n = len(tour)
    if n < 4:
        return tour
    # Imported here so module load order stays acyclic (see
    # repro.graphs.hamiltonian.convex_hull_insertion_tour).
    from repro.planning import kernels

    nodes, dmat = _tour_matrix(tour)
    order = kernels.two_opt_order(list(range(n)), dmat, max_rounds=max_rounds, tol=tol)
    return Tour([nodes[i] for i in order], tour.coordinates).counterclockwise()


def or_opt(tour: Tour, *, segment_lengths: tuple[int, ...] = (1, 2, 3), max_rounds: int = 30,
           tol: float = 1e-9) -> Tour:
    """Or-opt: relocate short chains of 1-3 consecutive nodes to a better position.

    Each round applies the first improving relocation of the (segment length,
    rotation start, insertion edge) scan, with the candidate rows of a round
    evaluated as broadcast removal-gain/insertion-cost matrices
    (:func:`repro.planning.kernels.or_opt_order`).
    """
    n = len(tour)
    if n < 5:
        return tour
    from repro.planning import kernels

    nodes, dmat = _tour_matrix(tour)
    order = kernels.or_opt_order(
        list(range(n)), dmat,
        segment_lengths=tuple(segment_lengths), max_rounds=max_rounds, tol=tol,
    )
    return Tour([nodes[i] for i in order], tour.coordinates).counterclockwise()


def improve_tour(tour: Tour, *, use_or_opt: bool = True) -> Tour:
    """2-opt followed (optionally) by Or-opt; never lengthens the tour."""
    before = tour.length()
    improved = two_opt(tour)
    if use_or_opt:
        improved = or_opt(improved)
    return improved if improved.length() <= before + 1e-9 else tour
