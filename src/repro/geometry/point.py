"""Point primitives and vectorised distance helpers.

Targets, data mules, the sink and the recharge station are all located at 2-D
points.  ``Point`` is an immutable value type; the module-level helpers accept
either ``Point`` instances or plain ``(x, y)`` tuples / numpy rows so the
higher-level code can stay agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Point",
    "as_point",
    "as_array",
    "distance",
    "distance_matrix",
    "hypot_row",
    "centroid",
    "total_length",
    "northmost_index",
]


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point in the Euclidean plane (coordinates in metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point | tuple[float, float]") -> float:
        """Euclidean distance to ``other``."""
        ox, oy = _coords(other)
        return math.hypot(self.x - ox, self.y - oy)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def towards(self, other: "Point | tuple[float, float]", dist: float) -> "Point":
        """Return the point ``dist`` metres from ``self`` towards ``other``.

        If ``other`` coincides with ``self`` the point itself is returned.
        """
        ox, oy = _coords(other)
        d = math.hypot(ox - self.x, oy - self.y)
        if d == 0.0:
            return self
        t = dist / d
        return Point(self.x + (ox - self.x) * t, self.y + (oy - self.y) * t)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


def _coords(p: "Point | Sequence[float]") -> tuple[float, float]:
    if isinstance(p, Point):
        return p.x, p.y
    return float(p[0]), float(p[1])


def as_point(p: "Point | Sequence[float]") -> Point:
    """Coerce a ``Point`` or an ``(x, y)`` pair into a ``Point``."""
    if isinstance(p, Point):
        return p
    x, y = _coords(p)
    return Point(x, y)


def as_array(points: Iterable["Point | Sequence[float]"]) -> np.ndarray:
    """Stack points into an ``(n, 2)`` float array."""
    rows = [_coords(p) for p in points]
    if not rows:
        return np.empty((0, 2), dtype=float)
    return np.asarray(rows, dtype=float)


def distance(a: "Point | Sequence[float]", b: "Point | Sequence[float]") -> float:
    """Euclidean distance between two points."""
    ax, ay = _coords(a)
    bx, by = _coords(b)
    return math.hypot(ax - bx, ay - by)


def distance_matrix(points: Iterable["Point | Sequence[float]"]) -> np.ndarray:
    """Full pairwise Euclidean distance matrix as an ``(n, n)`` array.

    Computed on the two coordinate planes: ``dx = x_i - x_j`` and ``dy``
    likewise as two ``(n, n)`` broadcasts, then ``sqrt(dx*dx + dy*dy)`` in
    place.  That is the float sum an ``einsum`` over an ``(n, n, 2)``
    difference array takes, so the values are unchanged, without the
    strided third axis.  Entries are not guaranteed bit-equal to
    :func:`distance` (``math.hypot``): callers that must match a
    ``math.hypot`` scan re-measure with the scalar function.
    """
    arr = as_array(points)
    if arr.shape[0] == 0:
        return np.empty((0, 0), dtype=float)
    xs = arr[:, 0]
    ys = arr[:, 1]
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def hypot_row(coords: np.ndarray, index: int) -> np.ndarray:
    """Distances from row ``index`` to every row of an ``(n, 2)`` array.

    The batched companion of :func:`distance` for one source point: a single
    ``np.hypot`` over the coordinate columns instead of n scalar calls.
    Caution for exact-reproduction callers: ``np.hypot`` is faithful but not
    guaranteed bit-identical to ``math.hypot`` — selection logic that must
    match a ``math.hypot``-based scan has to re-measure near-minimal
    candidates with the scalar function (see
    :func:`repro.planning.kernels.nearest_neighbor_order`).
    """
    return np.hypot(coords[index, 0] - coords[:, 0], coords[index, 1] - coords[:, 1])


def centroid(points: Iterable["Point | Sequence[float]"]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    arr = as_array(points)
    if arr.shape[0] == 0:
        raise ValueError("centroid of an empty point set is undefined")
    cx, cy = arr.mean(axis=0)
    return Point(float(cx), float(cy))


def total_length(points: Sequence["Point | Sequence[float]"], *, closed: bool = False) -> float:
    """Length of the polyline through ``points`` (optionally closing the loop)."""
    arr = as_array(points)
    if arr.shape[0] < 2:
        return 0.0
    seg = np.diff(arr, axis=0)
    length = float(np.sqrt((seg ** 2).sum(axis=1)).sum())
    if closed:
        length += float(np.hypot(*(arr[0] - arr[-1])))
    return length


def northmost_index(points: Sequence["Point | Sequence[float]"]) -> int:
    """Index of the most-north point (largest ``y``; ties broken by smallest ``x``).

    B-TCTP uses the most-north target as the reference start point for
    partitioning the patrolling path into equal-length segments.
    """
    arr = as_array(points)
    if arr.shape[0] == 0:
        raise ValueError("no points supplied")
    max_y = arr[:, 1].max()
    candidates = np.flatnonzero(arr[:, 1] == max_y)
    return int(candidates[np.argmin(arr[candidates, 0])])
