"""Convex hull computation (Andrew's monotone chain).

The CHB Hamiltonian-circuit heuristic (reference [5] of the paper) starts from
the convex hull of the target set and inserts interior points one at a time.
The hull is implemented from scratch so the library has no dependency on
``scipy.spatial`` for its core path-construction step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.point import Point, as_array

__all__ = ["convex_hull_indices", "convex_hull", "point_in_hull"]

# Shewchuk's orient2d error bound ccwerrboundA, with epsilon = 2**-53.
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Z-component of the cross product (OA × OB)."""
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def _orientation(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """A number with the exact sign of the cross product (OA × OB).

    The float determinant is returned when it clears the forward error bound;
    otherwise the sign is decided exactly in rationals.
    """
    detleft = (a[0] - o[0]) * (b[1] - o[1])
    detright = (a[1] - o[1]) * (b[0] - o[0])
    det = detleft - detright
    if abs(det) >= _ORIENT_BOUND * (abs(detleft) + abs(detright)):
        return det
    # Imported on first use: the branch is rare, and fractions loads decimal.
    from fractions import Fraction

    ox, oy, ax, ay, bx, by = map(Fraction, (o[0], o[1], a[0], a[1], b[0], b[1]))
    exact = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    return float((exact > 0) - (exact < 0))


def convex_hull_indices(points: Sequence) -> list[int]:
    """Indices of the convex hull of ``points`` in counter-clockwise order.

    Collinear points on the hull boundary are dropped (only extreme points are
    returned).  Degenerate inputs are handled gracefully:

    * 0 points -> ``[]``
    * 1 point  -> ``[0]``
    * 2 points -> ``[0, 1]`` (or ``[0]`` if they coincide)
    * all collinear -> the two extreme endpoints
    """
    arr = as_array(points)
    n = arr.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [0]

    order = np.lexsort((arr[:, 1], arr[:, 0]))
    # Drop exact duplicates while preserving the first occurrence.
    unique: list[int] = []
    seen: set[tuple[float, float]] = set()
    for idx in order:
        key = (float(arr[idx, 0]), float(arr[idx, 1]))
        if key not in seen:
            seen.add(key)
            unique.append(int(idx))
    if len(unique) == 1:
        return [unique[0]]
    if len(unique) == 2:
        return unique

    pts = arr[unique].tolist()

    def half_hull(indices_range) -> list[int]:
        # An exact orientation keeps both chains consistent; a float one can
        # put a near-collinear point on both and repeat it in the hull.
        hull: list[int] = []
        for i in indices_range:
            while len(hull) >= 2 and _orientation(pts[hull[-2]], pts[hull[-1]], pts[i]) <= 0:
                hull.pop()
            hull.append(i)
        return hull

    lower = half_hull(range(len(unique)))
    upper = half_hull(range(len(unique) - 1, -1, -1))
    hull_local = lower[:-1] + upper[:-1]
    if len(hull_local) < 3:
        # All points collinear: return the two extremes.
        return [unique[lower[0]], unique[lower[-1]]]
    return [unique[i] for i in hull_local]


def convex_hull(points: Sequence) -> list[Point]:
    """Convex hull of ``points`` as a CCW-ordered list of :class:`Point`."""
    arr = as_array(points)
    return [Point(float(arr[i, 0]), float(arr[i, 1])) for i in convex_hull_indices(points)]


def point_in_hull(point, hull_points: Sequence, *, eps: float = 1e-9) -> bool:
    """True if ``point`` lies inside or on the boundary of the CCW hull polygon."""
    arr = as_array(hull_points)
    p = as_array([point])[0]
    m = arr.shape[0]
    if m == 0:
        return False
    if m == 1:
        return bool(np.allclose(arr[0], p, atol=eps))
    if m == 2:
        # Degenerate hull: the segment between the two points.
        a, b = arr
        cross = _cross(a, b, p)
        if abs(cross) > eps * max(1.0, np.linalg.norm(b - a)):
            return False
        t = np.dot(p - a, b - a)
        return -eps <= t <= np.dot(b - a, b - a) + eps
    for i in range(m):
        a = arr[i]
        b = arr[(i + 1) % m]
        if _cross(a, b, p) < -eps:
            return False
    return True
