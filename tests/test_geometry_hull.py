"""Unit tests for repro.geometry.hull (Andrew monotone chain convex hull)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.geometry.cache import caching_disabled
from repro.geometry.hull import convex_hull, convex_hull_indices, point_in_hull
from repro.geometry.point import Point
from repro.graphs.hamiltonian import build_hamiltonian_circuit


def _signed_area(points):
    pts = [(p.x, p.y) for p in points]
    area = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        area += x1 * y2 - x2 * y1
    return 0.5 * area


class TestConvexHullIndices:
    def test_square_with_interior_point(self):
        pts = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(5, 5)]
        hull = convex_hull_indices(pts)
        assert sorted(hull) == [0, 1, 2, 3]

    def test_hull_is_counterclockwise(self):
        pts = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(5, 5)]
        hull_pts = convex_hull(pts)
        assert _signed_area(hull_pts) > 0

    def test_empty(self):
        assert convex_hull_indices([]) == []

    def test_single_point(self):
        assert convex_hull_indices([Point(1, 1)]) == [0]

    def test_two_points(self):
        assert sorted(convex_hull_indices([Point(0, 0), Point(1, 1)])) == [0, 1]

    def test_two_coincident_points(self):
        assert convex_hull_indices([Point(2, 2), Point(2, 2)]) == [0]

    def test_collinear_returns_extremes(self):
        pts = [Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)]
        hull = convex_hull_indices(pts)
        assert sorted(hull) == [0, 3]

    def test_duplicates_do_not_break_hull(self):
        pts = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(10, 0), Point(0, 0)]
        hull = convex_hull_indices(pts)
        coords = {(pts[i].x, pts[i].y) for i in hull}
        assert coords == {(0, 0), (10, 0), (10, 10), (0, 10)}

    def test_collinear_boundary_points_dropped(self):
        pts = [Point(0, 0), Point(5, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        hull = convex_hull_indices(pts)
        assert 1 not in hull  # midpoint of the bottom edge is not an extreme point
        assert sorted(hull) == [0, 2, 3, 4]

    def test_random_points_all_inside_hull(self):
        rng = np.random.default_rng(42)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(60, 2))]
        hull_pts = convex_hull(pts)
        assert len(hull_pts) >= 3
        for p in pts:
            assert point_in_hull(p, hull_pts)

    def test_triangle(self):
        pts = [Point(0, 0), Point(4, 0), Point(2, 3)]
        assert sorted(convex_hull_indices(pts)) == [0, 1, 2]


class TestPointInHull:
    def test_inside(self):
        hull = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        assert point_in_hull(Point(5, 5), hull)

    def test_outside(self):
        hull = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        assert not point_in_hull(Point(15, 5), hull)

    def test_on_boundary(self):
        hull = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        assert point_in_hull(Point(10, 5), hull)

    def test_on_vertex(self):
        hull = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        assert point_in_hull(Point(0, 0), hull)

    def test_degenerate_single_point_hull(self):
        assert point_in_hull(Point(1, 1), [Point(1, 1)])
        assert not point_in_hull(Point(1, 2), [Point(1, 1)])

    def test_degenerate_segment_hull(self):
        seg = [Point(0, 0), Point(10, 0)]
        assert point_in_hull(Point(5, 0), seg)
        assert not point_in_hull(Point(5, 1), seg)
        assert not point_in_hull(Point(20, 0), seg)

    def test_empty_hull(self):
        assert not point_in_hull(Point(0, 0), [])


def _reference_hull(points, *, exact=True):
    """Monotone chain with every orientation decided in ``Fraction`` (or in floats)."""
    arr = np.asarray(points, dtype=float)
    unique, seen = [], set()
    for idx in np.lexsort((arr[:, 1], arr[:, 0])):
        key = (float(arr[idx, 0]), float(arr[idx, 1]))
        if key not in seen:
            seen.add(key)
            unique.append(int(idx))
    if len(unique) <= 2:
        return unique
    num = Fraction if exact else float
    pts = [(num(float(arr[i, 0])), num(float(arr[i, 1]))) for i in unique]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(order):
        hull = []
        for i in order:
            while len(hull) >= 2 and cross(pts[hull[-2]], pts[hull[-1]], pts[i]) <= 0:
                hull.pop()
            hull.append(i)
        return hull

    lower = half(range(len(pts)))
    upper = half(range(len(pts) - 1, -1, -1))
    local = lower[:-1] + upper[:-1]
    if len(local) < 3:
        return [unique[lower[0]], unique[lower[-1]]]
    return [unique[i] for i in local]


def _on_line(seed):
    x = np.random.default_rng(seed).uniform(0, 1000, 26)
    return np.c_[x, 0.37 * x + 5]


def _on_ray(seed):
    t = np.random.default_rng(seed).uniform(0, 1000, 26)
    return np.c_[t * math.cos(0.3), t * math.sin(0.3)]


# 26 points collinear up to rounding, on which a float orientation test put a
# point on both chains, so the hull repeated an index and planning crashed.
_NEAR_COLLINEAR_REPRODUCERS = [
    *((f"line-{seed}", _on_line, seed) for seed in (26, 32, 59, 90, 100, 119, 146, 173)),
    *((f"ray-{seed}", _on_ray, seed) for seed in (10, 104, 121, 143, 152, 180, 199)),
]


class TestNearCollinearHull:
    @pytest.mark.parametrize(
        "draw,seed", [(d, s) for _n, d, s in _NEAR_COLLINEAR_REPRODUCERS],
        ids=[name for name, _d, _s in _NEAR_COLLINEAR_REPRODUCERS],
    )
    def test_reproducer_plans_cleanly(self, draw, seed):
        pts = draw(seed)
        hull = convex_hull_indices(pts)
        assert len(hull) == len(set(hull))
        assert hull == _reference_hull(pts)
        coords = {f"t{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)}
        with caching_disabled():
            tour = build_hamiltonian_circuit(coords, method="hull-insertion")
        assert sorted(tour.order) == sorted(coords)

    def test_seeded_near_collinear_fuzz_matches_the_exact_hull(self):
        rng = np.random.default_rng(20260808)
        float_repeats = 0
        for case in range(200):
            n = int(rng.integers(3, 41))
            t = rng.uniform(0, 1000, n)
            if case % 2:
                slope, intercept = rng.uniform(-3, 3), rng.uniform(-100, 100)
                pts = np.c_[t, slope * t + intercept]
            else:
                angle, origin = rng.uniform(0, 2 * np.pi), rng.uniform(-500, 500, 2)
                pts = origin + np.c_[t * np.cos(angle), t * np.sin(angle)]
            if case % 5 == 0:  # a point off the line makes a thin proper hull
                pts = np.vstack([pts, pts[0] + rng.uniform(-1, 1, 2)])
            if case % 7 == 0:  # exact duplicates
                pts = np.vstack([pts, pts[rng.integers(0, n, 3)]])
            hull = convex_hull_indices(pts)
            assert len(hull) == len(set(hull)), f"case {case}: hull {hull} repeats an index"
            assert hull == _reference_hull(pts), f"case {case}: hull differs from the exact one"
            float_hull = _reference_hull(pts, exact=False)
            float_repeats += len(float_hull) != len(set(float_hull))
        # The corpus reaches the inputs a float-only orientation gets wrong.
        assert float_repeats > 0
