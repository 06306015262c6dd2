"""Unit tests for repro.geometry.point."""

import numpy as np
import pytest

from repro.geometry.point import (
    Point,
    as_array,
    as_point,
    centroid,
    distance,
    distance_matrix,
    northmost_index,
    total_length,
)


class TestPoint:
    def test_distance_to_pythagorean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_to_accepts_tuple(self):
        assert Point(1, 1).distance_to((4, 5)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -7.1)
        assert p.distance_to(p) == 0.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -4) == Point(4, -2)

    def test_translated_returns_new_point(self):
        p = Point(0, 0)
        q = p.translated(1, 1)
        assert p == Point(0, 0) and q == Point(1, 1)

    def test_towards_partial(self):
        p = Point(0, 0).towards(Point(10, 0), 4)
        assert p == Point(4, 0)

    def test_towards_beyond_target_overshoots_linearly(self):
        p = Point(0, 0).towards(Point(10, 0), 20)
        assert p.x == pytest.approx(20.0)

    def test_towards_coincident_returns_self(self):
        p = Point(3, 3)
        assert p.towards(Point(3, 3), 5) == p

    def test_as_tuple_and_iter(self):
        p = Point(1.5, 2.5)
        assert p.as_tuple() == (1.5, 2.5)
        assert tuple(p) == (1.5, 2.5)

    def test_frozen(self):
        with pytest.raises(Exception):
            Point(0, 0).x = 5  # type: ignore[misc]

    def test_ordering_is_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 1) < Point(1, 2)


class TestCoercions:
    def test_as_point_passthrough(self):
        p = Point(1, 2)
        assert as_point(p) is p

    def test_as_point_from_tuple(self):
        assert as_point((3, 4)) == Point(3.0, 4.0)

    def test_as_array_shape(self):
        arr = as_array([Point(0, 0), (1, 2), Point(3, 4)])
        assert arr.shape == (3, 2)
        assert arr[1, 1] == 2.0

    def test_as_array_empty(self):
        assert as_array([]).shape == (0, 2)


class TestDistanceHelpers:
    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(-3, 9)
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_distance_matrix_matches_pairwise(self):
        pts = [Point(0, 0), Point(3, 4), Point(6, 8)]
        m = distance_matrix(pts)
        assert m.shape == (3, 3)
        assert np.allclose(np.diag(m), 0.0)
        assert m[0, 1] == pytest.approx(5.0)
        assert m[0, 2] == pytest.approx(10.0)
        assert np.allclose(m, m.T)

    def test_distance_matrix_matches_scalar_point_distance(self):
        """Every matrix entry equals the scalar ``distance`` to the last ulp."""
        rng = np.random.default_rng(0)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(9, 2))]
        mat = distance_matrix(pts)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert mat[i, j] == pytest.approx(distance(a, b), abs=0.0, rel=1e-15)

    def test_distance_matrix_empty(self):
        assert distance_matrix([]).shape == (0, 0)

    @pytest.mark.parametrize("layout", ["uniform", "clustered", "lattice", "duplicates"])
    def test_distance_matrix_bitwise_equals_the_einsum(self, layout):
        """The two-plane matrix holds the floats of an ``(n, n, 2)`` broadcast
        summed by ``einsum``, at every coordinate scale."""
        rng = np.random.default_rng(20260808 + len(layout))
        for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6, 1e10):
            for n in (2, 3, 17, 130, 260):
                if layout == "uniform":
                    arr = rng.uniform(-1.0, 1.0, (n, 2))
                elif layout == "clustered":
                    arr = rng.normal(rng.uniform(-1.0, 1.0, 2), 0.01, (n, 2))
                elif layout == "lattice":
                    arr = rng.integers(-20, 20, (n, 2)).astype(float)
                else:
                    arr = rng.uniform(-1.0, 1.0, (max(1, n // 3), 2))[rng.integers(max(1, n // 3), size=n)]
                arr = arr * scale
                diff = arr[:, None, :] - arr[None, :, :]
                want = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
                got = distance_matrix([Point(float(x), float(y)) for x, y in arr])
                assert got.tobytes() == want.tobytes(), (layout, scale, n)

    def test_centroid(self):
        c = centroid([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        assert c == Point(1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_total_length_open(self):
        pts = [Point(0, 0), Point(3, 4), Point(3, 8)]
        assert total_length(pts) == pytest.approx(9.0)

    def test_total_length_closed_adds_return_edge(self):
        pts = [Point(0, 0), Point(4, 0), Point(4, 3)]
        assert total_length(pts, closed=True) == pytest.approx(4 + 3 + 5)

    def test_total_length_single_point(self):
        assert total_length([Point(1, 1)]) == 0.0
        assert total_length([Point(1, 1)], closed=True) == 0.0


class TestNorthmost:
    def test_picks_largest_y(self):
        pts = [Point(0, 0), Point(5, 10), Point(3, 7)]
        assert northmost_index(pts) == 1

    def test_tie_broken_by_smallest_x(self):
        pts = [Point(5, 10), Point(1, 10), Point(3, 2)]
        assert northmost_index(pts) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            northmost_index([])
