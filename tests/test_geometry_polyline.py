"""Unit tests for repro.geometry.polyline (arc-length parametrisation)."""

import numpy as np
import pytest

from repro.geometry.point import Point, total_length
from repro.geometry.polyline import Polyline, point_along, resample_positions

SQUARE = [Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)]


class TestPolylineBasics:
    def test_open_length(self):
        poly = Polyline(SQUARE, closed=False)
        assert poly.length == pytest.approx(300.0)

    def test_closed_length(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.length == pytest.approx(400.0)

    @pytest.mark.parametrize("closed", [False, True])
    def test_length_close_to_scalar_total_length(self, closed):
        rng = np.random.default_rng(0)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(9, 2))]
        assert Polyline(pts, closed=closed).length == pytest.approx(
            total_length(pts, closed=closed), rel=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Polyline([])

    def test_single_vertex(self):
        poly = Polyline([Point(5, 5)], closed=True)
        assert poly.length == 0.0
        assert poly.point_at(123.0) == Point(5, 5)

    def test_num_vertices(self):
        assert Polyline(SQUARE).num_vertices == 4

    def test_vertex_accessor(self):
        poly = Polyline(SQUARE)
        assert poly.vertex(2) == Point(100, 100)
        assert poly.vertex(-1) == Point(0, 100)

    def test_vertices_read_only(self):
        poly = Polyline(SQUARE)
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 42.0

    def test_segment_lengths_closed(self):
        poly = Polyline(SQUARE, closed=True)
        assert list(poly.segment_lengths) == pytest.approx([100.0] * 4)


class TestArcLengthQueries:
    def test_arc_length_of_vertex(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.arc_length_of_vertex(0) == 0.0
        assert poly.arc_length_of_vertex(1) == pytest.approx(100.0)
        assert poly.arc_length_of_vertex(3) == pytest.approx(300.0)

    def test_arc_length_of_vertex_out_of_range(self):
        with pytest.raises(IndexError):
            Polyline(SQUARE).arc_length_of_vertex(10)

    def test_point_at_midpoint_of_first_edge(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.point_at(50.0) == Point(50.0, 0.0)

    def test_point_at_vertex(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.point_at(200.0) == Point(100.0, 100.0)

    def test_point_at_wraps_on_closed(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.point_at(450.0) == poly.point_at(50.0)

    def test_point_at_negative_wraps_on_closed(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.point_at(-50.0) == poly.point_at(350.0)

    def test_point_at_clamped_on_open(self):
        poly = Polyline(SQUARE, closed=False)
        assert poly.point_at(-10.0) == Point(0, 0)
        assert poly.point_at(10_000.0) == Point(0, 100)

    def test_point_at_closing_segment(self):
        poly = Polyline(SQUARE, closed=True)
        # arc length 350 lies on the closing edge from (0,100) back to (0,0)
        assert poly.point_at(350.0) == Point(0.0, 50.0)


class TestEquallySpaced:
    def test_four_points_on_square(self):
        poly = Polyline(SQUARE, closed=True)
        pts = poly.equally_spaced(4)
        assert pts == [Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)]

    def test_spacing_is_uniform(self):
        poly = Polyline(SQUARE, closed=True)
        pts = poly.equally_spaced(8)
        assert len(pts) == 8
        # consecutive points are 50 apart along the path (straight-line distance
        # equals arc distance here because 50 < edge length)
        for a, b in zip(pts, pts[1:]):
            assert a.distance_to(b) == pytest.approx(50.0)

    def test_offset_shifts_all_points(self):
        poly = Polyline(SQUARE, closed=True)
        pts = poly.equally_spaced(4, offset=50.0)
        assert pts[0] == Point(50.0, 0.0)

    def test_open_polyline_rejected(self):
        with pytest.raises(ValueError):
            Polyline(SQUARE, closed=False).equally_spaced(3)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            Polyline(SQUARE, closed=True).equally_spaced(0)

    def test_more_points_than_vertices(self):
        poly = Polyline(SQUARE, closed=True)
        pts = poly.equally_spaced(16)
        assert len(pts) == 16


class TestHelpers:
    def test_point_along(self):
        assert point_along(SQUARE, 150.0) == Point(100.0, 50.0)

    def test_resample_positions(self):
        assert len(resample_positions(SQUARE, 5)) == 5

    def test_nearest_vertex(self):
        poly = Polyline(SQUARE, closed=True)
        assert poly.nearest_vertex(Point(90, 10)) == 1
        assert poly.nearest_vertex((5, 95)) == 3
