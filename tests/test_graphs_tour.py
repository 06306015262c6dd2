"""Unit tests for repro.graphs.tour.Tour."""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.polyline import Polyline
from repro.graphs.tour import Tour


class TestConstruction:
    def test_order_preserved(self, square_tour):
        assert square_tour.order == ("a", "b", "c", "d")

    def test_duplicate_nodes_rejected(self, square_points):
        with pytest.raises(ValueError):
            Tour(["a", "b", "a"], square_points)

    def test_missing_coordinates_rejected(self, square_points):
        with pytest.raises(ValueError):
            Tour(["a", "b", "z"], square_points)

    def test_from_points_default_ids(self):
        t = Tour.from_points([Point(0, 0), Point(1, 0), Point(1, 1)])
        assert t.order == (0, 1, 2)

    def test_from_points_custom_ids(self):
        t = Tour.from_points([Point(0, 0), Point(1, 0)], ids=["x", "y"])
        assert t.order == ("x", "y")

    def test_from_points_id_length_mismatch(self):
        with pytest.raises(ValueError):
            Tour.from_points([Point(0, 0)], ids=["x", "y"])

    def test_equality(self, square_points):
        t1 = Tour(["a", "b", "c", "d"], square_points)
        t2 = Tour(["a", "b", "c", "d"], square_points)
        t3 = Tour(["a", "c", "b", "d"], square_points)
        assert t1 == t2
        assert t1 != t3


class TestAccessors:
    def test_len_and_contains(self, square_tour):
        assert len(square_tour) == 4
        assert "a" in square_tour
        assert "z" not in square_tour

    def test_position_of(self, square_tour):
        assert square_tour.position_of("c") == 2

    def test_successor_predecessor_wraparound(self, square_tour):
        assert square_tour.successor("d") == "a"
        assert square_tour.predecessor("a") == "d"

    def test_points_in_order(self, square_tour, square_points):
        assert square_tour.points_in_order() == [square_points[n] for n in "abcd"]

    def test_edges_include_closing_edge(self, square_tour):
        edges = square_tour.edges()
        assert len(edges) == 4
        assert ("d", "a") in edges


class TestGeometry:
    def test_length_of_square(self, square_tour):
        assert square_tour.length() == pytest.approx(400.0)

    def test_edge_length(self, square_tour):
        assert square_tour.edge_length("a", "c") == pytest.approx(100.0 * 2 ** 0.5)

    def test_signed_area_positive_for_ccw(self, square_tour):
        assert square_tour.signed_area() == pytest.approx(10_000.0)

    def test_signed_area_negative_for_cw(self, square_points):
        cw = Tour(["a", "d", "c", "b"], square_points)
        assert cw.signed_area() == pytest.approx(-10_000.0)

    def test_counterclockwise_normalises_cw_tour(self, square_points):
        cw = Tour(["a", "d", "c", "b"], square_points)
        ccw = cw.counterclockwise()
        assert ccw.signed_area() > 0
        assert ccw.length() == pytest.approx(cw.length())

    def test_counterclockwise_keeps_ccw_tour(self, square_tour):
        assert square_tour.counterclockwise() is square_tour

    def test_polyline_round_trip(self, square_tour):
        poly = square_tour.polyline()
        assert poly.length == pytest.approx(square_tour.length())

    def test_length_of_one_node_tour_is_zero(self):
        assert Tour(["a"], {"a": Point(3.0, 4.0)}).length() == 0.0

    def test_length_of_two_node_tour_is_there_and_back(self):
        tour = Tour(["a", "b"], {"a": Point(0.0, 0.0), "b": Point(3.0, 4.0)})
        assert tour.length() == 10.0

    def test_length_is_the_closed_polyline_length_bitwise(self):
        rng = np.random.default_rng(0)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(9, 2))]
        first = Tour.from_points(pts)
        second = Tour.from_points(pts)
        assert first.length() == Polyline(pts, closed=True).length
        assert second.length() == first.length()


class TestTransformations:
    def test_rotated_to(self, square_tour):
        rotated = square_tour.rotated_to("c")
        assert rotated.order == ("c", "d", "a", "b")
        assert rotated.length() == pytest.approx(square_tour.length())

    def test_reversed_keeps_start(self, square_tour):
        rev = square_tour.reversed()
        assert rev.order == ("a", "d", "c", "b")

    def test_with_node_inserted(self, square_tour):
        t = square_tour.with_node_inserted("e", Point(50, -10), 1)
        assert t.order == ("a", "e", "b", "c", "d")
        assert "e" in t

    def test_with_node_inserted_duplicate_rejected(self, square_tour):
        with pytest.raises(ValueError):
            square_tour.with_node_inserted("a", Point(1, 1), 0)

    def test_without_node(self, square_tour):
        t = square_tour.without_node("b")
        assert t.order == ("a", "c", "d")

    def test_without_missing_node_raises(self, square_tour):
        with pytest.raises(KeyError):
            square_tour.without_node("zzz")

    def test_transformations_do_not_mutate_original(self, square_tour):
        square_tour.rotated_to("b")
        square_tour.without_node("c")
        assert square_tour.order == ("a", "b", "c", "d")


class TestQueries:
    def test_insertion_cost_on_edge_is_zero(self, square_tour):
        # a point on the a-b edge costs nothing to insert between a and b
        assert square_tour.insertion_cost(Point(50, 0), 1) == pytest.approx(0.0)

    def test_insertion_cost_positive_off_edge(self, square_tour):
        assert square_tour.insertion_cost(Point(50, -30), 1) > 0

    def test_nearest_node(self, square_tour):
        assert square_tour.nearest_node(Point(95, 5)) == "b"

    def test_as_networkx(self, square_tour):
        g = square_tour.as_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        assert g["a"]["b"]["weight"] == pytest.approx(100.0)
