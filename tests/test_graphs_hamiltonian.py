"""Unit tests for repro.graphs.hamiltonian (circuit construction heuristics)."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point, distance
from repro.graphs.hamiltonian import (
    TOUR_BUILDERS,
    build_hamiltonian_circuit,
    christofides_tour,
    convex_hull_insertion_tour,
    nearest_neighbor_tour,
)
from repro.graphs.validation import validate_tour


def _random_coords(n, seed=0, scale=800.0):
    rng = np.random.default_rng(seed)
    return {f"g{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(rng.uniform(0, scale, (n, 2)))}


def _optimal_square_length():
    return 400.0


SQUARE = {
    "a": Point(0, 0),
    "b": Point(100, 0),
    "c": Point(100, 100),
    "d": Point(0, 100),
}


class TestConvexHullInsertion:
    def test_visits_every_node_once(self):
        coords = _random_coords(30, seed=1)
        tour = convex_hull_insertion_tour(coords)
        validate_tour(tour, expected_nodes=list(coords))

    def test_square_is_optimal(self):
        tour = convex_hull_insertion_tour(SQUARE)
        assert tour.length() == pytest.approx(_optimal_square_length())

    def test_interior_point_inserted(self):
        coords = dict(SQUARE, e=Point(50, 10))
        tour = convex_hull_insertion_tour(coords)
        assert set(tour.order) == set(coords)
        # e should be inserted on the bottom edge: tour length = 400 + small detour
        assert tour.length() < 450

    def test_counterclockwise_orientation(self):
        tour = convex_hull_insertion_tour(_random_coords(15, seed=3))
        assert tour.signed_area() > 0

    def test_deterministic(self):
        coords = _random_coords(25, seed=7)
        t1 = convex_hull_insertion_tour(coords)
        t2 = convex_hull_insertion_tour(coords)
        assert t1.order == t2.order

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull_insertion_tour({})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_inputs(self, n):
        coords = {f"g{i}": Point(float(i * 10), float(i % 2)) for i in range(n)}
        tour = convex_hull_insertion_tour(coords)
        assert len(tour) == n

    def test_collinear_points(self):
        coords = {f"g{i}": Point(float(i * 10), 0.0) for i in range(6)}
        tour = convex_hull_insertion_tour(coords)
        validate_tour(tour, expected_nodes=list(coords))
        assert tour.length() == pytest.approx(100.0)  # out and back along the line


class TestNearestNeighbor:
    def test_visits_every_node_once(self):
        coords = _random_coords(30, seed=2)
        tour = nearest_neighbor_tour(coords)
        validate_tour(tour, expected_nodes=list(coords))

    def test_start_node_respected(self):
        coords = _random_coords(10, seed=2)
        tour = nearest_neighbor_tour(coords, start="g5")
        assert "g5" in tour.order

    def test_unknown_start_raises(self):
        with pytest.raises(KeyError):
            nearest_neighbor_tour(SQUARE, start="zzz")

    def test_square(self):
        tour = nearest_neighbor_tour(SQUARE, start="a")
        assert tour.length() == pytest.approx(400.0)


class TestChristofides:
    def test_visits_every_node_once(self):
        coords = _random_coords(15, seed=4)
        tour = christofides_tour(coords)
        validate_tour(tour, expected_nodes=list(coords))

    def test_square(self):
        tour = christofides_tour(SQUARE)
        assert tour.length() == pytest.approx(400.0)

    def test_within_christofides_bound_of_hull_insertion(self):
        coords = _random_coords(25, seed=5)
        chris = christofides_tour(coords).length()
        hull = convex_hull_insertion_tour(coords).length()
        # both are constant-factor heuristics; they should be in the same ballpark
        assert chris < 2.0 * hull
        assert hull < 2.0 * chris


class TestBuildHamiltonianCircuit:
    def test_default_method(self):
        coords = _random_coords(20, seed=6)
        tour = build_hamiltonian_circuit(coords)
        validate_tour(tour, expected_nodes=list(coords))

    def test_start_rotation(self):
        coords = _random_coords(20, seed=6)
        tour = build_hamiltonian_circuit(coords, start="g7")
        assert tour.order[0] == "g7"

    def test_improve_never_lengthens(self):
        coords = _random_coords(30, seed=8)
        plain = build_hamiltonian_circuit(coords, method="nearest-neighbor")
        improved = build_hamiltonian_circuit(coords, method="nearest-neighbor", improve=True)
        assert improved.length() <= plain.length() + 1e-6

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian_circuit(SQUARE, method="magic")

    @pytest.mark.parametrize("method", sorted(TOUR_BUILDERS))
    def test_all_methods_cover_all_nodes(self, method):
        coords = _random_coords(18, seed=9)
        tour = build_hamiltonian_circuit(coords, method=method)
        validate_tour(tour, expected_nodes=list(coords))

    def test_hull_insertion_reasonable_quality(self):
        # circuit over points on a circle: the optimal tour is the circle order
        coords = {
            f"g{i}": Point(400 + 200 * math.cos(2 * math.pi * i / 20),
                           400 + 200 * math.sin(2 * math.pi * i / 20))
            for i in range(20)
        }
        optimal = sum(
            distance(coords[f"g{i}"], coords[f"g{(i + 1) % 20}"]) for i in range(20)
        )
        tour = build_hamiltonian_circuit(coords)
        assert tour.length() == pytest.approx(optimal, rel=1e-6)


class TestConstructionMemo:
    """Both circuit variants (plain and 2-opt improved) start from one memoized construction."""

    def test_ablation_tsp_builds_each_hull_circuit_once(self, monkeypatch):
        import contextlib
        import io

        from repro.experiments import ablation_tsp
        from repro.experiments.common import ExperimentSettings
        from repro.geometry.cache import clear_caches
        from repro.planning import kernels

        matrices = []
        cheapest_insertion_order = kernels.cheapest_insertion_order

        def spy(dmat, hull, n):
            matrices.append(dmat.tobytes())
            return cheapest_insertion_order(dmat, hull, n)

        monkeypatch.setattr(kernels, "cheapest_insertion_order", spy)
        clear_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            ablation_tsp.main(ExperimentSettings.quick())
        clear_caches()
        # 3 target counts x 3 replications, each shared by hull and hull+2opt
        assert len(matrices) == len(set(matrices)) == 9

    @pytest.mark.parametrize("method", ["hull-insertion", "nearest-neighbor"])
    def test_variants_equal_uncached_builds_in_either_order(self, method):
        from repro.geometry.cache import caching_disabled, clear_caches

        coords = _random_coords(40, seed=12)
        calls = [dict(improve=improve, start=start)
                 for improve in (True, False) for start in (None, "g5", "g9")]
        with caching_disabled():
            fresh = [build_hamiltonian_circuit(coords, method=method, **kw).order for kw in calls]
        for ordered in (calls, calls[::-1]):
            clear_caches()
            built = {
                tuple(sorted(kw.items(), key=str)): build_hamiltonian_circuit(coords, method=method, **kw).order
                for kw in ordered
            }
            assert [built[tuple(sorted(kw.items(), key=str))] for kw in calls] == fresh
        clear_caches()
