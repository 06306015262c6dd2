"""Unit tests for repro.graphs.improve (2-opt / Or-opt local search).

The boundary and round-cap cases also compare the kernels with the frozen
scalar loops of ``planning_reference.py``, move for move.
"""

import numpy as np
import pytest

import planning_reference as reference
from repro.geometry.point import Point
from repro.graphs.improve import improve_tour, or_opt, two_opt
from repro.graphs.tour import Tour
from repro.graphs.validation import validate_tour


def _random_tour(n, seed):
    rng = np.random.default_rng(seed)
    coords = {f"g{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(rng.uniform(0, 500, (n, 2)))}
    order = list(coords)
    rng.shuffle(order)
    return Tour(order, coords)


class TestTwoOpt:
    def test_never_lengthens(self):
        for seed in range(5):
            tour = _random_tour(25, seed)
            improved = two_opt(tour)
            assert improved.length() <= tour.length() + 1e-9

    def test_preserves_node_set(self):
        tour = _random_tour(20, 3)
        improved = two_opt(tour)
        validate_tour(improved, expected_nodes=list(tour.order))

    def test_fixes_crossing(self):
        # a deliberately crossed square: a-c-b-d crosses, optimum is the plain square
        coords = {"a": Point(0, 0), "b": Point(100, 0), "c": Point(100, 100), "d": Point(0, 100)}
        crossed = Tour(["a", "c", "b", "d"], coords)
        improved = two_opt(crossed)
        assert improved.length() == pytest.approx(400.0)

    def test_small_tours_returned_unchanged(self):
        tour = _random_tour(3, 0)
        assert two_opt(tour) is tour

    def test_already_optimal_square_untouched_length(self):
        coords = {"a": Point(0, 0), "b": Point(100, 0), "c": Point(100, 100), "d": Point(0, 100)}
        tour = Tour(["a", "b", "c", "d"], coords)
        assert two_opt(tour).length() == pytest.approx(400.0)


class TestOrOpt:
    def test_never_lengthens(self):
        for seed in range(5):
            tour = _random_tour(20, seed + 10)
            improved = or_opt(tour)
            assert improved.length() <= tour.length() + 1e-9

    def test_preserves_node_set(self):
        tour = _random_tour(15, 11)
        improved = or_opt(tour)
        validate_tour(improved, expected_nodes=list(tour.order))

    def test_relocates_outlier_segment(self):
        # g9 physically sits near g0/g1 but is visited in the middle of the far
        # end of the line; or-opt should relocate it next to its neighbours.
        coords = {f"g{i}": Point(i * 50.0, 0.0) for i in range(8)}
        coords["g9"] = Point(25.0, 10.0)
        bad_order = ["g0", "g1", "g2", "g3", "g9", "g4", "g5", "g6", "g7"]
        tour = Tour(bad_order, coords)
        improved = or_opt(tour)
        assert improved.length() < tour.length() - 100.0

    def test_tiny_tour_unchanged(self):
        tour = _random_tour(4, 1)
        assert or_opt(tour) is tour


class TestBoundarySizes:
    """n=4 and n=5, the smallest tours each pass actually optimizes."""

    def test_two_opt_n4_uncrosses_smallest_tour(self):
        # n=4 is the smallest tour 2-opt touches (n < 4 returns unchanged)
        coords = {"a": Point(0, 0), "b": Point(100, 0), "c": Point(100, 100), "d": Point(0, 100)}
        crossed = Tour(["a", "c", "b", "d"], coords)
        assert two_opt(crossed).length() == pytest.approx(400.0)

    def test_two_opt_n4_reference_and_kernel_agree(self):
        for seed in range(10):
            tour = _random_tour(4, seed + 100)
            scalar = reference.two_opt(tour)
            assert list(two_opt(tour).order) == list(scalar.order)

    def test_or_opt_n4_returned_unchanged(self):
        # n < 5 is below Or-opt's minimum: same object, kernel and reference
        tour = _random_tour(4, 2)
        assert or_opt(tour) is tour
        assert reference.or_opt(tour) is tour

    def test_or_opt_n5_relocates_on_smallest_tour(self):
        # n=5 is the smallest tour Or-opt touches: an outlier visited out of
        # line order must be relocated even at the boundary size
        coords = {f"g{i}": Point(i * 100.0, 0.0) for i in range(4)}
        coords["x"] = Point(50.0, 10.0)  # belongs between g0 and g1
        bad = Tour(["g0", "g1", "g2", "x", "g3"], coords)
        improved = or_opt(bad)
        assert improved.length() < bad.length() - 1e-6
        validate_tour(improved, expected_nodes=list(bad.order))

    def test_or_opt_n5_reference_and_kernel_agree(self):
        for seed in range(10):
            tour = _random_tour(5, seed + 200)
            scalar = reference.or_opt(tour)
            assert list(or_opt(tour).order) == list(scalar.order)

    def test_segment_length_at_least_n_never_moves(self):
        # seg_len >= n means the segment contains its own neighbours: the
        # scalar loop skips every rotation, the kernel skips the whole pass
        tour = _random_tour(5, 3)
        scalar = reference.or_opt(tour, segment_lengths=(5, 6))
        vector = or_opt(tour, segment_lengths=(5, 6))
        # no move is applied (the counterclockwise canonicalization may still
        # reorient the cycle, so compare by length, and byte-compare both)
        assert scalar.length() == pytest.approx(tour.length())
        assert list(vector.order) == list(scalar.order)


class TestMaxRoundsExhaustion:
    def _hard_tour(self, n=30, seed=77):
        return _random_tour(n, seed)

    def test_two_opt_zero_rounds_is_identity_order(self):
        tour = self._hard_tour()
        for implementation in (reference.two_opt, two_opt):
            result = implementation(tour, max_rounds=0)
            # the counterclockwise() canonicalization still applies, so
            # compare lengths: zero rounds may reorient but never improves
            assert result.length() == pytest.approx(tour.length())

    def test_two_opt_single_round_applies_exactly_one_move(self):
        tour = self._hard_tour()
        one = two_opt(tour, max_rounds=1)
        full = two_opt(tour)
        # a random 30-node permutation needs many moves: one round must stop
        # early (strictly worse than convergence) yet still improve
        assert one.length() < tour.length()
        assert full.length() < one.length()

    def test_two_opt_round_cap_is_monotone(self):
        tour = self._hard_tour()
        lengths = [two_opt(tour, max_rounds=k).length() for k in (1, 2, 4, 8, 50)]
        assert all(b <= a + 1e-9 for a, b in zip(lengths, lengths[1:]))

    def test_two_opt_exhaustion_identical_to_reference(self):
        tour = self._hard_tour()
        for rounds in (1, 2, 3, 7):
            scalar = reference.two_opt(tour, max_rounds=rounds)
            assert list(two_opt(tour, max_rounds=rounds).order) == list(scalar.order)

    def test_or_opt_zero_rounds_never_moves(self):
        tour = self._hard_tour(20, 78)
        assert or_opt(tour, max_rounds=0).length() == pytest.approx(tour.length())

    def test_or_opt_exhaustion_identical_to_reference(self):
        coords = {f"g{i}": Point(i * 50.0, 0.0) for i in range(8)}
        coords["g9"] = Point(25.0, 10.0)
        tour = Tour(["g0", "g1", "g2", "g3", "g9", "g4", "g5", "g6", "g7"], coords)
        for rounds in (0, 1, 2, 30):
            scalar = reference.or_opt(tour, max_rounds=rounds)
            assert list(or_opt(tour, max_rounds=rounds).order) == list(scalar.order)


class TestParametersAgainstReference:
    """Non-default tolerances and segment lengths pick the reference's moves."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 25.0])
    def test_two_opt_tolerance(self, tol):
        tour = _random_tour(25, 300)
        scalar = reference.two_opt(tour, tol=tol)
        assert scalar.length() < tour.length()  # the tolerance still admits moves
        assert list(two_opt(tour, tol=tol).order) == list(scalar.order)

    @pytest.mark.parametrize("tol", [0.0, 25.0])
    def test_or_opt_tolerance(self, tol):
        tour = _random_tour(20, 301)
        scalar = reference.or_opt(tour, tol=tol)
        assert scalar.length() < tour.length()
        assert list(or_opt(tour, tol=tol).order) == list(scalar.order)

    @pytest.mark.parametrize("segment_lengths", [(1,), (2,), (3,), (3, 2, 1), (2, 4)])
    def test_or_opt_segment_lengths(self, segment_lengths):
        # the scan tries the lengths in the order given, so a reordered tuple
        # is a different first improvement
        tour = _random_tour(20, 302)
        scalar = reference.or_opt(tour, segment_lengths=segment_lengths)
        assert scalar.length() < tour.length()
        assert list(or_opt(tour, segment_lengths=segment_lengths).order) == list(scalar.order)


class TestImproveTour:
    def test_never_lengthens(self):
        tour = _random_tour(30, 42)
        improved = improve_tour(tour)
        assert improved.length() <= tour.length() + 1e-9

    def test_without_or_opt(self):
        tour = _random_tour(30, 43)
        improved = improve_tour(tour, use_or_opt=False)
        assert improved.length() <= tour.length() + 1e-9

    def test_beats_random_order_substantially(self):
        tour = _random_tour(40, 44)
        improved = improve_tour(tour)
        # local search should shave a meaningful fraction off a random permutation
        assert improved.length() < 0.9 * tour.length()
