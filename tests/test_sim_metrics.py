"""Unit tests for repro.sim.metrics (visiting intervals, DCDT, SD)."""

import math

import numpy as np
import pytest

from repro.sim.metrics import (
    average_dcdt,
    average_sd,
    dcdt_series,
    delivery_latencies,
    interval_statistics,
    max_visiting_interval,
    per_target_intervals,
    per_target_sd,
    visiting_intervals,
)
from repro.sim.recorder import DeliveryRecord, SimulationResult, VisitRecord


def _result(visit_times: dict[str, list[float]]) -> SimulationResult:
    r = SimulationResult(strategy="test", horizon=10_000.0)
    for target, times in visit_times.items():
        for t in times:
            r.visits.append(VisitRecord(t, target, "m1"))
    return r


class TestVisitingIntervals:
    def test_basic_diffs(self):
        assert visiting_intervals([10, 30, 60]) == [20, 30]

    def test_unsorted_input_is_sorted(self):
        assert visiting_intervals([60, 10, 30]) == [20, 30]

    def test_include_first(self):
        assert visiting_intervals([10, 30], include_first=True) == [10, 20]

    def test_include_first_with_initial_time(self):
        assert visiting_intervals([10, 30], initial_time=5.0, include_first=True) == [5, 20]

    def test_empty(self):
        assert visiting_intervals([]) == []

    def test_single_visit(self):
        assert visiting_intervals([42.0]) == []
        assert visiting_intervals([42.0], include_first=True) == [42.0]


class TestPerTargetIntervals:
    def test_all_targets_reported(self):
        r = _result({"g1": [0, 10, 20], "g2": [5, 25]})
        intervals = per_target_intervals(r)
        assert intervals["g1"] == [10, 10]
        assert intervals["g2"] == [20]

    def test_target_filter(self):
        r = _result({"g1": [0, 10], "g2": [5, 25]})
        assert set(per_target_intervals(r, targets=["g1"])) == {"g1"}


class TestDcdtSeries:
    def test_constant_intervals_give_flat_series(self):
        r = _result({"g1": [100, 200, 300, 400], "g2": [150, 250, 350, 450]})
        series = dcdt_series(r, num_points=4, include_first=False)
        assert series[:3] == pytest.approx([100.0, 100.0, 100.0])

    def test_include_first_uses_initial_wait(self):
        r = _result({"g1": [100, 200]})
        series = dcdt_series(r, num_points=2, include_first=True)
        assert series[0] == pytest.approx(100.0)
        assert series[1] == pytest.approx(100.0)

    def test_missing_indices_are_nan(self):
        r = _result({"g1": [100, 200]})
        series = dcdt_series(r, num_points=5, include_first=False)
        assert math.isnan(series[3])

    def test_mean_over_targets(self):
        r = _result({"g1": [0, 100], "g2": [0, 300]})
        series = dcdt_series(r, num_points=1, include_first=False)
        assert series[0] == pytest.approx(200.0)


class TestAverages:
    def test_average_dcdt(self):
        r = _result({"g1": [0, 100, 200], "g2": [0, 300, 600]})
        assert average_dcdt(r) == pytest.approx((100 + 100 + 300 + 300) / 4)

    def test_average_dcdt_empty(self):
        assert math.isnan(average_dcdt(_result({})))

    def test_per_target_sd_zero_for_constant(self):
        r = _result({"g1": [0, 100, 200, 300]})
        assert per_target_sd(r)["g1"] == pytest.approx(0.0)

    def test_per_target_sd_matches_paper_formula(self):
        # intervals 10 and 30: sample std with n-1 = sqrt(((10-20)^2+(30-20)^2)/1) = sqrt(200)
        r = _result({"g1": [0, 10, 40]})
        assert per_target_sd(r)["g1"] == pytest.approx(math.sqrt(200.0))

    def test_per_target_sd_nan_with_single_interval(self):
        r = _result({"g1": [0, 10]})
        assert math.isnan(per_target_sd(r)["g1"])

    def test_average_sd_ignores_nan_targets(self):
        r = _result({"g1": [0, 10, 20], "g2": [0, 5]})
        assert average_sd(r) == pytest.approx(0.0)

    def test_average_sd_all_nan(self):
        r = _result({"g1": [0, 10]})
        assert math.isnan(average_sd(r))

    def test_max_visiting_interval(self):
        r = _result({"g1": [0, 100], "g2": [0, 700]})
        assert max_visiting_interval(r) == pytest.approx(700.0)

    def test_max_visiting_interval_empty(self):
        assert math.isnan(max_visiting_interval(_result({})))


class TestDeliveryLatencies:
    def test_latency_extraction(self):
        r = _result({})
        r.deliveries.append(DeliveryRecord(200.0, "m1", "g1", 0.0, 100.0, 100.0, 10.0))
        r.deliveries.append(DeliveryRecord(300.0, "m1", "g2", 100.0, 200.0, 200.0, 10.0))
        assert delivery_latencies(r) == pytest.approx([150.0, 150.0])


class TestIntervalStatistics:
    def test_summary_fields(self):
        r = _result({"g1": [0, 100, 200], "g2": [0, 100, 200]})
        stats = interval_statistics(r)
        assert stats["mean_interval"] == pytest.approx(100.0)
        assert stats["max_interval"] == pytest.approx(100.0)
        assert stats["average_sd"] == pytest.approx(0.0)
        assert stats["targets_visited"] == 2
        assert stats["total_intervals"] == 4

    def test_empty_result(self):
        stats = interval_statistics(_result({}))
        assert math.isnan(stats["mean_interval"])
        assert stats["total_intervals"] == 0


# Interval counts at the edges of numpy's pairwise sum (unrolled blocks of 8,
# blocks of 128) and of its 8,192-element buffer.
_PINNED_COUNTS = (2, 7, 8, 9, 128, 129, 8192, 8193)


def _ragged_result(rng, counts) -> SimulationResult:
    """One result whose targets ``g000``, ``g001``, ... have the given interval counts.

    A count of 0 is a single visit.  A ``sink`` node is visited as well (its
    visits count, as the engine logs them) and a ``recharge`` station, whose
    visits are no target visits.  Visits are interleaved across nodes, as
    the engine logs them.
    """
    visits = []
    for i, count in enumerate(counts):
        if i % 5 == 4:  # exact repeats: a fixed cadence
            intervals = np.full(count, rng.uniform(1.0, 900.0))
        else:
            intervals = rng.uniform(0.5, 900.0, count)
        times = rng.uniform(0.0, 50.0) + np.concatenate(([0.0], np.cumsum(intervals)))
        visits += [VisitRecord(float(t), f"g{i:03d}", "m1") for t in times]
    visits += [VisitRecord(float(t), "sink", "m2") for t in rng.uniform(0.0, 9e3, 17)]
    visits += [VisitRecord(float(t), "recharge", "m2", False) for t in rng.uniform(0.0, 9e3, 5)]
    r = SimulationResult(strategy="test", horizon=1e9)
    r.visits = [visits[j] for j in rng.permutation(len(visits))]
    return r


def _frozen_grouping(result):
    """The per-target grouping of the visit log as a loop builds it: the reference."""
    groups = {}
    for v in result.visits:
        if v.is_target:
            groups.setdefault(v.node_id, []).append(v.time)
    return {t: np.sort(np.asarray(groups[t], dtype=float)) for t in sorted(groups)}


def _seeded(result) -> SimulationResult:
    """A stub result holding only a visit table seeded from the frozen grouping,
    as the batched tier seeds its stub."""
    grouping = _frozen_grouping(result)
    stub = SimulationResult(strategy="test", horizon=result.horizon)
    stub.__dict__["_visit_table"] = (0, (
        list(grouping),
        np.array([times.size for times in grouping.values()]),
        np.concatenate(list(grouping.values())),
    ))
    return stub


def _reference_intervals(result, include_first=False):
    """The per-target loop the grouped passes replace: one 1-D ``np.diff`` each."""
    out = {}
    for t, times in _frozen_grouping(result).items():
        intervals = np.diff(times)
        if include_first:
            intervals = np.concatenate(([times[0] - 0.0], intervals))
        out[t] = intervals
    return out


def _hex(values):
    return [float(v).hex() for v in values]


SOURCES = {"recorder": lambda r: r, "seeded-table": _seeded}


class TestGroupedReductionsMatchPerTargetLoop:
    """The grouped array passes give the per-target loop's floats, bit for bit.

    Every extractor runs on the flat visit table, built by the recorder from
    its visit log or seeded directly (as the batched tier seeds it).
    Row-wise ``np.std`` equals the 1-D call only while numpy reduces each
    contiguous row with the same pairwise sum; the pinned counts sit on the
    edges of that sum and of numpy's buffer, so a numpy build that reduces
    rows differently fails here.
    """

    @pytest.mark.parametrize("source", list(SOURCES))
    @pytest.mark.parametrize("mix", ["all-equal", "all-distinct", "clustered"])
    def test_metrics_equal_a_loop_of_1d_reductions(self, mix, source):
        rng = np.random.default_rng(20260808 + len(mix))
        if mix == "all-equal":
            results = [_ragged_result(rng, [c] * 3) for c in _PINNED_COUNTS]
        elif mix == "all-distinct":
            drawn = rng.choice(np.arange(10, 9000), 12, replace=False)
            counts = [*_PINNED_COUNTS, *(int(c) for c in drawn if c not in _PINNED_COUNTS)]
            results = [_ragged_result(rng, [0, 1, *rng.permutation(counts).tolist()])]
        else:
            clusters = [7, 129, 8193, int(rng.integers(2, 9000))]
            counts = [clusters[int(k)] for k in rng.integers(0, 4, 24)]
            results = [_ragged_result(rng, [*counts, 0, 1, 2, 2])]

        for raw in results:
            reference = _reference_intervals(raw)
            r = SOURCES[source](raw)
            grouping = r.visit_times_by_target()
            assert list(grouping) == list(_frozen_grouping(raw))
            assert all(_hex(grouping[t]) == _hex(times)
                       for t, times in _frozen_grouping(raw).items())
            ref_sd = {
                t: float(np.std(iv, ddof=1)) if iv.size >= 2 else float("nan")
                for t, iv in reference.items()
            }
            sds = per_target_sd(r)
            assert list(sds) == list(ref_sd)
            assert _hex(sds.values()) == _hex(ref_sd.values())

            finite = [v for v in ref_sd.values() if not math.isnan(v)]
            assert average_sd(r).hex() == float(np.mean(finite)).hex()
            flat = np.concatenate(list(reference.values()))
            assert average_dcdt(r).hex() == float(np.mean(flat)).hex()
            assert max_visiting_interval(r).hex() == float(np.max(flat)).hex()

            with_first = _reference_intervals(raw, include_first=True)
            ref_series = []
            for k in range(41):
                values = [iv[k] for iv in with_first.values() if len(iv) > k]
                ref_series.append(float(np.mean(values)) if values else float("nan"))
            assert _hex(dcdt_series(r)) == _hex(ref_series)
            listed = per_target_intervals(r, include_first=True)
            assert list(listed) == list(with_first)
            assert all(_hex(listed[t]) == _hex(iv) for t, iv in with_first.items())
            stats = interval_statistics(r)
            assert stats["targets_visited"] == len(reference)
            assert stats["total_intervals"] == flat.size
            assert stats["mean_interval"].hex() == average_dcdt(r).hex()

    @pytest.mark.parametrize("source", list(SOURCES))
    def test_target_filter_keeps_order_and_unvisited_targets(self, source):
        raw = _ragged_result(np.random.default_rng(3), [9, 0, 8, 9, 1])
        r = SOURCES[source](raw)
        wanted = ["g003", "g999", "g000", "g001", "g004", "sink", "g003"]
        reference = _reference_intervals(raw)
        listed = list(dict.fromkeys(wanted))  # a repeated target counts once
        sds = per_target_sd(r, targets=wanted)
        assert list(sds) == listed
        assert math.isnan(sds["g999"]) and math.isnan(sds["g001"])
        assert sds["g003"].hex() == float(np.std(reference["g003"], ddof=1)).hex()
        assert sds["g000"].hex() == float(np.std(reference["g000"], ddof=1)).hex()
        assert per_target_intervals(r, targets=wanted)["g999"] == []

        subset = [reference.get(t, np.empty(0)) for t in listed]
        flat = np.concatenate(subset)
        assert average_dcdt(r, targets=wanted).hex() == float(np.mean(flat)).hex()
        assert max_visiting_interval(r, targets=wanted).hex() == float(np.max(flat)).hex()
        finite = [v for v in sds.values() if not math.isnan(v)]
        assert average_sd(r, targets=wanted).hex() == float(np.mean(finite)).hex()
        with_first = _reference_intervals(raw, include_first=True)
        series = [
            float(np.mean(values)) if values else float("nan")
            for values in ([with_first[t][k] for t in listed
                            if t in with_first and with_first[t].size > k]
                           for k in range(12))
        ]
        assert _hex(dcdt_series(r, num_points=12, targets=wanted)) == _hex(series)
        assert interval_statistics(r, targets=wanted)["targets_visited"] == len(listed)
