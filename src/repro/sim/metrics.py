"""Evaluation metrics from Section V of the paper.

* **Visiting interval**: time between two consecutive visits to the same
  target; B-TCTP makes all of them equal to ``|P| / (n v)``.
* **Data Collection Delay Time (DCDT)**: the paper's Figure 7/9 quantity —
  how long a target waited for its k-th data collection.  We compute it per
  target as the k-th visiting interval and report the mean over targets for
  each visit index (Figure 7's x axis) or over everything (Figure 9's bars).
* **SD**: the standard deviation of a single target's visiting intervals
  (the paper's ``SD`` formula, with ``n - 1`` in the denominator), averaged
  over targets when a scalar is needed (Figures 8 and 10).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sim.recorder import SimulationResult

__all__ = [
    "visiting_intervals",
    "per_target_intervals",
    "dcdt_series",
    "average_dcdt",
    "per_target_sd",
    "average_sd",
    "max_visiting_interval",
    "delivery_latencies",
    "interval_statistics",
]


def visiting_intervals(visit_times: Sequence[float], *, initial_time: float = 0.0,
                       include_first: bool = False) -> list[float]:
    """Consecutive differences of a target's sorted visit times.

    ``include_first`` additionally counts the wait from ``initial_time`` to the
    first visit (the paper's DCDT curves start at visit index 0, which is that
    initial wait).
    """
    times = sorted(visit_times)
    if not times:
        return []
    intervals = [b - a for a, b in zip(times[:-1], times[1:])]
    if include_first:
        intervals = [times[0] - initial_time] + intervals
    return intervals


def _interval_table(result: SimulationResult, *, include_first: bool = False,
                    targets: Iterable[str] | None = None,
                    ) -> "tuple[list[str], np.ndarray, np.ndarray]":
    """Visiting intervals as one flat table ``(ids, counts, intervals)``.

    Computed from the result's :meth:`~repro.sim.recorder.SimulationResult.visit_table`
    in one pass: ``np.diff`` over all the concatenated time stretches, with
    the differences across a stretch boundary dropped — the subtractions a
    per-target ``np.diff`` makes.  With ``include_first`` each stretch keeps
    its first visit less ``0.0`` instead.  ``intervals`` is then the
    contiguous array a concatenation of the per-target arrays gives, so
    reductions over it add in the same order.  The table of all visited
    targets is cached on the result.  With ``targets``, the table lists
    those targets in the caller's order (duplicates dropped, an unvisited
    target with no intervals).
    """
    tables = result.__dict__.setdefault("_interval_tables", {})
    cached = tables.get(include_first)
    if cached is None or cached[0] != len(result.visits):
        ids, counts, times = result.visit_table()
        starts = np.cumsum(counts) - counts
        if include_first:
            previous = np.empty_like(times)
            previous[1:] = times[:-1]
            previous[starts] = 0.0
            intervals = times - previous
        else:
            intervals = np.delete(np.diff(times), starts[1:] - 1)
            counts = counts - 1
        cached = tables[include_first] = (len(result.visits), (ids, counts, intervals))
    if targets is None:
        return cached[1]
    arrays = _per_target(cached[1])
    wanted = list(dict.fromkeys(targets))
    subset = [arrays.get(t, np.empty(0)) for t in wanted]
    return (
        wanted,
        np.array([iv.size for iv in subset], dtype=np.intp),
        np.concatenate(subset) if subset else np.empty(0),
    )


def _per_target(table) -> "dict[str, np.ndarray]":
    """A table's per-target interval arrays (views into its flat array)."""
    ids, counts, intervals = table
    return dict(zip(ids, np.split(intervals, np.cumsum(counts)[:-1])))


def per_target_intervals(result: SimulationResult, *, include_first: bool = False,
                         targets: Iterable[str] | None = None) -> dict[str, list[float]]:
    """Visiting-interval list for every target that was visited."""
    table = _interval_table(result, include_first=include_first, targets=targets)
    return {t: iv.tolist() for t, iv in _per_target(table).items()}


def dcdt_series(result: SimulationResult, *, num_points: int = 41,
                include_first: bool = True,
                targets: Iterable[str] | None = None) -> list[float]:
    """Figure-7 style series: mean delay of the k-th data collection, k = 0..num_points-1.

    For every target the k-th visiting interval is taken (NaN when the target
    has fewer than k intervals); the series value is the mean over targets of
    the available entries.  Trailing indices where no target has data are
    reported as ``nan``.
    """
    _, counts, intervals = _interval_table(result, include_first=include_first,
                                           targets=targets)
    starts = np.cumsum(counts) - counts
    series: list[float] = []
    for k in range(num_points):
        values = intervals[starts[counts > k] + k]  # in target order
        series.append(float(np.mean(values)) if values.size else float("nan"))
    return series


def average_dcdt(result: SimulationResult, *, include_first: bool = False,
                 targets: Iterable[str] | None = None) -> float:
    """Mean visiting interval over all targets and all visits (Figure 9's bar height)."""
    _, _, flat = _interval_table(result, include_first=include_first, targets=targets)
    return float(np.mean(flat)) if flat.size else float("nan")


def _sd_array(counts: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Each table row's sample SD (``ddof=1``), ``nan`` below two intervals.

    Rows with equal interval counts are gathered into one matrix by a single
    fancy index and share one row-wise ``np.std``: numpy reduces each
    contiguous row with the same pairwise sum as a 1-D array, so every SD is
    the float a per-target call gives.  A count held by one row keeps the
    1-D call.
    """
    sds = np.full(counts.size, np.nan)
    starts = np.cumsum(counts) - counts
    rows = np.flatnonzero(counts >= 2)
    rows = rows[np.argsort(counts[rows], kind="stable")]
    sizes, firsts = np.unique(counts[rows], return_index=True)
    for size, group in zip(sizes.tolist(), np.split(rows, firsts[1:])):
        if group.size == 1:
            lo = starts[group[0]]
            sds[group[0]] = np.std(intervals[lo:lo + size], ddof=1)
        else:
            block = intervals[starts[group][:, None] + np.arange(size)]
            sds[group] = np.std(block, axis=1, ddof=1)
    return sds


def per_target_sd(result: SimulationResult, *, targets: Iterable[str] | None = None) -> dict[str, float]:
    """The paper's SD of each target's visiting intervals (sample std, ``n - 1``).

    Targets with fewer than two intervals get ``nan`` (SD undefined).
    """
    ids, counts, intervals = _interval_table(result, targets=targets)
    return dict(zip(ids, _sd_array(counts, intervals).tolist()))


def average_sd(result: SimulationResult, *, targets: Iterable[str] | None = None) -> float:
    """Mean over targets of the per-target SD (Figures 8 and 10), in target order."""
    _, counts, intervals = _interval_table(result, targets=targets)
    sds = _sd_array(counts, intervals)
    sds = sds[~np.isnan(sds)]
    return float(np.mean(sds)) if sds.size else float("nan")


def max_visiting_interval(result: SimulationResult, *, targets: Iterable[str] | None = None) -> float:
    """The maximal visiting interval over all targets — the paper's optimisation objective."""
    _, _, flat = _interval_table(result, targets=targets)
    return float(np.max(flat)) if flat.size else float("nan")


def delivery_latencies(result: SimulationResult) -> list[float]:
    """Latency (generation midpoint -> sink delivery) of every delivered packet."""
    return [d.latency for d in result.deliveries]


def interval_statistics(result: SimulationResult, *, targets: Iterable[str] | None = None) -> dict:
    """One-stop summary of the interval metrics (used by reports and examples)."""
    ids, _, flat = _interval_table(result, targets=targets)
    if not flat.size:
        return {
            "mean_interval": float("nan"),
            "max_interval": float("nan"),
            "average_sd": float("nan"),
            "targets_visited": len(ids),
            "total_intervals": 0,
        }
    return {
        "mean_interval": float(np.mean(flat)),
        "max_interval": float(np.max(flat)),
        "average_sd": average_sd(result, targets=targets),
        "targets_visited": len(ids),
        "total_intervals": int(flat.size),
    }
