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

import math
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


def _interval_arrays(result: SimulationResult, *, include_first: bool = False,
                     targets: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Per-target visiting-interval arrays, vectorised and cached per result.

    The per-target sorted visit-time arrays from
    :meth:`~repro.sim.recorder.SimulationResult.visit_times_by_target` are
    concatenated and differenced once; each target gets a view of its own
    stretch, the same subtractions ``np.diff`` makes per target (with
    ``include_first``, the first visit less ``0.0``).  The default view
    (``targets=None``) is cached on the result so the standard metric set
    shares one pass over the visit log.
    """
    cache_key = (len(result.visits), bool(include_first))
    if targets is None:
        cached = result.__dict__.get("_interval_arrays_cache")
        if cached is not None and cached[0] == cache_key:
            return cached[1]
    by_target = result.visit_times_by_target()
    wanted = list(by_target) if targets is None else list(targets)
    out = dict.fromkeys(wanted, np.empty(0, dtype=float))
    visited = [t for t in out if t in by_target and by_target[t].size]
    if visited:
        times = np.concatenate([by_target[t] for t in visited])
        ends = np.cumsum([by_target[t].size for t in visited]).tolist()
        starts = [0] + ends[:-1]
        if include_first:
            previous = np.empty_like(times)
            previous[1:] = times[:-1]
            previous[starts] = 0.0
            diffs = times - previous
        else:
            diffs = np.diff(times)
            ends = [end - 1 for end in ends]
        for t, start, end in zip(visited, starts, ends):
            out[t] = diffs[start:end]
    if targets is None:
        result.__dict__["_interval_arrays_cache"] = (cache_key, out)
    return out


def per_target_intervals(result: SimulationResult, *, include_first: bool = False,
                         targets: Iterable[str] | None = None) -> dict[str, list[float]]:
    """Visiting-interval list for every target that was visited."""
    arrays = _interval_arrays(result, include_first=include_first, targets=targets)
    return {t: iv.tolist() for t, iv in arrays.items()}


def dcdt_series(result: SimulationResult, *, num_points: int = 41,
                include_first: bool = True,
                targets: Iterable[str] | None = None) -> list[float]:
    """Figure-7 style series: mean delay of the k-th data collection, k = 0..num_points-1.

    For every target the k-th visiting interval is taken (NaN when the target
    has fewer than k intervals); the series value is the mean over targets of
    the available entries.  Trailing indices where no target has data are
    reported as ``nan``.
    """
    intervals = _interval_arrays(result, include_first=include_first, targets=targets)
    series: list[float] = []
    for k in range(num_points):
        values = [iv[k] for iv in intervals.values() if len(iv) > k]
        series.append(float(np.mean(values)) if values else float("nan"))
    return series


def average_dcdt(result: SimulationResult, *, include_first: bool = False,
                 targets: Iterable[str] | None = None) -> float:
    """Mean visiting interval over all targets and all visits (Figure 9's bar height)."""
    intervals = _interval_arrays(result, include_first=include_first, targets=targets)
    flat = _flatten(intervals)
    return float(np.mean(flat)) if flat.size else float("nan")


def per_target_sd(result: SimulationResult, *, targets: Iterable[str] | None = None) -> dict[str, float]:
    """The paper's SD of each target's visiting intervals (sample std, ``n - 1``).

    Targets with fewer than two intervals get ``nan`` (SD undefined).
    Targets with equal interval counts share one row-wise ``np.std``: numpy
    reduces each contiguous row with the same pairwise sum as a 1-D array,
    so every SD is the float a per-target call gives.
    """
    intervals = _interval_arrays(result, include_first=False, targets=targets)
    out = dict.fromkeys(intervals, float("nan"))
    by_count: dict[int, list[str]] = {}
    for t, iv in intervals.items():
        if iv.size >= 2:
            by_count.setdefault(iv.size, []).append(t)
    for group in by_count.values():
        if len(group) == 1:
            out[group[0]] = float(np.std(intervals[group[0]], ddof=1))
        else:
            sds = np.std(np.stack([intervals[t] for t in group]), axis=1, ddof=1)
            out.update(zip(group, sds.tolist()))
    return out


def average_sd(result: SimulationResult, *, targets: Iterable[str] | None = None) -> float:
    """Mean over targets of the per-target SD (Figures 8 and 10)."""
    sds = [v for v in per_target_sd(result, targets=targets).values() if not math.isnan(v)]
    return float(np.mean(sds)) if sds else float("nan")


def max_visiting_interval(result: SimulationResult, *, targets: Iterable[str] | None = None) -> float:
    """The maximal visiting interval over all targets — the paper's optimisation objective."""
    flat = _flatten(_interval_arrays(result, include_first=False, targets=targets))
    return float(np.max(flat)) if flat.size else float("nan")


def delivery_latencies(result: SimulationResult) -> list[float]:
    """Latency (generation midpoint -> sink delivery) of every delivered packet."""
    return [d.latency for d in result.deliveries]


def interval_statistics(result: SimulationResult, *, targets: Iterable[str] | None = None) -> dict:
    """One-stop summary of the interval metrics (used by reports and examples)."""
    intervals = _interval_arrays(result, include_first=False, targets=targets)
    flat = _flatten(intervals)
    if not flat.size:
        return {
            "mean_interval": float("nan"),
            "max_interval": float("nan"),
            "average_sd": float("nan"),
            "targets_visited": len(intervals),
            "total_intervals": 0,
        }
    return {
        "mean_interval": float(np.mean(flat)),
        "max_interval": float(np.max(flat)),
        "average_sd": average_sd(result, targets=targets),
        "targets_visited": len(intervals),
        "total_intervals": int(flat.size),
    }


def _flatten(intervals: "dict[str, np.ndarray]") -> np.ndarray:
    """All interval arrays concatenated in per-target order (may be empty)."""
    if not intervals:
        return np.empty(0, dtype=float)
    return np.concatenate(list(intervals.values()))
