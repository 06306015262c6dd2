"""Simulation output records: visits, deliveries, per-mule traces and the result bundle.

The hot-path metric queries (:meth:`SimulationResult.visit_times`,
:meth:`SimulationResult.visit_times_by_target` and everything in
:mod:`repro.sim.metrics` built on them) read one flat **visit table** —
:meth:`SimulationResult.visit_table` — built from the visit log **once** per
result and cached, instead of re-filtering the full log for every target as
the original per-event code did.  The cache is invalidated by visit-log
length, so incremental consumers that append records still see fresh data;
the caches derived from the table are keyed by the table object itself.

A result of the fast tiers (:func:`repro.sim.fastpath.fast_result`) comes
with its visit table and delivered total already computed from arrays, and
builds its ``visits`` and ``deliveries`` lists only when something reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter

import numpy as np

__all__ = ["VisitRecord", "DeliveryRecord", "MuleTrace", "SimulationResult"]

_IS_TARGET = attrgetter("is_target")
_NODE_ID = attrgetter("node_id")
_TIME = attrgetter("time")


@dataclass(frozen=True)
class VisitRecord:
    """One visit of a data mule to a patrol node (target, sink or recharge station)."""

    time: float
    node_id: str
    mule_id: str
    is_target: bool = True


@dataclass(frozen=True)
class DeliveryRecord:
    """One data packet handed over at the sink."""

    delivered_at: float
    mule_id: str
    target_id: str
    generated_from: float
    generated_to: float
    collected_at: float
    size: float

    @property
    def latency(self) -> float:
        """Latency from the midpoint of the generation window to delivery."""
        return self.delivered_at - 0.5 * (self.generated_from + self.generated_to)


@dataclass
class MuleTrace:
    """Per-mule bookkeeping accumulated during a simulation run."""

    mule_id: str
    distance_travelled: float = 0.0
    energy_consumed: float = 0.0
    collections: int = 0
    deliveries: int = 0
    recharges: int = 0
    initialization_time: float = 0.0
    death_time: float | None = None

    @property
    def alive(self) -> bool:
        return self.death_time is None


@dataclass
class SimulationResult:
    """Everything recorded during one simulation run."""

    strategy: str
    horizon: float
    visits: list[VisitRecord] = field(default_factory=list)
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    traces: dict[str, MuleTrace] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def target_visits(self, target_id: str | None = None) -> list[VisitRecord]:
        """Visits to targets only (optionally filtered to one target), time-ordered."""
        out = [v for v in self.visits if v.is_target and (target_id is None or v.node_id == target_id)]
        return sorted(out, key=lambda v: (v.time, v.node_id, v.mule_id))

    def visit_table(self) -> "tuple[list[str], np.ndarray, np.ndarray]":
        """The target visits as one flat table ``(ids, counts, times)``.

        ``ids`` lists the visited targets in sorted order, ``counts`` their
        numbers of visits, and ``times`` each target's visit times, sorted,
        one stretch after another in ``ids`` order.  Built in one pass and
        cached on the result (keyed by visit-log length); a fast-tier result
        is seeded with it, valid until its visit list is built and changes
        length.  The arrays are cache-shared: copy before mutating.
        """
        cached = self.__dict__.get("_visit_table")
        if cached is not None and ("visits" not in self.__dict__
                                   or cached[0] == len(self.visits)):
            return cached[1]
        visits = list(compress(self.visits, map(_IS_TARGET, self.visits)))
        nodes = list(map(_NODE_ID, visits))
        times = np.fromiter(map(_TIME, visits), dtype=float, count=len(visits))
        ids = sorted(set(nodes))
        rank = dict(zip(ids, range(len(ids))))
        # The smallest unsigned dtype makes lexsort's pass over it a radix sort.
        codes = np.fromiter(map(rank.__getitem__, nodes),
                            dtype=np.min_scalar_type(len(ids)), count=len(nodes))
        table = (ids, np.bincount(codes, minlength=len(ids)),
                 times[np.lexsort((times, codes))])
        self.__dict__["_visit_table"] = (len(self.visits), table)
        return table

    def visit_times_by_target(self) -> "dict[str, np.ndarray]":
        """Sorted visit-time array per visited target: views into :meth:`visit_table`.

        The mapping is cached on the result, keyed by the table it splits,
        so per-target queries share one pass over the visit log.  The arrays
        are cache-shared: copy before mutating.
        """
        table = self.visit_table()
        cached = self.__dict__.get("_visit_times_cache")
        if cached is not None and cached[0] is table:
            return cached[1]
        ids, counts, times = table
        arrays = dict(zip(ids, np.split(times, np.cumsum(counts)[:-1])))
        self.__dict__["_visit_times_cache"] = (table, arrays)
        return arrays

    def visit_times(self, target_id: str) -> list[float]:
        """Sorted visit times of one target."""
        times = self.visit_times_by_target().get(target_id)
        return [] if times is None else times.tolist()

    def visited_targets(self) -> list[str]:
        """Identifiers of all targets visited at least once."""
        return list(self.visit_times_by_target())

    def visit_count(self, target_id: str) -> int:
        times = self.visit_times_by_target().get(target_id)
        return 0 if times is None else int(times.size)

    def total_distance(self) -> float:
        return sum(t.distance_travelled for t in self.traces.values())

    def total_energy(self) -> float:
        return sum(t.energy_consumed for t in self.traces.values())

    def total_delivered_data(self) -> float:
        if "deliveries" not in self.__dict__:  # a fast-tier result knows it unbuilt
            return self.__dict__["_source"].delivered_data
        return sum(d.size for d in self.deliveries)

    def surviving_mules(self) -> list[str]:
        return sorted(m for m, t in self.traces.items() if t.alive)

    def dead_mules(self) -> list[str]:
        return sorted(m for m, t in self.traces.items() if not t.alive)

    def summary(self) -> dict:
        """Compact dictionary summary used by experiment reports."""
        return {
            "strategy": self.strategy,
            "horizon": self.horizon,
            "num_visits": len([v for v in self.visits if v.is_target]),
            "num_deliveries": len(self.deliveries),
            "total_distance": round(self.total_distance(), 3),
            "total_energy": round(self.total_energy(), 3),
            "delivered_data": round(self.total_delivered_data(), 3),
            "dead_mules": self.dead_mules(),
        }


def _built_on_read(name: str) -> property:
    """The ``name`` list field, stored as set or built on its first read.

    A fast-tier result is made without its ``visits`` and ``deliveries``:
    its ``_source`` (the kept-event table of :mod:`repro.sim.fastpath`)
    builds each list when something first reads it, equal to the event
    loop's.  Every other result stores the list its ``__init__`` sets.
    """

    def get(self) -> list:
        state = self.__dict__
        if name not in state:
            state[name] = getattr(state["_source"], name)()
        return state[name]

    def set(self, value: list) -> None:
        self.__dict__[name] = value

    return property(get, set, doc=f"The result's {name} (built on first read on a fast tier).")


# Installed once the dataclass has generated its methods: ``__init__``,
# ``__eq__`` and ``__repr__`` read and write the fields as attributes, so
# they go through these properties.
SimulationResult.visits = _built_on_read("visits")  # type: ignore[assignment]
SimulationResult.deliveries = _built_on_read("deliveries")  # type: ignore[assignment]
