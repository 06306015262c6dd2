"""Patrol plans: the output of every planning algorithm, the input of the simulator.

A :class:`PatrolPlan` assigns each data mule a :class:`MuleRoute`.  Routes come
in three flavours:

* :class:`LoopRoute` — a fixed closed walk repeated forever (B-TCTP, W-TCTP,
  CHB, Sweep).  Optionally carries a geometric *start position* produced by
  the location-initialisation step.
* :class:`AlternatingLoopRoute` — RW-TCTP's schedule: ``r - 1`` laps of the
  weighted patrolling path followed by one lap of the weighted recharge path.
* :class:`StochasticRoute` — the Random baseline: the next waypoint is drawn
  online from a seeded random generator.

The simulator only relies on the small :class:`MuleRoute` interface
(``start_position`` + an infinite ``waypoints()`` iterator), so new strategies
can be added without touching the engine.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.geometry.point import Point, as_point, distance

__all__ = ["MuleRoute", "LoopRoute", "AlternatingLoopRoute", "StochasticRoute", "PatrolPlan"]


class MuleRoute(abc.ABC):
    """Route followed by a single data mule."""

    def __init__(self, mule_id: str, coordinates: Mapping[str, Point]) -> None:
        self.mule_id = mule_id
        self.coordinates = {n: as_point(p) for n, p in coordinates.items()}

    @abc.abstractmethod
    def waypoints(self) -> Iterator[str]:
        """Infinite iterator over the node identifiers the mule should visit, in order."""

    def start_position(self) -> Point | None:
        """Geometric point the mule moves to before patrolling (location initialisation).

        ``None`` means the mule starts patrolling straight from its deployment
        position (no initialisation phase).
        """
        return None

    def point_of(self, node_id: str) -> Point:
        return self.coordinates[node_id]

    def lap_length(self) -> float | None:
        """Length of one repeating lap, when the route has a well-defined lap."""
        return None

    def describe(self) -> dict:
        """Human-readable summary used by experiment reports."""
        return {"mule": self.mule_id, "kind": type(self).__name__}


class LoopRoute(MuleRoute):
    """A fixed closed walk, repeated indefinitely.

    Parameters
    ----------
    loop:
        Node identifiers of one lap (the closing edge back to ``loop[0]`` is
        implicit).  Nodes may repeat within a lap: a VIP of weight ``w``
        appears ``w`` times in a W-TCTP walk.
    entry_index:
        Index into ``loop`` of the first waypoint the mule heads to.
    start:
        Optional geometric start position on the loop (from the
        location-initialisation step); the mule drives there first, then to
        ``loop[entry_index]``.
    """

    def __init__(
        self,
        mule_id: str,
        loop: Sequence[str],
        coordinates: Mapping[str, Point],
        *,
        entry_index: int = 0,
        start: Point | None = None,
    ) -> None:
        super().__init__(mule_id, coordinates)
        loop = list(loop)
        if not loop:
            raise ValueError("a loop route needs at least one waypoint")
        missing = [n for n in loop if n not in self.coordinates]
        if missing:
            raise ValueError(f"loop references nodes without coordinates: {missing}")
        self.loop = loop
        self.entry_index = int(entry_index) % len(loop)
        self._start = as_point(start) if start is not None else None

    def waypoints(self) -> Iterator[str]:
        n = len(self.loop)
        idx = self.entry_index
        while True:
            yield self.loop[idx]
            idx = (idx + 1) % n

    def start_position(self) -> Point | None:
        return self._start

    def lap_length(self) -> float:
        pts = [self.coordinates[n] for n in self.loop]
        return sum(
            distance(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))
        )

    def describe(self) -> dict:
        d = super().describe()
        d.update(
            lap_nodes=len(self.loop),
            lap_length=round(self.lap_length(), 3),
            entry=self.loop[self.entry_index],
            has_start_position=self._start is not None,
        )
        return d


class AlternatingLoopRoute(MuleRoute):
    """RW-TCTP schedule: ``patrol_rounds - 1`` laps of the WPP, then one lap of the WRP.

    Parameters
    ----------
    patrol_loop / recharge_loop:
        One lap of the weighted patrolling path and of the weighted recharge
        path respectively.
    patrol_rounds:
        The ``r`` of Equation (4).  ``r <= 1`` means every lap follows the
        recharge path.
    """

    def __init__(
        self,
        mule_id: str,
        patrol_loop: Sequence[str],
        recharge_loop: Sequence[str],
        coordinates: Mapping[str, Point],
        *,
        patrol_rounds: int,
        entry_index: int = 0,
        start: Point | None = None,
    ) -> None:
        super().__init__(mule_id, coordinates)
        if not patrol_loop or not recharge_loop:
            raise ValueError("both loops must be non-empty")
        for n in itertools.chain(patrol_loop, recharge_loop):
            if n not in self.coordinates:
                raise ValueError(f"loop references node without coordinates: {n!r}")
        self.patrol_loop = list(patrol_loop)
        self.recharge_loop = list(recharge_loop)
        self.patrol_rounds = max(int(patrol_rounds), 1)
        self.entry_index = int(entry_index) % len(self.patrol_loop)
        self._start = as_point(start) if start is not None else None

    def waypoints(self) -> Iterator[str]:
        # First lap starts at entry_index to honour the location initialisation;
        # subsequent laps start from the loop head, matching a mule that keeps
        # cycling the same closed walk.
        first = True
        lap = 0
        while True:
            lap += 1
            use_recharge = (lap % self.patrol_rounds) == 0
            loop = self.recharge_loop if use_recharge else self.patrol_loop
            if first and not use_recharge:
                order = loop[self.entry_index:] + loop[: self.entry_index]
            else:
                order = loop
            first = False
            yield from order

    def start_position(self) -> Point | None:
        return self._start

    def lap_length(self) -> float:
        pts = [self.coordinates[n] for n in self.patrol_loop]
        return sum(distance(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))

    def recharge_lap_length(self) -> float:
        pts = [self.coordinates[n] for n in self.recharge_loop]
        return sum(distance(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))

    def describe(self) -> dict:
        d = super().describe()
        d.update(
            patrol_rounds=self.patrol_rounds,
            patrol_lap_length=round(self.lap_length(), 3),
            recharge_lap_length=round(self.recharge_lap_length(), 3),
        )
        return d


class StochasticRoute(MuleRoute):
    """Online random waypoint selection (the Random baseline of Section V).

    Each step the mule picks a uniformly random node different from the one it
    is currently at.  The route is seeded so experiments are reproducible.
    """

    def __init__(
        self,
        mule_id: str,
        candidates: Sequence[str],
        coordinates: Mapping[str, Point],
        *,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        avoid_repeat: bool = True,
    ) -> None:
        super().__init__(mule_id, coordinates)
        candidates = list(candidates)
        if not candidates:
            raise ValueError("need at least one candidate waypoint")
        missing = [n for n in candidates if n not in self.coordinates]
        if missing:
            raise ValueError(f"candidates without coordinates: {missing}")
        self.candidates = candidates
        self.avoid_repeat = avoid_repeat
        if rng is None:
            rng = np.random.default_rng(seed)
        self._rng = rng

    def waypoints(self) -> Iterator[str]:
        """Draw each next waypoint uniformly, skipping the current node.

        With unique candidates (two or more) and ``avoid_repeat``, a draw
        takes ``j = integers(n - 1)`` and the ``j``-th candidate counted
        past the current one, in O(1): that is the element the filtered
        list holds at ``j``, drawn with the same bound from the same
        generator, so the stream and the generator state equal the scan's.
        Duplicate candidates keep the scan over the filtered list.
        """
        candidates = self.candidates
        n = len(candidates)
        place = {c: i for i, c in enumerate(candidates)}
        direct = self.avoid_repeat and n >= 2 and len(place) == n
        last: str | None = None
        while True:
            if direct and last is not None:
                j = int(self._rng.integers(n - 1))
                nxt = candidates[j + (j >= place[last])]
            else:
                choices = candidates
                if self.avoid_repeat and last is not None and len(choices) > 1:
                    choices = [c for c in choices if c != last]
                nxt = choices[int(self._rng.integers(len(choices)))]
            last = nxt
            yield nxt

    def describe(self) -> dict:
        d = super().describe()
        d.update(candidates=len(self.candidates), avoid_repeat=self.avoid_repeat)
        return d


@dataclass
class PatrolPlan:
    """Per-mule routes plus planning metadata produced by a strategy."""

    strategy: str
    routes: dict[str, MuleRoute]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("a patrol plan needs at least one route")
        for mule_id, route in self.routes.items():
            if route.mule_id != mule_id:
                raise ValueError(
                    f"route keyed {mule_id!r} belongs to mule {route.mule_id!r}"
                )

    @property
    def mule_ids(self) -> tuple[str, ...]:
        return tuple(self.routes)

    def route_for(self, mule_id: str) -> MuleRoute:
        return self.routes[mule_id]

    def total_lap_length(self) -> float | None:
        """Lap length shared by the routes, when all routes agree (TCTP variants)."""
        lengths = {round(r.lap_length(), 6) for r in self.routes.values() if r.lap_length() is not None}
        if len(lengths) == 1:
            return float(next(iter(lengths)))
        return None

    def describe(self) -> dict:
        return {
            "strategy": self.strategy,
            "routes": [r.describe() for r in self.routes.values()],
            **self.metadata,
        }
