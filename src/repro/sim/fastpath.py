"""Analytic fast path for deterministic loop-route simulations.

The discrete-event engine in :mod:`repro.sim.engine` spends almost all of its
time on per-event bookkeeping: heap-managed :class:`~repro.sim.events.Event`
objects, payload dicts, per-leg ``distance()`` calls and per-event dataclass
construction.  For the workloads that dominate campaign time — every TCTP
variant, CHB and Sweep — none of that is necessary: each mule follows a
**fixed closed walk** at constant velocity, so its entire arrival-time
sequence is an arithmetic chain over a periodic pattern of leg lengths.

This module exploits that, with one model of the engine's event order and
battery, and one result, that both fast tiers share — :func:`run_fast_path`
here, and the batched tier of :mod:`repro.sim.batchpath`:

1. per mule, a :class:`_Row` (a :class:`LegPattern` plus node indices)
   reduces the effective waypoint sequence to a *prefix + cycle* walk
   (mirroring the engine's consecutive-duplicate skip rule), computes its leg
   lengths once and tiles them past the horizon; a tracked battery cuts the
   row where :meth:`LegPattern.battery_stop` ends the patrol.  The full
   arrival/departure-time chain — travel legs interleaved with per-target
   dwell times — is one ``np.cumsum``, bit-for-bit equal to the engine's
   sequential ``now + dist / velocity`` and ``now + dwell`` additions;
2. :func:`_pop_ranks` solves the engine's ``(time, sequence)`` pop order
   from each mule's chain of event times (one ``np.unique`` when no two
   events tie), so a ``max_visits`` cut and the visit log follow the event
   queue exactly;
3. :class:`_Table` holds the kept arrivals as flat arrays and derives what
   that order decides: the collection-window packet sizes (windows are
   shared between mules) and the sink flushes with their FIFO delivery
   order.  The order is solved only where it decides something: on a tie
   between two collections at one target or two delivering flushes, for a
   ``max_visits`` cut, and for the visit log;
4. :func:`fast_result` builds the :class:`~repro.sim.recorder.SimulationResult`
   from the table: its visit table, delivered total, traces (per-mule
   distance and energy are cumulative sums cut at the number of applied
   legs) and metadata come from arrays, and its ``visits`` and
   ``deliveries`` lists are built only when something reads them;
5. :func:`run_fast_path` adds the final mule state: undelivered packets in
   the buffers, and a tracked battery's charge and totals as one running
   sum per segment between refills.

The result is **byte-identical** to the event loop — same visit log, same
deliveries, same traces, same metadata, same final mule state — at a
fraction of the cost.  Positive ``collection_time`` dwells, ``max_visits``
cutoffs (inside a tie too), energy-tracked batteries (including mid-leg death
and recharge laps) and RW-TCTP's :class:`~repro.core.plan.AlternatingLoopRoute`
are all reproduced exactly.  Runs the fast path cannot reproduce exactly fall
back to the event loop:

* stochastic routes (any route class other than
  :class:`~repro.core.plan.LoopRoute` /
  :class:`~repro.core.plan.AlternatingLoopRoute` has no precomputable
  waypoint pattern),
* mules deployed with pre-loaded data buffers (the replay assumes every
  buffer starts empty), and
* four dynamic declines: a steady-state lap that advances no time (the event
  loop caps it with ``max_visits`` or a dying battery, and otherwise raises
  ``ValueError`` — it would never end), a pattern past the
  ``_MAX_EVENTS_PER_MULE`` safety valve, a lap estimate that falls short of
  the horizon (a guard; the estimate tiles a full lap past it), and a
  tracked battery whose stop by the horizon falls in the 1e-9 m window where
  the engine clips a leg's drain to an empty battery (``battery-clip``).

Eligibility is decided per *route class*, not per strategy name, so
strategies composed through the planning pipeline (:mod:`repro.planning`) —
including new cross-combinations like ``sw-tctp`` or ``cb-tctp`` — ride the
fast path automatically whenever they emit plain or alternating loop routes.
:func:`fast_path_rejection` names the reason a simulation stays on the event
loop; the fallback-boundary tests pin every reason it can return.

Toggle with :attr:`repro.sim.engine.SimulationConfig.fast_path`; the
equivalence tests in ``tests/test_fastpath.py`` and the differential fuzz
harness in ``tests/test_fastpath_differential.py`` assert byte-identical
results against the event loop for every eligible strategy family.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from repro.core.plan import AlternatingLoopRoute, LoopRoute, MuleRoute
from repro.geometry.point import Point, distance
from repro.network.datamodel import DataPacket
from repro.network.mules import MuleState
from repro.sim.recorder import DeliveryRecord, MuleTrace, SimulationResult, VisitRecord

__all__ = ["fast_path_eligible", "fast_path_rejection", "fast_result", "run_fast_path"]

# Safety valve, for both fast tiers: beyond this many precomputed arrival
# events per mule the array stage would dominate memory; such runs are no
# faster analytically, so they stay on the event loop.  Read at call time
# (the boundary tests patch it).
_MAX_EVENTS_PER_MULE = 4_000_000

_ID = operator.attrgetter("id")
_DATA_RATE = operator.attrgetter("data_rate")


class _Fallback(Exception):
    """Internal signal: this run needs the exact event loop after all."""


def fast_path_rejection(sim) -> str | None:
    """Why ``sim`` cannot take the fast path, or ``None`` when it can.

    Returns a stable reason code so callers (and the fallback-boundary
    tests) can tell the remaining rejection classes apart:

    * ``"fast-path-disabled"`` — :attr:`SimulationConfig.fast_path` is off;
    * ``"preloaded-buffer"`` — a mule starts with data already on board;
    * ``"route-class"`` — a route is neither :class:`LoopRoute` nor
      :class:`AlternatingLoopRoute` (e.g. the Random baseline's
      :class:`StochasticRoute`).

    A ``None`` here is necessary but not sufficient: the dynamic declines
    (zero-advance laps, patterns past the event-count safety valve, a short
    lap estimate, a battery stop in the clip window by the horizon) still
    fall back inside :func:`run_fast_path`.
    """
    if not sim.config.fast_path:
        return "fast-path-disabled"
    mules = sim.scenario.mules
    if any(len(m.buffer) > 0 for m in mules):
        return "preloaded-buffer"
    for m in mules:
        if type(sim.plan.route_for(m.id)) not in (LoopRoute, AlternatingLoopRoute):
            return "route-class"
    return None


def fast_path_eligible(sim) -> bool:
    """Whether ``sim`` (a :class:`~repro.sim.engine.PatrolSimulator`) qualifies."""
    return fast_path_rejection(sim) is None


# --------------------------------------------------------------------------- #
# Waypoint-pattern resolution
# --------------------------------------------------------------------------- #

def route_pattern(route: MuleRoute) -> "tuple[list[str], list[str]]":
    """Raw waypoint sequence of ``route`` as a ``(prefix, cycle)`` pair.

    The infinite ``route.waypoints()`` stream equals ``prefix`` followed by
    ``cycle`` repeated forever.  Supported route classes:

    * :class:`LoopRoute`: no prefix, one lap rotated to the entry index;
    * :class:`AlternatingLoopRoute` with ``patrol_rounds == 1``: every lap
      follows the recharge path (and the first lap is *not* rotated — the
      rotation only applies to a first *patrol* lap);
    * :class:`AlternatingLoopRoute` with ``patrol_rounds == r > 1``: a
      prefix of one rotated patrol lap, ``r - 2`` plain patrol laps and one
      recharge lap, then a steady-state cycle of ``r - 1`` patrol laps plus
      one recharge lap.
    """
    if type(route) is LoopRoute:
        loop = route.loop
        entry = route.entry_index
        return [], loop[entry:] + loop[:entry]
    if type(route) is AlternatingLoopRoute:
        patrol = route.patrol_loop
        recharge = route.recharge_loop
        rounds = route.patrol_rounds
        if rounds == 1:
            return [], list(recharge)
        entry = route.entry_index
        rotated = patrol[entry:] + patrol[:entry]
        prefix = rotated + patrol * (rounds - 2) + recharge
        cycle = patrol * (rounds - 1) + recharge
        return prefix, cycle
    raise _Fallback


def dedup_walk(
    raw_prefix: "list[str]", raw_cycle: "list[str]"
) -> "tuple[list[str], int]":
    """Collapse the engine's duplicate-skip rule over a prefix + cycle pattern.

    Mirrors ``_next_distinct_waypoint``: a waypoint equal to the node the
    mule is standing on is skipped; more than 8 skips in a row halts the
    mule.  With static coordinates the rule collapses to "drop consecutive
    duplicate ids", which keeps the emitted sequence eventually periodic;
    the (position-in-cycle, previous node) state detects the period.

    Returns ``(emitted, cycle_start)`` where ``emitted[cycle_start:]`` is one
    full period of the steady state, or ``cycle_start == -1`` when the walk
    halts (the engine's waypoint iterator would return ``None``).

    Closed form: when no two neighbouring raw entries are equal — counting
    the prefix's last entry against the cycle's first and the cycle's wrap
    from its last entry to its first, which needs two or more cycle entries
    — every entry is emitted, and the state machine first repeats a state at
    the start of the second lap when the prefix ends on the cycle's last
    node (the state of the first lap's start), else one step later.  So the
    walk is ``prefix + cycle`` with the cycle at ``len(prefix)``, or
    ``prefix + cycle + cycle[:1]`` with the cycle at ``len(prefix) + 1``.
    Every other pattern runs the state machine.
    """
    if raw_cycle:
        closed = raw_prefix + raw_cycle + raw_cycle[:1]
        if not any(map(operator.eq, closed, closed[1:])):
            if raw_prefix and raw_prefix[-1] == raw_cycle[-1]:
                return closed[:-1], len(raw_prefix)
            return closed, len(raw_prefix) + 1
    return _skip_walk(raw_prefix, raw_cycle)


def _skip_walk(
    raw_prefix: "list[str]", raw_cycle: "list[str]"
) -> "tuple[list[str], int]":
    """The duplicate-skip state machine, for patterns without the closed form."""
    plen = len(raw_prefix)
    clen = len(raw_cycle)
    emitted: list[str] = []
    prev: "str | None" = None
    seen: dict = {}
    pos = 0
    while True:
        if pos >= plen:
            if clen == 0:
                break  # finite raw sequence exhausted: the mule halts
            state = ((pos - plen) % clen, prev)
            if state in seen:
                return emitted, seen[state]
            seen[state] = len(emitted)
        node = None
        for _ in range(8):
            if pos < plen:
                candidate = raw_prefix[pos]
            else:
                candidate = raw_cycle[(pos - plen) % clen]
            pos += 1
            if candidate != prev:
                node = candidate
                break
        if node is None:
            break  # the engine's waypoint iterator would halt this mule
        emitted.append(node)
        prev = node
    return emitted, -1


# --------------------------------------------------------------------------- #
# The leg pattern, shared with the batched tier
# --------------------------------------------------------------------------- #

def node_codes(sim) -> "dict[str, int]":
    """Node kind codes: 1 = plain target, 2 = sink, 3 = recharge station.

    Any other node reads as 0.  Dwell applies on code 1 only (the engine
    checks ``node_id in self._target_ids``, which excludes sink and
    recharge).
    """
    codes = {t.id: 1 for t in sim.scenario.targets}
    codes[sim._sink_id] = 2
    if sim._recharge_id is not None:
        codes[sim._recharge_id] = 3
    return codes


_X = operator.attrgetter("x")
_Y = operator.attrgetter("y")


def _hops(points: "list[Point]") -> "list[float]":
    """``distance(points[k - 1], points[k])`` for every ``k >= 1``, in C-level passes.

    ``distance`` subtracts the coordinates as they are, ``a.x - b.x`` and
    ``a.y - b.y``, and takes their ``math.hypot``; here ``operator.sub`` and
    ``math.hypot`` are mapped over the same objects in the same order, so
    every hop is the same float whatever the coordinate type (an int stays
    exact, a float32 subtracts in single precision), without a call per leg.
    """
    xs = list(map(_X, points))
    ys = list(map(_Y, points))
    return list(map(math.hypot, map(operator.sub, xs, xs[1:]), map(operator.sub, ys, ys[1:])))


class BatteryStop(NamedTuple):
    """Where a tracked battery ends a :class:`LegPattern`.

    ``leg`` counts applied legs, the initial leg first.  ``kind`` is
    ``"move"`` when the mule cannot cover the leg and dies ``reachable``
    metres into it, ``"collect"`` when the collection at its end depletes
    the battery (the visit stands, its packet is never delivered), and
    ``"clip"`` when the leg's drain exceeds the charge by less than the
    engine's 1e-9 m tolerance, which the engine clips to an empty battery.
    ``charge`` is what the battery holds when the stop strikes: at the fatal
    leg's departure, or before the fatal collection, which drains all of it.
    """

    leg: int
    kind: str
    reachable: float
    charge: float


class LegPattern:
    """One mule's legs from deployment to past the horizon, as flat arrays.

    ``walk`` is the route's effective waypoint sequence under the engine's
    duplicate-skip rule: a prefix, then one cycle from ``cycle_start``
    (``-1`` when the walk halts).  The legs tile it with ``laps`` more
    cycles, enough to carry the chain at least one full lap past the
    horizon.  Leg ``k`` runs to node
    ``k`` of the tiling, whose kind is ``codes[k]`` and length ``dists[k]``
    (exactly the engine's per-leg ``distance()`` calls).  The optional
    initial leg to the route's start position is kept apart (``init_*``);
    the first patrol leg departs at ``base``.

    ``inc`` interleaves travel and dwell increments,
    ``[dists[0] / v, dwell_0, dists[1] / v, dwell_1, ...]``: the engine
    alternates ``now + dist / velocity`` (travel) with ``now + dwell``
    (COLLECTION_DONE), so one cumulative sum of ``[base, *inc]`` reproduces
    its identical sequence of float additions (adding a 0.0 dwell is a
    bitwise no-op for the non-negative partial sums).  Both tiers take that
    sum with :meth:`chain`, after cutting a battery-tracked mule's legs at
    :meth:`battery_stop` (see :class:`_Row`).

    No step of the build runs Python per node: the walk comes from
    :func:`dedup_walk`'s closed form, node kinds and points from C-level
    ``map`` lookups, and the leg lengths from ``operator.sub`` and
    ``math.hypot`` mapped over the coordinates (:func:`_hops`); only the
    initial leg and the cycle's first leg are single ``distance()`` calls.

    Raises :class:`_Fallback` when the route has no precomputable walk, the
    steady-state lap advances no time (the event loop owns that case), or
    the tiling would exceed ``max_events`` legs.
    """

    __slots__ = (
        "walk", "cycle_start", "laps", "base", "init_event", "init_time",
        "init_dist", "start_point", "codes", "dists", "inc", "full",
        "velocity",
    )

    def __init__(
        self, sim, mule, route: MuleRoute, sync_time: float, node_code, max_events: int
    ) -> None:
        self.velocity = velocity = mule.velocity
        position = mule.position
        start = route.start_position()

        walk, cycle_start = self.walk_of(route)
        if not walk:
            # Unreachable for the supported routes (the first candidate is
            # always accepted against prev=None and loops are non-empty), but
            # any future route shape that emits nothing belongs on the event
            # loop rather than on a zero-event pattern here.
            raise _Fallback
        self.walk = walk
        self.cycle_start = cycle_start
        self.laps = 0
        points = list(map(route.coordinates.__getitem__, walk))
        codes = np.fromiter(
            map(node_code.get, walk, repeat(0)), dtype=np.int8, count=len(walk)
        )
        dwells = np.where(codes == 1, sim._params.collection_time, 0.0)

        # -- initial leg and the first-departure base time ----------------- #
        self.init_event = False
        self.init_time = 0.0
        self.init_dist = 0.0
        self.start_point: "Point | None" = None
        if start is not None:
            d0 = distance(position, start)
            if d0 > 1e-12:
                self.init_event = True
                self.init_time = d0 / velocity if d0 > 0 else 0.0
                self.init_dist = d0
                self.start_point = start
                base = max(self.init_time, sync_time)
                first_from = start
            else:
                base = sync_time
                first_from = position
        else:
            base = 0.0
            first_from = position
        self.base = base

        # -- leg lengths (exactly the engine's per-leg distance() calls) --- #
        legs = np.array([distance(first_from, points[0]), *_hops(points)])

        if cycle_start >= 0:
            # The cycle's first leg starts from the walk's last node, not
            # from the prefix node before it.
            cycle = legs[cycle_start:].copy()
            cycle[0] = distance(points[-1], points[cycle_start])
            cycle_dwells = dwells[cycle_start:]
            # One steady-state lap advances time by its travel plus its
            # dwells; a lap that advances neither is the event loop's
            # spin-in-place pathology.
            lap_advance = float(cycle.sum()) / velocity + float(cycle_dwells.sum())
            if lap_advance <= 0.0:
                raise _Fallback
            prefix_time = base + float(legs.sum()) / velocity + float(dwells.sum())
            self.laps = int(max(0.0, sim.config.horizon - prefix_time) / lap_advance) + 2
            if len(walk) + self.laps * len(cycle) > max_events:
                raise _Fallback
            legs = self.tile(legs, cycle)
            dwells = self.tile(dwells, cycle_dwells)
            codes = self.tile(codes)

        self.codes = codes
        self.dists = legs
        inc = np.empty(2 * len(legs), dtype=float)
        inc[0::2] = legs / velocity
        inc[1::2] = dwells
        self.inc = inc
        self.full: "np.ndarray | None" = None

    @staticmethod
    def walk_of(route: MuleRoute) -> "tuple[list[str], int]":
        """The effective walk of ``route`` as :func:`dedup_walk` returns it."""
        return dedup_walk(*route_pattern(route))

    def tile(self, column, cycle=None):
        """``column`` (one entry per walk node) laid out like the legs.

        The walk, then ``laps`` copies of its cycle part — or of ``cycle``
        when the repeated entries differ from the walk's (leg lengths do at
        the cycle's first leg).  Lists stay lists; arrays stay arrays.
        """
        if cycle is None:
            cycle = column[self.cycle_start:]
        if isinstance(column, list):
            return column + cycle * self.laps
        return np.concatenate([column, np.tile(cycle, self.laps)])

    def chain(self) -> np.ndarray:
        """``full = [depart_0, arrive_0, depart_1, arrive_1, ...]``, one cumsum.

        Arrivals are the odd slots, departures the even; ``full`` ends on
        the departure after the last leg.
        """
        self.full = np.cumsum(np.concatenate(([self.base], self.inc)))
        return self.full

    def reaches(self, horizon: float) -> bool:
        """Whether the chain in ``full`` has an arrival beyond ``horizon``.

        Both tiers decline a pattern whose lap estimate fell short; the
        estimate tiles at least one full lap past the horizon, so this is a
        guard, not a path.  A halting walk ends on its own and always
        passes.
        """
        return self.cycle_start < 0 or self.full[-2] > horizon

    def applied_legs(self) -> "tuple[np.ndarray, np.ndarray]":
        """Each leg's length and node code in the order the mule applies them.

        The initial leg comes first when there is one: it moves, but visits
        nothing (code 0).
        """
        if not self.init_event:
            return self.dists, self.codes
        return (np.concatenate(([self.init_dist], self.dists)),
                np.concatenate((np.zeros(1, dtype=self.codes.dtype), self.codes)))

    def battery_stop(self, charge: float, capacity: float, energy) -> "BatteryStop | None":
        """The first applied leg at which a tracked battery ends the patrol.

        Replays the engine's battery bookkeeping over the legs: starting
        from ``charge``, each applied leg (the initial leg first) drains
        ``energy.movement_energy`` of its length, each arrival at a plain
        target drains ``energy.collect_cost`` and each arrival at the
        recharge station refills to ``capacity``.  The charge before every
        drain is one ``np.cumsum`` over the negated drains, restarted at
        each refill; ``x - y == x + (-y)`` in IEEE 754, so every partial sum
        equals :class:`~repro.energy.battery.Battery`'s ``remaining -=
        drained`` while no drain is clipped.  ``None`` when the battery
        outlasts every leg of the pattern.
        """
        move_cost = energy.move_cost_per_meter
        dists, codes = self.applied_legs()
        n = len(dists)
        refills = np.flatnonzero(codes == 3)
        if self.cycle_start >= 0:
            # After a refill inside the cycle, legs and charges repeat every
            # lap: one lap past the first such refill decides the rest.
            steady = refills[refills >= self.cycle_start + self.init_event]
            if steady.size:
                n = min(n, int(steady[0]) + len(self.walk) - self.cycle_start + 1)
        drains = np.empty(2 * n, dtype=float)
        drains[0::2] = -(dists[:n] * move_cost)
        drains[1::2] = np.where(codes[:n] == 1, -energy.collect_cost, 0.0)
        start, level = 0, charge
        for end in [*(int(r) + 1 for r in refills if r < n - 1), n]:
            sums = np.cumsum(np.concatenate(([level], drains[2 * start:2 * end])))
            before = sums[0:-1:2]  # the charge when each leg departs
            legs = dists[start:end]
            # The engine's mid-leg death test, taken at departure.
            short = (before / move_cost + 1e-9 < legs) if move_cost > 0 else \
                np.zeros(len(legs), dtype=bool)
            # A move drain larger than the charge that passed that test (the
            # 1e-9 m tolerance): Battery.drain clips it, the running sum not.
            clipped = sums[1::2] < 0.0
            # A collection that leaves the battery depleted.
            spent = (codes[start:end] == 1) & (sums[2::2] <= 0.0)
            hit = short | clipped | spent
            if hit.any():
                j = int(np.argmax(hit))
                kind = "move" if short[j] else "clip" if clipped[j] else "collect"
                charge = float(sums[2 * j + 1] if kind == "collect" else before[j])
                return BatteryStop(start + j, kind, charge / move_cost if short[j] else 0.0, charge)
            start, level = end, capacity
        return None


# --------------------------------------------------------------------------- #
# Rows: the leg pattern both tiers reduce
# --------------------------------------------------------------------------- #

class _Row(LegPattern):
    """One mule's :class:`LegPattern` plus its node-index column.

    ``tidx`` holds each leg's node index: a target's place in the scenario,
    ``len(targets)`` for the sink, one more for the recharge station, and
    ``-1`` for anything else.  ``full`` is filled by :meth:`~LegPattern.chain`.

    A battery-tracked mule's row ends at its :meth:`~LegPattern.battery_stop`
    (``stop``): the columns keep exactly the patrol legs the mule completes,
    so the cut happens before the cumsum and the tiled arrays are freed.
    """

    __slots__ = ("tidx", "stop")

    def __init__(self, sim, mule, route, sync_time: float, node_code, node_index,
                 max_events: int) -> None:
        super().__init__(sim, mule, route, sync_time, node_code, max_events)
        walk = self.walk
        self.tidx = self.tile(np.fromiter(
            map(node_index.get, walk, repeat(-1)), dtype=np.int32, count=len(walk)
        ))
        self.stop = None
        battery = mule.battery
        if sim.config.track_energy and battery is not None:
            self.stop = self.battery_stop(battery.remaining, battery.capacity, sim._energy)
        if self.stop is not None:
            # A mid-leg death keeps the legs before the fatal one; a dying
            # collection or a clip keeps the leg it ends (the initial leg
            # counts in ``leg`` but is no column).
            keep = max(0, self.stop.leg - self.init_event + (self.stop.kind != "move"))
            self.codes = self.codes[:keep].copy()
            self.dists = self.dists[:keep].copy()
            self.inc = self.inc[:2 * keep].copy()
            self.tidx = self.tidx[:keep].copy()

    def stop_time(self) -> float:
        """When ``stop`` strikes: the mid-leg death, or the arrival it ends on."""
        leg, kind, reachable, _charge = self.stop
        on_init = leg < self.init_event  # the initial leg departs at 0
        if kind == "move":
            depart = 0.0 if on_init else float(self.full[-1])
            return depart + (reachable / self.velocity if self.velocity > 0 else 0.0)
        return self.init_time if on_init else float(self.full[-2])

    def destination(self, leg: int, coordinates) -> Point:
        """Where applied leg ``leg`` (the initial leg first) runs to."""
        leg -= self.init_event
        if leg < 0:
            return self.start_point
        walk = self.walk
        if leg >= len(walk):
            leg = self.cycle_start + (leg - len(walk)) % (len(walk) - self.cycle_start)
        return coordinates[walk[leg]]


def _rows(sim) -> "list[_Row]":
    """One :class:`_Row` per mule of ``sim``, in scenario order.

    Raises :class:`_Fallback` when a mule's pattern declines, past
    ``_MAX_EVENTS_PER_MULE`` events among others.
    """
    targets = sim.scenario.targets
    node_index = {t.id: i for i, t in enumerate(targets)}
    node_index[sim._sink_id] = len(targets)
    if sim._recharge_id is not None:
        node_index[sim._recharge_id] = len(targets) + 1
    sync_time = sim._patrol_start_time()
    node_code = node_codes(sim)
    return [
        _Row(sim, mule, sim.plan.route_for(mule.id), sync_time, node_code, node_index,
             _MAX_EVENTS_PER_MULE)
        for mule in sim.scenario.mules
    ]


# --------------------------------------------------------------------------- #
# The engine's event order, from each row's chain of event times
# --------------------------------------------------------------------------- #

def _running_sum(start: float, steps: np.ndarray) -> float:
    """``start`` plus each of ``steps`` in turn: one sequential ``np.cumsum``,
    the float additions of the engine's ``+=`` (and, with negated steps, of
    ``Battery.drain``'s ``-=``)."""
    return float(np.cumsum(np.concatenate(([start], steps)))[-1])


class _Kept(NamedTuple):
    """What of one cumsum'd row the run applies: a prefix of its chain."""

    row: _Row
    # Arrivals kept, the row's first legs.
    arrivals: int
    # 1 when the initial leg to the start position is applied, else 0.
    init: int
    # Whether the row's battery stop strikes.
    dies: bool

    def distance(self) -> float:
        """The mule's travelled distance: the engine's leg-by-leg running sum.

        The initial leg sits inside the sum: prepending it changes every
        partial sum's rounding, so it cannot be added afterwards.
        """
        travelled = _running_sum(0.0, self.row.applied_legs()[0][:self.arrivals + self.init])
        if self.dies and self.row.stop.kind == "move":
            travelled += self.row.stop.reachable
        return travelled

    def drains(self, energy) -> np.ndarray:
        """The mule's energy drains in the order the engine applies them.

        Each applied leg's move drain, then its collect drain (``0.0`` off a
        plain target: a bitwise no-op on the non-negative running sums), so
        one running sum is the engine's total.  No drain before a battery
        stop is clipped; at the stop the fatal collection drains the charge
        left, and a mid-leg death drains the charge it departed with.
        """
        applied = self.arrivals + self.init
        dists, codes = self.row.applied_legs()
        drains = np.empty(2 * applied, dtype=float)
        drains[0::2] = dists[:applied] * energy.move_cost_per_meter
        drains[1::2] = np.where(codes[:applied] == 1, energy.collect_cost, 0.0)
        stop = self.row.stop
        if self.dies and stop.kind == "move":
            return np.append(drains, stop.charge)
        if self.dies:
            drains[-1] = stop.charge
        return drains


def _horizon_cut(rows: "list[_Row]", horizon: float) -> "list[_Kept] | str":
    """Each cumsum'd row's events up to ``horizon``, or why the fast tiers decline.

    ``"lap-estimate"`` when an uncut row's chain falls short of the horizon
    (a guard), ``"battery-clip"`` when a stop in the engine's 1e-9 m clip
    window strikes by it: ``Battery.drain`` clips that leg's drain to an
    empty battery, which no running sum reproduces.
    """
    kept = []
    for row in rows:
        stop = row.stop
        # A row cut at its battery stop ends on its own, like a halting walk.
        if stop is None and not row.reaches(horizon):
            return "lap-estimate"
        dies = stop is not None and row.stop_time() <= horizon
        if dies and stop.kind == "clip":
            return "battery-clip"
        init = row.init_event and row.init_time <= horizon
        if dies and stop.leg < row.init_event:
            init = False  # died on the way to the start position
        arrivals = int(np.searchsorted(row.full[1::2], horizon, side="right"))
        kept.append(_Kept(row, arrivals, int(init), dies))
    return kept


def _chains(kept: "list[_Kept]") -> "tuple[list[np.ndarray], np.ndarray]":
    """Each row's event times in push order, and every kept arrival's place among them.

    A row's chain is its initial-leg event when that applies, then each kept
    arrival, each followed by its dwell-done event when the target's dwell
    is positive (``full[2k + 2]``), then its mid-leg death when that strikes.
    A death pushes no successor, and neither does the push the engine
    discards after a collection death, so neither changes the relative order
    of the other events.  The places index the chains' concatenation, row
    after row.
    """
    chains, at = [], []
    offset = 0
    for k in kept:
        row, n = k.row, k.arrivals
        is_event = np.ones(2 * n, dtype=bool)
        is_event[1::2] = row.inc[1:2 * n:2] > 0.0
        parts = [[row.init_time]] if k.init else []
        parts.append(row.full[1:2 * n + 1][is_event])
        if k.dies and row.stop.kind == "move":
            parts.append([row.stop_time()])
        chains.append(np.concatenate(parts))
        at.append(offset + k.init + np.cumsum(is_event)[0::2] - 1)
        offset += len(chains[-1])
    return chains, np.concatenate(at)


def _pop_ranks(chains: "list[np.ndarray]") -> np.ndarray:
    """Each chained event's place in the engine's ``(time, sequence)`` pop order.

    ``chains`` holds one array per mule, in scenario order: the times of the
    events the mule pushes, in push order, its initial push first.  A mule
    holds exactly one pending event and each pop pushes at most one
    successor, so an event's sequence number follows its predecessor's pop
    position, and the initial pushes come first, by mule.  The pop order is
    therefore the lexicographic order of each event's times read backwards
    down its chain, ended by its mule's initial push, which sorts below every
    time and by mule index.

    Prefix doubling solves that order exactly.  Each mule adds one terminal
    node (ranked by its index, below every time) that points to itself, and
    each event points to its predecessor.  Nodes start ranked by their own
    time; each round ranks the pairs ``(rank, rank of the node up the
    pointer)`` and doubles every pointer, until all ranks are distinct.
    Chains in lockstep separate only at their terminals, so the rounds grow
    with the log of the chain length; with no tie there is no round.
    Returns ranks ``0..n-1`` over the concatenated chains.
    """
    mules = len(chains)
    lengths = np.fromiter((len(c) for c in chains), dtype=np.int64, count=mules)
    nodes = mules + int(lengths.sum())
    up = np.arange(-1, nodes - 1)
    up[:mules] = np.arange(mules)
    heads = mules + np.cumsum(lengths) - lengths
    up[heads[lengths > 0]] = np.flatnonzero(lengths > 0)
    times, rank = np.unique(np.concatenate(chains), return_inverse=True)
    distinct = mules + times.size
    rank = np.concatenate((np.arange(mules), mules + rank))
    while distinct < nodes:
        pairs, rank = np.unique(rank * nodes + rank[up], return_inverse=True)
        distinct = pairs.size
        up = up[up]
    return rank[mules:] - mules


def _rank_cut(kept: "list[_Kept]", chains: "list[np.ndarray]", ranks: np.ndarray,
              key: np.ndarray, cut: int) -> "list[_Kept]":
    """``kept`` cut to the events ranked at or before ``cut``, a prefix of every chain.

    ``ranks`` ranks the chains' events and ``key`` the kept arrivals, row
    after row.  A mid-leg death is its chain's last event; a collection
    death strikes at its row's last kept arrival.
    """
    out = []
    start = first = 0
    for k, chain in zip(kept, chains):
        events = ranks[start:start + len(chain)]
        arrivals = int(np.count_nonzero(key[first:first + k.arrivals] <= cut))
        start += len(chain)
        first += k.arrivals
        init = k.init and events[0] <= cut
        dies = k.dies and (events[-1] <= cut if k.row.stop.kind == "move"
                           else arrivals == k.arrivals)
        out.append(_Kept(k.row, arrivals, int(init), dies))
    return out


class _Table:
    """The kept arrivals of a row set as flat arrays, and the lists a fast result builds from them.

    ``times``, ``codes`` and ``tidx`` describe each arrival, row after row,
    each row in chain order, and ``row`` indexes its row.  ``collect``
    indexes the collections (code 1), whose times and target indices are
    ``ct`` and ``cx``.  A collection's packet is delivered at its row's next
    sink arrival in chain order, when that one is kept: ``delivered`` marks
    those collections, and ``flush`` holds their flushes' arrival indices.

    ``key`` orders the arrivals as the engine pops them wherever that order
    decides something: it holds their times until a tie or a ``max_visits``
    cut needs their pop ranks (``ranked``).  ``ids`` names each node index
    (the targets, the sink, the station) and ``mule_ids`` each row's mule.
    :func:`fast_result` sets each collection's packet window (``opened``)
    and size (``sizes``) and the ``delivered_data`` total; the result's
    ``visits`` and ``deliveries`` are built here when first read.
    """

    __slots__ = ("kept", "times", "codes", "tidx", "row", "collect", "ct", "cx", "delivered",
                 "flush", "key", "ranked", "ids", "mule_ids", "opened", "sizes",
                 "delivered_data")

    def __init__(self, sim, kept: "list[_Kept]") -> None:
        self.kept = kept
        self.ids = [*map(_ID, sim.scenario.targets), sim._sink_id, sim._recharge_id]
        self.mule_ids = [*map(_ID, sim.scenario.mules)]
        self.times = np.concatenate([k.row.full[1:2 * k.arrivals:2] for k in kept])
        self.codes = codes = np.concatenate([k.row.codes[:k.arrivals] for k in kept])
        self.tidx = np.concatenate([k.row.tidx[:k.arrivals] for k in kept])
        self.row = row = np.repeat(np.arange(len(kept)), [k.arrivals for k in kept])
        self.collect = collect = np.flatnonzero(codes == 1)
        self.ct = self.times[collect]
        self.cx = self.tidx[collect]
        # The first sink arrival after each collection in the row-major
        # arrays flushes it when that arrival is on the same row.
        sinks = np.flatnonzero(codes == 2)
        delivered = np.zeros(collect.size, dtype=bool)
        flush = collect
        if sinks.size:
            flush = sinks[np.minimum(np.searchsorted(sinks, collect), sinks.size - 1)]
            delivered = (flush > collect) & (row[flush] == row[collect])
        self.delivered = delivered
        self.flush = flush[delivered]
        self.key = self.times
        self.ranked = False

    def ranks(self) -> np.ndarray:
        """Every kept arrival's pop rank, solved from the rows' chains on first need."""
        if not self.ranked:
            chains, at = _chains(self.kept)
            self.key = _pop_ranks(chains)[at]
            self.ranked = True
        return self.key

    def packets(self, order: np.ndarray, rates: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Each collection's window opening and packet size, in collection order.

        ``order`` lists the collections target by target, each target's in
        pop order.  A window opens at the previous collection at its target,
        the first at 0.0: under pop-ordered processing the engine's
        ``max(now - last, 0.0) * rate`` is the plain difference.
        """
        ct_s, cx_s = self.ct[order], self.cx[order]
        opened = np.zeros_like(self.ct)
        opened[order[1:]] = np.where(cx_s[1:] == cx_s[:-1], ct_s[:-1], 0.0)
        return opened, (self.ct - opened) * rates[self.cx]

    def delivery_order(self) -> np.ndarray:
        """The delivered collections in the engine's delivery-list order.

        Flushes run in pop order — ``key`` orders the arrivals by it — and
        each delivers its row's buffer FIFO, in chain order.
        """
        return np.lexsort((self.collect[self.delivered], self.key[self.flush]))

    def visits(self) -> "list[VisitRecord]":
        """The visit log: plain targets, the sink and the station record a visit, in pop order."""
        visits = np.flatnonzero(self.codes > 0)
        visits = visits[np.argsort(self.ranks()[visits])]
        return list(map(
            VisitRecord, self.times[visits].tolist(),
            map(self.ids.__getitem__, self.tidx[visits].tolist()),
            map(self.mule_ids.__getitem__, self.row[visits].tolist()),
            (self.codes[visits] != 3).tolist(),
        ))

    def deliveries(self) -> "list[DeliveryRecord]":
        """The delivery list: each flush, in pop order, delivers its packets FIFO."""
        fifo = self.delivery_order()
        sent = np.flatnonzero(self.delivered)[fifo]
        flush = self.flush[fifo]
        collected = self.ct[sent].tolist()
        # generated_to and collected_at are one instant, as in DataCollectionModel.collect.
        return list(map(
            DeliveryRecord, self.times[flush].tolist(),
            map(self.mule_ids.__getitem__, self.row[flush].tolist()),
            map(self.ids.__getitem__, self.cx[sent].tolist()), self.opened[sent].tolist(),
            collected, collected, self.sizes[sent].tolist(),
        ))


# --------------------------------------------------------------------------- #
# One fast result for both fast tiers
# --------------------------------------------------------------------------- #

def fast_result(sim) -> "SimulationResult | str":
    """``sim``'s result, from the kept-event table, or why the fast tiers decline it.

    The reasons are ``"row-fallback"`` when a mule's :class:`LegPattern`
    declines, and ``"lap-estimate"`` or ``"battery-clip"`` from
    :func:`_horizon_cut`.  The result's visit table, delivered total, traces
    and metadata are computed here from arrays; its ``visits`` and
    ``deliveries`` are built from the table when first read
    (:class:`_Table`).  No mule is touched: :func:`run_fast_path` leaves the
    final mule state, and the batched tier reduces the result to a record
    without it.
    """
    try:
        rows = _rows(sim)
    except _Fallback:
        return "row-fallback"
    for row in rows:
        row.chain()
    config = sim.config
    kept = _horizon_cut(rows, config.horizon)
    if isinstance(kept, str):
        return kept
    table = _Table(sim, kept)
    max_visits = config.max_visits
    if max_visits is not None:
        # The engine stops at the max_visits-th recorded visit in pop order.
        chains, at = _chains(kept)
        ranks = _pop_ranks(chains)
        key = ranks[at]
        recorded = key[(table.codes == 1) | (table.codes == 2)]
        if recorded.size >= max_visits:
            cut = np.partition(recorded, max_visits - 1)[max_visits - 1]
            kept = _rank_cut(kept, chains, ranks, key, cut)
            key = key[key <= cut]
            table = _Table(sim, kept)
        table.key, table.ranked = key, True
    ct = table.ct

    # Node indices (targets, then the sink) ranked by id: the visit table
    # lists the visited nodes in that order.  The ranks take the smallest
    # unsigned dtype, so lexsort's stable pass over them is a radix sort.
    names = table.ids[:-1]
    by_id = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.min_scalar_type(len(names)))
    rank[by_id] = np.arange(len(names))
    cr = rank[table.cx]

    # The engine handles visits in pop order: time order, except that its
    # heap's sequence numbers order the events of one instant.  Two things
    # read that order: the collections at each target (the packet sizes) and
    # the delivering flushes (the summation order of the delivery list).
    # Only when one of them ties do the rows' chains replay it.
    order = np.lexsort((table.key[table.collect], cr))
    if not table.ranked:
        same_target = (np.diff(cr[order]) == 0) & (np.diff(ct[order]) == 0.0)
        # ``flush`` is non-decreasing (a masked searchsorted over increasing
        # collection indices), so each distinct flush starts where it steps up.
        flush = table.flush
        first_of_flush = np.ones(flush.size, dtype=bool)
        np.not_equal(flush[1:], flush[:-1], out=first_of_flush[1:])
        flush_times = np.sort(table.times[flush[first_of_flush]])
        if same_target.any() or (np.diff(flush_times) == 0.0).any():
            order = np.lexsort((table.ranks()[table.collect], cr))
    targets = sim.scenario.targets
    rates = np.fromiter(map(_DATA_RATE, targets), dtype=float, count=len(targets))
    table.opened, table.sizes = table.packets(order, rates)
    # The recorder adds the delivery list up with the built-in ``sum`` in
    # its order (compensated from Python 3.12, so no numpy sum stands in;
    # an empty list sums to the int 0).
    table.delivered_data = sum(table.sizes[table.delivered][table.delivery_order()].tolist())

    # Collections grouped by target rank, each group in pop order, which is
    # time order: exactly the recorder's sorted per-target stretches.  The
    # sink's sorted stretch slots in at its rank.
    ct_s = ct[order]
    cr_s = cr[order]
    sink_rank = rank[-1]
    sink_times = np.sort(table.times[table.codes == 2])
    at = np.searchsorted(cr_s, sink_rank)
    counts = np.bincount(cr_s, minlength=len(names))
    counts[sink_rank] = sink_times.size
    visited = counts > 0
    visit_table = (
        list(compress(map(names.__getitem__, by_id), visited.tolist())),
        counts[visited],
        np.concatenate((ct_s[:at], sink_times, ct_s[at:])),
    )

    collectors = table.row[table.collect]
    collections = np.bincount(collectors, minlength=len(kept)).tolist()
    deliveries = np.bincount(collectors[table.delivered], minlength=len(kept)).tolist()
    stations = np.bincount(table.row[table.codes == 3], minlength=len(kept)).tolist()
    traces = {}
    for k, mule, collected, delivered, recharged in zip(
        kept, sim.scenario.mules, collections, deliveries, stations
    ):
        traces[mule.id] = MuleTrace(
            mule.id, distance_travelled=k.distance(),
            energy_consumed=_running_sum(0.0, k.drains(sim._energy)),
            collections=collected, deliveries=delivered,
            recharges=recharged if mule.battery is not None else 0,
            initialization_time=k.row.init_time if k.init else 0.0,
            death_time=k.row.stop_time() if k.dies else None,
        )
    metadata = dict(sim.plan.metadata)
    metadata.setdefault("patrol_start_time", sim._patrol_start_time())
    result = SimulationResult(sim.plan.strategy, config.horizon, traces=traces, metadata=metadata)
    state = result.__dict__
    del state["visits"], state["deliveries"]  # built from the table on first read
    state.update(_source=table, _visit_table=(int(np.count_nonzero(table.codes)), visit_table))
    return result


# --------------------------------------------------------------------------- #
# The scalar tier: the fast result, and the mules left as the event loop leaves them
# --------------------------------------------------------------------------- #

def run_fast_path(sim) -> "SimulationResult | None":
    """Run ``sim`` analytically; ``None`` means "use the event loop instead".

    The result is :func:`fast_result`'s, and the mules are left as the event
    loop leaves them: undelivered packets in their buffers, their batteries,
    positions and states.
    """
    if not fast_path_eligible(sim):
        return None
    result = fast_result(sim)
    if isinstance(result, str):
        return None
    table = result._source
    mules = sim.scenario.mules
    left = np.flatnonzero(~table.delivered)  # still on board, in chain order
    for r, target, opened_at, at, size in zip(
        table.row[table.collect][left].tolist(), table.cx[left].tolist(),
        table.opened[left].tolist(), table.ct[left].tolist(), table.sizes[left].tolist(),
    ):
        mules[r].buffer.add(DataPacket(table.ids[target], opened_at, at, at, size))
    for k, mule in zip(table.kept, mules):
        row = k.row
        applied = k.arrivals + k.init
        if mule.battery is not None:
            drains = k.drains(sim._energy) if sim.config.track_energy else np.empty(0)
            _leave_battery(mule.battery, drains, np.flatnonzero(row.applied_legs()[1][:applied] == 3))
        coordinates = sim.plan.route_for(mule.id).coordinates
        if applied:
            mule.position = row.destination(applied - 1, coordinates)
            mule.state = MuleState.MOVING
        if k.dies:
            stop = row.stop
            if stop.kind == "move":
                # Stranded mid-leg, as far as the charge carried it.
                mule.position = mule.position.towards(row.destination(stop.leg, coordinates),
                                                      stop.reachable)
            mule.state = MuleState.DEAD
    return result


def _leave_battery(battery, drains: np.ndarray, refills: np.ndarray) -> None:
    """Leave ``battery`` as the engine's drains and refills do.

    ``drains`` interleaves the applied legs' move and collect drains
    (:meth:`_Kept.drains`; empty when the battery is not tracked), none of
    them clipped, and the mule refills after each leg in ``refills``: the
    charge is one running sum per segment between refills, and each refill
    is the engine's own ``Battery.refill``.
    """
    start = 0
    for end in (2 * refills + 2).tolist():
        battery.remaining = _running_sum(battery.remaining, -drains[start:end])
        battery.refill()
        start = end
    battery.remaining = _running_sum(battery.remaining, -drains[start:])
    battery.total_drained = _running_sum(battery.total_drained, drains)
