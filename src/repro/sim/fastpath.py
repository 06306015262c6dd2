"""Analytic fast path for loop-route and random-walk simulations.

The discrete-event engine in :mod:`repro.sim.engine` spends almost all of its
time on per-event bookkeeping: heap-managed :class:`~repro.sim.events.Event`
objects, payload dicts, per-leg ``distance()`` calls and per-event dataclass
construction.  For every built-in strategy none of that is necessary: each
mule follows a walk fixed in advance at constant velocity — a **fixed closed
walk** for every TCTP variant, CHB and Sweep, and for the Random baseline a
walk its seeded generator draws up front — so its entire arrival-time
sequence is an arithmetic chain over a pattern of leg lengths.

This module exploits that, with one model of the engine's event order and
battery, and one result, that both fast tiers share — :func:`run_fast_path`
here, and the batched tier of :mod:`repro.sim.batchpath`:

1. per mule, a :class:`_Row` (a :class:`LegPattern` cut at its battery
   stop) reduces the effective waypoint sequence to a *prefix + cycle* walk
   (mirroring the engine's consecutive-duplicate skip rule), computes its leg
   lengths once and tiles them past the horizon; routes over one loop share
   its columns.  A :class:`~repro.core.plan.StochasticRoute`'s walk is a
   prefix with no cycle, drawn by the route's own ``waypoints()`` from a
   twin of its generator until the mule stops or passes the horizon.  A
   tracked battery cuts the row where :meth:`LegPattern.battery_stop` ends
   the patrol.  The full arrival/departure-time chain — travel legs
   interleaved with per-target dwell times — is one ``np.cumsum``,
   bit-for-bit equal to the engine's sequential ``now + dist / velocity``
   and ``now + dwell`` additions;
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
   from the table: its visit table, delivered total, travelled distances
   and dead mules (what a record reads) and metadata come from arrays, and
   its ``visits``, ``deliveries`` and ``traces`` are built only when
   something reads them.

Neither tier writes to the scenario or the plan, and neither does the event
loop: a run leaves every mule and every route's generator as it found them.
The result is **byte-identical** to the event loop — same visit log, same
deliveries, same traces, same metadata — at a fraction of the cost.
Positive ``collection_time`` dwells, ``max_visits`` cutoffs (inside a tie
too), energy-tracked batteries (including mid-leg death and recharge laps),
RW-TCTP's :class:`~repro.core.plan.AlternatingLoopRoute` and the Random
baseline's draws are all reproduced exactly.  Runs the fast path cannot
reproduce exactly fall back to the event loop:

* routes of any other class (a subclass of a supported one included), whose
  waypoints cannot be laid out in advance,
* stochastic routes of two mules that share one generator object (the event
  loop interleaves their draws in event order),
* mules deployed with pre-loaded data buffers (the table assumes every
  buffer starts empty), and
* three dynamic declines: a row that cannot be laid out (``row-fallback``:
  a lap that advances no time — a steady-state loop lap, or a random walk
  whose candidates all sit on one point; the event loop caps it with
  ``max_visits`` or a dying battery, and otherwise raises ``ValueError``,
  as it would never end — or a pattern past the ``_MAX_EVENTS_PER_MULE``
  safety valve), a lap estimate that falls short of the horizon
  (``lap-estimate``, a guard; the estimate tiles a full lap past it), and a
  tracked battery whose stop by the horizon falls in the 1e-9 m window where
  the engine clips a leg's drain to an empty battery (``battery-clip``).

Eligibility is decided per *route class*, not per strategy name, so
strategies composed through the planning pipeline (:mod:`repro.planning`) —
including new cross-combinations like ``sw-tctp`` or ``cb-tctp`` — ride the
fast path automatically whenever they emit loop, alternating or stochastic
routes.  :func:`run_fast_path` returns the result or the one reason a
simulation stays on the event loop — a static one from
:func:`fast_path_rejection`, else a dynamic one from :func:`fast_result` —
and the fallback-boundary tests pin every reason it can return.

Toggle with :attr:`repro.sim.engine.SimulationConfig.fast_path`; the
equivalence tests in ``tests/test_fastpath.py`` and the differential fuzz
harness in ``tests/test_fastpath_differential.py`` assert byte-identical
results against the event loop for every eligible strategy family.
"""

from __future__ import annotations

import copy
import math
import operator
from itertools import compress, islice, repeat
from typing import NamedTuple

import numpy as np

from repro.core.plan import AlternatingLoopRoute, LoopRoute, MuleRoute, StochasticRoute
from repro.geometry.point import Point, distance
from repro.sim.engine import _still_lap
from repro.sim.recorder import DeliveryRecord, MuleTrace, SimulationResult, VisitRecord

__all__ = ["fast_path_rejection", "fast_result", "run_fast_path"]

# Safety valve, for both fast tiers: beyond this many precomputed arrival
# events per mule the array stage would dominate memory; such runs are no
# faster analytically, so they stay on the event loop.  Read at call time
# (the boundary tests patch it).
_MAX_EVENTS_PER_MULE = 4_000_000

# Waypoints a stochastic walk draws first; later draws follow its pace.
_FIRST_DRAWS = 32

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
    * ``"route-class"`` — a route is none of :class:`LoopRoute`,
      :class:`AlternatingLoopRoute` and :class:`StochasticRoute` (a
      subclass of one of them included);
    * ``"shared-generator"`` — two mules' stochastic routes draw from one
      generator object: the event loop interleaves their draws in event
      order, which a walk drawn per mule does not reproduce.

    A ``None`` here is necessary but not sufficient: :func:`fast_result`
    still names a dynamic decline (``row-fallback``, ``lap-estimate``,
    ``battery-clip``).
    """
    if not sim.config.fast_path:
        return "fast-path-disabled"
    mules = sim.scenario.mules
    if any(len(m.buffer) > 0 for m in mules):
        return "preloaded-buffer"
    generators = set()
    for m in mules:
        route = sim.plan.route_for(m.id)
        kind = type(route)
        if kind is StochasticRoute:
            if id(route._rng) in generators:
                return "shared-generator"
            generators.add(id(route._rng))
        elif kind is not LoopRoute and kind is not AlternatingLoopRoute:
            return "route-class"
    return None


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
# Node columns and hop lengths
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


def node_indices(sim) -> "dict[str, int]":
    """Node indices: a target's place in the scenario, then the sink, then the station."""
    targets = sim.scenario.targets
    index = {t.id: i for i, t in enumerate(targets)}
    index[sim._sink_id] = len(targets)
    if sim._recharge_id is not None:
        index[sim._recharge_id] = len(targets) + 1
    return index


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


# --------------------------------------------------------------------------- #
# Walks: a route's node sequence and the columns that depend on it alone
# --------------------------------------------------------------------------- #

class _Walk(NamedTuple):
    """A route's effective walk and its per-node columns.

    ``nodes`` is the walk and ``cycle_start`` the start of its steady-state
    cycle (``-1`` when it has none); ``codes`` and ``tidx`` hold each node's
    kind (:func:`node_codes`) and index (:func:`node_indices`, ``-1`` for
    any other node), and ``hops[k]`` is ``distance()`` from node ``k`` to
    node ``k + 1``.
    """

    nodes: "list[str]"
    cycle_start: int
    codes: np.ndarray
    tidx: np.ndarray
    hops: np.ndarray


def _walk(nodes: "list[str]", cycle_start: int, points: "list[Point]", node_code,
          node_index) -> _Walk:
    """The columns of walk ``nodes`` over their ``points``, in C-level passes."""
    count = len(nodes)
    return _Walk(
        nodes, cycle_start,
        np.fromiter(map(node_code.get, nodes, repeat(0)), dtype=np.int8, count=count),
        np.fromiter(map(node_index.get, nodes, repeat(-1)), dtype=np.int32, count=count),
        np.array(_hops(points), dtype=float),
    )


def _points(route: MuleRoute, nodes: "list[str]") -> "list[Point]":
    """The :class:`Point` of each of ``nodes`` on ``route``."""
    return list(map(route.coordinates.__getitem__, nodes))


class _Loop(NamedTuple):
    """One loop's columns, laid out once for every route of a set of rows that runs it.

    ``points`` are the loop's nodes' :class:`Point` objects, and ``ring`` is
    the loop closed by its first node again, as a walk.
    """

    nodes: "list[str]"
    points: "list[Point]"
    ring: _Walk

    def walk(self, entry: int) -> _Walk:
        """The walk of a route entering the loop at ``entry``.

        :func:`dedup_walk`'s closed form: the loop rotated to ``entry`` and
        its first node again, the cycle from 1.  Each hop is the ring's own
        ``distance()`` between the same two points.
        """
        ring, size = self.ring, len(self.nodes)
        return _Walk(
            self.nodes[entry:] + self.nodes[:entry + 1], 1,
            np.concatenate((ring.codes[entry:size], ring.codes[:entry + 1])),
            np.concatenate((ring.tidx[entry:size], ring.tidx[:entry + 1])),
            np.concatenate((ring.hops[entry:], ring.hops[:entry])),
        )


def _route_walk(route: MuleRoute, node_code, node_index, loops: "list[_Loop]") -> _Walk:
    """The walk of a loop route, with the columns of a loop it runs shared through ``loops``.

    A :class:`LoopRoute` runs its loop from its entry index, and an
    :class:`AlternatingLoopRoute` with ``patrol_rounds == 1`` its recharge
    loop, unrotated, every lap (:func:`route_pattern`).  Two such routes
    share the loop's columns when they run equal loops over the same
    :class:`Point` objects; ``loops`` collects them (a caller keeps it for
    one set of rows).  A loop with two equal neighbouring nodes, or a single
    node, has no closed-form walk and is laid out alone, as is every other
    route.
    """
    kind = type(route)
    loop = None
    if kind is LoopRoute:
        loop, entry = route.loop, route.entry_index
    elif kind is AlternatingLoopRoute and route.patrol_rounds == 1:
        loop, entry = route.recharge_loop, 0
    if loop is not None:
        points = _points(route, loop)
        for lap in loops:
            if lap.nodes == loop and all(map(operator.is_, lap.points, points)):
                return lap.walk(entry)
        ring = loop + loop[:1]
        if len(loop) > 1 and not any(map(operator.eq, ring, ring[1:])):
            lap = _Loop(loop, points, _walk(ring, -1, points + points[:1], node_code, node_index))
            loops.append(lap)
            return lap.walk(entry)
    nodes, cycle_start = LegPattern.walk_of(route)
    return _walk(nodes, cycle_start, _points(route, nodes), node_code, node_index)


def _drawn(route: StochasticRoute):
    """``route``'s own waypoint stream, drawn from a twin of its generator.

    The twin starts in the generator's state, so the stream is the one the
    event loop would draw, and the route's generator is left as it was.
    """
    bit_generator = route._rng.bit_generator
    twin = type(bit_generator)(0)  # any seed: the state is overwritten
    twin.state = bit_generator.state
    clone = copy.copy(route)
    clone._rng = np.random.Generator(twin)
    return clone.waypoints()


def drawn_walk(raw: "list[str]") -> "tuple[list[str], bool]":
    """The engine's duplicate-skip rule over a stream of drawn waypoints.

    Returns ``(nodes, halted)``: the nodes the mule heads to, and whether
    the rule halts it.  A schedule call skips a draw equal to the node the
    mule stands on; eight in a row halt the mule.

    Closed form: a stream with no two equal neighbours (a random walk with
    ``avoid_repeat`` over unique candidates) skips nothing.  Every other
    stream runs the state machine.
    """
    if not any(map(operator.eq, raw, raw[1:])):
        return list(raw), False
    return _skip_draws(raw)


def _skip_draws(raw: "list[str]") -> "tuple[list[str], bool]":
    """The duplicate-skip state machine, for drawn streams without the closed form."""
    nodes: "list[str]" = []
    prev: "str | None" = None
    skipped = 0
    for node in raw:
        if node != prev:
            nodes.append(node)
            prev, skipped = node, 0
            continue
        skipped += 1
        if skipped == 8:
            return nodes, True
    return nodes, False


# --------------------------------------------------------------------------- #
# The leg pattern, shared with the batched tier
# --------------------------------------------------------------------------- #

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
    (``-1`` when it has none).  A loop route's walk comes from its fixed
    pattern, and its legs tile it with ``laps`` more cycles, enough to carry
    the chain at least one full lap past the horizon.  A
    :class:`~repro.core.plan.StochasticRoute`'s walk is drawn (see
    :meth:`_draw`): a prefix with no cycle, drawn until its chain passes the
    horizon, its battery stops it or the skip rule halts it.  ``halts`` is
    whether the walk ends on its own: a loop walk with no cycle, or a drawn
    walk the skip rule halts.  Leg ``k`` runs to node ``k`` of the tiling,
    whose kind is ``codes[k]``, node index ``tidx[k]`` and length
    ``dists[k]`` (exactly the engine's per-leg ``distance()`` calls).  The optional initial leg to
    the route's start position is kept apart (``init_*``); the first patrol
    leg departs at ``base``.  ``stop`` is where a tracked battery ends the
    legs (:meth:`battery_stop`), ``None`` when it outlasts them or is not
    tracked.

    ``inc`` interleaves travel and dwell increments,
    ``[dists[0] / v, dwell_0, dists[1] / v, dwell_1, ...]``: the engine
    alternates ``now + dist / velocity`` (travel) with ``now + dwell``
    (COLLECTION_DONE), so one cumulative sum of ``[base, *inc]`` reproduces
    its identical sequence of float additions (adding a 0.0 dwell is a
    bitwise no-op for the non-negative partial sums).  Both tiers take that
    sum with :meth:`chain`, after cutting a battery-tracked mule's legs at
    ``stop`` (see :class:`_Row`).

    No step of a loop route's build runs Python per node: the walk comes
    from :func:`dedup_walk`'s closed form, node kinds and points from
    C-level ``map`` lookups, and the leg lengths from ``operator.sub`` and
    ``math.hypot`` mapped over the coordinates (:func:`_hops`); only the
    initial leg and the cycle's first leg are single ``distance()`` calls.
    Routes over one loop share those columns through ``loops``
    (:func:`_route_walk`), each with its own rotation.

    Raises :class:`_Fallback` when the route has no precomputable walk, the
    steady-state lap advances no time (the event loop owns that case), or
    the legs would exceed ``max_events``.
    """

    __slots__ = (
        "walk", "cycle_start", "laps", "base", "init_event", "init_time",
        "init_dist", "codes", "tidx", "dists", "inc", "full", "velocity", "stop",
        "halts",
    )

    def __init__(
        self, sim, mule, route: MuleRoute, sync_time: float, node_code, max_events: int,
        node_index=None, loops: "list[_Loop] | None" = None,
    ) -> None:
        self.velocity = velocity = mule.velocity
        position = mule.position
        start = route.start_position()

        # -- initial leg and the first-departure base time ----------------- #
        self.init_event = False
        self.init_time = 0.0
        self.init_dist = 0.0
        if start is not None:
            d0 = distance(position, start)
            if d0 > 1e-12:
                self.init_event = True
                self.init_time = d0 / velocity if d0 > 0 else 0.0
                self.init_dist = d0
                base = max(self.init_time, sync_time)
                first_from = start
            else:
                base = sync_time
                first_from = position
        else:
            base = 0.0
            first_from = position
        self.base = base

        if node_index is None:
            node_index = node_indices(sim)
        if type(route) is StochasticRoute:
            self._draw(sim, mule, route, first_from, node_code, node_index, max_events)
        else:
            walk = _route_walk(route, node_code, node_index, [] if loops is None else loops)
            self._lay_out(sim, mule, route, walk, first_from, max_events)
            self.halts = self.cycle_start < 0

    def _lay_out(self, sim, mule, route: MuleRoute, walk: _Walk, first_from: Point,
                 max_events: int) -> None:
        """Set the columns from ``walk``: its legs, tiled past the horizon, and the stop."""
        nodes, cycle_start = walk.nodes, walk.cycle_start
        if not nodes:
            # Unreachable for the supported routes (the first candidate is
            # always accepted against prev=None and loops are non-empty), but
            # any future route shape that emits nothing belongs on the event
            # loop rather than on a zero-event pattern here.
            raise _Fallback
        self.walk = nodes
        self.cycle_start = cycle_start
        self.laps = 0
        velocity = self.velocity
        codes, tidx = walk.codes, walk.tidx
        dwells = np.where(codes == 1, sim._params.collection_time, 0.0)

        # -- leg lengths (exactly the engine's per-leg distance() calls) --- #
        coordinates = route.coordinates
        legs = np.concatenate(([distance(first_from, coordinates[nodes[0]])], walk.hops))

        if cycle_start >= 0:
            # The cycle's first leg starts from the walk's last node, not
            # from the prefix node before it.
            cycle = legs[cycle_start:].copy()
            cycle[0] = distance(coordinates[nodes[-1]], coordinates[nodes[cycle_start]])
            cycle_dwells = dwells[cycle_start:]
            # One steady-state lap advances time by its travel plus its
            # dwells; a lap that advances neither is the event loop's
            # spin-in-place pathology.
            lap_advance = float(cycle.sum()) / velocity + float(cycle_dwells.sum())
            if lap_advance <= 0.0:
                raise _Fallback
            prefix_time = self.base + float(legs.sum()) / velocity + float(dwells.sum())
            self.laps = int(max(0.0, sim.config.horizon - prefix_time) / lap_advance) + 2
            if len(nodes) + self.laps * len(cycle) > max_events:
                raise _Fallback
            legs = self.tile(legs, cycle)
            dwells = self.tile(dwells, cycle_dwells)
            codes = self.tile(codes)
            tidx = self.tile(tidx)

        self.codes = codes
        self.tidx = tidx
        self.dists = legs
        inc = np.empty(2 * len(legs), dtype=float)
        inc[0::2] = legs / velocity
        inc[1::2] = dwells
        self.inc = inc
        self.full: "np.ndarray | None" = None
        self.stop: "BatteryStop | None" = None
        battery = mule.battery
        if sim.config.track_energy and battery is not None:
            self.stop = self.battery_stop(battery.remaining, battery.capacity, sim._energy)

    def _draw(self, sim, mule, route: StochasticRoute, first_from: Point, node_code,
              node_index, max_events: int) -> None:
        """Lay out a stochastic route's walk, drawn until the mule's legs are settled.

        Draws come from the route's own ``waypoints()`` on a twin of its
        generator (:func:`_drawn`), and the skip rule (:func:`drawn_walk`)
        is redone over all of them after each chunk.  The walk is settled
        once the skip rule halts the mule, the battery stop falls inside its
        legs with the next node drawn (a collection death without dwell
        still schedules a leg), or the chain's last arrival lies past the
        horizon.  The columns are laid out, and that checked, only when
        :meth:`_shortfall` estimates that the draws suffice; a spare draw
        costs less than a layout.

        A route whose candidates all sit on one point is declined before
        any draw: the event loop names that zero-length lap.  So is a walk
        whose draws would pass ``max_events``.
        """
        if _still_lap(route):
            raise _Fallback
        stream = _drawn(route)
        raw = list(islice(stream, _FIRST_DRAWS))
        while True:
            nodes, halted = drawn_walk(raw)
            more = 0 if halted else self._shortfall(sim, mule, route, nodes, first_from,
                                                    node_code)
            if not more:
                if len(nodes) > max_events:
                    raise _Fallback
                self._lay_out(sim, mule, route,
                              _walk(nodes, -1, _points(route, nodes), node_code, node_index),
                              first_from, max_events)
                self.halts = halted
                stop = self.stop
                if halted or (stop is not None and len(nodes) >= stop.leg - self.init_event + 2) \
                        or self.chain()[-2] > sim.config.horizon:
                    self.full = None
                    return
                more = 8 + len(raw) // 8
            if not len(raw) + more <= max_events:
                raise _Fallback
            raw += islice(stream, more)

    def _shortfall(self, sim, mule, route: StochasticRoute, nodes: "list[str]",
                   first_from: Point, node_code) -> "int | float":
        """About how many more draws a drawn walk needs, with a margin; 0 when it seems done.

        An estimate from the drawn legs' sums, which only sizes the next
        chunk: at the walk's pace so far (seconds per leg) the chain must
        pass the horizon, and at its drain per leg a tracked battery must
        run out, from its last refill on, one node before the walk ends.
        """
        points = _points(route, nodes)
        legs = [distance(first_from, points[0]), *_hops(points)]
        codes = list(map(node_code.get, nodes, repeat(0)))
        count = len(nodes)
        elapsed = sum(legs) / self.velocity + codes.count(1) * sim._params.collection_time
        need = (sim.config.horizon - self.base - elapsed) / elapsed * count \
            if elapsed > 0.0 else math.inf
        battery = mule.battery
        if sim.config.track_energy and battery is not None:
            energy = sim._energy
            move, collect = energy.move_cost_per_meter, energy.collect_cost
            drain = (sum(legs) * move + codes.count(1) * collect) / count
            if 3 in codes:
                after = count - codes[::-1].index(3)
                charge = battery.capacity - sum(legs[after:]) * move \
                    - codes[after:].count(1) * collect
            else:
                charge = battery.remaining - (self.init_dist * move if self.init_event else 0.0) \
                    - drain * count
            if drain > 0.0:
                need = min(need, charge / drain + 2)
        if need <= 0:
            return 0
        return math.inf if need == math.inf else int(need * 1.1) + 8

    @staticmethod
    def walk_of(route: MuleRoute) -> "tuple[list[str], int]":
        """The effective walk of loop route ``route`` as :func:`dedup_walk` returns it."""
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
        estimate tiles at least one full lap past the horizon, and a drawn
        walk is drawn past it, so this is a guard, not a path.  A walk that
        ``halts`` ends on its own and always passes.
        """
        return self.halts or self.full[-2] > horizon

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
    """One mule's :class:`LegPattern`, cut at its battery stop.

    A battery-tracked mule's row ends at its :meth:`~LegPattern.battery_stop`
    (``stop``): the columns keep exactly the patrol legs the mule completes,
    so the cut happens before the cumsum and the tiled arrays are freed.
    ``full`` is filled by :meth:`~LegPattern.chain`.
    """

    __slots__ = ()

    def __init__(self, *args) -> None:
        super().__init__(*args)
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


def _rows(sim) -> "list[_Row]":
    """One :class:`_Row` per mule of ``sim``, in scenario order.

    Routes over one loop share its columns (:func:`_route_walk`) for this
    call.  Raises :class:`_Fallback` when a mule's pattern declines, past
    ``_MAX_EVENTS_PER_MULE`` events among others.
    """
    sync_time = sim._patrol_start_time()
    node_code = node_codes(sim)
    node_index = node_indices(sim)
    loops: "list[_Loop]" = []
    return [
        _Row(sim, mule, sim.plan.route_for(mule.id), sync_time, node_code,
             _MAX_EVENTS_PER_MULE, node_index, loops)
        for mule in sim.scenario.mules
    ]


# --------------------------------------------------------------------------- #
# The engine's event order, from each row's chain of event times
# --------------------------------------------------------------------------- #

def _running_sum(start: float, steps: np.ndarray) -> float:
    """``start`` plus each of ``steps`` in turn: one sequential ``np.cumsum``,
    the float additions of the engine's ``+=``."""
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
    and size (``sizes``), the ``delivered_data`` total, each row's travelled
    ``distances`` and the ``dead`` mules' ids; the result's ``visits``,
    ``deliveries`` and ``traces`` are built here when first read.
    """

    __slots__ = ("kept", "times", "codes", "tidx", "row", "collect", "ct", "cx", "delivered",
                 "flush", "key", "ranked", "ids", "mule_ids", "batteries", "energy", "opened",
                 "sizes", "delivered_data", "distances", "dead")

    def __init__(self, sim, kept: "list[_Kept]") -> None:
        self.kept = kept
        self.ids = [*map(_ID, sim.scenario.targets), sim._sink_id, sim._recharge_id]
        mules = sim.scenario.mules
        self.mule_ids = [*map(_ID, mules)]
        self.batteries = [m.battery is not None for m in mules]
        self.energy = sim._energy
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

    def traces(self) -> "dict[str, MuleTrace]":
        """Each mule's trace, in scenario order, from its kept row."""
        kept = self.kept
        collectors = self.row[self.collect]
        collections = np.bincount(collectors, minlength=len(kept)).tolist()
        deliveries = np.bincount(collectors[self.delivered], minlength=len(kept)).tolist()
        stations = np.bincount(self.row[self.codes == 3], minlength=len(kept)).tolist()
        return {
            mule_id: MuleTrace(
                mule_id, distance_travelled=travelled,
                energy_consumed=_running_sum(0.0, k.drains(self.energy)),
                collections=collected, deliveries=delivered,
                recharges=recharged if battery else 0,
                initialization_time=k.row.init_time if k.init else 0.0,
                death_time=k.row.stop_time() if k.dies else None,
            )
            for k, mule_id, battery, travelled, collected, delivered, recharged in zip(
                kept, self.mule_ids, self.batteries, self.distances, collections, deliveries,
                stations,
            )
        }


# --------------------------------------------------------------------------- #
# One fast result for both fast tiers
# --------------------------------------------------------------------------- #

def fast_result(sim) -> "SimulationResult | str":
    """``sim``'s result, from the kept-event table, or why the fast tiers decline it.

    The reasons are ``"row-fallback"`` when a mule's :class:`LegPattern`
    declines, and ``"lap-estimate"`` or ``"battery-clip"`` from
    :func:`_horizon_cut`.  The result's visit table, delivered total,
    travelled distances, dead mules and metadata are computed here from
    arrays; its ``visits``, ``deliveries`` and ``traces`` are built from the
    table when first read (:class:`_Table`).  Neither the scenario nor the
    plan is touched: a random walk is drawn from a twin of its route's
    generator (:func:`_drawn`).
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

    # What the record reads of the traces: SimulationResult.total_distance
    # and dead_mules answer from these while the traces are unbuilt.
    table.distances = [k.distance() for k in kept]
    table.dead = list(compress(table.mule_ids, [k.dies for k in kept]))
    metadata = dict(sim.plan.metadata)
    metadata.setdefault("patrol_start_time", sim._patrol_start_time())
    result = SimulationResult(sim.plan.strategy, config.horizon, metadata=metadata)
    state = result.__dict__
    del state["visits"], state["deliveries"], state["traces"]  # built from the table on first read
    state.update(_source=table, _visit_table=(int(np.count_nonzero(table.codes)), visit_table))
    return result


# --------------------------------------------------------------------------- #
# The scalar tier
# --------------------------------------------------------------------------- #

def run_fast_path(sim) -> "SimulationResult | str":
    """``sim``'s fast result, or the reason it runs on the event loop instead.

    The reason is :func:`fast_path_rejection`'s static one, else the dynamic
    one :func:`fast_result` returns.
    """
    return fast_path_rejection(sim) or fast_result(sim)
