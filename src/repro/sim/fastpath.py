"""Analytic fast path for deterministic loop-route simulations.

The discrete-event engine in :mod:`repro.sim.engine` spends almost all of its
time on per-event bookkeeping: heap-managed :class:`~repro.sim.events.Event`
objects, payload dicts, per-leg ``distance()`` calls and per-event dataclass
construction.  For the workloads that dominate campaign time — every TCTP
variant, CHB and Sweep — none of that is necessary: each mule follows a
**fixed closed walk** at constant velocity, so its entire arrival-time
sequence is an arithmetic chain over a periodic pattern of leg lengths.

This module exploits that:

1. per mule, a :class:`LegPattern` reduces the effective waypoint sequence
   to a *prefix + cycle* walk (mirroring the engine's consecutive-duplicate
   skip rule), computes its leg lengths once and tiles them past the
   horizon; the full arrival/departure-time chain — travel legs interleaved
   with per-target dwell times — is one ``np.cumsum``, bit-for-bit equal to
   the engine's sequential ``now + dist / velocity`` and ``now + dwell``
   additions.  The batched tier (:mod:`repro.sim.batchpath`) builds its rows
   from the same class;
2. the per-mule streams are merged by a light ``(time, sequence)`` heap that
   replicates the engine's event-queue tie-breaking exactly, so visits,
   collections, dwell completions, mid-leg deaths and sink deliveries
   interleave in the identical global order (packet sizes depend on that
   order: collection windows are shared between mules);
3. per-mule distance/energy accumulators come from cumulative-sum arrays cut
   at the number of applied legs (battery-tracked mules instead replay their
   drain/recharge/death bookkeeping live against the precomputed schedule,
   which battery state never shifts — death only truncates it).

The result is **byte-identical** to the event loop — same visit log, same
deliveries, same traces, same metadata — at a fraction of the cost.  Positive
``collection_time`` dwells, ``max_visits`` cutoffs, energy-tracked batteries
(including mid-leg death and recharge laps) and RW-TCTP's
:class:`~repro.core.plan.AlternatingLoopRoute` are all reproduced exactly.
Runs the fast path cannot reproduce exactly fall back to the event loop:

* stochastic routes (any route class other than
  :class:`~repro.core.plan.LoopRoute` /
  :class:`~repro.core.plan.AlternatingLoopRoute` has no precomputable
  waypoint pattern),
* mules deployed with pre-loaded data buffers (the merged replay assumes
  every buffer starts empty), and
* three dynamic declines: a steady-state lap that advances no time (the event
  loop caps it with ``max_visits`` or a dying battery, and otherwise raises
  ``ValueError`` — it would never end), a pattern past the
  ``_MAX_EVENTS_PER_MULE`` safety valve, and a lap estimate that falls short
  of the horizon (a guard; the estimate tiles a full lap past it).

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

import heapq
import math
import operator
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.core.plan import AlternatingLoopRoute, LoopRoute, MuleRoute
from repro.geometry.point import Point, distance
from repro.network.datamodel import DataPacket
from repro.network.mules import MuleState
from repro.sim.recorder import DeliveryRecord, MuleTrace, SimulationResult, VisitRecord

__all__ = ["fast_path_eligible", "fast_path_rejection", "run_fast_path"]

# Safety valve: beyond this many precomputed arrival events per mule the
# array stage would dominate memory; such runs are no faster analytically,
# so they stay on the event loop.
_MAX_EVENTS_PER_MULE = 4_000_000

# Merge-heap event kinds (the engine's EventKind, reduced to what the replay
# needs; values are only compared for equality, never ordered — the
# (time, counter) prefix of each heap tuple is already a total order).
_ARRIVAL = 0
_INIT = 1
_DWELL_DONE = 2
_DEATH = 3


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
    of :class:`LegPattern` (zero-advance laps, patterns past the event-count
    safety valve, a short lap estimate) still fall back inside
    :func:`run_fast_path`.
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


def run_fast_path(sim) -> "SimulationResult | None":
    """Run ``sim`` analytically; ``None`` means "use the event loop instead"."""
    if not fast_path_eligible(sim):
        return None
    try:
        return _run(sim)
    except _Fallback:
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
    """

    leg: int
    kind: str
    reachable: float


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
    bitwise no-op for the non-negative partial sums).  The scalar tier takes
    that sum with :meth:`chain`; the batched tier stacks many patterns of
    one width into a single ``np.cumsum(axis=1)`` and stores each row in
    ``full``.  A battery-tracked mule's scalar stream replays its battery
    live; the batched tier cuts its legs at :meth:`battery_stop` instead.

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
        "velocity", "_distance_prefix",
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
        self._distance_prefix: "np.ndarray | None" = None

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

    def distance_prefix(self) -> np.ndarray:
        """Travelled distance after each applied leg, the initial leg first.

        The engine's leg-by-leg running sum, memoised.  The initial leg sits
        inside the cumsum: prepending it changes every partial sum's
        rounding, so it cannot be added afterwards.  Patterns are shared
        across threads; racing callers compute identical arrays.
        """
        if self._distance_prefix is None:
            dists = self.dists
            if self.init_event:
                dists = np.concatenate(([self.init_dist], dists))
            self._distance_prefix = np.cumsum(dists)
        return self._distance_prefix

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
        dists = self.dists
        codes = self.codes
        if self.init_event:  # the initial leg moves, but visits nothing
            dists = np.concatenate(([self.init_dist], dists))
            codes = np.concatenate((np.zeros(1, dtype=codes.dtype), codes))
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
                if short[j]:
                    return BatteryStop(start + j, "move", float(before[j]) / move_cost)
                return BatteryStop(start + j, "clip" if clipped[j] else "collect", 0.0)
            start, level = end, capacity
        return None


# --------------------------------------------------------------------------- #
# Per-mule replay state
# --------------------------------------------------------------------------- #

class _Stream:
    """One mule's replay state over its :class:`LegPattern`."""

    __slots__ = (
        "mule", "mule_id", "trace", "coords", "init_event", "init_time",
        "init_dist", "times", "departs", "nodes", "codes", "dists", "n_events",
        "dist_cum", "energy_cum", "applied", "collections", "deliveries",
        "packets", "start_point", "tracked", "dead", "position", "velocity",
        "move_cost", "pending_death", "energy",
    )

    def __init__(self, sim, mule, route: MuleRoute, sync_time: float, node_code) -> None:
        cfg = sim.config
        energy = sim._energy
        pattern = LegPattern(sim, mule, route, sync_time, node_code, _MAX_EVENTS_PER_MULE)
        full = pattern.chain()
        if not pattern.reaches(cfg.horizon):
            raise _Fallback

        self.mule = mule
        self.mule_id = mule.id
        self.trace = MuleTrace(mule_id=mule.id)
        self.coords = route.coordinates
        self.applied = 0
        self.collections = 0
        self.deliveries = 0
        self.packets: list = []
        self.tracked = cfg.track_energy and mule.battery is not None
        self.dead = False
        self.position = mule.position
        self.velocity = mule.velocity
        self.move_cost = energy.move_cost_per_meter
        self.energy = energy
        self.pending_death: "tuple[float, Point] | None" = None

        self.init_event = pattern.init_event
        self.init_time = pattern.init_time
        self.init_dist = pattern.init_dist
        self.start_point = pattern.start_point
        if route.start_position() is not None and not pattern.init_event:
            self.trace.initialization_time = 0.0  # already standing on it

        self.times = full[1::2].tolist()    # arrival of leg k
        self.departs = full[0::2].tolist()  # departure before leg k (len n+1)
        self.nodes = pattern.tile(pattern.walk)
        self.codes = pattern.codes.tolist()
        self.dists = pattern.dists.tolist()
        self.n_events = len(self.nodes)

        # -- per-applied-leg accumulators ---------------------------------- #
        # The engine adds movement energy on leg completion and the collect
        # cost on target arrivals as *separate* additions; interleaving the
        # increments before one cumulative sum reproduces the identical
        # sequence of float operations (adding 0.0 where no collection
        # happens is a bitwise no-op for the non-negative partial sums).
        # Battery-tracked mules skip the bulk arrays: their drains clip
        # against live battery charge, so the merge replays them one by one.
        if not self.tracked:
            self.dist_cum = pattern.distance_prefix()
            dists_applied = pattern.dists
            collect_flags = pattern.codes == 1
            if self.init_event:
                dists_applied = np.concatenate(([self.init_dist], dists_applied))
                collect_flags = np.concatenate(([False], collect_flags))
            increments = np.empty(2 * len(dists_applied), dtype=float)
            increments[0::2] = dists_applied * energy.move_cost_per_meter
            increments[1::2] = np.where(collect_flags, energy.collect_cost, 0.0)
            self.energy_cum = np.cumsum(increments)[1::2]
        else:
            self.dist_cum = None
            self.energy_cum = None

    # ------------------------------------------------------------------ #
    # Live battery bookkeeping (battery-tracked streams only)
    # ------------------------------------------------------------------ #

    def finish_leg(self, destination: Point, dist: float) -> None:
        """The engine's ``_finish_leg`` for a tracked mule: move + drain."""
        mule = self.mule
        self.position = destination
        mule.position = destination
        self.trace.distance_travelled += dist
        drained = mule.battery.drain(self.energy.movement_energy(dist))
        self.trace.energy_consumed += drained
        mule.state = MuleState.MOVING

    def kill(self, now: float) -> None:
        """The engine's ``_kill_mule``: strand the mule mid-leg."""
        reachable, destination = self.pending_death
        final_position = self.position.towards(destination, reachable)
        self.position = final_position
        mule = self.mule
        mule.position = final_position
        self.trace.distance_travelled += reachable
        self.trace.energy_consumed += mule.battery.drain(mule.battery.remaining)
        self.dead = True
        self.trace.death_time = now
        mule.state = MuleState.DEAD


# --------------------------------------------------------------------------- #
# The merged replay
# --------------------------------------------------------------------------- #

def _run(sim) -> SimulationResult:
    cfg = sim.config
    scenario = sim.scenario
    plan = sim.plan
    horizon = cfg.horizon
    max_visits = cfg.max_visits
    has_dwell = sim._params.collection_time > 0.0
    collect_cost = sim._energy.collect_cost

    result = SimulationResult(
        strategy=plan.strategy, horizon=horizon, metadata=dict(plan.metadata)
    )
    sync_time = sim._patrol_start_time()
    result.metadata.setdefault("patrol_start_time", sync_time)
    node_code = node_codes(sim)

    heap: list[tuple] = []
    counter = 0

    def push_leg(stream: _Stream, k: int, depart: float) -> None:
        """The engine's ``_schedule_move`` for leg ``k`` departing at ``depart``.

        Pushes the arrival — or, for a tracked mule whose battery cannot
        cover the leg, the mid-leg ENERGY_DEPLETED event — consuming exactly
        one sequence number either way.  No push when the (halted, acyclic)
        stream is exhausted, matching the engine's waypoint iterator
        returning ``None``.
        """
        nonlocal counter
        if k >= stream.n_events:
            return
        if stream.tracked and stream.move_cost > 0:
            dist = stream.dists[k]
            reachable = stream.mule.battery.remaining / stream.move_cost
            if reachable + 1e-9 < dist:
                velocity = stream.velocity
                death_time = depart + (reachable / velocity if velocity > 0 else 0.0)
                stream.pending_death = (reachable, stream.coords[stream.nodes[k]])
                heapq.heappush(heap, (death_time, counter, stream, _DEATH, k))
                counter += 1
                return
        heapq.heappush(heap, (stream.times[k], counter, stream, _ARRIVAL, k))
        counter += 1

    streams: list[_Stream] = []
    for mule in scenario.mules:
        stream = _Stream(sim, mule, plan.route_for(mule.id), sync_time, node_code)
        result.traces[mule.id] = stream.trace
        streams.append(stream)
        # Initial pushes replicate the engine's scheduling order (and thus
        # its tie-breaking sequence numbers) exactly: one event per mule, in
        # scenario order.
        if stream.init_event:
            if stream.tracked and stream.move_cost > 0:
                reachable = mule.battery.remaining / stream.move_cost
                if reachable + 1e-9 < stream.init_dist:
                    velocity = stream.velocity
                    death_time = reachable / velocity if velocity > 0 else 0.0
                    stream.pending_death = (reachable, stream.start_point)
                    heap.append((death_time, counter, stream, _DEATH, -1))
                    counter += 1
                    continue
            heap.append((stream.init_time, counter, stream, _INIT, -1))
            counter += 1
        else:
            push_leg(stream, 0, stream.departs[0])
    heapq.heapify(heap)  # pop order is the unique (time, counter) total order

    # Shared collection state (windows are global per target, so the merged
    # order across mules decides every packet size — exactly as the engine's
    # DataCollectionModel does).
    last_collected: dict[str, float] = {t.id: 0.0 for t in scenario.targets}
    rates: dict[str, float] = {t.id: t.data_rate for t in scenario.targets}

    visits_raw: list[tuple] = []
    deliveries: list[tuple] = []
    visits_recorded = 0

    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        now, _seq, stream, kind, k = pop(heap)
        if now > horizon:
            break
        if stream.dead:
            continue  # discard events of a mule that died at a collect
        if kind == _INIT:  # INITIALIZED: apply the leg, wait for the slowest mule
            stream.applied += 1
            if stream.tracked:
                stream.finish_leg(stream.start_point, stream.init_dist)
            stream.trace.initialization_time = now
            push_leg(stream, 0, max(now, sync_time))
            continue
        if kind == _DEATH:  # ENERGY_DEPLETED: strand mid-leg, no further events
            stream.kill(now)
            continue
        if kind == _DWELL_DONE:  # COLLECTION_DONE: resume patrolling
            push_leg(stream, k + 1, stream.departs[k + 1])
            continue
        # ARRIVAL
        stream.applied += 1
        node = stream.nodes[k]
        code = stream.codes[k]
        mule_id = stream.mule_id
        if stream.tracked:
            stream.finish_leg(stream.coords[node], stream.dists[k])
        if code == 1:  # plain target: visit + collect the backlog
            visits_raw.append((now, node, mule_id, True))
            visits_recorded += 1
            last = last_collected[node]
            # now >= last always (pops are time-ordered), so the engine's
            # max(now - last, 0.0) reduces to the plain difference.
            stream.packets.append((node, last, now, (now - last) * rates[node]))
            last_collected[node] = now
            stream.collections += 1
            if stream.tracked:
                battery = stream.mule.battery
                drained = battery.drain(collect_cost)
                stream.trace.energy_consumed += drained
                if battery.depleted:
                    stream.dead = True
                    stream.trace.death_time = now
                    stream.mule.state = MuleState.DEAD
        elif code == 2:  # sink: visit + flush the on-board buffer
            visits_raw.append((now, node, mule_id, True))
            visits_recorded += 1
            if stream.packets:
                for packet in stream.packets:
                    deliveries.append((now, mule_id) + packet)
                stream.deliveries += len(stream.packets)
                stream.packets = []
        elif code == 3:  # recharge station: non-target visit (+ refill)
            visits_raw.append((now, node, mule_id, False))
            if stream.mule.battery is not None:
                stream.mule.recharge_full()
                stream.trace.recharges += 1
        if max_visits is not None and visits_recorded >= max_visits:
            break
        # The engine pushes the dwell/next-leg event even for a mule that
        # just died collecting (the event is discarded dead on pop), so the
        # sequence counter advances identically here.
        if has_dwell and code == 1:
            push(heap, (stream.departs[k + 1], counter, stream, _DWELL_DONE, k))
            counter += 1
        else:
            push_leg(stream, k + 1, stream.departs[k + 1])

    # ----------------------------------------------------------------- #
    # Materialise records and final mule/trace state in bulk
    # ----------------------------------------------------------------- #
    result.visits = [VisitRecord(t, n, m, f) for t, n, m, f in visits_raw]
    # DeliveryRecord(delivered_at, mule_id, target_id, generated_from,
    #                generated_to, collected_at, size); generated_to and
    # collected_at are the same instant, as in DataCollectionModel.collect.
    result.deliveries = [
        DeliveryRecord(delivered_at, mule_id, target_id, generated_from,
                       collected_at, collected_at, size)
        for delivered_at, mule_id, target_id, generated_from, collected_at, size
        in deliveries
    ]

    for stream in streams:
        trace = stream.trace
        applied = stream.applied
        mule = stream.mule
        if stream.tracked:
            pass  # distance/energy/position/state were replayed live
        elif applied:
            trace.distance_travelled = float(stream.dist_cum[applied - 1])
            trace.energy_consumed = float(stream.energy_cum[applied - 1])
            mule.state = MuleState.MOVING
            arrivals = applied - 1 if stream.init_event else applied
            if arrivals:
                mule.position = stream.coords[stream.nodes[arrivals - 1]]
            elif stream.start_point is not None:
                mule.position = stream.start_point
        trace.collections = stream.collections
        trace.deliveries = stream.deliveries
        if stream.packets:  # backlog still on board when the horizon hit
            mule.buffer.extend(
                DataPacket(
                    target_id=target_id,
                    generated_from=generated_from,
                    generated_to=collected_at,
                    collected_at=collected_at,
                    size=size,
                )
                for target_id, generated_from, collected_at, size in stream.packets
            )
    return result
