"""The discrete-event patrolling simulator.

Given a :class:`~repro.network.scenario.Scenario` and a
:class:`~repro.core.plan.PatrolPlan`, the engine plays out the plan for a
configurable time horizon:

* mules first drive to their start position if the plan performed location
  initialisation, then follow their waypoint iterator forever;
* every arrival at a target collects the accumulated data (costing
  ``c_s`` joules) and is recorded as a visit;
* arrivals at the sink deliver the on-board buffer; arrivals at the recharge
  station refill the battery;
* movement costs ``c_m`` joules per metre; a mule whose battery empties
  mid-leg dies on the spot (the failure RW-TCTP avoids).

Mules do not interact, so the simulation is deterministic given the plan (the
Random baseline's randomness lives inside its route object, which is seeded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.plan import MuleRoute, PatrolPlan, StochasticRoute
from repro.geometry.point import Point, distance
from repro.network.datamodel import DataCollectionModel
from repro.network.mules import DataMule, MuleState
from repro.network.scenario import Scenario
from repro.obs.registry import inc as _obs_inc, obs_enabled as _obs_enabled
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.recorder import DeliveryRecord, MuleTrace, SimulationResult, VisitRecord

__all__ = ["SimulationConfig", "PatrolSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level knobs of the simulator.

    Attributes
    ----------
    horizon:
        Simulated seconds; events past the horizon are not executed.
    max_visits:
        Optional safety valve: stop after this many recorded target visits.
    track_energy:
        When ``False`` batteries are ignored even if mules carry one
        (used by the B-TCTP / W-TCTP experiments, which do not model energy).
    synchronized_start:
        When the plan performed location initialisation, hold every mule at
        its start point until the slowest mule has reached its own, then let
        all of them start patrolling simultaneously.  This is the behaviour
        the paper assumes ("all DMs initially move to the appreciate locations
        and then patrol the targets"): only with a common start instant are
        consecutive mules separated by exactly ``|P| / n`` of path, which is
        what drives TCTP's zero visiting-interval variance.
    fast_path:
        Allow the analytic loop-route fast path (:mod:`repro.sim.fastpath`)
        for runs it can reproduce exactly.  Results are byte-identical either
        way; disable to force the discrete-event loop (used by equivalence
        tests and benchmarks).
    batch_path:
        Allow the campaign-level batched fast path
        (:mod:`repro.sim.batchpath`), which answers a fastpath-eligible cell
        from the cached metric columns of its key, reducing the fast path's
        result to them on a miss without building its visit and delivery
        lists or the final mule state.  Results are byte-identical either way; disable to force per-cell dispatch for
        this spec (the process-wide switch is ``REPRO_BATCHPATH`` in
        :mod:`repro.switches`).  Consulted by
        :func:`repro.sim.batchpath.batch_execute_records`, which every
        campaign cell and :func:`repro.runner.campaign.execute_run` call
        goes through; a bare :meth:`PatrolSimulator.run` ignores it.
    obs:
        Turn on the instrumentation registry (:mod:`repro.obs`) for the
        campaign this spec belongs to, as if ``REPRO_OBS=1`` were set for
        its duration; the campaign's metadata then gains the ``obs`` block
        and the plan/sim ``timing`` split.  Recording is proven
        byte-invisible — records and fingerprints are identical either
        way — so like the dispatch switches this knob is exempt from run
        fingerprints.  Has no effect on single runs — only
        :meth:`repro.runner.campaign.Campaign.run` consults it.
    """

    horizon: float = 50_000.0
    max_visits: int | None = None
    track_energy: bool = True
    synchronized_start: bool = True
    fast_path: bool = True
    batch_path: bool = True
    obs: bool = False

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("simulation horizon must be positive")
        if self.max_visits is not None and self.max_visits <= 0:
            raise ValueError("max_visits must be positive when given")


class _MuleRuntime:
    """Mutable per-mule simulation state."""

    __slots__ = ("mule", "route", "waypoints", "position", "current_node", "trace", "dead",
                 "arrivals")

    def __init__(self, mule: DataMule, route: MuleRoute) -> None:
        self.mule = mule
        self.route = route
        self.waypoints: Iterator[str] = route.waypoints()
        self.position: Point = mule.position
        self.current_node: str | None = None
        self.trace = MuleTrace(mule_id=mule.id)
        self.dead = False
        self.arrivals = 0  # waypoints reached so far: the mule's place on its walk


class PatrolSimulator:
    """Plays a patrol plan against a scenario and records what happened."""

    def __init__(self, scenario: Scenario, plan: PatrolPlan, config: SimulationConfig | None = None) -> None:
        self.scenario = scenario
        self.plan = plan
        self.config = config or SimulationConfig()
        missing = [m.id for m in scenario.mules if m.id not in plan.routes]
        if missing:
            raise ValueError(f"plan has no route for mules: {missing}")
        self._target_ids = {t.id for t in scenario.targets}
        self._sink_id = scenario.sink.id
        self._recharge_id = scenario.recharge_station.id if scenario.recharge_station else None
        self._params = scenario.params
        self._energy = scenario.params.energy_model

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return the recorded result.

        Deterministic loop-route runs (all TCTP variants including RW-TCTP's
        alternating recharge schedule, CHB, Sweep — with or without tracked
        batteries, dwell times and visit limits) are served by the analytic
        fast path in :mod:`repro.sim.fastpath`: it builds the batched tier's
        rows and its one result from those arrays, whose visit and delivery
        lists are built on first read, and leaves the final mule state, byte
        for byte the event loop's.  Everything else — stochastic routes, pre-loaded
        buffers, degenerate zero-advance laps, a tracked battery that ends in
        the engine's 1e-9 m clip window — runs the full discrete-event loop
        below.

        Raises
        ------
        ValueError
            If a mule's lap advances no time and nothing would stop it — no
            ``max_visits`` cap and no tracked battery that the lap's
            collections empty before a recharge on the lap refills it — so
            the run would never end.
        """
        if self.config.fast_path:
            from repro.sim.fastpath import run_fast_path

            result = run_fast_path(self)
            if result is not None:
                _obs_inc("sim_dispatch", outcome="fastpath")
                return result
            if _obs_enabled():
                from repro.sim.fastpath import fast_path_rejection

                # A None result with no static rejection means a dynamic
                # fallback fired mid-flight (zero-advance lap, event-cap
                # overflow, short lap estimate, battery clip) — the static
                # probe can't see those.
                reason = fast_path_rejection(self) or "dynamic-fallback"
                _obs_inc("sim_dispatch", outcome="event-loop", reason=reason)
        else:
            _obs_inc("sim_dispatch", outcome="event-loop",
                     reason="fast-path-disabled")
        return self._run_event_loop()

    def _run_event_loop(self) -> SimulationResult:
        """The reference discrete-event implementation."""
        cfg = self.config
        result = SimulationResult(strategy=self.plan.strategy, horizon=cfg.horizon,
                                  metadata=dict(self.plan.metadata))
        collection = DataCollectionModel(self.scenario.data_rates())
        queue = EventQueue()
        runtimes: dict[str, _MuleRuntime] = {}

        sync_time = self._patrol_start_time()
        result.metadata.setdefault("patrol_start_time", sync_time)

        for mule in self.scenario.mules:
            runtime = _MuleRuntime(mule, self.plan.route_for(mule.id))
            runtimes[mule.id] = runtime
            result.traces[mule.id] = runtime.trace
            self._schedule_initial_leg(runtime, queue, sync_time)

        visits_recorded = 0
        while queue:
            event = queue.pop()
            if event.time > cfg.horizon:
                break
            runtime = runtimes[event.mule_id]
            if runtime.dead:
                continue
            if event.kind is EventKind.INITIALIZED:
                self._finish_leg(runtime, event)
                runtime.trace.initialization_time = event.time
                # Wait for the slowest mule before the patrol proper begins.
                self._schedule_next_leg(runtime, max(event.time, sync_time), queue)
            elif event.kind is EventKind.ARRIVAL:
                runtime.arrivals += 1
                self._finish_leg(runtime, event)
                recorded = self._handle_arrival(runtime, event, collection, result)
                visits_recorded += int(recorded)
                if cfg.max_visits is not None and visits_recorded >= cfg.max_visits:
                    break
                if event.time == event.payload["departed"] and cfg.max_visits is None \
                        and self._spins(runtime):
                    spinning = [mid for mid, r in runtimes.items()
                                if r.current_node is not None and self._spins(r)]
                    raise ValueError(
                        f"zero-length lap: mules {spinning} keep revisiting one point at "
                        f"t = {event.time!r} without advancing time, so the simulation "
                        "would never end (max_visits caps such a run)"
                    )
                dwell = self._params.collection_time if event.node_id in self._target_ids else 0.0
                if dwell > 0.0:
                    queue.push(event.time + dwell, EventKind.COLLECTION_DONE,
                               mule_id=runtime.mule.id, node_id=event.node_id)
                else:
                    self._schedule_next_leg(runtime, event.time, queue)
            elif event.kind is EventKind.COLLECTION_DONE:
                self._schedule_next_leg(runtime, event.time, queue)
            elif event.kind is EventKind.ENERGY_DEPLETED:
                self._kill_mule(runtime, event)
            # STOP events are not generated currently; the horizon check handles termination.

        return result

    # ------------------------------------------------------------------ #
    # Leg scheduling
    # ------------------------------------------------------------------ #
    def _patrol_start_time(self) -> float:
        """When the patrol proper begins, on every tier: 0 without ``synchronized_start``."""
        return self._synchronized_start_time() if self.config.synchronized_start else 0.0

    def _synchronized_start_time(self) -> float:
        """Time at which the slowest mule reaches its start position (0 when no initialisation)."""
        times = []
        for mule in self.scenario.mules:
            start = self.plan.route_for(mule.id).start_position()
            if start is not None:
                times.append(distance(mule.position, start) / mule.velocity)
        return max(times) if times else 0.0

    def _spins(self, runtime: _MuleRuntime) -> bool:
        """Whether this mule, once on its walk, revisits one point forever.

        True exactly when every node its route will ever yield sits on one
        point (each leg takes no time, and the walk never halts under the
        duplicate-skip rule), no collection dwell advances time, and no
        tracked battery runs out on the lap's collections.  The event loop
        would then spin at one instant; it checks this on arrivals that took
        no time.
        """
        lap = _still_lap(runtime.route)
        if runtime.dead or not lap:
            return False
        if lap.isdisjoint(self._target_ids):
            return True  # nothing collected: no dwell, no drain
        if self._params.collection_time > 0.0:
            return False
        if not self.config.track_energy or runtime.mule.battery is None:
            return True
        return not self._runs_dry(runtime)

    def _runs_dry(self, runtime: _MuleRuntime) -> bool:
        """Whether a still lap's collections ever empty the mule's tracked battery.

        Without the recharge station on the lap, any collection cost does,
        and so does an already empty battery.  A loop route through the
        station refills on every lap, so the battery replays forward from
        the mule's place on its walk: after a refill inside the cycle the
        charge repeats every lap, so one lap past that refill decides.  A
        stochastic route's draws have no lap; any drain counts there.
        """
        from repro.sim.fastpath import LegPattern

        battery = runtime.mule.battery
        cost = self._energy.collect_cost
        cycle: list[str] = []
        if type(runtime.route) is not StochasticRoute:
            walk, cycle_start = LegPattern.walk_of(runtime.route)
            cycle = walk[cycle_start:]
        if self._recharge_id not in cycle:
            return cost > 0 or battery.depleted
        battery = battery.copy()
        index, end = runtime.arrivals, None
        while end is None or index <= end:
            node = walk[index] if index < len(walk) else cycle[(index - len(walk)) % len(cycle)]
            if node == self._recharge_id:
                battery.refill()
                if end is None and index >= cycle_start:
                    end = index + len(cycle)
            elif node in self._target_ids:
                battery.drain(cost)
                if battery.depleted:
                    return True
            index += 1
        return False

    def _schedule_initial_leg(self, runtime: _MuleRuntime, queue: EventQueue, sync_time: float = 0.0) -> None:
        start = runtime.route.start_position()
        if start is not None and distance(runtime.position, start) > 1e-12:
            self._schedule_move(runtime, 0.0, start, EventKind.INITIALIZED, None, queue)
        elif start is not None:
            # Already standing on the start position: just wait for the others.
            runtime.trace.initialization_time = 0.0
            self._schedule_next_leg(runtime, sync_time, queue)
        else:
            self._schedule_next_leg(runtime, 0.0, queue)

    def _schedule_next_leg(self, runtime: _MuleRuntime, now: float, queue: EventQueue) -> None:
        node = self._next_distinct_waypoint(runtime)
        if node is None:
            return
        destination = runtime.route.point_of(node)
        self._schedule_move(runtime, now, destination, EventKind.ARRIVAL, node, queue)

    def _next_distinct_waypoint(self, runtime: _MuleRuntime) -> str | None:
        """Next waypoint different from the node the mule is standing on."""
        for _ in range(8):  # a patrol loop with >8 consecutive repeats of one node is malformed
            node = next(runtime.waypoints)
            if node != runtime.current_node or distance(
                runtime.position, runtime.route.point_of(node)
            ) > 1e-9:
                return node
        return None

    def _schedule_move(
        self,
        runtime: _MuleRuntime,
        now: float,
        destination: Point,
        kind: EventKind,
        node_id: str | None,
        queue: EventQueue,
    ) -> None:
        mule = runtime.mule
        dist = distance(runtime.position, destination)
        travel_time = dist / mule.velocity if dist > 0 else 0.0

        if self.config.track_energy and mule.battery is not None and self._energy.move_cost_per_meter > 0:
            reachable = mule.battery.remaining / self._energy.move_cost_per_meter
            if reachable + 1e-9 < dist:
                # The battery dies mid-leg.
                death_time = now + (reachable / mule.velocity if mule.velocity > 0 else 0.0)
                queue.push(death_time, EventKind.ENERGY_DEPLETED, mule_id=mule.id,
                           node_id=node_id, payload={"destination": destination, "reachable": reachable})
                return
        queue.push(now + travel_time, kind, mule_id=mule.id, node_id=node_id,
                   payload={"destination": destination, "distance": dist, "departed": now})

    def _finish_leg(self, runtime: _MuleRuntime, event: Event) -> None:
        """Apply the movement of the leg that just completed."""
        payload = event.payload or {}
        destination: Point = payload.get("destination", runtime.position)
        dist: float = payload.get("distance", distance(runtime.position, destination))
        mule = runtime.mule
        runtime.position = destination
        mule.position = destination
        runtime.trace.distance_travelled += dist
        if self.config.track_energy and mule.battery is not None:
            cost = self._energy.movement_energy(dist)
            drained = mule.battery.drain(cost)
            runtime.trace.energy_consumed += drained
        else:
            runtime.trace.energy_consumed += self._energy.movement_energy(dist)
        if event.node_id is not None:
            runtime.current_node = event.node_id
        mule.state = MuleState.MOVING

    def _kill_mule(self, runtime: _MuleRuntime, event: Event) -> None:
        payload = event.payload or {}
        reachable = payload.get("reachable", 0.0)
        destination = payload.get("destination", runtime.position)
        final_position = runtime.position.towards(destination, reachable)
        runtime.position = final_position
        runtime.mule.position = final_position
        runtime.trace.distance_travelled += reachable
        if runtime.mule.battery is not None:
            runtime.trace.energy_consumed += runtime.mule.battery.drain(
                runtime.mule.battery.remaining
            )
        runtime.dead = True
        runtime.trace.death_time = event.time
        runtime.mule.state = MuleState.DEAD

    # ------------------------------------------------------------------ #
    # Arrival handling
    # ------------------------------------------------------------------ #
    def _handle_arrival(
        self,
        runtime: _MuleRuntime,
        event: Event,
        collection: DataCollectionModel,
        result: SimulationResult,
    ) -> bool:
        """Process a waypoint arrival; returns True when a target visit was recorded."""
        node = event.node_id
        mule = runtime.mule
        now = event.time
        recorded = False

        is_plain_target = node in self._target_ids
        is_sink = node == self._sink_id
        is_recharge = self._recharge_id is not None and node == self._recharge_id

        if is_plain_target or is_sink:
            # Section 2.1 treats the sink as a target point, so its visits count too.
            result.visits.append(VisitRecord(time=now, node_id=node, mule_id=mule.id, is_target=True))
            recorded = True
        elif is_recharge:
            result.visits.append(VisitRecord(time=now, node_id=node, mule_id=mule.id, is_target=False))

        if is_plain_target:
            packet = collection.collect(node, now)
            mule.buffer.add(packet)
            runtime.trace.collections += 1
            if self.config.track_energy and mule.battery is not None:
                drained = mule.battery.drain(self._energy.collect_cost)
                runtime.trace.energy_consumed += drained
                if mule.battery.depleted:
                    runtime.dead = True
                    runtime.trace.death_time = now
                    mule.state = MuleState.DEAD
            else:
                runtime.trace.energy_consumed += self._energy.collect_cost

        if is_sink:
            for packet in mule.buffer.flush():
                result.deliveries.append(
                    DeliveryRecord(
                        delivered_at=now,
                        mule_id=mule.id,
                        target_id=packet.target_id,
                        generated_from=packet.generated_from,
                        generated_to=packet.generated_to,
                        collected_at=packet.collected_at,
                        size=packet.size,
                    )
                )
                runtime.trace.deliveries += 1

        if is_recharge and mule.battery is not None:
            mule.recharge_full()
            runtime.trace.recharges += 1

        return recorded


def _still_lap(route: MuleRoute) -> set[str]:
    """The nodes ``route`` visits forever when they all sit on one point, else none.

    Known for the loop routes (their effective walk; none when it halts)
    and for the Random baseline's route (its candidates, when it never
    repeats one); any other route class reads as moving on.
    """
    from repro.sim.fastpath import LegPattern, _Fallback

    nodes: set[str] = set()
    if type(route) is StochasticRoute:
        if route.avoid_repeat:
            nodes = set(route.candidates)
    else:
        try:
            walk, cycle_start = LegPattern.walk_of(route)
        except _Fallback:
            return nodes
        if cycle_start >= 0:
            nodes = set(walk)
    points = {route.point_of(n) for n in nodes}
    return nodes if len(nodes) > 1 and len(points) == 1 else set()
