"""Equivalence tests for the analytic fast-path simulator.

The fast path must be an *invisible* optimisation: for every eligible run it
has to reproduce the discrete-event loop byte for byte — visits, deliveries,
traces and metadata — and for every ineligible run it must get out of the
way.  Neither tier may change the scenario or the plan it runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from repro.baselines.base import get_strategy
from repro.core.plan import LoopRoute, MuleRoute, PatrolPlan, StochasticRoute
from repro.energy.battery import Battery
from repro.energy.model import EnergyModel
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import LegPattern, fast_path_rejection, lap_columns, run_fast_path

FAST = SimulationConfig(horizon=15_000.0, track_energy=False)
SLOW = dataclasses.replace(FAST, fast_path=False)


def _run_both(strategy: str, scenario_spec: ScenarioSpec, seed: int, *,
              fast_cfg: SimulationConfig = FAST, slow_cfg: SimulationConfig = SLOW,
              **params):
    """One strategy on one scenario through both engines, on separate scenario copies."""
    results = []
    for cfg in (fast_cfg, slow_cfg):
        scenario = scenario_spec.build(seed)
        plan = get_strategy(strategy, **params).plan(scenario)
        results.append((PatrolSimulator(scenario, plan, cfg).run(), scenario))
    return results


EQUIVALENCE_CASES = [
    ("b-tctp", ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3}), {}),
    ("b-tctp", ScenarioSpec("figure1", {}), {}),
    ("b-tctp", ScenarioSpec("grid", {}), {}),
    ("chb", ScenarioSpec("uniform", {"num_targets": 14, "num_mules": 4}), {}),
    ("sweep", ScenarioSpec("clustered", {"num_targets": 15, "num_mules": 4}), {}),
    ("w-tctp", ScenarioSpec("ring", {"num_targets": 14, "num_mules": 3, "num_vips": 2}), {}),
    ("w-tctp", ScenarioSpec("single-vip", {}), {"policy": "shortest"}),
]


class TestByteIdenticalResults:
    @pytest.mark.parametrize("strategy,scenario_spec,params", EQUIVALENCE_CASES,
                             ids=[f"{s}-{spec.family}" for s, spec, _ in EQUIVALENCE_CASES])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_full_result_equality(self, strategy, scenario_spec, params, seed):
        (fast, scen_fast), (slow, scen_slow) = _run_both(
            strategy, scenario_spec, seed, **params
        )
        assert fast == slow
        assert len(fast.visits) > 0

    @pytest.mark.parametrize("strategy,scenario_spec,params", EQUIVALENCE_CASES[:3],
                             ids=[f"{s}-{spec.family}" for s, spec, _ in EQUIVALENCE_CASES[:3]])
    def test_both_tiers_leave_the_mules_as_deployed(self, strategy, scenario_spec, params):
        for cfg in (FAST, SLOW):
            scenario = scenario_spec.build(1)
            plan = get_strategy(strategy, **params).plan(scenario)
            before = mule_state(scenario)
            assert PatrolSimulator(scenario, plan, cfg).run().visits
            assert mule_state(scenario) == before

    def test_unsynchronized_start_equivalence(self):
        cfg_fast = dataclasses.replace(FAST, synchronized_start=False)
        cfg_slow = dataclasses.replace(SLOW, synchronized_start=False)
        (fast, _), (slow, _) = _run_both(
            "b-tctp", ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 3}), 2,
            fast_cfg=cfg_fast, slow_cfg=cfg_slow,
        )
        assert fast == slow

    def test_horizon_cut_equivalence(self):
        # A short horizon cuts mid-initialisation for some mules.
        for horizon in (120.0, 500.0, 2_000.0):
            cfg_fast = dataclasses.replace(FAST, horizon=horizon)
            cfg_slow = dataclasses.replace(SLOW, horizon=horizon)
            (fast, _), (slow, _) = _run_both(
                "b-tctp", ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3}), 0,
                fast_cfg=cfg_fast, slow_cfg=cfg_slow,
            )
            assert fast == slow, f"divergence at horizon={horizon}"

    def test_halting_single_node_loop(self):
        """A one-node loop halts the mule after a single visit in both engines."""
        scenario = ScenarioSpec("uniform", {"num_targets": 3, "num_mules": 1}).build(0)
        target = scenario.targets[0]
        coords = {target.id: target.position}
        for cfg in (FAST, SLOW):
            scen = scenario.fresh_copy()
            routes = {
                m.id: LoopRoute(m.id, [target.id], coords) for m in scen.mules
            }
            plan = PatrolPlan(strategy="degenerate", routes=routes)
            result = PatrolSimulator(scen, plan, cfg).run()
            assert len(result.visits) == 1
            assert result.visits[0].node_id == target.id


def replayed_stop(charge, capacity, energy, dists, codes):
    """The engine's battery bookkeeping, leg by leg: the reference for ``battery_stop``.

    The last field is the charge the stop finds: at the fatal departure, or
    before the fatal collection.
    """
    battery = Battery(capacity, remaining=charge)
    move_cost = energy.move_cost_per_meter
    for leg, (dist, code) in enumerate(zip(dists, codes)):
        if move_cost > 0 and battery.remaining / move_cost + 1e-9 < dist:
            return leg, "move", battery.remaining / move_cost, battery.remaining
        if energy.movement_energy(dist) > battery.remaining:
            return leg, "clip", 0.0, battery.remaining
        battery.drain(energy.movement_energy(dist))
        if code == 1:
            before = battery.remaining
            battery.drain(energy.collect_cost)
            if battery.depleted:
                return leg, "collect", 0.0, before
        elif code == 3:
            battery.refill()
    return None


class TestBatteryStop:
    def test_running_sum_matches_the_sequential_replay(self):
        # Random walks tiled like LegPattern tiles them (the cycle's first leg
        # differs in the copies), with zero-length legs, zero costs, empty
        # and full batteries; the replay scans every tiled leg, so the
        # one-lap-past-a-refill shortcut is checked as well.
        rng = random.Random(20261017)
        for _ in range(2000):
            size = rng.randint(1, 12)
            cycle_start = rng.randint(-1, size - 1)
            laps = rng.randint(0, 6) if cycle_start >= 0 else 0
            walk_dists = [rng.choice([0.0, rng.uniform(0.0, 40.0)]) for _ in range(size)]
            walk_codes = [rng.choice([0, 1, 1, 2, 3]) for _ in range(size)]
            pattern = LegPattern.__new__(LegPattern)
            pattern.walk, pattern.cycle_start = [None] * size, cycle_start
            pattern.init_event = rng.random() < 0.3
            pattern.init_dist = rng.uniform(0.0, 50.0)
            dists, codes = list(walk_dists), list(walk_codes)
            if laps:
                cycle = [rng.uniform(0.0, 40.0)] + walk_dists[cycle_start + 1:]
                dists += cycle * laps
                codes += walk_codes[cycle_start:] * laps
            pattern.dists = np.array(dists)
            pattern.codes = np.array(codes, dtype=np.int8)
            energy = EnergyModel(rng.choice([0.0, 1.0, 8.267]), rng.choice([0.0, 0.075, 3.0]))
            capacity = rng.uniform(1.0, 400.0)
            charge = rng.choice([capacity, rng.uniform(0.0, capacity), 0.0])
            stop = pattern.battery_stop(charge, capacity, energy)
            if pattern.init_event:
                dists, codes = [pattern.init_dist] + dists, [0] + codes
            assert (stop and tuple(stop)) == replayed_stop(charge, capacity, energy,
                                                           dists, codes)


def tiled_columns(columns, cycle_start, laps, closing):
    """The row layout as four ``np.tile`` calls: the frozen reference for ``lap_columns``."""
    legs, dwells, codes, tidx = columns
    cycle = legs[cycle_start:].copy()
    cycle[0] = closing
    return [np.concatenate([column, np.tile(part, laps)]) for column, part in (
        (legs, cycle), (dwells, dwells[cycle_start:]), (codes, codes[cycle_start:]),
        (tidx, tidx[cycle_start:]))]


class TestLapColumns:
    def test_one_gather_matches_the_tiled_columns(self):
        rng = np.random.default_rng(20261020)
        # (walk size, cycle start, laps): no laps, a cycle from the walk's
        # first node and from its last, then random walks.
        cases = [(1, 0, 0), (1, 0, 3), (5, 0, 0), (5, 4, 0), (5, 0, 7), (5, 4, 7)]
        for _ in range(400):
            size = int(rng.integers(1, 30))
            cases.append((size, int(rng.integers(0, size)), int(rng.integers(0, 60))))
        for size, cycle_start, laps in cases:
            columns = (rng.uniform(0.0, 40.0, size),
                       rng.choice([0.0, 5.0], size),
                       rng.integers(0, 4, size).astype(np.int8),
                       rng.integers(-1, size, size).astype(np.int32))
            closing = float(rng.uniform(0.0, 40.0))
            got = lap_columns(columns, cycle_start, laps, closing)
            want = tiled_columns(columns, cycle_start, laps, closing)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (size, cycle_start, laps)


class ShuttleRoute(MuleRoute):
    """Back and forth between two nodes: a route class the fast path does not know."""

    def __init__(self, mule_id, first, second, coordinates):
        super().__init__(mule_id, coordinates)
        self.ends = [first, second]

    def waypoints(self):
        return itertools.cycle(self.ends)


class SubclassedRandom(StochasticRoute):
    """A subclass may change the draw rule, so only the class itself rides."""


class TestEligibility:
    def _sim(self, *, scenario_spec=None, strategy="b-tctp", cfg=FAST, seed=0, **params):
        scenario_spec = scenario_spec or ScenarioSpec(
            "uniform", {"num_targets": 8, "num_mules": 2}
        )
        scenario = scenario_spec.build(seed)
        plan = get_strategy(strategy, **params).plan(scenario)
        return PatrolSimulator(scenario, plan, cfg)

    @staticmethod
    def rides(sim) -> bool:
        """Whether ``sim`` gets a fast result rather than a reason to decline."""
        return not isinstance(run_fast_path(sim), str)

    def test_loop_routes_are_eligible(self):
        assert fast_path_rejection(self._sim()) is None

    def test_flag_disables(self):
        sim = self._sim(cfg=SLOW)
        assert fast_path_rejection(sim) == "fast-path-disabled"
        assert run_fast_path(sim) == "fast-path-disabled"

    def test_max_visits_is_eligible(self):
        cfg = dataclasses.replace(FAST, max_visits=10)
        assert self.rides(self._sim(cfg=cfg))

    def test_tracked_battery_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "mule_battery": 50_000.0})
        cfg = dataclasses.replace(FAST, track_energy=True)
        assert self.rides(self._sim(scenario_spec=spec, cfg=cfg))

    def test_untracked_battery_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "mule_battery": 50_000.0})
        assert fast_path_rejection(self._sim(scenario_spec=spec)) is None

    def test_stochastic_route_is_eligible(self):
        assert self.rides(self._sim(strategy="random", seed=1))

    @pytest.mark.parametrize("route_class", [ShuttleRoute, SubclassedRandom])
    def test_other_route_classes_fall_back(self, route_class):
        results = []
        for cfg in (FAST, SLOW):
            scenario = ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2}).build(2)
            coords = scenario.patrol_points()
            ids = list(coords)
            plan = PatrolPlan("custom", {
                m.id: (ShuttleRoute(m.id, ids[i], ids[i + 2], coords)
                       if route_class is ShuttleRoute
                       else SubclassedRandom(m.id, ids, coords, seed=i))
                for i, m in enumerate(scenario.mules)
            })
            sim = PatrolSimulator(scenario, plan, cfg)
            if cfg.fast_path:
                assert fast_path_rejection(sim) == "route-class"
                assert run_fast_path(sim) == "route-class"
            results.append(sim.run())
        assert results[0] == results[1] and results[0].visits

    def test_shared_generator_falls_back(self):
        # The event loop interleaves draws of mules that share a generator
        # in event order; a walk drawn per mule would not.
        outcomes = []
        for cfg in (FAST, SLOW):
            sim = self._sim(strategy="random", seed=1, cfg=cfg)
            routes = list(sim.plan.routes.values())
            routes[1]._rng = routes[0]._rng
            if cfg.fast_path:
                assert fast_path_rejection(sim) == "shared-generator"
            result = sim.run()
            outcomes.append((result, routes[0]._rng.bit_generator.state))
        assert outcomes[0] == outcomes[1] and outcomes[0][0].visits

    def test_alternating_route_is_eligible(self):
        spec = ScenarioSpec(
            "uniform",
            {"num_targets": 8, "num_mules": 2, "mule_battery": 200_000.0,
             "with_recharge_station": True},
        )
        cfg = dataclasses.replace(FAST, track_energy=True)
        assert self.rides(self._sim(scenario_spec=spec, strategy="rw-tctp", cfg=cfg))

    def test_dwell_time_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "params": {"collection_time": 5.0}})
        assert self.rides(self._sim(scenario_spec=spec))

    def test_preloaded_buffer_falls_back(self):
        from repro.network.datamodel import DataPacket

        sim = self._sim()
        sim.scenario.mules[0].buffer.add(
            DataPacket(target_id="t0", generated_from=0.0, generated_to=1.0,
                       collected_at=1.0, size=1.0)
        )
        assert fast_path_rejection(sim) == "preloaded-buffer"


class TestCampaignEquivalence:
    def test_records_byte_identical_fast_vs_slow(self):
        def spec(fast: bool) -> CampaignSpec:
            return CampaignSpec(
                base=RunSpec(
                    strategy="b-tctp",
                    scenario=ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 3}),
                    sim=SimulationConfig(horizon=10_000.0, track_energy=False,
                                         fast_path=fast),
                    seed=1,
                ),
                grid={"strategy": ["chb", "b-tctp", "sweep", "random"]},
                replications=2,
            )

        fast = Campaign(spec(True)).run().records
        slow = Campaign(spec(False)).run().records
        assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)

    def test_fast_path_round_trips_through_spec_json(self):
        spec = RunSpec(strategy="b-tctp",
                       sim=SimulationConfig(horizon=5_000.0, fast_path=False))
        loaded = RunSpec.from_json(spec.to_json())
        assert loaded.sim.fast_path is False
        assert "fast_path" not in json.loads(RunSpec(strategy="b-tctp").to_json()).get("sim", {})


# --------------------------------------------------------------------------- #
# The fast result: lists built on first read, and the run's inputs untouched
# --------------------------------------------------------------------------- #

LAZY_CASES = [
    # Tracked batteries that die, and refills on RW-TCTP's recharge laps.
    ("b-tctp", {"num_targets": 10, "num_mules": 3, "with_recharge_station": True,
                "mule_battery": 20_000.0}),
    ("rw-tctp", {"num_targets": 10, "num_mules": 3, "with_recharge_station": True,
                 "mule_battery": 60_000.0}),
    # Lockstep mules on the sink: visits and flushes tie.
    ("chb", {"num_targets": 10, "num_mules": 3, "num_vips": 2}),
    # Random walks whose tracked batteries die, drawn from the generators.
    ("random", {"num_targets": 10, "num_mules": 3, "mule_battery": 20_000.0}),
]
LAZY_IDS = [case[0] for case in LAZY_CASES]
LAZY = SimulationConfig(horizon=20_000.0, track_energy=True)


def lazy_inputs(strategy, params, *, used_battery=False):
    """``(scenario, plan)`` of one case, on its own scenario copy.

    ``used_battery`` starts every battery with totals from an earlier life.
    """
    scenario = ScenarioSpec("uniform", params).build(4)
    if used_battery:
        for mule in scenario.mules:
            mule.battery.total_drained = 1234.5
            mule.battery.total_recharged = 67.25
            mule.battery.recharge_count = 3
    plan = get_strategy(strategy, **({"seed": 11} if strategy == "random" else {})).plan(scenario)
    return scenario, plan


def lazy_run(strategy, params, *, fast_path=True):
    """``(result, scenario, plan)`` of one run on its own scenario copy."""
    scenario, plan = lazy_inputs(strategy, params)
    config = dataclasses.replace(LAZY, fast_path=fast_path)
    return PatrolSimulator(scenario, plan, config).run(), scenario, plan


def built(result) -> "list[str]":
    """Which of the result's lists and traces were built."""
    return [name for name in ("visits", "deliveries", "traces") if name in vars(result)]


def generator_states(plan) -> list:
    return [route._rng.bit_generator.state for route in plan.routes.values()
            if isinstance(route, StochasticRoute)]


def mule_state(scenario) -> list:
    return [(m.id, m.position, m.state, list(m.buffer.packets),
             None if m.battery is None else (m.battery.remaining, m.battery.total_drained,
                                             m.battery.total_recharged,
                                             m.battery.recharge_count))
            for m in scenario.mules]


class TestLazyResult:
    """A fast result's metrics read arrays; its lists and traces are the event loop's, on first read."""

    @pytest.mark.parametrize("strategy,params", LAZY_CASES, ids=LAZY_IDS)
    def test_metrics_build_no_list(self, strategy, params):
        from repro.runner import record_metrics
        from repro.runner.campaign import _record_columns
        from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval

        fast, scenario, plan = lazy_run(strategy, params)
        slow, _scenario, _plan = lazy_run(strategy, params, fast_path=False)
        assert built(fast) == []
        for got, want in zip(fast.visit_table(), slow.visit_table()):
            assert np.array_equal(got, want)
        for metric in (average_dcdt, average_sd, max_visiting_interval):
            assert metric(fast) == metric(slow)
        assert fast.total_delivered_data() == slow.total_delivered_data()
        assert _record_columns((), scenario, plan, fast) \
            == _record_columns((), scenario, plan, slow)
        # The six columns read the distances and the dead mules off the
        # table: no trace is built for a record.
        assert built(fast) == []
        # Every metric the library registers reads the visit table, the
        # traces, the plan or the scenario, never a list; the ones that read
        # the traces build them.
        library = [name for name, fn in record_metrics._METRICS.items()
                   if fn.__module__ == record_metrics.__name__]
        assert len(library) >= 10
        for name in library:
            got = record_metrics.compute_metric(name, scenario, plan, fast)
            want = record_metrics.compute_metric(name, scenario, plan, slow)
            assert json.dumps(got) == json.dumps(want), name
        assert set(built(fast)) <= {"traces"}

    @pytest.mark.parametrize("strategy,params", LAZY_CASES, ids=LAZY_IDS)
    def test_first_read_is_the_event_loops_list(self, strategy, params):
        fast, *_rest = lazy_run(strategy, params)
        slow, *_rest = lazy_run(strategy, params, fast_path=False)
        fast.visit_table()
        assert fast.deliveries == slow.deliveries
        assert built(fast) == ["deliveries"]
        assert fast.visits == slow.visits
        assert fast.visits is fast.visits
        assert fast == slow

    @pytest.mark.parametrize("strategy,params", LAZY_CASES, ids=LAZY_IDS)
    def test_first_read_of_the_traces_is_the_event_loops(self, strategy, params):
        fast, *_rest = lazy_run(strategy, params)
        slow, *_rest = lazy_run(strategy, params, fast_path=False)
        distance, dead = fast.total_distance(), fast.dead_mules()
        assert (distance, dead) == (slow.total_distance(), slow.dead_mules())
        assert built(fast) == []
        assert fast.traces == slow.traces
        assert built(fast) == ["traces"]
        assert fast.traces is fast.traces
        # Read from the built traces now: the same floats, summed alike.
        assert (fast.total_distance(), fast.dead_mules()) == (distance, dead)
        assert fast.total_energy() == slow.total_energy()

    def test_an_append_after_the_build_refreshes_the_table(self):
        from repro.sim.metrics import average_dcdt
        from repro.sim.recorder import DeliveryRecord, VisitRecord

        fast, *_rest = lazy_run(*LAZY_CASES[0])
        seeded = fast.visit_table()
        dcdt = average_dcdt(fast)
        delivered = fast.total_delivered_data()
        visits = fast.visits
        # Built at the seeded length: the seeded table still holds.
        assert fast.visit_table() is seeded
        visits.append(VisitRecord(fast.horizon + 1.0, visits[0].node_id, "m1"))
        assert fast.visit_table() is not seeded
        assert fast.visit_times(visits[0].node_id)[-1] == fast.horizon + 1.0
        assert average_dcdt(fast) != dcdt
        fast.deliveries.append(DeliveryRecord(fast.horizon, "m1", "g1", 0.0, 1.0, 1.0, 8.0))
        assert fast.total_delivered_data() == delivered + 8.0

    @pytest.mark.parametrize("build", [False, True], ids=["unbuilt", "built"])
    def test_copies_round_trip(self, build):
        import copy
        import pickle

        from repro.sim.metrics import average_sd

        fast, *_rest = lazy_run(*LAZY_CASES[2])
        slow, *_rest = lazy_run(*LAZY_CASES[2], fast_path=False)
        average_sd(fast)  # caches derived from the seeded table
        if build:
            assert fast.visits and fast.deliveries and fast.traces
        assert built(fast) == (["visits", "deliveries", "traces"] if build else [])
        for twin in (copy.deepcopy(fast), pickle.loads(pickle.dumps(fast))):
            assert built(twin) == built(fast)
            assert twin == slow
            assert average_sd(twin) == average_sd(slow)
            assert twin.total_delivered_data() == slow.total_delivered_data()
        assert repr(fast) == repr(slow)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)

    @pytest.mark.parametrize("strategy,params,used_battery", [
        *((*case, False) for case in LAZY_CASES),
        *((*case, True) for case in (*LAZY_CASES[:2], LAZY_CASES[3])),
    ], ids=[*LAZY_IDS, *(f"{name}-used-battery" for name in (*LAZY_IDS[:2], LAZY_IDS[3]))])
    def test_run_leaves_the_mules_and_generators_untouched(self, strategy, params,
                                                            used_battery):
        results = []
        for fast_path in (True, False):
            scenario, plan = lazy_inputs(strategy, params, used_battery=used_battery)
            before = mule_state(scenario), generator_states(plan)
            config = dataclasses.replace(LAZY, fast_path=fast_path)
            results.append(PatrolSimulator(scenario, plan, config).run())
            assert (mule_state(scenario), generator_states(plan)) == before
        fast, slow = results
        assert built(fast) == []
        assert fast.traces == slow.traces
