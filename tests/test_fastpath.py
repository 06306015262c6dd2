"""Equivalence tests for the analytic fast-path simulator.

The fast path must be an *invisible* optimisation: for every eligible run it
has to reproduce the discrete-event loop byte for byte — visits, deliveries,
traces, metadata and final mule state — and for every ineligible run it must
get out of the way.
"""

from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.baselines.base import get_strategy
from repro.core.plan import LoopRoute, PatrolPlan
from repro.energy.battery import Battery
from repro.energy.model import EnergyModel
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import (
    LegPattern, fast_path_eligible, fast_path_rejection, run_fast_path,
)

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
    def test_final_mule_state_matches(self, strategy, scenario_spec, params):
        (fast, scen_fast), (slow, scen_slow) = _run_both(strategy, scenario_spec, 1, **params)
        for mf, ms in zip(scen_fast.mules, scen_slow.mules):
            assert mf.position == ms.position
            assert mf.state == ms.state
            assert [p.size for p in mf.buffer.packets] == [p.size for p in ms.buffer.packets]

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


class TestEligibility:
    def _sim(self, *, scenario_spec=None, strategy="b-tctp", cfg=FAST, seed=0, **params):
        scenario_spec = scenario_spec or ScenarioSpec(
            "uniform", {"num_targets": 8, "num_mules": 2}
        )
        scenario = scenario_spec.build(seed)
        plan = get_strategy(strategy, **params).plan(scenario)
        return PatrolSimulator(scenario, plan, cfg)

    def test_loop_routes_are_eligible(self):
        assert fast_path_eligible(self._sim())

    def test_flag_disables(self):
        sim = self._sim(cfg=SLOW)
        assert not fast_path_eligible(sim)
        assert fast_path_rejection(sim) == "fast-path-disabled"

    def test_max_visits_is_eligible(self):
        cfg = dataclasses.replace(FAST, max_visits=10)
        sim = self._sim(cfg=cfg)
        assert fast_path_eligible(sim)
        assert run_fast_path(sim) is not None

    def test_tracked_battery_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "mule_battery": 50_000.0})
        cfg = dataclasses.replace(FAST, track_energy=True)
        sim = self._sim(scenario_spec=spec, cfg=cfg)
        assert fast_path_eligible(sim)
        assert run_fast_path(sim) is not None

    def test_untracked_battery_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "mule_battery": 50_000.0})
        assert fast_path_eligible(self._sim(scenario_spec=spec))

    def test_stochastic_route_falls_back(self):
        sim = self._sim(strategy="random", seed=1)
        assert not fast_path_eligible(sim)
        assert fast_path_rejection(sim) == "route-class"

    def test_alternating_route_is_eligible(self):
        spec = ScenarioSpec(
            "uniform",
            {"num_targets": 8, "num_mules": 2, "mule_battery": 200_000.0,
             "with_recharge_station": True},
        )
        cfg = dataclasses.replace(FAST, track_energy=True)
        sim = self._sim(scenario_spec=spec, strategy="rw-tctp", cfg=cfg)
        assert fast_path_eligible(sim)
        assert run_fast_path(sim) is not None

    def test_dwell_time_is_eligible(self):
        spec = ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2,
                                        "params": {"collection_time": 5.0}})
        sim = self._sim(scenario_spec=spec)
        assert fast_path_eligible(sim)
        assert run_fast_path(sim) is not None

    def test_preloaded_buffer_falls_back(self):
        from repro.network.datamodel import DataPacket

        sim = self._sim()
        sim.scenario.mules[0].buffer.add(
            DataPacket(target_id="t0", generated_from=0.0, generated_to=1.0,
                       collected_at=1.0, size=1.0)
        )
        assert not fast_path_eligible(sim)
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
# The fast result: lists built on first read, and the final mule state
# --------------------------------------------------------------------------- #

LAZY_CASES = [
    # Tracked batteries that die, and refills on RW-TCTP's recharge laps.
    ("b-tctp", {"num_targets": 10, "num_mules": 3, "with_recharge_station": True,
                "mule_battery": 20_000.0}),
    ("rw-tctp", {"num_targets": 10, "num_mules": 3, "with_recharge_station": True,
                 "mule_battery": 60_000.0}),
    # Lockstep mules on the sink: visits and flushes tie.
    ("chb", {"num_targets": 10, "num_mules": 3, "num_vips": 2}),
]
LAZY_IDS = [case[0] for case in LAZY_CASES]
LAZY = SimulationConfig(horizon=20_000.0, track_energy=True)


def lazy_run(strategy, params, *, fast_path=True, used_battery=False):
    """``(result, scenario, plan)`` of one run on its own scenario copy.

    ``used_battery`` starts every battery with totals from an earlier life,
    which the final battery state carries on.
    """
    scenario = ScenarioSpec("uniform", params).build(4)
    if used_battery:
        for mule in scenario.mules:
            mule.battery.total_drained = 1234.5
            mule.battery.total_recharged = 67.25
            mule.battery.recharge_count = 3
    plan = get_strategy(strategy).plan(scenario)
    config = dataclasses.replace(LAZY, fast_path=fast_path)
    return PatrolSimulator(scenario, plan, config).run(), scenario, plan


def built(result) -> "list[str]":
    """Which of the result's lists were built."""
    return [name for name in ("visits", "deliveries") if name in vars(result)]


def mule_state(scenario) -> list:
    return [(m.id, m.position, m.state, list(m.buffer.packets),
             None if m.battery is None else (m.battery.remaining, m.battery.total_drained,
                                             m.battery.total_recharged,
                                             m.battery.recharge_count))
            for m in scenario.mules]


class TestLazyResult:
    """A fast result's metrics read arrays; its lists are the event loop's, on first read."""

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
        # Every metric the library registers reads the visit table, the
        # traces, the plan or the scenario, never a list.
        library = [name for name, fn in record_metrics._METRICS.items()
                   if fn.__module__ == record_metrics.__name__]
        assert len(library) >= 10
        for name in library:
            got = record_metrics.compute_metric(name, scenario, plan, fast)
            want = record_metrics.compute_metric(name, scenario, plan, slow)
            assert json.dumps(got) == json.dumps(want), name
        assert built(fast) == []

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
            assert fast.visits and fast.deliveries
        for twin in (copy.deepcopy(fast), pickle.loads(pickle.dumps(fast))):
            assert built(twin) == built(fast)
            assert twin == slow
            assert average_sd(twin) == average_sd(slow)
            assert twin.total_delivered_data() == slow.total_delivered_data()
        assert repr(fast) == repr(slow)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow)

    @pytest.mark.parametrize("strategy,params,used_battery", [
        *((*case, False) for case in LAZY_CASES),
        *((*case, True) for case in LAZY_CASES[:2]),
    ], ids=[*LAZY_IDS, *(f"{name}-used-battery" for name in LAZY_IDS[:2])])
    def test_run_leaves_the_event_loops_mule_state(self, strategy, params, used_battery):
        fast, scen_fast, _plan = lazy_run(strategy, params, used_battery=used_battery)
        slow, scen_slow, _plan = lazy_run(strategy, params, fast_path=False,
                                          used_battery=used_battery)
        assert mule_state(scen_fast) == mule_state(scen_slow)
        assert built(fast) == []
        assert fast.traces == slow.traces
