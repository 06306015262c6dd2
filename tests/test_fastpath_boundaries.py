"""Fallback-boundary tests: every rejection path lands on a pinned answer.

For each remaining way a cell can decline the scalar fast path or the batched
tensor pass, these tests pin two things at once:

* the fallback actually fires (the rejection reason / batch ``None``), and
* the authoritative event-loop result matches a hand-computed expectation,

so a future widening of eligibility has a ground-truth answer to preserve,
not just "the two paths agree with each other".

The hand computations all use the 2 m/s line scenario: sink at the origin,
g1 at 100 m, g2 at 200 m, loop sink → g1 → g2 (a 400 m lap), data rate 1.0 —
g1 is visited at t = 50, g2 at t = 100, the sink flush lands at t = 200
(plus the visit the engine records at t = 0 for a mule standing on the sink).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.baselines.base import get_strategy
from repro.core.plan import LoopRoute, PatrolPlan, StochasticRoute
from repro.energy.battery import Battery
from repro.geometry.cache import clear_caches
from repro.geometry.point import Point
from repro.network.datamodel import DataPacket
from repro.network.field import Field
from repro.network.mules import DataMule
from repro.network.scenario import Scenario, SimulationParameters
from repro.network.targets import RechargeStation, Sink, Target
from repro.runner.campaign import _json_sanitize, execute_many, execute_run
from repro.runner.spec import RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim import batchpath, fastpath
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import LegPattern, fast_path_eligible, fast_path_rejection

FAST = SimulationConfig(horizon=500.0, track_energy=False)
SLOW = dataclasses.replace(FAST, fast_path=False)


def line_scenario(*, battery=None, with_recharge=False, collection_time=0.0,
                  rates=(1.0, 1.0), velocities=(2.0,), g2_x=200.0):
    params = SimulationParameters(collection_time=collection_time)
    targets = [
        Target("g1", Point(100.0, 0.0), data_rate=rates[0]),
        Target("g2", Point(g2_x, 0.0), data_rate=rates[1]),
    ]
    sink = Sink("sink", Point(0.0, 0.0))
    recharge = RechargeStation("recharge", Point(150.0, 0.0)) if with_recharge else None
    mules = [
        DataMule(f"m{i + 1}", sink.position, velocity=v,
                 battery=battery() if battery else None)
        for i, v in enumerate(velocities)
    ]
    return Scenario(targets=targets, sink=sink, mules=mules,
                    recharge_station=recharge, field=Field(), params=params,
                    name="line")


def loop_plan(scenario, *, loops=None):
    coords = scenario.patrol_points(
        include_recharge=scenario.recharge_station is not None
    )
    loops = loops or {m.id: ["sink", "g1", "g2"] for m in scenario.mules}
    return PatrolPlan(
        strategy="manual",
        routes={mid: LoopRoute(mid, loop, coords) for mid, loop in loops.items()},
    )


def run_both(scenario_factory, plan_factory, *, fast_cfg=FAST, slow_cfg=SLOW):
    results = []
    for cfg in (fast_cfg, slow_cfg):
        scenario = scenario_factory()
        results.append(PatrolSimulator(scenario, plan_factory(scenario), cfg).run())
    return results


def canonical(record: dict) -> str:
    return json.dumps(_json_sanitize(record), sort_keys=True)


class TestScalarRejections:
    """The three remaining scalar rejection reasons, each with ground truth."""

    def test_disabled_flag_rejects_and_event_loop_is_authoritative(self):
        scenario = line_scenario()
        sim = PatrolSimulator(scenario, loop_plan(scenario), SLOW)
        assert fast_path_rejection(sim) == "fast-path-disabled"
        result = sim.run()
        assert result.visit_times("g1") == pytest.approx([50.0, 250.0, 450.0])
        assert result.visit_times("g2") == pytest.approx([100.0, 300.0, 500.0])
        assert result.visit_times("sink") == pytest.approx([0.0, 200.0, 400.0])
        # Flushes at 200 (50 + 100) and 400 ((250-50) + (300-100)).
        assert result.total_delivered_data() == pytest.approx(550.0)
        assert result.traces["m1"].distance_travelled == pytest.approx(1000.0)

    def test_preloaded_buffer_rejects_and_preload_flushes_first(self):
        def build():
            scenario = line_scenario()
            scenario.mules[0].buffer.add(
                DataPacket(target_id="g9", generated_from=0.0, generated_to=1.0,
                           collected_at=1.0, size=7.0)
            )
            return scenario

        scenario = build()
        sim = PatrolSimulator(scenario, loop_plan(scenario), FAST)
        assert fast_path_rejection(sim) == "preloaded-buffer"
        result = PatrolSimulator(build(), loop_plan(build()), SLOW).run()
        # The preloaded 7.0 rides ahead of the lap's 150.0 in the first flush.
        assert result.total_delivered_data() == pytest.approx(557.0)
        assert result.deliveries[0].size == pytest.approx(7.0)

    def test_stochastic_route_rejects_and_single_candidate_halts(self):
        def plan(scenario):
            coords = scenario.patrol_points()
            return PatrolPlan(strategy="manual", routes={
                "m1": StochasticRoute("m1", ["g1"], coords, seed=3),
            })

        scenario = line_scenario()
        sim = PatrolSimulator(scenario, plan(scenario), FAST)
        assert fast_path_rejection(sim) == "route-class"
        result = sim.run()
        # One candidate repeats forever; the duplicate-skip rule halts the
        # mule after its single 100 m leg: one visit, nothing delivered.
        assert result.visit_times("g1") == pytest.approx([50.0])
        assert result.total_delivered_data() == 0
        assert result.traces["m1"].distance_travelled == pytest.approx(100.0)


class TestBatchFallbacks:
    """Cells the batch declines must land on the per-cell answer, not near it."""

    def _spec(self, *, strategy="b-tctp", sim=None, seed=1, **kwargs):
        sim_fields = {"horizon": 5_000.0, "track_energy": False}
        sim_fields.update(sim or {})
        return RunSpec(
            strategy=strategy,
            scenario=ScenarioSpec(
                "uniform",
                {"num_targets": 8, "num_mules": 2, **kwargs.pop("params", {})},
                seed=5,
            ),
            sim=SimulationConfig(**sim_fields),
            seed=seed,
            **kwargs,
        )

    def _assert_falls_back_but_agrees(self, spec):
        pre = batchpath.batch_execute_records([spec])
        assert pre == [None]
        with batchpath.batchpath_disabled():
            per_cell = execute_run(spec)
        event = execute_run(dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, fast_path=False)
        ))
        assert canonical(per_cell) == canonical(event)
        return per_cell

    def test_max_visits_cell_falls_back(self):
        spec = self._spec(sim={"max_visits": 10})
        self._assert_falls_back_but_agrees(spec)

    def test_max_visits_ground_truth_on_the_line(self):
        scenario = line_scenario()
        cfg = dataclasses.replace(SLOW, horizon=10_000.0, max_visits=4)
        result = PatrolSimulator(scenario, loop_plan(scenario), cfg).run()
        # Recorded visits sink@0 (standing start), g1@50, g2@100, sink@200,
        # then the cap trips; the flush at the fourth visit still lands.
        assert [v.time for v in result.visits] == pytest.approx(
            [0.0, 50.0, 100.0, 200.0]
        )
        assert result.total_delivered_data() == pytest.approx(150.0)

    def test_tracked_battery_cell_falls_back(self):
        spec = self._spec(
            sim={"track_energy": True},
            params={"mule_battery": 500_000.0, "with_recharge_station": True},
        )
        self._assert_falls_back_but_agrees(spec)

    def test_custom_metrics_cell_falls_back(self):
        spec = self._spec(metrics=["path_length"])
        record = self._assert_falls_back_but_agrees(spec)
        assert "path_length" in record

    def test_batch_path_flag_opts_out_per_spec(self):
        spec = self._spec(sim={"batch_path": False})
        pre = batchpath.batch_execute_records([spec])
        assert pre == [None]
        # The scalar fast path stays on: the flag only skips the batch layer.
        scenario_sim = self._spec()
        assert scenario_sim.sim.fast_path

    def test_material_ties_fall_back(self):
        # chb staggers several mules around one tour; on this layout two
        # mules collect at the same target at the same instant, which is
        # heap-order dependent — the batch must hand the cell back.
        spec = RunSpec(
            strategy="chb",
            scenario=ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3},
                                  seed=42),
            sim=SimulationConfig(horizon=15_000.0, track_energy=False),
            seed=1,
        )
        pre = batchpath.batch_execute_records([spec])
        assert pre == [None]
        with batchpath.batchpath_disabled():
            per_cell = execute_run(spec)
        event = execute_run(dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, fast_path=False)
        ))
        assert canonical(per_cell) == canonical(event)

    def test_single_eligible_cell_rides_the_batch(self, monkeypatch):
        spec = self._spec()
        with batchpath.batchpath_disabled():
            scalar = execute_run(spec)

        def no_simulation(_sim):
            raise AssertionError("a batched cell must not run the simulator")

        monkeypatch.setattr(PatrolSimulator, "run", no_simulation)
        batched = execute_run(spec)
        assert json.dumps(batched) == json.dumps(scalar)  # key order included

    FASTPATH = {"outcome": "fastpath"}
    DYNAMIC = {"outcome": "event-loop", "reason": "dynamic-fallback"}

    @pytest.mark.parametrize("spec_kwargs, patch, reason, sim_labels", [
        ({"strategy": "chb"}, None, "order-dependent", FASTPATH),  # simultaneous sink flushes
        ({"sim": {"track_energy": True},
          "params": {"mule_battery": 500_000.0, "with_recharge_station": True}},
         None, "tracked-energy", FASTPATH),
        ({"metrics": ["path_length"]}, None, "custom-metrics", FASTPATH),
        ({"strategy": "random"}, None, "fastpath-route-class",
         {"outcome": "event-loop", "reason": "route-class"}),
        # The dynamic declines, forced: the batch's event cap, a lap estimate
        # that falls short (declined on both tiers), the scalar's event cap.
        ({}, (batchpath, "_MAX_BATCH_EVENTS", 1), "row-fallback", FASTPATH),
        ({}, (LegPattern, "reaches", lambda _pattern, _horizon: False), "lap-estimate",
         DYNAMIC),
        ({"sim": {"batch_path": False}}, (fastpath, "_MAX_EVENTS_PER_MULE", 1),
         "batch-path-disabled", DYNAMIC),
    ], ids=["chb", "tracked-energy", "custom-metrics", "random", "batch-event-cap",
            "lap-estimate", "scalar-event-cap"])
    def test_declined_single_cell_counts_one_scalar_dispatch(
        self, monkeypatch, spec_kwargs, patch, reason, sim_labels
    ):
        spec = self._spec(**spec_kwargs)
        event = execute_run(dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, fast_path=False)
        ))
        # A memoised reduction would hide a forced decline, and a memoised
        # decline must not outlive the patch.
        clear_caches()
        if patch is not None:
            monkeypatch.setattr(*patch)
        try:
            with obs.obs_collected(enabled=True) as window:
                record = execute_run(spec)
                snapshot = window.snapshot()
        finally:
            monkeypatch.undo()
            clear_caches()
        counters = [(c["name"], c["labels"], c["value"]) for c in snapshot["counters"]
                    if c["name"] in ("batch_dispatch", "sim_dispatch")]
        assert [(n, labels, v) for n, labels, v in counters if n == "batch_dispatch"] \
            == [("batch_dispatch", {"outcome": "scalar", "reason": reason}, 1)]
        assert [(labels, v) for n, labels, v in counters if n == "sim_dispatch"] \
            == [(sim_labels, 1)]
        assert canonical(record) == canonical(event)
        with batchpath.batchpath_disabled():
            assert canonical(record) == canonical(execute_run(spec))

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_execute_many_offers_declined_cells_once(self, monkeypatch, max_workers):
        offered = []
        original = batchpath.batch_execute_records

        def spy(specs):
            specs = list(specs)
            offered.extend(spec.strategy for spec in specs)
            return original(specs)

        monkeypatch.setattr(batchpath, "batch_execute_records", spy)
        specs = [self._spec(), self._spec(strategy="chb"), self._spec(strategy="random")]
        with obs.obs_collected(enabled=True) as window:
            records = execute_many(specs, max_workers=max_workers)
            snapshot = window.snapshot()
        assert offered == ["b-tctp", "chb", "random"]

        def total(name, **labels):
            return sum(c["value"] for c in snapshot["counters"] if c["name"] == name
                       and all(c["labels"].get(k) == v for k, v in labels.items()))

        assert total("batch_dispatch", outcome="batch") == 1
        assert total("batch_dispatch", outcome="scalar") == 2
        assert total("sim_dispatch") == 2
        with batchpath.batchpath_disabled():
            expected = [execute_run(spec) for spec in specs]
        assert [canonical(r) for r in records] == [canonical(r) for r in expected]

    def test_process_switch_disables_batching(self):
        spec = self._spec()
        with batchpath.batchpath_disabled():
            assert batchpath.batch_execute_records([spec]) == [None]
        assert batchpath.batchpath_enabled()


class TestPerEntityConfigAudit:
    """Eligibility must consider *every* mule and target, not just the first.

    Regression guards for the per-entity audit: heterogeneous velocities,
    heterogeneous data rates and partially drained batteries all stay
    byte-identical between the fast paths and the event loop.
    """

    def test_heterogeneous_velocities(self):
        def build():
            return line_scenario(velocities=(2.0, 4.0))

        def plan(scenario):
            return loop_plan(scenario, loops={
                "m1": ["sink", "g1", "g2"],
                "m2": ["sink", "g2", "g1"],
            })

        sim = PatrolSimulator(build(), plan(build()), FAST)
        assert fast_path_eligible(sim)
        fast, slow = run_both(build, plan)
        assert fast == slow
        # m2 runs the reversed lap at 4 m/s: g2 (200 m) at t = 50
        # (after its standing-start sink visit at t = 0).
        m2_visits = [v.time for v in fast.visits if v.mule_id == "m2"]
        assert m2_visits[:2] == pytest.approx([0.0, 50.0])

    def test_heterogeneous_data_rates(self):
        def build():
            return line_scenario(rates=(0.5, 2.0))

        fast, slow = run_both(build, loop_plan)
        assert fast == slow
        # First flush at t = 200: 50 s * 0.5 + 100 s * 2.0.
        first_flush = [d for d in fast.deliveries if d.delivered_at == 200.0]
        assert sum(d.size for d in first_flush) == pytest.approx(225.0)

    def test_partially_drained_battery_untracked(self):
        def build():
            return line_scenario(
                battery=lambda: Battery(100_000.0, remaining=40_000.0),
                with_recharge=True,
            )

        fast, slow = run_both(build, loop_plan)
        assert fast == slow

    def test_partially_drained_battery_tracked(self):
        cfg_fast = dataclasses.replace(FAST, track_energy=True)
        cfg_slow = dataclasses.replace(SLOW, track_energy=True)

        def build():
            return line_scenario(
                battery=lambda: Battery(100_000.0, remaining=40_000.0),
                with_recharge=True,
            )

        fast, slow = run_both(build, loop_plan, fast_cfg=cfg_fast,
                              slow_cfg=cfg_slow)
        assert fast == slow

    def test_batch_respects_per_mule_batteries(self):
        """Any mule with a battery under track_energy sends the cell back."""
        spec = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec(
                "uniform",
                {"num_targets": 8, "num_mules": 3, "mule_battery": 400_000.0,
                 "with_recharge_station": True},
                seed=5,
            ),
            sim=SimulationConfig(horizon=5_000.0, track_energy=True),
            seed=1,
        )
        assert batchpath.batch_execute_records([spec]) == [None]


# --------------------------------------------------------------------------- #
# Zero-length laps
# --------------------------------------------------------------------------- #

def coincident_pairs_scenario(num_pairs: int):
    """``num_pairs`` pairs of targets, each pair on one point, one mule per pair."""
    corners = [Point(100.0, 100.0), Point(900.0, 900.0)]
    sink = Sink("sink", Point(500.0, 500.0))
    targets = [Target(f"g{2 * i + k + 1}", corners[i])
               for i in range(num_pairs) for k in range(2)]
    mules = [DataMule(f"m{i + 1}", sink.position) for i in range(num_pairs)]
    return Scenario(targets=targets, sink=sink, mules=mules, field=Field(),
                    params=SimulationParameters(), name="pairs")


def endless_runs():
    """``(name, run)`` for each reproducer whose run would never end."""
    reproducers = {
        "line": (lambda: line_scenario(g2_x=100.0),
                 lambda scenario: loop_plan(scenario, loops={"m1": ["g1", "g2"]})),
        "sweep": (lambda: coincident_pairs_scenario(2),
                  get_strategy("sweep", include_sink_in_groups=False).plan),
        "random": (lambda: coincident_pairs_scenario(1),
                   get_strategy("random", include_sink=False, seed=3).plan),
    }
    for tier, fast_path in (("fast", True), ("slow", False)):
        cfg = dataclasses.replace(FAST, fast_path=fast_path)
        for name, (build, plan) in reproducers.items():
            def run(build=build, plan=plan, cfg=cfg):
                scenario = build()
                PatrolSimulator(scenario, plan(scenario), cfg).run()

            yield f"{name}-{tier}", run


_ENDLESS_CHILD = """
import sys
sys.path[:0] = {paths!r}
from test_fastpath_boundaries import endless_runs
for name, run in endless_runs():
    try:
        run()
        print(name, "returned", flush=True)
    except ValueError as exc:
        print(name, exc, flush=True)
"""


class TestZeroLengthLap:
    """A lap whose legs all have length 0 never advances time.

    With g2 moved onto g1 at (100, 0), the mule reaches g1 at t = 50 and then
    alternates g1 -> g2 at t = 50 forever.  The event loop, which every tier
    falls back to, refuses such a run; every run that ends stays as it was.
    """

    def test_endless_runs_raise_instead_of_hanging(self):
        # A regression spins forever, so the runs go to a child with a deadline.
        tests = os.path.dirname(os.path.abspath(__file__))
        code = _ENDLESS_CHILD.format(paths=[tests, os.path.join(os.path.dirname(tests), "src")])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert [line.split()[0] for line in lines] == [
            f"{name}-{tier}" for tier in ("fast", "slow")
            for name in ("line", "sweep", "random")
        ]
        for line in lines:
            mules = "['m1', 'm2']" if line.startswith("sweep") else "['m1']"
            assert f"zero-length lap: mules {mules} keep revisiting one point" in line

    @pytest.mark.parametrize("scenario_kwargs, cfg_changes, visits, last, death, dispatch", [
        ({}, {"max_visits": 1000}, 1000, 50.0, None, "dynamic-fallback"),
        ({"battery": lambda: Battery(1000.0)}, {"track_energy": True},
         2311, 50.0, 50.0, "dynamic-fallback"),
        ({"collection_time": 5.0}, {}, 91, 500.0, None, None),
    ], ids=["max-visits", "tracked-battery", "dwell"])
    def test_runs_that_end_are_unchanged(
        self, scenario_kwargs, cfg_changes, visits, last, death, dispatch
    ):
        with obs.obs_collected(enabled=True) as window:
            fast, slow = run_both(
                lambda: line_scenario(g2_x=100.0, **scenario_kwargs),
                lambda scenario: loop_plan(scenario, loops={"m1": ["g1", "g2"]}),
                fast_cfg=dataclasses.replace(FAST, **cfg_changes),
                slow_cfg=dataclasses.replace(SLOW, **cfg_changes),
            )
            snapshot = window.snapshot()
        assert fast == slow
        assert len(fast.visits) == visits
        assert fast.visits[-1].time == last
        assert fast.traces["m1"].death_time == death
        # The scalar tier declines the zero-advance lap; a dwell advances it.
        fast_dispatch = [c["labels"] for c in snapshot["counters"]
                         if c["name"] == "sim_dispatch"
                         and c["labels"].get("reason") != "fast-path-disabled"]
        assert fast_dispatch == [{"outcome": "event-loop", "reason": dispatch}
                                 if dispatch else {"outcome": "fastpath"}]
