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

import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro import obs
from repro.baselines.base import get_strategy, seeded_params
from repro.core.plan import LoopRoute, PatrolPlan, StochasticRoute
from repro.energy.battery import Battery
from repro.geometry.cache import clear_caches
from repro.geometry.point import Point
from repro.network.datamodel import DataPacket
from repro.network.field import Field
from repro.network.mules import DataMule
from repro.network.scenario import Scenario, SimulationParameters
from repro.network.targets import RechargeStation, Sink, Target
from repro.runner.campaign import _json_sanitize, build_cell_scenario, execute_many, execute_run
from repro.runner.spec import RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim import batchpath, fastpath
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import LegPattern, fast_path_eligible, fast_path_rejection

FAST = SimulationConfig(horizon=500.0, track_energy=False)
SLOW = dataclasses.replace(FAST, fast_path=False)


def line_scenario(*, battery=None, with_recharge=False, collection_time=0.0,
                  rates=(1.0, 1.0), velocities=(2.0,), g2_x=200.0, recharge_x=150.0):
    params = SimulationParameters(collection_time=collection_time)
    targets = [
        Target("g1", Point(100.0, 0.0), data_rate=rates[0]),
        Target("g2", Point(g2_x, 0.0), data_rate=rates[1]),
    ]
    sink = Sink("sink", Point(0.0, 0.0))
    recharge = RechargeStation("recharge", Point(recharge_x, 0.0)) if with_recharge else None
    mules = [
        DataMule(f"m{i + 1}", sink.position, velocity=v,
                 battery=battery() if battery else None)
        for i, v in enumerate(velocities)
    ]
    return Scenario(targets=targets, sink=sink, mules=mules,
                    recharge_station=recharge, field=Field(), params=params,
                    name="line")


def loop_plan(scenario, *, loops=None, entry=0):
    """Each mule's loop; a nonzero ``entry`` first drives it to ``loop[entry]``."""
    coords = scenario.patrol_points(
        include_recharge=scenario.recharge_station is not None
    )
    loops = loops or {m.id: ["sink", "g1", "g2"] for m in scenario.mules}
    return PatrolPlan(
        strategy="manual",
        routes={mid: LoopRoute(mid, loop, coords, entry_index=entry,
                               start=coords[loop[entry]] if entry else None)
                for mid, loop in loops.items()},
    )


def run_both(scenario_factory, plan_factory, *, fast_cfg=FAST, slow_cfg=SLOW):
    results = []
    for cfg in (fast_cfg, slow_cfg):
        scenario = scenario_factory()
        results.append(PatrolSimulator(scenario, plan_factory(scenario), cfg).run())
    return results


def canonical(record: dict) -> str:
    return json.dumps(_json_sanitize(record), sort_keys=True)


def assert_batched_agrees(spec) -> dict:
    """``spec``'s batched record, which must equal its scalar and event-loop records."""
    clear_caches()
    batched = batchpath.batch_execute_records([spec])[0]
    assert batched is not None, "the batch declined the cell"
    with batchpath.batchpath_disabled():
        scalar = execute_run(spec)
    event = execute_run(dataclasses.replace(
        spec, sim=dataclasses.replace(spec.sim, fast_path=False)
    ))
    assert json.dumps(batched) == json.dumps(scalar)  # key order included
    assert canonical(scalar) == canonical(event)
    return batched


@pytest.fixture
def line_entries(monkeypatch):
    """The line scenario and its loop as registry entries, so a RunSpec can name them.

    Family ``line`` builds the one-mule line scenario with a 1000 J battery
    charged to ``remaining``; strategy ``line-loop`` plans the sink -> g1 -> g2
    loop (:func:`loop_plan`, ``entry`` included).  Both go into copies of the
    registries, gone after the test.
    """
    from repro.baselines import base
    from repro.registry import Loader, Registry
    from repro.scenarios import registry

    registry.available_scenario_families()  # copy the loaded built-ins
    monkeypatch.setattr(registry, "SCENARIOS", copy.deepcopy(registry.SCENARIOS))
    live = base.STRATEGIES
    monkeypatch.setattr(base, "STRATEGIES",
                        Registry(live.noun, Loader(live.loader.load), info_type=live.info_type))

    def line(*, seed: int = 0, remaining: float = 1000.0):
        return line_scenario(battery=lambda: Battery(1000.0, remaining=remaining))

    registry.register_scenario("line", line)
    base.register_strategy(
        "line-loop",
        lambda entry=0: SimpleNamespace(plan=lambda scenario: loop_plan(scenario, entry=entry)),
    )


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

    def _spec(self, *, strategy="b-tctp", sim=None, seed=1, scenario=None, **kwargs):
        sim_fields = {"horizon": 5_000.0, "track_energy": False}
        sim_fields.update(sim or {})
        if scenario is None:
            scenario = ScenarioSpec(
                "uniform",
                {"num_targets": 8, "num_mules": 2, **kwargs.pop("params", {})},
                seed=5,
            )
        return RunSpec(
            strategy=strategy,
            scenario=scenario,
            sim=SimulationConfig(**sim_fields),
            seed=seed,
            **kwargs,
        )

    @pytest.mark.parametrize("strategy", ["b-tctp", "chb"])
    def test_max_visits_cell_rides_the_batch(self, strategy):
        # The batch cuts at the max_visits-th visit in pop order, as the
        # scalar tier does; chb's mules tie, so the cut falls inside a tie.
        spec = self._spec(strategy=strategy, sim={"max_visits": 10})
        assert_batched_agrees(spec)

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

    def test_tracked_battery_cell_rides_the_batch(self):
        # RW-TCTP on 60,000 J batteries: two patrol rounds per recharge lap,
        # two refills per mule by the horizon, and no mule dies.
        spec = self._spec(
            strategy="rw-tctp",
            sim={"track_energy": True},
            params={"mule_battery": 60_000.0, "with_recharge_station": True},
        )
        assert assert_batched_agrees(spec)["num_dead_mules"] == 0

    @pytest.mark.usefixtures("line_entries")
    @pytest.mark.parametrize("remaining, entry, distance, visits", [
        # 500 J covers 500 / 8.267 m of the 100 m leg to g1: a mid-leg death,
        # after the standing-start sink visit.
        (500.0, 0, 500.0 / 8.267, ["sink"]),
        # The same, on the initial leg to a start position at g1: no visit.
        (500.0, 1, 500.0 / 8.267, []),
        # 0.05 J is left at g1, and its collection empties the battery: the
        # visit stands, and its packet never reaches the sink.
        (100 * 8.267 + 0.05, 0, 100.0, ["sink", "g1"]),
    ], ids=["mid-leg", "initial-leg", "at-collection"])
    def test_battery_death_on_the_line_rides_the_batch(self, remaining, entry, distance,
                                                        visits):
        spec = self._spec(strategy="line-loop", params={"entry": entry},
                          sim={"track_energy": True},
                          scenario=ScenarioSpec("line", {"remaining": remaining}))
        record = assert_batched_agrees(spec)
        assert record["num_dead_mules"] == 1
        assert record["total_distance"] == pytest.approx(distance)
        assert record["delivered_data"] == 0
        scenario = spec.scenario.build(spec.seed)
        result = PatrolSimulator(scenario, loop_plan(scenario, entry=entry), spec.sim).run()
        assert [v.node_id for v in result.visits] == visits

    def test_track_energy_is_part_of_the_row_key(self):
        # One layout, tracked and untracked, in one call: the tracked mules
        # die, so a row set shared across the switch would be wrong for one.
        specs = [
            self._spec(sim={"track_energy": tracked}, params={"mule_battery": 20_000.0})
            for tracked in (True, False)
        ]
        clear_caches()
        records = batchpath.batch_execute_records(specs)
        with batchpath.batchpath_disabled():
            expected = [execute_run(spec) for spec in specs]
        assert [r["num_dead_mules"] for r in expected] == [2, 0]
        assert [canonical(r) for r in records] == [canonical(r) for r in expected]

    def test_custom_metrics_cell_rides_the_batch(self, monkeypatch):
        # A miss reduces the fast result without building its lists or
        # touching the mules: none of these metrics reads a list.
        misses = []
        original = batchpath.fast_result

        def spy(sim):
            misses.append((sim, original(sim)))
            return misses[-1][1]

        monkeypatch.setattr(batchpath, "fast_result", spy)
        spec = self._spec(metrics=["path_length", "dcdt_series", "interval_stats",
                                   "survival_fraction", "total_recharges"])
        record = assert_batched_agrees(spec)
        assert "path_length" in record and len(record["dcdt_series"]) == 41
        [(sim, result)] = misses
        assert "visits" not in vars(result) and "deliveries" not in vars(result)
        assert all(len(m.buffer) == 0 for m in sim.scenario.mules)
        assert [m.position for m in sim.scenario.mules] \
            == [m.position for m in build_cell_scenario(spec).mules]

    def test_cells_of_one_entry_share_no_metric_value(self):
        # Two replications share one entry; a list or dict metric value must
        # not become one object in two records, nor let a caller's edit
        # reach the next hit.
        specs = [self._spec(seed=seed, metrics=["dcdt_series", "interval_stats"])
                 for seed in (1, 2)]
        clear_caches()
        try:
            first, second = batchpath.batch_execute_records(specs)
            assert first["dcdt_series"] == second["dcdt_series"]
            assert first["dcdt_series"] is not second["dcdt_series"]
            assert first["interval_stats"] is not second["interval_stats"]
            first["dcdt_series"].clear()
            first["interval_stats"].clear()
            third = batchpath.batch_execute_records(specs[1:])[0]
        finally:
            clear_caches()
        assert third == second

    def test_batch_path_flag_opts_out_per_spec(self):
        spec = self._spec(sim={"batch_path": False})
        pre = batchpath.batch_execute_records([spec])
        assert pre == [None]
        # The scalar fast path stays on: the flag only skips the batch layer.
        scenario_sim = self._spec()
        assert scenario_sim.sim.fast_path

    def test_material_ties_ride_the_batch(self, monkeypatch):
        # chb sends several mules around one tour; on this layout two mules
        # collect at the same target at the same instant, so packet sizes
        # follow the engine's heap order, which the batch replays.
        spec = RunSpec(
            strategy="chb",
            scenario=ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3},
                                  seed=42),
            sim=SimulationConfig(horizon=15_000.0, track_energy=False),
            seed=1,
        )
        solves = []
        original = fastpath._pop_ranks
        monkeypatch.setattr(fastpath, "_pop_ranks",
                            lambda chains: solves.append(chains) or original(chains))
        clear_caches()
        batchpath.batch_execute_records([spec])
        assert len(solves) == 1, "the layout no longer ties"
        batched = assert_batched_agrees(spec)

        def no_simulation(_sim):
            raise AssertionError("a batched cell must not run the simulator")

        clear_caches()
        monkeypatch.setattr(PatrolSimulator, "run", no_simulation)
        assert json.dumps(execute_run(spec)) == json.dumps(batched)

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

    # A ``None`` reason is a cell that rides the batch: one batched dispatch,
    # no simulator run.
    @pytest.mark.usefixtures("line_entries")
    @pytest.mark.parametrize("spec_kwargs, patch, reason, sim_labels", [
        ({"strategy": "chb"}, None, None, None),  # simultaneous sink flushes
        ({"sim": {"track_energy": True},
          "params": {"mule_battery": 500_000.0, "with_recharge_station": True}},
         None, None, None),
        # The clip window: the 100 m leg to g1 passes the engine's mid-leg
        # test by less than its 1e-9 m tolerance, so Battery.drain clips the
        # drain to an empty battery and the mule dies collecting at g1.  No
        # running sum reproduces the clip, so both fast tiers decline it.
        ({"strategy": "line-loop", "sim": {"track_energy": True},
          "scenario": ScenarioSpec("line", {"remaining": 100 * 8.267 - 5e-9})},
         None, "battery-clip", DYNAMIC),
        ({"metrics": ["path_length", "dcdt_series"]}, None, None, None),
        ({"sim": {"max_visits": 10}}, None, None, None),
        ({"strategy": "random"}, None, "fastpath-route-class",
         {"outcome": "event-loop", "reason": "route-class"}),
        # The dynamic declines, forced: the event cap both tiers share (the
        # batch declines the rows, then the scalar tier, so the cell runs on
        # the event loop), a lap estimate that falls short (declined on both
        # tiers), the scalar's event cap with the batch off.
        ({}, (fastpath, "_MAX_EVENTS_PER_MULE", 1), "row-fallback", DYNAMIC),
        ({}, (LegPattern, "reaches", lambda _pattern, _horizon: False), "lap-estimate",
         DYNAMIC),
        ({"sim": {"batch_path": False}}, (fastpath, "_MAX_EVENTS_PER_MULE", 1),
         "batch-path-disabled", DYNAMIC),
    ], ids=["chb", "tracked-battery", "battery-clip", "custom-metrics", "max-visits", "random",
            "batch-event-cap", "lap-estimate", "scalar-event-cap"])
    def test_declined_single_cell_counts_one_scalar_dispatch(
        self, spec_kwargs, patch, reason, sim_labels
    ):
        spec = self._spec(**spec_kwargs)
        event = execute_run(dataclasses.replace(
            spec, sim=dataclasses.replace(spec.sim, fast_path=False)
        ))
        # A memoised reduction would hide a forced decline, and a memoised
        # decline must not outlive the patch.
        clear_caches()
        try:
            with pytest.MonkeyPatch.context() as patcher:
                if patch is not None:
                    patcher.setattr(*patch)
                with obs.obs_collected(enabled=True) as window:
                    record = execute_run(spec)
                    snapshot = window.snapshot()
        finally:
            clear_caches()
        counters = [(c["name"], c["labels"], c["value"]) for c in snapshot["counters"]
                    if c["name"] in ("batch_dispatch", "sim_dispatch")]
        batch = {"outcome": "batch"} if reason is None else \
            {"outcome": "scalar", "reason": reason}
        assert [(n, labels, v) for n, labels, v in counters if n == "batch_dispatch"] \
            == [("batch_dispatch", batch, 1)]
        assert [(labels, v) for n, labels, v in counters if n == "sim_dispatch"] \
            == ([] if sim_labels is None else [(sim_labels, 1)])
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
        specs = [self._spec(), self._spec(sim={"batch_path": False}),
                 self._spec(strategy="random")]
        with obs.obs_collected(enabled=True) as window:
            records = execute_many(specs, max_workers=max_workers)
            snapshot = window.snapshot()
        assert offered == ["b-tctp", "b-tctp", "random"]

        def total(name, **labels):
            return sum(c["value"] for c in snapshot["counters"] if c["name"] == name
                       and all(c["labels"].get(k) == v for k, v in labels.items()))

        assert total("batch_dispatch", outcome="batch") == 1
        assert total("batch_dispatch", outcome="scalar") == 2
        assert total("sim_dispatch") == 2
        with batchpath.batchpath_disabled():
            expected = [execute_run(spec) for spec in specs]
        assert [canonical(r) for r in records] == [canonical(r) for r in expected]

    def test_cells_stream_one_at_a_time(self, monkeypatch):
        from repro.runner import Campaign, CampaignSpec

        # Unpinned: each replication draws its own layout, so every cell
        # misses and is built, summed and reduced before the next is built.
        base = self._spec(scenario=ScenarioSpec("uniform", {"num_targets": 8, "num_mules": 2}))
        spec = CampaignSpec(base=base, grid={"strategy": ["b-tctp", "chb"]}, replications=4)
        events = []
        build, reduce = fastpath._rows, batchpath._record_columns
        monkeypatch.setattr(fastpath, "_rows",
                            lambda sim: events.append("build") or build(sim))
        monkeypatch.setattr(batchpath, "_record_columns",
                            lambda *args: events.append("reduce") or reduce(*args))
        clear_caches()
        try:
            records = Campaign(spec).run(store=False).records
        finally:
            clear_caches()
        assert events == ["build", "reduce"] * 8
        with batchpath.batchpath_disabled():
            expected = Campaign(spec).run(store=False).records
        assert [canonical(r) for r in records] == [canonical(r) for r in expected]

    def test_one_event_cap_for_both_tiers(self, monkeypatch):
        from repro.runner.campaign import build_cell_scenario

        # A row of the b-tctp cell holds about 6.8 legs per 1,000 s, so the
        # drawn horizons put the rows on both sides of the cap.
        monkeypatch.setattr(fastpath, "_MAX_EVENTS_PER_MULE", 2_000)
        rng = random.Random(20261019)
        declines = []
        for _ in range(16):
            spec = self._spec(sim={"horizon": round(rng.uniform(1e5, 5e5), 3)})
            params = seeded_params(spec.strategy, spec.params, spec.seed)
            plan = get_strategy(spec.strategy, **params).plan(build_cell_scenario(spec))
            scalar = fastpath.run_fast_path(PatrolSimulator(build_cell_scenario(spec), plan,
                                                            spec.sim))
            clear_caches()
            try:
                with obs.obs_collected(enabled=True) as window:
                    record = batchpath.batch_execute_records([spec])[0]
                    snapshot = window.snapshot()
            finally:
                clear_caches()
            declined = [c["labels"] for c in snapshot["counters"]
                        if c["name"] == "batch_dispatch"] == \
                [{"outcome": "scalar", "reason": "row-fallback"}]
            assert declined == (record is None) == (scalar is None), spec.sim.horizon
            if record is not None:
                with batchpath.batchpath_disabled():
                    assert canonical(record) == canonical(execute_run(spec))
            declines.append(declined)
        assert 4 <= sum(declines) <= 12, declines

    def test_process_switch_disables_batching(self):
        spec = self._spec()
        with batchpath.batchpath_disabled():
            assert batchpath.batch_execute_records([spec]) == [None]
        assert batchpath.batchpath_enabled()

    # Spec vetoes whose fields the key leaves out: each vetoed cell shares
    # the key of the ordinary b-tctp cells on the pinned layout.
    VETOES = [
        ({"sim": {"fast_path": False}}, "fastpath-fast-path-disabled"),
        ({"sim": {"batch_path": False}}, "batch-path-disabled"),
    ]
    # Fields the key holds: such a cell rides the batch on an entry of its
    # own, planned once with the ordinary cells.
    OWN_ENTRIES = [{"sim": {"max_visits": 10}}, {"metrics": ["path_length"]}]

    def test_vetoes_hold_beside_a_cached_row_set(self):
        from repro.geometry.cache import cache_stats

        ordinary = [self._spec(seed=1), self._spec(seed=2)]
        vetoed = [self._spec(**kwargs) for kwargs, _reason in self.VETOES]
        own = [self._spec(**kwargs) for kwargs in self.OWN_ENTRIES]
        # Vetoed cells before the first ordinary cell builds the row set and
        # after it; the second call finds every entry in the cache.
        specs = [*vetoed, *own, ordinary[0], *vetoed, *own, ordinary[1]]
        with batchpath.batchpath_disabled():
            expected = [canonical(execute_run(spec))
                        for spec in [*own, ordinary[0], *own, ordinary[1]]]
        clear_caches()
        try:
            for state in ("cold", "reduced"):
                with obs.obs_collected(enabled=True) as window:
                    out = batchpath.batch_execute_records(specs)
                    snapshot = window.snapshot()
                assert out[:2] == out[5:7] == [None] * 2, state
                assert [canonical(r) for r in out[2:5] + out[7:]] == expected, state
                declines = {c["labels"]["reason"]: c["value"] for c in snapshot["counters"]
                            if c["name"] == "batch_dispatch"
                            and c["labels"]["outcome"] == "scalar"}
                assert declines == {reason: 2 for _kwargs, reason in self.VETOES}, state
            # A vetoed cell never looks its entry up; the other three keys
            # miss once each and share one plan.
            stats = cache_stats()
            assert (stats["batch_rows"]["misses"], stats["batch_rows"]["hits"]) == (3, 9)
            assert (stats["batch_plan"]["misses"], stats["batch_plan"]["hits"]) == (1, 2)
        finally:
            clear_caches()

    def test_cold_fast_path_off_cell_plans_once(self, monkeypatch):
        from repro.planning.pipeline import PlanningPipeline

        plans = []
        original = PlanningPipeline.plan

        def counting(pipeline, scenario):
            plans.append(pipeline)
            return original(pipeline, scenario)

        monkeypatch.setattr(PlanningPipeline, "plan", counting)
        spec = self._spec(sim={"fast_path": False})
        clear_caches()
        try:
            record = execute_run(spec)
        finally:
            clear_caches()
        # The veto comes before the batch plans, so only the event loop's
        # cell plans.
        assert len(plans) == 1
        assert canonical(record) == canonical(execute_run(self._spec()))


LOCKSTEP_VISITS = [(0.0, "sink", "m1"), (0.0, "sink", "m2"), (50.0, "g1", "m1"),
                   (50.0, "g1", "m2"), (100.0, "g2", "m1")]


class TestMaxVisitsCutInATie:
    """A ``max_visits`` cut between two visits of one instant.

    Two 2 m/s mules leave the sink together on the line loop, so each of
    their visits ties with the other's, and the event queue pops m1's first.
    The cut stops the run at the ``max_visits``-th recorded visit, so m2's
    twin of that visit, and its leg, never happen.
    """

    @pytest.mark.parametrize("max_visits, m1, m2", [
        (1, (0.0, 0), (0.0, 0)),
        (3, (100.0, 1), (0.0, 0)),
        (4, (100.0, 1), (100.0, 1)),
        (5, (200.0, 2), (100.0, 1)),
    ])
    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "event-loop"])
    def test_the_cut_follows_the_tie_order(self, max_visits, m1, m2, fast_path):
        scenario = line_scenario(velocities=(2.0, 2.0))
        cfg = dataclasses.replace(FAST, max_visits=max_visits, fast_path=fast_path)
        with obs.obs_collected(enabled=True) as window:
            result = PatrolSimulator(scenario, loop_plan(scenario), cfg).run()
            snapshot = window.snapshot()
        dispatch = [c["labels"]["outcome"] for c in snapshot["counters"]
                    if c["name"] == "sim_dispatch"]
        assert dispatch == ["fastpath" if fast_path else "event-loop"]
        assert [(v.time, v.node_id, v.mule_id) for v in result.visits] \
            == LOCKSTEP_VISITS[:max_visits]
        traces = result.traces
        assert (traces["m1"].distance_travelled, traces["m1"].collections) == m1
        assert (traces["m2"].distance_travelled, traces["m2"].collections) == m2


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
        """Each mule's tracked battery ends its own row, at its own time."""
        spec = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec(
                "uniform",
                {"num_targets": 8, "num_mules": 3, "mule_battery": 30_000.0,
                 "with_recharge_station": True},
                seed=5,
            ),
            sim=SimulationConfig(horizon=5_000.0, track_energy=True),
            seed=1,
        )
        record = assert_batched_agrees(spec)
        assert record["num_dead_mules"] == 3


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


def still_recharge_lap(battery):
    """g1, g2 and the recharge station all at (100, 0); one tracked mule from the sink."""
    return (
        lambda: line_scenario(g2_x=100.0, with_recharge=True, recharge_x=100.0,
                              battery=lambda: Battery(battery)),
        lambda scenario: loop_plan(scenario, loops={"m1": ["g1", "g2", "recharge"]}),
    )


def endless_runs():
    """``(name, run)`` for each reproducer whose run would never end."""
    reproducers = {
        "line": (lambda: line_scenario(g2_x=100.0),
                 lambda scenario: loop_plan(scenario, loops={"m1": ["g1", "g2"]}), {}),
        "sweep": (lambda: coincident_pairs_scenario(2),
                  get_strategy("sweep", include_sink_in_groups=False).plan, {}),
        "random": (lambda: coincident_pairs_scenario(1),
                   get_strategy("random", include_sink=False, seed=3).plan, {}),
        # Each lap drains 0.15 J collecting and refills at the station.
        "recharge": (*still_recharge_lap(1000.0), {"track_energy": True}),
    }
    for tier, fast_path in (("fast", True), ("slow", False)):
        for name, (build, plan, changes) in reproducers.items():
            cfg = dataclasses.replace(FAST, fast_path=fast_path, **changes)

            def run(build=build, plan=plan, cfg=cfg):
                scenario = build()
                PatrolSimulator(scenario, plan(scenario), cfg).run()

            yield f"{name}-{tier}", run


def station_laps(count=40, seed=20261017):
    """Seeded still laps through the station, as ``(capacity, remaining, loop)``.

    Each charge lasts at most six 0.075 J collections, so a mule either runs
    dry within two laps of its first refill or never does.
    """
    rng = random.Random(seed)
    for _ in range(count):
        loop = [f"g{k}" for k in range(1, rng.randint(1, 3) + 1)]
        loop += ["recharge"] * rng.randint(1, 2)
        rng.shuffle(loop)
        capacity = rng.uniform(0.05, 0.5)
        yield capacity, rng.uniform(0.0, capacity), loop


def run_station_lap(capacity, remaining, loop, **cfg_changes):
    """One tracked mule looping ``loop`` where three targets and the station share (100, 0)."""
    point = Point(100.0, 0.0)
    scenario = Scenario(
        targets=[Target(f"g{k}", point) for k in (1, 2, 3)],
        sink=Sink("sink", Point(0.0, 0.0)),
        mules=[DataMule("m1", point, battery=Battery(capacity, remaining=remaining))],
        recharge_station=RechargeStation("recharge", point),
        field=Field(), params=SimulationParameters(), name="station",
    )
    cfg = dataclasses.replace(FAST, track_energy=True, **cfg_changes)
    return PatrolSimulator(scenario, loop_plan(scenario, loops={"m1": loop}), cfg).run()


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

_STATION_CHILD = """
import sys
sys.path[:0] = {paths!r}
from test_fastpath_boundaries import run_station_lap, station_laps
for case in station_laps():
    try:
        result = run_station_lap(*case)
        print(len(result.visits), result.traces["m1"].death_time, flush=True)
    except ValueError as exc:
        print(exc, flush=True)
"""


def child_lines(template: str) -> "list[str]":
    """Stdout lines of ``template`` run in a fresh interpreter with a 30 s deadline.

    A regression spins forever, so such runs go to a child.
    """
    tests = os.path.dirname(os.path.abspath(__file__))
    code = template.format(paths=[tests, os.path.join(os.path.dirname(tests), "src")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestZeroLengthLap:
    """A lap whose legs all have length 0 never advances time.

    With g2 moved onto g1 at (100, 0), the mule reaches g1 at t = 50 and then
    alternates g1 -> g2 at t = 50 forever.  The event loop, which every tier
    falls back to, refuses such a run; every run that ends stays as it was.
    A tracked battery ends the run only if the collections empty it before
    a recharge station on the lap refills it.
    """

    def test_endless_runs_raise_instead_of_hanging(self):
        lines = child_lines(_ENDLESS_CHILD)
        assert [line.split()[0] for line in lines] == [
            f"{name}-{tier}" for tier in ("fast", "slow")
            for name in ("line", "sweep", "random", "recharge")
        ]
        for line in lines:
            mules = "['m1', 'm2']" if line.startswith("sweep") else "['m1']"
            assert f"zero-length lap: mules {mules} keep revisiting one point" in line

    def test_seeded_station_laps_end_exactly_when_the_battery_runs_dry(self):
        # The oracle is a run capped at 60 target visits, twenty laps or
        # more: a mule still alive then never runs dry, so its uncapped run
        # must raise, and one that died must end the same way uncapped.
        expected = []
        for case in station_laps():
            capped = run_station_lap(*case, max_visits=60)
            death = capped.traces["m1"].death_time
            expected.append("raises" if death is None else f"{len(capped.visits)} {death}")
        assert 0 < expected.count("raises") < len(expected)
        lines = child_lines(_STATION_CHILD)
        assert ["raises" if line.startswith("zero-length lap: mules ['m1']") else line
                for line in lines] == expected

    STILL = (lambda: line_scenario(g2_x=100.0),
             lambda scenario: loop_plan(scenario, loops={"m1": ["g1", "g2"]}))

    @pytest.mark.parametrize("layout, cfg_changes, visits, last, death, dispatch", [
        (STILL, {"max_visits": 1000}, 1000, 50.0, None, "dynamic-fallback"),
        ((lambda: line_scenario(g2_x=100.0, battery=lambda: Battery(1000.0)), STILL[1]),
         {"track_energy": True}, 2311, 50.0, 50.0, "dynamic-fallback"),
        ((lambda: line_scenario(g2_x=100.0, collection_time=5.0), STILL[1]),
         {}, 91, 500.0, None, None),
        # 0.1 J is left at g1 after the 826.7 J leg: 0.025 J after its
        # collection, so the mule dies collecting at g2, before the station.
        (still_recharge_lap(826.8), {"track_energy": True}, 2, 50.0, 50.0,
         "dynamic-fallback"),
        # 0.05 J is left at g1, and its collection empties the battery.
        (still_recharge_lap(826.75), {"track_energy": True}, 1, 50.0, 50.0,
         "dynamic-fallback"),
    ], ids=["max-visits", "tracked-battery", "dwell", "recharge-lap-dies-at-g2",
            "recharge-lap-dies-at-g1"])
    def test_runs_that_end_are_unchanged(
        self, layout, cfg_changes, visits, last, death, dispatch
    ):
        with obs.obs_collected(enabled=True) as window:
            fast, slow = run_both(
                *layout,
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
