"""Integration proofs for the observability layer.

The load-bearing guarantee: instrumentation is **byte-invisible**.  Records
and fingerprints must be identical with the registry on or off, on both the
serial and the process-pool execution paths — these tests are the proof the
determinism lint's ``obs`` wall-clock allowance and the fingerprint
exemption for ``SimulationConfig.obs`` both point at.

Also covered here: the counter reconciliation invariant (every cell shows
up in exactly one dispatch counter), the span-derived plan/sim split
(``cells_timed`` counts pool cells too), the scheduler's coalesced
counter mirroring, the stdio ``metrics`` op, and the CLI surfaces
(``obs``, ``report --dispatch``, span artifacts next to ``--out``).
"""

import io
import json
import threading

import pytest

from repro import obs, switches
from repro.cli import main
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import _json_sanitize
from repro.scenarios import ScenarioSpec
from repro.service import ServiceScheduler
from repro.service.stdio import StdioTransport
from repro.sim import SimulationConfig
from repro.store import run_fingerprint


@pytest.fixture(autouse=True)
def clean_registry():
    previous = obs.obs_enabled()
    obs.reset()
    obs.configure(enabled=False)
    yield
    obs.reset()
    obs.configure(enabled=previous)


def campaign_spec(*, obs_on: bool, replications: int = 3,
                  strategies=("b-tctp", "chb", "random"), layout_seed=None,
                  declined: bool = False) -> CampaignSpec:
    # On these layouts the batch layer runs every strategy: b-tctp, sweep,
    # chb (whose mules leave the sink together, so their tied visits replay
    # the event queue's order) and random (whose walks it draws).
    # ``declined`` adds a twin of every cell with sim.batch_path off, which
    # the batch declines, so the per-cell path (or the pool) runs half the
    # campaign.  A pinned layout_seed makes the replications share one row
    # set.
    base = RunSpec(
        strategy="b-tctp",
        scenario=ScenarioSpec("uniform", {"num_targets": 6, "num_mules": 2},
                              seed=layout_seed),
        sim=SimulationConfig(horizon=2_000.0, track_energy=False, obs=obs_on),
        seed=0,
    )
    grid = {"strategy": list(strategies)}
    if declined:
        grid["sim.batch_path"] = [True, False]
    return CampaignSpec(base=base, grid=grid, replications=replications)


def canonical(records):
    return [json.dumps(_json_sanitize(r), sort_keys=True) for r in records]


def counter_value(snapshot: dict, name: str, **labels) -> float:
    total = 0
    for counter in snapshot["counters"]:
        if counter["name"] != name:
            continue
        if all(counter["labels"].get(k) == v for k, v in labels.items()):
            total += counter["value"]
    return total


class TestByteIdentity:
    def test_serial_records_and_fingerprints_identical(self):
        plain = Campaign(campaign_spec(obs_on=False)).run(store=False)
        instrumented = Campaign(campaign_spec(obs_on=True)).run(store=False)
        assert canonical(plain.records) == canonical(instrumented.records)
        off_cells = Campaign(campaign_spec(obs_on=False)).cells()
        on_cells = Campaign(campaign_spec(obs_on=True)).cells()
        for off, on in zip(off_cells, on_cells):
            assert run_fingerprint(off) == run_fingerprint(on)
        assert "obs" not in plain.metadata
        assert instrumented.metadata["obs"]["enabled"] is True

    def test_pool_records_identical_and_workers_instrumented(self):
        plain = Campaign(campaign_spec(obs_on=False, declined=True)).run(store=False)
        pooled = Campaign(campaign_spec(obs_on=True, declined=True),
                          max_workers=2).run(store=False)
        assert canonical(plain.records) == canonical(pooled.records)
        # worker drains merged into the parent: the per-cell dispatch
        # counters cover every cell even though workers ran them
        snapshot = pooled.metadata["obs"]
        cells = pooled.metadata["num_cells"]
        dispatched = (counter_value(snapshot, "batch_dispatch", outcome="batch")
                      + counter_value(snapshot, "sim_dispatch"))
        assert dispatched == cells

    def test_env_switch_keeps_records_identical(self, monkeypatch):
        plain = Campaign(campaign_spec(obs_on=False)).run(store=False)
        obs.configure(enabled=True)
        instrumented = Campaign(campaign_spec(obs_on=False)).run(store=False)
        assert canonical(plain.records) == canonical(instrumented.records)
        assert instrumented.metadata["obs"]["spans"]["recorded"] > 0


class TestReconciliation:
    def test_every_cell_lands_in_exactly_one_execution_counter(self):
        # Cells the batch layer executes count once as batch_dispatch{batch};
        # cells it declines count once as batch_dispatch{scalar, reason} AND
        # once in sim_dispatch when the per-cell path actually runs them —
        # so executions reconcile as batch + sim_dispatch == cells.
        result = Campaign(campaign_spec(obs_on=True, declined=True)).run(store=False)
        snapshot = result.metadata["obs"]
        cells = result.metadata["num_cells"]
        batch = counter_value(snapshot, "batch_dispatch", outcome="batch")
        scalar = counter_value(snapshot, "batch_dispatch", outcome="scalar")
        sim = counter_value(snapshot, "sim_dispatch")
        assert batch + sim == cells
        assert scalar == sim  # every decline fell through to the per-cell path
        assert batch > 0 and scalar > 0

    def test_store_lookup_counters_match_store_metadata(self, tmp_path):
        # With two workers the declined batch_path=false cells fork a pool
        # after the lookups were counted; workers must not report them a
        # second time.
        spec = campaign_spec(obs_on=True, replications=2, declined=True)
        for max_workers in (None, 2):
            store = str(tmp_path / f"store-{max_workers}")
            cold = Campaign(spec, max_workers=max_workers).run(store=store)
            warm = Campaign(spec, max_workers=max_workers).run(store=store)
            cold_obs, warm_obs = cold.metadata["obs"], warm.metadata["obs"]
            assert counter_value(cold_obs, "store_lookup", outcome="miss") \
                == cold.metadata["store"]["misses"] == cold.metadata["num_cells"]
            assert counter_value(warm_obs, "store_lookup", outcome="hit") \
                == warm.metadata["store"]["hits"] == warm.metadata["num_cells"]

    def test_snapshot_scoped_to_the_campaign_window(self):
        obs.configure(enabled=True)
        obs.inc("sim_dispatch", 99, outcome="fastpath")  # pre-window noise
        result = Campaign(campaign_spec(obs_on=True)).run(store=False)
        snapshot = result.metadata["obs"]
        cells = result.metadata["num_cells"]
        assert (counter_value(snapshot, "batch_dispatch", outcome="batch")
                + counter_value(snapshot, "sim_dispatch")) == cells


class TestWorkerTimingMerge:
    """The plan/sim split is read from the cell spans, pool workers' included."""

    def test_serial_times_every_per_cell_execution(self):
        from repro.sim.batchpath import batchpath_disabled

        with batchpath_disabled():  # batch-executed groups are not per-cell timed
            result = Campaign(campaign_spec(obs_on=True)).run(store=False)
        timing = result.metadata["timing"]
        assert timing["cells_timed"] == result.metadata["num_cells"]
        assert timing["planning_s"] >= 0 and timing["simulation_s"] > 0

    def test_pool_times_every_cell(self):
        from repro.sim.batchpath import batchpath_disabled

        with batchpath_disabled():  # every cell goes to the pool
            result = Campaign(campaign_spec(obs_on=True), max_workers=2).run(store=False)
        timing = result.metadata["timing"]
        assert timing["cells_timed"] == result.metadata["num_cells"]
        assert timing["simulation_s"] > 0


class TestBatchFirstPool:
    """The batch layer runs in-process; the pool gets only what it declines."""

    def test_pool_runs_only_the_declined_cells(self, monkeypatch):
        import repro.runner.campaign as campaign
        from repro.sim.batchpath import batchpath_disabled

        pooled_cells = []

        class SpyPool(campaign.ProcessPoolExecutor):
            def map(self, fn, specs, **kwargs):
                pooled_cells.append(len(specs))
                return super().map(fn, specs, **kwargs)

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", SpyPool)
        spec = campaign_spec(obs_on=True, strategies=("b-tctp", "random", "chb", "sweep"),
                             declined=True)
        seen = []
        pooled = Campaign(spec, max_workers=2).run(
            store=False, on_record=lambda index, _record: seen.append(index))
        serial = Campaign(spec).run(store=False)
        with batchpath_disabled():
            unbatched = Campaign(spec).run(store=False)
        assert canonical(pooled.records) == canonical(serial.records) \
            == canonical(unbatched.records)
        cells = pooled.metadata["num_cells"]
        assert seen == list(range(cells))
        snapshot = pooled.metadata["obs"]
        declined = counter_value(snapshot, "batch_dispatch", outcome="scalar")
        assert 0 < declined < cells
        assert pooled_cells == [declined]
        assert pooled.metadata["timing"]["cells_timed"] == declined
        assert (counter_value(snapshot, "batch_dispatch", outcome="batch")
                + counter_value(snapshot, "sim_dispatch")) == cells

    def test_all_batchable_campaign_starts_no_workers(self, monkeypatch):
        import repro.runner.campaign as campaign

        def no_pool(*args, **kwargs):
            raise AssertionError("every cell was batchable; no worker should start")

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", no_pool)
        spec = campaign_spec(obs_on=True, strategies=("b-tctp", "sweep"))
        pooled = Campaign(spec, max_workers=2).run(store=False)
        assert canonical(pooled.records) == canonical(Campaign(spec).run(store=False).records)
        assert pooled.metadata["timing"]["cells_timed"] == 0

    @pytest.mark.parametrize("flipped", [
        tuple(switch.env for switch in switches.SWITCHES),
    ], ids=["every-switch"])
    def test_worker_initializer_mirrors_vector_switch_and_empties_registry(self, flipped):
        from repro.runner.campaign import _init_worker_state

        previous = switches.snapshot()
        obs.configure(enabled=True)
        obs.inc("sim_dispatch", outcome="fastpath")  # inherited through fork
        # the parent's snapshot differs from this (worker) process's state
        # in every flipped switch
        parent = {env: on != (env in flipped) for env, on in switches.snapshot().items()}
        try:
            _init_worker_state(parent)
            assert switches.snapshot() == parent
            assert obs.snapshot()["counters"] == []
        finally:
            switches.restore(previous)


class TestRowSetMemo:
    """Cells sharing a row set share one reduction, and stay per-cell in the counts."""

    def test_one_reduction_per_row_set_and_per_cell_counts(self, monkeypatch):
        from repro.geometry.cache import clear_caches
        from repro.sim import batchpath

        reductions = []
        original = batchpath.fast_result

        def counting(sim):
            reductions.append(sim.plan.strategy)  # the planner's name
            return original(sim)

        monkeypatch.setattr(batchpath, "fast_result", counting)
        clear_caches()
        spec = campaign_spec(obs_on=True, replications=4, layout_seed=0,
                             strategies=("b-tctp", "chb"))
        result = Campaign(spec).run(store=False)
        snapshot = result.metadata["obs"]
        assert sorted(reductions) == ["B-TCTP", "CHB"]
        assert counter_value(snapshot, "batch_dispatch", outcome="batch") == 8
        assert counter_value(snapshot, "batch_dispatch", outcome="scalar") == 0
        assert counter_value(snapshot, "batch_dispatch") == result.metadata["num_cells"]

    def test_a_memoised_decline_counts_per_cell(self, monkeypatch):
        from repro.geometry.cache import clear_caches
        from repro.sim import batchpath
        from repro.sim.fastpath import LegPattern

        reductions = []
        original = batchpath.fast_result

        def counting(sim):
            reductions.append(sim.plan.strategy)  # the planner's name
            return original(sim)

        monkeypatch.setattr(batchpath, "fast_result", counting)
        # A short lap estimate declines the row set after the tensor pass.
        monkeypatch.setattr(LegPattern, "reaches", lambda _pattern, _horizon: False)
        clear_caches()
        try:
            spec = campaign_spec(obs_on=True, replications=4, layout_seed=0,
                                 strategies=("b-tctp",))
            result = Campaign(spec).run(store=False)
        finally:
            clear_caches()
        snapshot = result.metadata["obs"]
        assert reductions == ["B-TCTP"]
        assert counter_value(snapshot, "batch_dispatch", outcome="scalar",
                             reason="lap-estimate") == 4
        assert counter_value(snapshot, "batch_dispatch") == result.metadata["num_cells"]

    def test_records_identical_with_caching_on_or_off(self):
        from repro.geometry.cache import caching_disabled, clear_caches

        spec = campaign_spec(obs_on=False, replications=4,
                             strategies=("b-tctp", "chb", "sweep"), layout_seed=0)
        clear_caches()
        cached = Campaign(spec).run(store=False)
        with caching_disabled():
            uncached = Campaign(spec).run(store=False)
        assert canonical(cached.records) == canonical(uncached.records)

    def test_a_cached_row_set_answers_its_cells_alone(self, monkeypatch):
        # Only a row-set miss builds a scenario, plans and makes a simulator,
        # and it reaches the first two through their module attributes, which
        # perfbench wraps to time the scenario and planning layers.
        import repro.baselines.base as base
        import repro.runner.campaign as campaign
        from repro.geometry.cache import cache_stats, clear_caches
        from repro.sim.batchpath import batchpath_disabled
        from repro.sim.engine import PatrolSimulator

        spec = campaign_spec(obs_on=False, replications=4, layout_seed=0,
                             strategies=("b-tctp", "chb"))
        with batchpath_disabled():
            expected = Campaign(spec).run(store=False)
        built, planned, simulators = [], [], []
        build, get_strategy, init = (campaign.build_cell_scenario, base.get_strategy,
                                     PatrolSimulator.__init__)
        monkeypatch.setattr(campaign, "build_cell_scenario",
                            lambda cell: built.append(cell.strategy) or build(cell))
        monkeypatch.setattr(base, "get_strategy",
                            lambda name, **kw: planned.append(name) or get_strategy(name, **kw))
        monkeypatch.setattr(PatrolSimulator, "__init__",
                            lambda sim, *args: simulators.append(sim) or init(sim, *args))
        clear_caches()
        try:
            result = Campaign(spec).run(store=False)
            stats = cache_stats()
        finally:
            clear_caches()
        assert canonical(result.records) == canonical(expected.records)
        assert built == planned == ["b-tctp", "chb"] and len(simulators) == 2
        hits_misses = {name: (stats[name]["hits"], stats[name]["misses"])
                       for name in ("batch_rows", "batch_plan", "scenario_prototype")}
        assert hits_misses == {"batch_rows": (6, 2), "batch_plan": (0, 2),
                               "scenario_prototype": (1, 1)}


class TestBatchSpans:
    """Batched cells show up in a trace: one span tree per batch call."""

    def _batch_tree(self, spans, reduced):
        """The one ``batch`` span, whose children are ``reduced`` ``batch-reduce`` spans."""
        (batch,) = [s for s in spans if s["name"] == "batch"]
        children = [s["name"] for s in spans if s["parent"] == batch["id"]]
        assert children == ["batch-reduce"] * reduced
        return batch

    def test_one_batch_span_tree_per_campaign(self):
        from repro.geometry.cache import clear_caches

        obs.configure(enabled=True)
        clear_caches()
        try:
            result = Campaign(campaign_spec(obs_on=True, replications=4, layout_seed=0,
                                            strategies=("b-tctp", "sweep"))).run(store=False)
        finally:
            clear_caches()
        spans = obs.spans()
        # The pinned layout gives one row key per strategy, each reduced once.
        batch = self._batch_tree(spans, reduced=2)
        (campaign,) = [s for s in spans if s["name"] == "campaign"]
        assert batch["parent"] == campaign["id"]
        assert batch["args"]["cells"] == result.metadata["num_cells"]
        # every cell batched, so no cell spans
        assert not [s for s in spans if s["name"] == "cell"]

    def test_single_cell_gets_its_own_tree(self):
        from repro.geometry.cache import clear_caches
        from repro.runner import execute_run

        obs.configure(enabled=True)
        cell = Campaign(campaign_spec(obs_on=True)).cells()[0]
        clear_caches()
        try:
            execute_run(cell)
        finally:
            clear_caches()
        batch = self._batch_tree(obs.spans(), reduced=1)
        assert batch["parent"] is None and batch["args"]["cells"] == 1

    def test_one_reduce_span_per_missed_row_key(self):
        from repro.geometry.cache import clear_caches
        from repro.sim.batchpath import batch_execute_records

        # Unpinned: each replication draws its own layout, so six row keys;
        # the repeated cells hit the entries their first copies put.
        cells = Campaign(campaign_spec(obs_on=False, replications=3,
                                       strategies=("b-tctp", "chb"))).cells()
        obs.configure(enabled=True)
        clear_caches()
        try:
            cold = batch_execute_records([*cells, *cells[:2]])
            cold_spans = obs.spans()
            obs.reset()
            warm = batch_execute_records(cells)
            warm_spans = obs.spans()
        finally:
            clear_caches()
        assert None not in cold and warm == cold[:6]
        batch = self._batch_tree(cold_spans, reduced=6)
        assert batch["args"]["cells"] == 8
        reduces = [s for s in cold_spans if s["name"] == "batch-reduce"]
        assert all(s["cat"] == "batch" for s in reduces)
        # A warm call answers every cell from the cache: no reduce span.
        assert self._batch_tree(warm_spans, reduced=0)["args"]["cells"] == 6


class TestServiceCounters:
    def test_coalesced_counter_matches_subscriber_count(self):
        release = threading.Event()

        def slow_runner(spec, store=None):
            release.wait(timeout=30)
            return {"seed": spec.seed}, "executed"

        spec = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
            sim=SimulationConfig(horizon=300.0, track_energy=False),
        )
        with obs.obs_collected(enabled=True) as window:
            scheduler = ServiceScheduler(store=False, workers=2,
                                         cell_runner=slow_runner)
            try:
                tickets = [scheduler.submit(spec) for _ in range(3)]
                release.set()
                for ticket in tickets:
                    ticket.records()
            finally:
                release.set()
                scheduler.shutdown()
            snapshot = window.snapshot()
        stats = scheduler.stats()
        assert stats["coalesced"] == 2
        assert counter_value(snapshot, "service_admission", outcome="coalesced") == 2
        assert counter_value(snapshot, "service_admission", outcome="executed") == 1
        assert counter_value(snapshot, "service_requests", outcome="admitted") == 3
        assert counter_value(snapshot, "service_shutdowns") == 1

    def test_stdio_metrics_op_serves_prometheus_text(self):
        output = io.StringIO()
        scheduler = ServiceScheduler(store=False, workers=1)
        transport = StdioTransport(
            scheduler,
            input_stream=io.StringIO('{"op": "metrics"}\n{"op": "nope"}\n'),
            output_stream=output,
        )
        transport.serve_forever()
        lines = [json.loads(line) for line in output.getvalue().splitlines()]
        assert lines[0]["event"] == "metrics"
        assert "repro_service_requests_total 0" in lines[0]["text"]
        assert "repro_obs_enabled 0" in lines[0]["text"]
        assert "ops: stats, metrics, lookup" in lines[1]["message"]


class TestCliSurfaces:
    def _run_campaign(self, tmp_path, *, obs_on=True):
        spec = campaign_spec(obs_on=obs_on, replications=2)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out = tmp_path / "camp.json"
        rc = main(["run", str(spec_path), "--no-store", "--out", str(out), "--json"])
        assert rc == 0
        return out

    def test_run_writes_span_artifacts_next_to_out(self, tmp_path, capsys):
        out = self._run_campaign(tmp_path)
        capsys.readouterr()
        log = tmp_path / "camp.spans.jsonl"
        trace = tmp_path / "camp.trace.json"
        assert log.exists() and trace.exists()
        spans = obs.read_span_log(log)
        assert spans and obs.validate_trace(json.loads(trace.read_text())) == []
        assert json.loads(out.read_text())["metadata"]["obs"]["spans"]["recorded"] \
            == len(spans)

    def test_run_without_obs_writes_no_span_artifacts(self, tmp_path, capsys):
        self._run_campaign(tmp_path, obs_on=False)
        capsys.readouterr()
        assert not (tmp_path / "camp.spans.jsonl").exists()
        assert not (tmp_path / "camp.trace.json").exists()

    def test_obs_command_summarises_artifact_and_replays_trace(self, tmp_path, capsys):
        out = self._run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["obs", str(out)]) == 0
        plain = capsys.readouterr().out
        assert "Counters of" in plain and "spans:" in plain
        assert main(["obs", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == json.loads(out.read_text())["metadata"]["obs"]
        replay = tmp_path / "replay.json"
        assert main(["obs", str(tmp_path / "camp.spans.jsonl"),
                     "--trace", str(replay)]) == 0
        capsys.readouterr()
        assert json.loads(replay.read_text()) \
            == json.loads((tmp_path / "camp.trace.json").read_text())

    def test_obs_command_rejects_artifact_without_obs_block(self, tmp_path, capsys):
        out = self._run_campaign(tmp_path, obs_on=False)
        capsys.readouterr()
        assert main(["obs", str(out)]) == 2
        assert "no metadata.obs block" in capsys.readouterr().err

    def test_report_dispatch_renders_per_reason_counts(self, tmp_path, capsys):
        out = self._run_campaign(tmp_path)
        capsys.readouterr()
        assert main(["report", "--dispatch", str(out), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["dispatch"]
        assert rows and all(r["counter"] in ("sim_dispatch", "batch_dispatch")
                            for r in rows)
        executed = sum(r["count"] for r in rows
                       if (r["counter"], r["outcome"]) != ("batch_dispatch", "scalar"))
        assert executed == json.loads(out.read_text())["metadata"]["num_cells"]
        assert main(["report", "--dispatch", str(out)]) == 0
        assert "Dispatch outcomes" in capsys.readouterr().out
