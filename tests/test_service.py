"""Tests for the service layer: transport registry, scheduler, coalescing.

The HTTP wire protocol has its own file (test_service_http.py); this one
covers the transport-agnostic pieces — registry contracts, the scheduler's
coalescing/backpressure/shutdown semantics, the store-backed zero-duplicate
guarantee under concurrent submitters, and the runner's new cancellable /
observable entry points.
"""

import io
import json
import sys
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.geometry.cache import clear_caches
from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import _json_sanitize, execute_cell
from repro.scenarios import ScenarioSpec
from repro.service import (
    ServiceClosed,
    ServiceOverloaded,
    ServiceScheduler,
    available_transports,
    canonical_transport_name,
    filter_transport_kwargs,
    get_transport,
    register_transport,
    transport_info,
    transport_params,
    validate_transport_options,
)
from repro.sim import SimulationConfig
from repro.store import ResultStore, run_fingerprint


def tiny_run(seed=0, strategy="b-tctp"):
    return RunSpec(
        strategy=strategy,
        scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
        sim=SimulationConfig(horizon=300.0, track_energy=False),
        seed=seed,
    )


def tiny_campaign(replications=2):
    return CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "chb"]},
                        replications=replications)


def canonical(records):
    return [json.dumps(_json_sanitize(r), sort_keys=True) for r in records]


# --------------------------------------------------------------------------- #
# Transport registry
# --------------------------------------------------------------------------- #

class TestTransportRegistry:
    def test_builtins_registered(self):
        names = available_transports()
        assert "http" in names and "stdio" in names
        assert {"rest", "console"} <= set(available_transports(include_aliases=True))

    def test_aliases_resolve(self):
        assert canonical_transport_name("rest") == "http"
        assert canonical_transport_name("CONSOLE") == "stdio"

    def test_unknown_transport_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'http'"):
            canonical_transport_name("htp")

    def test_declared_params(self):
        assert transport_params("http") == {"host", "port"}
        assert transport_params("stdio") == frozenset()
        info = transport_info("http")
        assert info.params["port"].default == 8422
        assert info.params["host"].kind == "str"
        assert info.defaults() == {"host": "127.0.0.1", "port": 8422}

    def test_unknown_option_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="does not accept option"):
            validate_transport_options("http", {"prot": 1})
        with pytest.raises(ValueError, match="did you mean 'port'"):
            validate_transport_options("http", {"porp": 1})

    def test_stdio_takes_no_socket_options(self):
        with pytest.raises(ValueError, match="does not accept"):
            validate_transport_options("stdio", {"host": "0.0.0.0"})
        assert filter_transport_kwargs("stdio", {"host": "x", "port": 1}) == {}
        assert filter_transport_kwargs("http", {"host": "x", "port": 1, "junk": 2}) \
            == {"host": "x", "port": 1}

    def test_kwargs_factory_rejected(self):
        with pytest.raises(TypeError, match="explicit keyword option set"):
            register_transport("bad-transport", lambda scheduler, **kw: None,
                               description="catch-all")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_transport("http", lambda scheduler: None, description="dup")
        with pytest.raises(ValueError, match="already registered"):
            register_transport("fresh-name", lambda scheduler: None,
                              aliases=("rest",), description="alias dup")

    def test_get_transport_builds_and_validates(self):
        scheduler = ServiceScheduler(store=False, workers=1)
        try:
            transport = get_transport("rest", scheduler, port=0)
            assert transport.scheduler is scheduler
            assert transport.port == 0
            with pytest.raises(ValueError, match="does not accept"):
                get_transport("http", scheduler, bogus=1)
        finally:
            scheduler.shutdown()


# --------------------------------------------------------------------------- #
# Scheduler core
# --------------------------------------------------------------------------- #

class TestScheduler:
    def test_run_spec_executes_and_streams_events(self):
        with ServiceScheduler(store=False, workers=1) as scheduler:
            events = list(scheduler.submit(tiny_run()).events())
        assert [e["event"] for e in events] == ["start", "cell", "done"]
        assert events[0]["total"] == 1
        assert events[1]["source"] == "executed"
        assert events[1]["record"]["strategy"] == "b-tctp"
        assert events[-1] == {"event": "done", "total": 1, "executed": 1,
                              "store": 0, "coalesced": 0, "failed": 0}

    def test_records_byte_identical_to_campaign_run(self):
        spec = tiny_campaign()
        with ServiceScheduler(store=False, workers=2) as scheduler:
            served = scheduler.submit(spec).records()
        direct = Campaign(spec).run(store=False).records
        assert canonical(served) == canonical(direct)

    def test_mapping_specs_accepted(self):
        payload = json.loads(tiny_run().to_json())
        with ServiceScheduler(store=False, workers=1) as scheduler:
            ticket = scheduler.submit(payload)
            assert len(ticket) == 1
            assert ticket.records()[0]["strategy"] == "b-tctp"

    def test_invalid_spec_rejected_before_admission(self):
        with ServiceScheduler(store=False, workers=1) as scheduler:
            with pytest.raises(ValueError):
                scheduler.submit({"kind": "run", "strategy": "nope-strategy"})
            assert scheduler.stats()["requests"] == 0

    def test_store_hits_skip_execution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_campaign()
        with ServiceScheduler(store=store, workers=2) as scheduler:
            cold = scheduler.submit(spec).records()
            warm_events = list(scheduler.submit(spec).events())
            stats = scheduler.stats()
        assert stats["executed"] == len(cold)
        assert stats["store_hits"] == len(cold)
        assert all(e["source"] == "store"
                   for e in warm_events if e["event"] == "cell")
        warm = [e["record"] for e in warm_events if e["event"] == "cell"]
        assert canonical(warm) == canonical(cold)

    def test_lookup_states(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_run()
        # the daemon keys cells by their *expanded* fingerprint (replication
        # label + strategy defaults), exactly as `repro-patrol run` stores them
        fingerprint = run_fingerprint(Campaign(spec).cells()[0])
        with ServiceScheduler(store=store, workers=1) as scheduler:
            assert scheduler.lookup(fingerprint) is None
            ticket = scheduler.submit(spec)
            assert ticket.fingerprints() == [fingerprint]
            ticket.records()
            found = scheduler.lookup(fingerprint)
        assert found["status"] == "stored"
        assert found["strategy"] == "b-tctp"
        assert found["record"]["seed"] == 0

    def test_lookup_reports_inflight(self):
        release = threading.Event()

        def slow_runner(spec, store=None):
            release.wait(timeout=30)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=1, cell_runner=slow_runner)
        try:
            ticket = scheduler.submit(tiny_run())
            fingerprint = ticket.fingerprints()[0]
            assert scheduler.lookup(fingerprint) == {"fingerprint": fingerprint,
                                                     "status": "in-flight"}
        finally:
            release.set()
            scheduler.shutdown()
        assert ticket.records()[0] == {"seed": 0}

    def test_closed_scheduler_rejects_work(self):
        scheduler = ServiceScheduler(store=False, workers=1)
        scheduler.shutdown()
        with pytest.raises(ServiceClosed):
            scheduler.submit(tiny_run())
        assert scheduler.stats()["accepting"] is False

    def test_failed_cell_streams_error_and_continues(self):
        def flaky_runner(spec, store=None):
            if spec.seed == 0:
                raise RuntimeError("boom")
            return {"seed": spec.seed}, "executed"

        spec = CampaignSpec(base=tiny_run(), replications=2)
        with ServiceScheduler(store=False, workers=1,
                              cell_runner=flaky_runner) as scheduler:
            events = list(scheduler.submit(spec).events())
            kinds = [e["event"] for e in events]
            assert kinds == ["start", "error", "cell", "done"]
            assert "RuntimeError: boom" in events[1]["message"]
            assert events[-1]["failed"] == 1 and events[-1]["executed"] == 1
            # a failed fingerprint leaves the in-flight table, so a retry
            # re-executes instead of coalescing onto the dead future
            retry = list(scheduler.submit(spec).events())
            assert [e["event"] for e in retry] == ["start", "error", "cell", "done"]
            assert scheduler.stats()["coalesced"] == 0

    def test_validation_guards(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceScheduler(store=False, workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            ServiceScheduler(store=False, workers=1, queue_limit=0)


class TestCoalescing:
    def test_concurrent_identical_requests_execute_once(self):
        release = threading.Event()
        calls = []
        lock = threading.Lock()

        def slow_runner(spec, store=None):
            with lock:
                calls.append(run_fingerprint(spec))
            release.wait(timeout=30)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=2, cell_runner=slow_runner)
        try:
            spec = tiny_run()
            tickets = [scheduler.submit(spec) for _ in range(3)]
            release.set()
            streams = [list(t.events()) for t in tickets]
        finally:
            release.set()
            scheduler.shutdown()
        assert len(calls) == 1  # exactly one execution for three requests
        # every subscriber still receives the full stream
        for index, stream in enumerate(streams):
            assert [e["event"] for e in stream] == ["start", "cell", "done"]
            assert stream[1]["record"] == {"seed": 0}
            assert stream[1]["source"] == ("executed" if index == 0 else "coalesced")
        stats = scheduler.stats()
        assert stats["executed"] == 1 and stats["coalesced"] == 2

    def test_duplicate_cells_within_one_request_coalesce(self):
        calls = []

        def counting_runner(spec, store=None):
            calls.append(run_fingerprint(spec))
            return {"seed": spec.seed}, "executed"

        # replications=1 with a 2-strategy grid plus a duplicated strategy
        # value yields two identical cells in one campaign.
        spec = CampaignSpec(base=tiny_run(),
                            grid={"strategy": ["b-tctp", "b-tctp"]},
                            replications=1)
        with ServiceScheduler(store=False, workers=1,
                              cell_runner=counting_runner) as scheduler:
            records = scheduler.submit(spec).records()
        assert len(records) == 2 and records[0] == records[1]
        assert len(calls) == 1

    def test_queue_overflow_rejected_whole_with_retry_after(self):
        release = threading.Event()

        def slow_runner(spec, store=None):
            release.wait(timeout=30)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=1, queue_limit=1,
                                     retry_after=7.0, cell_runner=slow_runner)
        try:
            first = scheduler.submit(tiny_run(seed=0))  # fills the queue
            with pytest.raises(ServiceOverloaded) as excinfo:
                scheduler.submit(tiny_run(seed=1))
            assert excinfo.value.retry_after == 7.0
            assert "retry after 7s" in str(excinfo.value)
            # an identical request coalesces instead of being rejected
            coalesced = scheduler.submit(tiny_run(seed=0))
            assert scheduler.stats()["rejected"] == 1
            release.set()
            assert first.records() == coalesced.records() == [{"seed": 0}]
        finally:
            release.set()
            scheduler.shutdown()
        # after the drain the queue is free again
        assert scheduler.stats()["pending"] == 0

    def test_overflow_rejects_before_enqueuing_anything(self):
        release = threading.Event()

        def slow_runner(spec, store=None):
            release.wait(timeout=30)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=1, queue_limit=2,
                                     cell_runner=slow_runner)
        try:
            scheduler.submit(tiny_run(seed=0))
            # 2 fresh cells against 1 free slot: the whole request bounces,
            # neither cell is admitted.
            with pytest.raises(ServiceOverloaded):
                scheduler.submit(CampaignSpec(base=tiny_run(seed=10),
                                              replications=2))
            stats = scheduler.stats()
            assert stats["pending"] == 1 and stats["inflight"] == 1
        finally:
            release.set()
            scheduler.shutdown()


class TestConcurrentCampaigns:
    def test_two_threads_same_campaign_zero_duplicate_executions(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        executed = []
        lock = threading.Lock()

        def counting_runner(spec, store=None):
            record, source = execute_cell(spec, store=store)
            if source == "executed":
                with lock:
                    executed.append(run_fingerprint(spec))
            return record, source

        spec = tiny_campaign()
        scheduler = ServiceScheduler(store=store, workers=4, queue_limit=32,
                                     cell_runner=counting_runner)
        results = [None, None]

        def submit(slot):
            results[slot] = scheduler.submit(spec).records()

        threads = [threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        scheduler.shutdown()

        assert len(executed) == len(set(executed)), "a fingerprint executed twice"
        assert len(executed) == len(spec.cells())
        first, second = canonical(results[0]), canonical(results[1])
        assert first == second
        # and byte-identical to a store-less CLI-style execution
        assert first == canonical(Campaign(spec).run(store=False).records)

    def test_threads_sharing_row_sets_stream_cli_records(self, tmp_path, capsys):
        # A pinned layout: every replication of a strategy shares one plan and
        # one row set, reduced by whichever worker thread gets there first.
        base = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 10, "num_mules": 2}, seed=7),
            sim=SimulationConfig(horizon=8_000.0, track_energy=False),
        )
        spec = CampaignSpec(base=base, grid={"strategy": ["b-tctp", "sweep", "chb"]},
                            replications=4)
        submitters, rounds = 4, 3
        streams = []
        # More workers than cores, switching threads far more often than
        # every 5 ms, so workers interleave inside each other's batch calls.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with obs.obs_collected(enabled=True) as window:
                scheduler = ServiceScheduler(store=False, workers=4, queue_limit=64)
                barrier = threading.Barrier(submitters, timeout=60)

                def submit():
                    barrier.wait()
                    streams.append(list(scheduler.submit(spec).events()))

                for _round in range(rounds):  # cold row sets every round
                    clear_caches()
                    threads = [threading.Thread(target=submit) for _ in range(submitters)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=120)
                        assert not t.is_alive()
                scheduler.shutdown()
                snapshot = window.snapshot()
        finally:
            sys.setswitchinterval(switch_interval)
        assert len(streams) == submitters * rounds

        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(spec.to_json())
        assert main(["run", str(spec_path), "--no-store", "--json"]) == 0
        cli = canonical(json.loads(capsys.readouterr().out)["records"])
        for events in streams:
            assert [e["event"] for e in events] == ["start"] + ["cell"] * len(cli) + ["done"]
            assert canonical([e["record"] for e in events if e["event"] == "cell"]) == cli

        def total(name, **labels):
            return sum(c["value"] for c in snapshot["counters"] if c["name"] == name
                       and all(c["labels"].get(k) == v for k, v in labels.items()))

        stats = scheduler.stats()
        assert stats["failed"] == 0
        assert total("batch_dispatch", outcome="batch") + total("sim_dispatch") \
            == stats["executed"]
        assert total("batch_dispatch", outcome="batch") > 0

    def test_shutdown_drains_finished_cells_to_store(self, tmp_path):
        store_root = tmp_path / "store"
        spec = tiny_campaign()
        scheduler = ServiceScheduler(store=ResultStore(store_root), workers=2)
        ticket = scheduler.submit(spec)
        scheduler.shutdown(wait=True)  # drain: every admitted cell finishes
        assert all(r is not None for r in ticket.records())
        # a fresh scheduler on the same root serves everything from the store
        with ServiceScheduler(store=ResultStore(store_root), workers=1) as fresh:
            events = list(fresh.submit(spec).events())
        assert events[-1]["store"] == len(spec.cells())
        assert events[-1]["executed"] == 0


# --------------------------------------------------------------------------- #
# Stdio transport
# --------------------------------------------------------------------------- #

class TestStdioTransport:
    def test_round_trip(self):
        from repro.service.stdio import StdioTransport

        request = json.loads(tiny_run().to_json())
        lines = "\n".join([json.dumps(request), json.dumps({"op": "stats"})]) + "\n"
        output = io.StringIO()
        scheduler = ServiceScheduler(store=False, workers=1)
        StdioTransport(scheduler, input_stream=io.StringIO(lines),
                       output_stream=output).serve_forever()
        emitted = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [e["event"] for e in emitted] == ["start", "cell", "done", "stats"]
        assert emitted[1]["record"]["strategy"] == "b-tctp"
        assert emitted[3]["stats"]["executed"] == 1
        assert scheduler.stats()["accepting"] is False  # EOF drained the scheduler

    def test_bad_lines_do_not_kill_the_session(self):
        from repro.service.stdio import StdioTransport

        lines = "not json\n" + json.dumps({"op": "bogus"}) + "\n" \
            + json.dumps({"kind": "run", "strategy": "nope"}) + "\n" \
            + json.dumps({"op": "lookup", "fingerprint": "ffff"}) + "\n"
        output = io.StringIO()
        StdioTransport(ServiceScheduler(store=False, workers=1),
                       input_stream=io.StringIO(lines),
                       output_stream=output).serve_forever()
        emitted = [json.loads(line) for line in output.getvalue().splitlines()]
        assert len(emitted) == 4
        assert all(e.get("event") == "error" for e in emitted[:3])
        assert emitted[3] == {"fingerprint": "ffff", "status": "unknown"}


# --------------------------------------------------------------------------- #
# Runner: execute_cell and the cancellable/observable campaign entry point
# --------------------------------------------------------------------------- #

class TestExecuteCell:
    def test_without_store_always_executes(self):
        record, source = execute_cell(tiny_run())
        assert source == "executed"
        assert record["strategy"] == "b-tctp"

    def test_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_run()
        cold, cold_source = execute_cell(spec, store=store)
        warm, warm_source = execute_cell(spec, store=store)
        assert (cold_source, warm_source) == ("executed", "store")
        assert canonical([cold]) == canonical([warm])
        assert store.contains(run_fingerprint(spec))


class TestCancellableCampaign:
    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_on_record_observes_every_cell_in_order(self, max_workers):
        seen = []
        result = Campaign(tiny_campaign(), max_workers=max_workers).run(
            store=False, on_record=lambda index, record: seen.append(index))
        assert seen == list(range(len(result.records)))
        assert "cancelled" not in result.metadata

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_cancel_stops_between_cells(self, max_workers):
        done = []

        result = Campaign(tiny_campaign(replications=4), max_workers=max_workers).run(
            store=False,
            on_record=lambda index, record: done.append(index),
            cancel=lambda: len(done) >= 3,
        )
        assert result.metadata["cancelled"] is True
        assert len(result.records) == 3

    def test_cancel_with_store_keeps_finished_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_campaign(replications=4)
        done = []
        partial = Campaign(spec).run(
            store=store,
            on_record=lambda index, record: done.append(index),
            cancel=lambda: len(done) >= 2,
        )
        assert partial.metadata["cancelled"] is True
        # resuming executes only the remainder, and the full result is
        # byte-identical to an uninterrupted run
        full = Campaign(spec).run(store=store)
        assert full.metadata["store"]["hits"] == len(partial.records)
        cold = Campaign(spec).run(store=False)
        assert canonical(full.records) == canonical(cold.records)
