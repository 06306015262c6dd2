"""Campaign-executor benchmarks: spec expansion and end-to-end execution.

Times the :mod:`repro.runner` layer itself — expanding a campaign grid into
run cells, and executing a small strategy-sweep campaign serially, both with
the PR-3 fast path + caches (the default) and with the pre-fast-path baseline
configuration — and re-asserts the executor's core guarantees: parallel
execution returns records identical to the serial run, and the cached fast
path returns records identical to the uncached baseline.  End-to-end
throughput is measured by ``perfbench/`` (the ``replicated-sweep`` and
``cold-sweep`` workloads).
"""

import json

import pytest

from repro.geometry.cache import caching_disabled, clear_caches
from repro.runner import Campaign


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_expansion(benchmark, bench_campaign_spec):
    cells = benchmark(bench_campaign_spec.cells)
    assert len(cells) == 2 * bench_campaign_spec.replications
    # replications innermost, deterministic seed schedule
    assert [c.seed for c in cells[:3]] == bench_campaign_spec.seeds()


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_serial_run(benchmark, bench_campaign_spec):
    result = benchmark(Campaign(bench_campaign_spec).run)
    assert len(result) == 2 * bench_campaign_spec.replications
    sd = result.group_mean("average_sd", by="strategy")
    assert sd["b-tctp"] == pytest.approx(0.0, abs=1e-6)
    assert sd["chb"] > 0.0


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_serial_run_baseline(benchmark, bench_campaign_spec_baseline):
    """The same workload on the pre-PR-3 path: no caches, no fast path."""

    def run():
        clear_caches()
        with caching_disabled():
            return Campaign(bench_campaign_spec_baseline).run()

    result = benchmark(run)
    assert len(result) == 2 * bench_campaign_spec_baseline.replications


def test_campaign_parallel_matches_serial(bench_campaign_spec):
    serial = Campaign(bench_campaign_spec).run()
    parallel = Campaign(bench_campaign_spec, max_workers=4).run()
    assert json.dumps(serial.records) == json.dumps(parallel.records)


def test_campaign_fast_path_matches_baseline(bench_campaign_spec, bench_campaign_spec_baseline):
    """PR-3 acceptance: cached fast-path records are byte-identical to the baseline."""
    fast = Campaign(bench_campaign_spec).run()
    clear_caches()
    with caching_disabled():
        baseline = Campaign(bench_campaign_spec_baseline).run()
    assert json.dumps(fast.records) == json.dumps(baseline.records)
