"""Shared settings for the benchmark harness.

Each ``test_bench_*`` module regenerates one figure (or extension experiment)
of the paper.  The benchmark fixture times the full experiment run; the bodies
additionally assert the figure's qualitative shape so a benchmark run doubles
as a reproduction check.  ``bench_settings`` keeps the runs small enough to
iterate on (a handful of replications, shorter horizon); pass ``--full`` style
settings through ``examples/reproduce_paper.py`` or the CLI for the paper's
full 20-replication protocol.

The experiments all execute through the :mod:`repro.runner` campaign API, so
``bench_campaign_spec`` additionally exposes a small strategy-sweep campaign
for benchmarking the executor itself.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSettings
from repro.runner import CampaignSpec, RunSpec
from repro.sim.engine import SimulationConfig


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Small but representative experiment settings used by every benchmark."""
    return ExperimentSettings.quick(replications=3, horizon=25_000.0,
                                    num_targets=12, num_mules=3)


@pytest.fixture(scope="session")
def bench_campaign_spec(bench_settings: ExperimentSettings) -> CampaignSpec:
    """A small strategy-sweep campaign mirroring ``bench_settings``."""
    return CampaignSpec(
        base=RunSpec(
            strategy="b-tctp",
            scenario=bench_settings.scenario_config(),
            sim=SimulationConfig(horizon=bench_settings.horizon, track_energy=False),
            seed=bench_settings.base_seed,
        ),
        grid={"strategy": ["chb", "b-tctp"]},
        replications=bench_settings.replications,
    )


@pytest.fixture(scope="session")
def bench_campaign_spec_baseline(bench_campaign_spec: CampaignSpec) -> CampaignSpec:
    """The same campaign with the analytic fast path switched off.

    Benchmarks pair this with the caches disabled (see
    ``test_bench_campaign``) to time the pre-fast-path serial code path.
    """
    import dataclasses

    base = bench_campaign_spec.base
    return dataclasses.replace(
        bench_campaign_spec,
        base=dataclasses.replace(base, sim=dataclasses.replace(base.sim, fast_path=False)),
    )
