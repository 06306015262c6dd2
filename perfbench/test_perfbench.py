"""Tests of the benchmark itself: seeded generation and layer accounting."""

from __future__ import annotations

import itertools
import json
import time

import pytest

from perfbench import gen
from perfbench.layers import Patches, Recorder


def _service_script(seed: int, rep: int = 0, n: int = 60) -> list:
    return list(itertools.islice(gen.service_requests(seed, rep), n))


@pytest.mark.parametrize("make", [gen.replicated_campaign, gen.cold_campaign])
def test_same_seed_same_specs(make):
    assert [make(7, rep) for rep in range(5)] == [make(7, rep) for rep in range(5)]
    assert make(7, 0) != make(8, 0)


def test_service_script_is_seeded():
    assert _service_script(3) == _service_script(3)
    assert gen.service_hot_set(3) == gen.service_hot_set(3)
    # a different seed reorders the mix, and each daemon gets its own script
    assert [k for k, _, _ in _service_script(3)] != [k for k, _, _ in _service_script(4)]
    assert _service_script(3, rep=0) != _service_script(3, rep=1)


def test_service_script_mixes_every_kind_and_fresh_specs_are_new():
    script = _service_script(11, n=300)
    assert {kind for kind, _, _ in script} == {"hit", "fresh_run", "campaign"}
    hot = [json.dumps(s, sort_keys=True) for s in gen.service_hot_set(11)]
    for kind, path, body in script:
        assert path == ("/campaigns" if kind == "campaign" else "/runs")
        assert (json.dumps(body, sort_keys=True) in hot) == (kind == "hit")
    fresh = [json.dumps(b, sort_keys=True) for k, _, b in script if k != "hit"]
    assert len(fresh) == len(set(fresh))


def test_specs_do_not_name_the_workload():
    payload = json.dumps([gen.replicated_campaign(1, 0), gen.cold_campaign(1, 0),
                          _service_script(1)])
    from perfbench.run import WORKLOADS

    for name in WORKLOADS + ("perfbench", "bench"):
        assert name not in payload


def test_specs_expand_through_the_public_runner():
    from repro.runner import Campaign, spec_from_dict

    assert len(Campaign(spec_from_dict(gen.replicated_campaign(1, 0))).cells()) == 100
    assert len(Campaign(spec_from_dict(gen.cold_campaign(1, 0))).cells()) == len(
        gen.COLD_STRATEGIES)
    for _kind, _path, body in _service_script(1, n=20):
        assert Campaign(spec_from_dict(body)).cells()


def test_cold_layouts_differ_across_seeds():
    from repro.runner import Campaign, spec_from_dict

    def layout(seed):
        cell = Campaign(spec_from_dict(gen.cold_campaign(seed, 0))).cells()[0]
        return [t.position for t in cell.scenario.build(cell.seed).targets]

    assert layout(1) == layout(1)
    assert layout(1) != layout(2)


def test_self_times_add_up_to_the_outermost_span():
    recorder = Recorder(sample_names=("inner",))
    inner = recorder.timed("inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    recorder.timed("runner.outer", outer_body)()
    assert recorder.calls("inner") == 2
    assert len(recorder.samples("inner")) == 2
    outer = recorder.busy_s("runner.outer")
    assert recorder.self_s("runner.outer") + recorder.self_s("inner") == pytest.approx(outer)
    # runner spans are bookkeeping: only the inner layer counts as covered
    assert recorder.covered_s() == pytest.approx(recorder.self_s("inner"))
    assert recorder.busy_s("inner") == pytest.approx(recorder.self_s("inner"))


def test_dynamic_labels_and_reset():
    recorder = Recorder()
    timed = recorder.timed(lambda x: f"layer.{x}", lambda x: x)
    assert [timed("a"), timed("b"), timed("a")] == ["a", "b", "a"]
    assert (recorder.calls("layer.a"), recorder.calls("layer.b")) == (2, 1)
    recorder.count("things", 3)
    recorder.reset()
    assert recorder.calls("layer.a") == 0 and recorder.counters == {}


def test_patches_restore_the_originals():
    import repro.runner.campaign as campaign
    from repro.sim.engine import PatrolSimulator

    from perfbench.layers import instrument_pipeline

    originals = (campaign.build_cell_scenario, campaign.get_strategy, PatrolSimulator.run)
    patches = Patches()
    instrument_pipeline(Recorder(), patches)
    assert campaign.build_cell_scenario is not originals[0]
    patches.restore()
    assert (campaign.build_cell_scenario, campaign.get_strategy,
            PatrolSimulator.run) == originals
