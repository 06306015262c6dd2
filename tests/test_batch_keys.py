"""The batch's ``batch_rows`` keys: derived once per grid combination, exact per cell.

A call to :func:`repro.sim.batchpath.batch_execute_records` derives a key once
for a run of cells whose inputs are the same objects (the replications of one
grid combination on a pinned layout) and reuses it.  These tests pin that
every cell is still looked up under exactly the key it would get alone — by
type and value, so ``1``, ``1.0`` and ``True`` never share one — and that
no key outlives its call.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.baselines.base import get_strategy, seeded_params
from repro.geometry.cache import clear_caches
from repro.runner import CampaignSpec, RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim import batchpath
from repro.sim.engine import SimulationConfig

LAYOUT = {"num_targets": 6, "num_mules": 2}
SIM = SimulationConfig(horizon=3_000.0, track_energy=False)


def unshared_row_key(spec) -> tuple:
    """``spec``'s ``batch_rows`` key computed from the spec alone."""
    params = seeded_params(spec.strategy, spec.params, spec.seed)
    scenario = spec.scenario
    seed = scenario.seed if scenario.seed is not None else spec.seed
    scenario_key = (scenario.canonical_family(),
                    json.dumps(scenario.params, sort_keys=True, default=repr), seed)
    plan_key = (spec.strategy, json.dumps(sorted(params.items()), default=repr), scenario_key)
    cfg = spec.sim
    return (plan_key, cfg.horizon, cfg.synchronized_start, cfg.track_energy, cfg.max_visits,
            json.dumps(spec.metrics, default=repr) if spec.metrics else None)


def exact(key):
    """``key`` with every leaf's type beside its repr: ``1``, ``1.0`` and ``True`` differ."""
    if type(key) is tuple:
        return tuple(map(exact, key))
    return type(key).__name__, repr(key)


@pytest.fixture
def keyed(monkeypatch):
    """A copy of the strategy registry with ``keyed``: b-tctp's plan, any ``x``/``tags``, a seed."""
    from repro.baselines import base
    from repro.registry import Loader, Registry

    live = base.STRATEGIES
    monkeypatch.setattr(base, "STRATEGIES",
                        Registry(live.noun, Loader(live.loader.load), info_type=live.info_type))
    base.register_strategy("keyed", lambda x=0, tags=(), seed=0: get_strategy("b-tctp"))


@pytest.fixture
def looked_up(monkeypatch):
    """The keys the batch looks ``batch_rows`` up under, in order, from cleared caches."""
    keys = []
    get = batchpath._ROW_CACHE.get

    def spy(key, default=None):
        keys.append(key)
        return get(key, default)

    clear_caches()
    monkeypatch.setattr(batchpath._ROW_CACHE, "get", spy)
    return keys


@pytest.fixture
def derived(monkeypatch):
    """How many scenario keys the batch derives (one per key it does not reuse)."""
    count = [0]
    scenario_key = batchpath._scenario_cache_key

    def spy(spec):
        count[0] += 1
        return scenario_key(spec)

    monkeypatch.setattr(batchpath, "_scenario_cache_key", spy)
    return count


def varied(spec, **changes):
    """A shallow copy of ``spec`` with ``changes``; every other field is the same object."""
    clone = copy.copy(spec)
    for name, value in changes.items():
        object.__setattr__(clone, name, value)
    return clone


def drawn_mix(rng: random.Random) -> "list[RunSpec]":
    """Seeded runs of cells that share some inputs by object and others by value only.

    Each run is a cell and its copies, as campaign replications are, whose
    seed, simulator config, metrics, layout or strategy change now and then.
    """
    pinned, unpinned = ScenarioSpec("uniform", LAYOUT, seed=4), ScenarioSpec("uniform", LAYOUT)
    larger = ScenarioSpec("uniform", {**LAYOUT, "num_targets": 7}, seed=4)
    sims = [SIM, SimulationConfig(horizon=2_000.0, track_energy=False),
            SimulationConfig(horizon=3_000.0, track_energy=False, fast_path=False)]
    metric_sets = [(), ("vip_sd",), ("vip_sd",)]
    tags = [1, 2]
    specs = []
    for _ in range(60):
        # Shared layouts, equal but distinct ones, and one of another size.
        layouts = [pinned, unpinned, larger, ScenarioSpec("uniform", LAYOUT, seed=4),
                   ScenarioSpec("uniform", dict(LAYOUT))]
        strategy = rng.choice(["b-tctp", "chb", "random", "keyed"])
        params = rng.choice([{}, {"x": 1}, {"x": 1.0}, {"x": True}, {"tags": tags},
                             {"tags": [1, 2]}]) if strategy == "keyed" else {}
        spec = RunSpec(strategy, rng.choice(layouts), params=params, sim=rng.choice(sims),
                       seed=rng.choice([1, 2, 1_001]))
        for k in range(rng.randint(1, 4)):
            changes = {"seed": spec.seed + rng.choice([0, 1_000])} if k else {}
            if rng.random() < 0.3:
                changes["sim"] = rng.choice(sims)
            if rng.random() < 0.3:
                changes["metrics"] = rng.choice(metric_sets)
            if rng.random() < 0.2:
                changes["scenario"] = rng.choice(layouts)
            if rng.random() < 0.3 and spec.strategy in ("b-tctp", "chb"):
                changes["strategy"] = rng.choice(["b-tctp", "chb"])  # neither is seeded
            spec = varied(spec, **changes)
            specs.append(spec)
    return specs


@pytest.mark.usefixtures("keyed")
class TestRowKeys:
    @pytest.mark.parametrize("seed", [20260815, 3])
    def test_every_lookup_is_the_unshared_key(self, seed, looked_up, derived):
        specs = drawn_mix(random.Random(seed))
        records = batchpath.batch_execute_records(specs)
        riding = [s for s in specs if s.sim.batch_path and s.sim.fast_path]
        # One lookup per riding cell, under its own exact key.
        assert [exact(k) for k in looked_up] == [exact(unshared_row_key(s)) for s in riding]
        assert 0 < derived[0] < len(riding)  # some keys were reused, not all
        # A cell alone in its call gets the same record.
        alone = [batchpath.batch_execute_records([s])[0] for s in specs]
        assert json.dumps(alone) == json.dumps(records)

    def test_equal_params_of_other_types_get_their_own_keys(self, looked_up):
        scenario = ScenarioSpec("uniform", LAYOUT, seed=4)
        specs = [RunSpec("keyed", scenario, params={"x": x}, sim=SIM, seed=1)
                 for x in (1, 1.0, True, 1)]
        batchpath.batch_execute_records(specs)
        keys = [exact(k) for k in looked_up]
        assert keys == [exact(unshared_row_key(s)) for s in specs]
        assert len(set(keys[:3])) == 3 and keys[3] == keys[0]

    def test_replications_of_a_pinned_layout_derive_one_key(self, looked_up, derived):
        spec = CampaignSpec(base=RunSpec("b-tctp", ScenarioSpec("uniform", LAYOUT, seed=4),
                                         sim=SIM, seed=7),
                            grid={"strategy": ["b-tctp", "random", "chb"]}, replications=5)
        cells = spec.cells()
        batchpath.batch_execute_records(cells)
        assert [exact(k) for k in looked_up] == [exact(unshared_row_key(c)) for c in cells]
        # b-tctp and chb: one key each; random's seeded params differ per replication.
        assert derived[0] == 1 + 5 + 1

    def test_two_calls_share_no_key_state(self, looked_up):
        tags = [1, 2]
        spec = RunSpec("keyed", ScenarioSpec("uniform", LAYOUT, seed=4),
                       params={"tags": tags}, sim=SIM, seed=1)
        before = unshared_row_key(spec)
        batchpath.batch_execute_records([spec])
        tags.append(3)  # the same objects, other content
        batchpath.batch_execute_records([spec])
        assert [exact(k) for k in looked_up] == [exact(before), exact(unshared_row_key(spec))]
        assert looked_up[0] != looked_up[1]
