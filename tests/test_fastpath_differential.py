"""Differential fuzz harness: batched vs scalar vs event-loop, byte for byte.

Draws seeded random :class:`~repro.runner.RunSpec` cases across scenario
families, strategies and simulator configs, and asserts that the execution
paths —

* the **batched** tensor pass (:func:`repro.sim.batchpath.batch_execute_records`),
* the **scalar** per-cell fast path (batchpath disabled),
* the **event loop** (``fast_path=False``),
* the **reference-planned** per-cell path (the frozen scalar planning
  loops of ``planning_reference.py`` swapped in for the kernels, caches
  cleared so planning really reruns),

— produce byte-identical sanitized records for every case.  Cases the batch
(or the scalar fast path) declines are still checked: a fallback must land on
the same record, never a different one.  A case that planning rejects with a
``ValueError`` must be rejected with the same message on every path.

A metrics leg draws cases from the generators below that request a random
subset of every registered metric, ``dcdt_series`` with a drawn
``num_points`` among them, plus a test-registered metric that reads
everything a user's extractor may (both lists, every trace field, the
metadata); some are capped by ``max_visits``.  Those cells ride the batch
too, and their records must be byte-equal on every path.

A second leg draws the same cases with battery tracking on, small
batteries and a collection dwell, so mules die mid-leg or at a collection
and recharge loops run: the batch must carry most of those cells too, and
every path must agree there as well.  A third leg draws CHB and
staggered-CHB cells whose mules leave the sink together, with and without a
dwell and tracked batteries: their visits tie, and every one of them must
ride the batch, in the engine's tie order.  A fourth leg compares whole
results — visit order, deliveries, traces and final mule state, which no
record shows — of ``PatrolSimulator.run()`` with the fast path on and off,
on cases drawn from the three generators, a quarter of them capped by
``max_visits``.

On a mismatch the failing case is greedily shrunk (fewer targets, fewer
mules, shorter horizon, defaults restored) before reporting, so the assertion
message carries a minimal reproducer.

The case count and the generator seed are fixed for CI but overridable::

    REPRO_FUZZ_SEED=123 REPRO_FUZZ_CASES=500 pytest tests/test_fastpath_differential.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import partial

import numpy as np
import pytest

from planning_reference import reference_planning
from repro.geometry.cache import clear_caches
from repro.obs import obs_collected
from repro.runner.campaign import _json_sanitize, execute_run
from repro.runner.record_metrics import available_metrics, register_metric
from repro.runner.spec import RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim import batchpath
from repro.sim.engine import SimulationConfig

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260808"))
FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))

FAMILIES = ["uniform", "grid-jitter", "clustered", "ring"]
STRATEGIES = [
    "b-tctp", "w-tctp", "rw-tctp", "chb", "sweep", "random",
    "b-tctp-cw", "sw-tctp", "cb-tctp", "crw-tctp", "staggered-chb",
]
HORIZONS = [800.0, 2_500.0, 6_000.0, 12_000.0]


# Recharge-loop strategies refuse to plan without a station to loop through.
NEEDS_RECHARGE = ("rw-tctp", "crw-tctp")

# Every metric registered before this module registers its own.
LIBRARY_METRICS = available_metrics()
READS_EVERYTHING = "differential_fuzz_reads_everything"


@register_metric(READS_EVERYTHING)
def _reads_everything(scenario, plan, result):
    """What a user's extractor may read of a result — both lists, every trace
    field and the metadata — as one digest, so that the record stays small."""
    seen = (result.visits, result.deliveries, result.traces, result.metadata)
    return hashlib.sha256(repr(seen).encode()).hexdigest()


def draw_case(rng: np.random.Generator) -> dict:
    """One random case as a plain dict (plain dicts shrink and print well)."""
    case = {
        "family": FAMILIES[int(rng.integers(len(FAMILIES)))],
        "strategy": STRATEGIES[int(rng.integers(len(STRATEGIES)))],
        "num_targets": int(rng.integers(3, 13)),
        "num_mules": int(rng.integers(1, 5)),
        "num_vips": int(rng.integers(0, 3)),
        "data_rate_jitter": float(rng.choice([0.0, 0.0, 0.3])),
        "with_recharge_station": bool(rng.integers(2)),
        "horizon": float(rng.choice(HORIZONS)),
        "synchronized_start": bool(rng.integers(2)),
        "scenario_seed": int(rng.integers(1_000)) if rng.integers(2) else None,
        "mule_battery": 200_000.0 if rng.integers(4) == 0 else None,
        "seed": int(rng.integers(1_000_000)),
    }
    if case["strategy"] in NEEDS_RECHARGE:
        # Recharge-loop planning needs both the station and finite batteries
        # (untracked here: track_energy stays False, so the fast paths apply).
        case["with_recharge_station"] = True
        case["mule_battery"] = 150_000.0
    return case


def tracked_case(rng: np.random.Generator) -> dict:
    """A drawn case with tracked batteries, shrunk so that mules die."""
    case = draw_case(rng)
    case["tracked"] = True
    if case["strategy"] not in NEEDS_RECHARGE:
        case["mule_battery"] = float(rng.integers(2_000, 150_001))
    # Seconds a mule stands at each target: deaths land between dwells.
    case["collection_time"] = float(rng.choice([0.0, 0.0, 0.5, 5.0, 30.0]))
    return case


def lockstep_case(rng: np.random.Generator) -> dict:
    """A drawn CHB or staggered-CHB case whose mules all leave the sink together.

    The ``uniform`` and ``clustered`` families deploy every mule on the
    sink, so CHB's mules travel in lockstep and every visit ties; a
    collection dwell and tracked batteries are drawn as in the tracked leg.
    """
    case = draw_case(rng)
    case["family"] = ["uniform", "clustered"][int(rng.integers(2))]
    case["strategy"] = ["chb", "staggered-chb"][int(rng.integers(2))]
    case["num_mules"] = int(rng.integers(2, 5))
    case["collection_time"] = float(rng.choice([0.0, 0.0, 0.5, 5.0, 30.0]))
    if rng.integers(2):
        case["tracked"] = True
        case["mule_battery"] = float(rng.integers(2_000, 150_001))
    return case


def metrics_case(rng: np.random.Generator) -> dict:
    """A case from one of the three generators that requests metrics.

    A random subset of the library's metrics (``dcdt_series`` with a drawn
    ``num_points``) and the metric that reads everything; a third of the
    cases are capped by ``max_visits``.
    """
    case = (draw_case, tracked_case, lockstep_case)[int(rng.integers(3))](rng)
    metrics = [name for name in LIBRARY_METRICS if rng.integers(2)]
    case["metrics"] = [
        ["dcdt_series", {"num_points": int(rng.integers(1, 60))}] if name == "dcdt_series"
        else name
        for name in metrics
    ] + [READS_EVERYTHING]
    if rng.integers(3) == 0:
        case["max_visits"] = int(rng.integers(1, 300))
    return case


def case_spec(case: dict, *, fast_path: bool = True) -> RunSpec:
    params = {
        "num_targets": case["num_targets"],
        "num_mules": case["num_mules"],
        "num_vips": case["num_vips"],
        "data_rate_jitter": case["data_rate_jitter"],
        "with_recharge_station": case["with_recharge_station"],
        "mule_battery": case["mule_battery"],
    }
    if case.get("collection_time"):
        params["params"] = {"collection_time": case["collection_time"]}
    return RunSpec(
        strategy=case["strategy"],
        scenario=ScenarioSpec(case["family"], params, seed=case["scenario_seed"]),
        sim=SimulationConfig(
            horizon=case["horizon"],
            track_energy=case.get("tracked", False),
            synchronized_start=case["synchronized_start"],
            fast_path=fast_path,
            max_visits=case.get("max_visits"),
        ),
        seed=case["seed"],
        metrics=tuple(case.get("metrics", ())),
    )


def canonical(result: "dict | str") -> str:
    """Records compare as JSON, key order included; a rejection by its message."""
    if isinstance(result, str):
        return result
    return json.dumps(_json_sanitize(result))


def outcome(run) -> "dict | str | None":
    """What one path returns: a record (``None`` when the batch declines) or its ValueError."""
    try:
        return run()
    except ValueError as exc:
        return f"ValueError: {exc}"


def dispatches(counters: "list[dict]", name: str, **labels) -> int:
    """Sum of the ``name`` counters of an obs snapshot that carry ``labels``."""
    return sum(c["value"] for c in counters if c["name"] == name
               and all(c["labels"].get(k) == v for k, v in labels.items()))


def run_three_ways(case: dict) -> "tuple[str | None, dict]":
    """Returns ``(mismatch_description | None, path_flags)`` for one case."""
    spec = case_spec(case)
    batched = outcome(lambda: batchpath.batch_execute_records([spec])[0])
    with batchpath.batchpath_disabled():
        scalar = outcome(lambda: execute_run(spec))
    # The batched leg has just cached this row key, and the row key omits
    # fast_path: the counters prove which tier answered the event-loop leg.
    with obs_collected(enabled=True) as window:
        event = outcome(lambda: execute_run(case_spec(case, fast_path=False)))
        counters = window.snapshot()["counters"]
    # Reference-planning leg: reference_planning() clears the tour/plan
    # memos, else the cached kernel-built circuit would be served and the
    # comparison would be vacuous.
    with batchpath.batchpath_disabled(), reference_planning():
        scalar_planned = outcome(lambda: execute_run(spec))
    flags = {
        "batched": isinstance(batched, dict),
        "declined": batched is None,
        "died": isinstance(scalar, dict) and scalar["num_dead_mules"] > 0,
    }
    if isinstance(event, dict) and (
        dispatches(counters, "sim_dispatch", outcome="event-loop") != 1
        or dispatches(counters, "batch_dispatch", outcome="batch") != 0
    ):
        return f"the fast_path=False leg left the event loop: {counters}", flags
    scalar_c = canonical(scalar)
    event_c = canonical(event)
    if scalar_c != event_c:
        return f"scalar != event loop\n scalar: {scalar_c}\n event:  {event_c}", flags
    scalar_planned_c = canonical(scalar_planned)
    if scalar_planned_c != scalar_c:
        return (
            "reference-planned != kernel-planned\n"
            f" reference-planned: {scalar_planned_c}\n kernel-planned: {scalar_c}"
        ), flags
    if batched is not None:
        batched_c = canonical(batched)
        if batched_c != scalar_c:
            return f"batched != scalar\n batched: {batched_c}\n scalar:  {scalar_c}", flags
    return None, flags


def shrink(case: dict) -> dict:
    """Greedy shrink: keep any single-field reduction that still mismatches."""
    candidates = [
        ("num_targets", 3), ("num_mules", 1), ("num_vips", 0),
        ("horizon", HORIZONS[0]), ("data_rate_jitter", 0.0),
        ("with_recharge_station", False), ("mule_battery", None),
        ("synchronized_start", True), ("collection_time", 0.0),
        ("scenario_seed", None), ("family", "uniform"), ("seed", 0),
        ("max_visits", None), ("metrics", [READS_EVERYTHING]),
    ]
    current = dict(case)
    progress = True
    while progress:
        progress = False
        for key, value in candidates:
            if current.get(key, value) == value:
                continue
            trial = dict(current)
            trial[key] = value
            try:
                mismatch, _ = run_three_ways(trial)
            except Exception:
                continue  # shrunk case fails differently; keep the original
            if mismatch is not None:
                current = trial
                progress = True
    return current


def agreeing_flags(index: int, case: dict, seed: int) -> dict:
    """``run_three_ways`` flags for a case, or a failure with its shrunk reproducer."""
    mismatch, flags = run_three_ways(case)
    if mismatch is not None:
        minimal = shrink(case)
        final, _ = run_three_ways(minimal)
        pytest.fail(
            f"case {index} (seed {seed}) diverged.\n"
            f"original: {json.dumps(case, sort_keys=True)}\n"
            f"shrunk:   {json.dumps(minimal, sort_keys=True)}\n"
            f"{final or mismatch}"
        )
    return flags


class TestDifferentialFuzz:
    def test_three_paths_agree_on_random_specs(self):
        rng = np.random.default_rng(FUZZ_SEED)
        batched_cases = 0
        for index in range(FUZZ_CASES):
            batched_cases += agreeing_flags(index, draw_case(rng), FUZZ_SEED)["batched"]
        # The sweep must actually exercise the tensor pass, not fuzz fallbacks.
        assert batched_cases >= FUZZ_CASES // 4, (
            f"only {batched_cases}/{FUZZ_CASES} cases rode the batch path"
        )

    def test_tracked_batteries_ride_the_batch(self):
        seed = FUZZ_SEED + 3
        rng = np.random.default_rng(seed)
        batched = deaths = recharge_laps = 0
        for index in range(FUZZ_CASES):
            case = tracked_case(rng)
            flags = agreeing_flags(index, case, seed)
            batched += flags["batched"]
            deaths += flags["batched"] and flags["died"]
            recharge_laps += flags["batched"] and case["strategy"] in NEEDS_RECHARGE
        # Tracked cells must ride the tensor pass, battery deaths and
        # recharge laps included, not fall back to the scalar path.
        assert batched >= FUZZ_CASES // 2, f"only {batched}/{FUZZ_CASES} cases rode the batch"
        assert deaths >= FUZZ_CASES // 5, (
            f"only {deaths}/{FUZZ_CASES} batched cases had a death"
        )
        assert recharge_laps >= 1, "no batched case ran a recharge lap"

    def test_lockstep_chb_rides_the_batch(self, monkeypatch):
        seed = FUZZ_SEED + 4
        rng = np.random.default_rng(seed)
        # A batch miss's fast result holds its pop ranks when its reduction
        # solved the tie order.
        solves = []
        original = batchpath.fast_result

        def spy(sim):
            result = original(sim)
            if not isinstance(result, str) and result._source.ranked:
                solves.append(sim)
            return result

        monkeypatch.setattr(batchpath, "fast_result", spy)
        cases = max(1, FUZZ_CASES // 4)
        for index in range(cases):
            case = lockstep_case(rng)
            flags = agreeing_flags(index, case, seed)
            assert flags["batched"], (
                f"case {index} (seed {seed}) left the batch: {json.dumps(case, sort_keys=True)}"
            )
        # The leg must exercise the tie order, not only tie-free layouts
        # (staggered-CHB mules seldom tie).
        assert len(solves) >= cases // 3, f"only {len(solves)}/{cases} cases tied"

    def test_metrics_and_max_visits_ride_the_batch(self):
        seed = FUZZ_SEED + 8
        rng = np.random.default_rng(seed)
        batched = capped = 0
        for index in range(FUZZ_CASES):
            case = metrics_case(rng)
            flags = agreeing_flags(index, case, seed)
            batched += flags["batched"]
            capped += flags["batched"] and "max_visits" in case
        # Custom metrics and max_visits keep no cell off the batch.
        assert batched >= FUZZ_CASES * 3 // 4, f"only {batched}/{FUZZ_CASES} cases rode the batch"
        assert capped >= FUZZ_CASES // 5, f"only {capped}/{FUZZ_CASES} capped cases batched"

    def test_generator_is_deterministic(self):
        a = [draw_case(np.random.default_rng(7)) for _ in range(5)]
        b = [draw_case(np.random.default_rng(7)) for _ in range(5)]
        assert a == b

    def test_batch_handles_mixed_eligibility_without_reordering(self):
        """A batch mixing eligible and fallback cells keeps records aligned.

        A spec that planning rejects would raise out of the whole mixed
        call, so each spec runs alone first: a rejected one must be rejected
        alike on the batch, and then stays out of the mix.
        """
        rng = np.random.default_rng(FUZZ_SEED + 1)
        specs, expected = [], []
        for case in (draw_case(rng) for _ in range(12)):
            spec = case_spec(case)
            with batchpath.batchpath_disabled():
                want = outcome(partial(execute_run, spec))
            if isinstance(want, str):
                assert outcome(partial(batchpath.batch_execute_records, [spec])) == want
                continue
            specs.append(spec)
            expected.append(want)
        pre = batchpath.batch_execute_records(specs)
        assert len(pre) == len(specs)
        for record, want in zip(pre, expected):
            if record is not None:
                assert canonical(record) == canonical(want)

    def test_fuzz_seed_env_override(self):
        """REPRO_FUZZ_SEED reshapes the sweep (read at import; spot-check here)."""
        assert FUZZ_SEED == int(os.environ.get("REPRO_FUZZ_SEED", "20260808"))
        case = draw_case(np.random.default_rng(FUZZ_SEED))
        assert set(case) == {
            "family", "strategy", "num_targets", "num_mules", "num_vips",
            "data_rate_jitter", "with_recharge_station", "mule_battery",
            "horizon", "synchronized_start", "scenario_seed", "seed",
        }


# --------------------------------------------------------------------------- #
# Full results: PatrolSimulator.run() with the fast path on and off
# --------------------------------------------------------------------------- #

def full_run(case: dict, *, fast_path: bool) -> "tuple[object, bool]":
    """``PatrolSimulator.run()`` on its own scenario copy, with the final mule state.

    Returns ``((result, mules), rode_the_fast_path)``, or the planning or
    simulation ``ValueError`` as a string.  The case's optional
    ``max_visits`` caps the run.
    """
    from repro.baselines.base import get_strategy, seeded_params
    from repro.sim.engine import PatrolSimulator

    spec = case_spec(case, fast_path=fast_path)
    config = dataclasses.replace(spec.sim, max_visits=case.get("max_visits"))
    try:
        scenario = spec.scenario.build(spec.seed)
        plan = get_strategy(spec.strategy,
                            **seeded_params(spec.strategy, spec.params, spec.seed)).plan(scenario)
        with obs_collected(enabled=True) as window:
            result = PatrolSimulator(scenario, plan, config).run()
            counters = window.snapshot()["counters"]
    except ValueError as exc:
        return f"ValueError: {exc}", False
    mules = [
        (m.id, m.position, m.state, list(m.buffer.packets),
         None if m.battery is None else (m.battery.remaining, m.battery.total_drained,
                                         m.battery.total_recharged, m.battery.recharge_count))
        for m in scenario.mules
    ]
    return (result, mules), dispatches(counters, "sim_dispatch", outcome="fastpath") == 1


def first_difference(got, want) -> "str | None":
    """The first part of two :func:`full_run` outcomes that differs, or ``None``."""
    if isinstance(got, str) or isinstance(want, str):
        return None if got == want else f"fast: {got!r}\n event loop: {want!r}"
    (result, mules), (expected, expected_mules) = got, want
    for name in ("strategy", "horizon", "metadata", "visits", "deliveries", "traces"):
        if getattr(result, name) != getattr(expected, name):
            return f"{name} differ"
    for mule, expected_mule in zip(mules, expected_mules):
        if mule != expected_mule:
            return f"final state of {mule[0]}: {mule} != {expected_mule}"
    return None


class TestFullResultFuzz:
    """The scalar tier's whole result, not only the record the batch compares.

    Records see no visit order, no delivery list, no trace field and no final
    mule state; this leg compares all of them between ``PatrolSimulator.run()``
    with the fast path on and the event loop, on cases drawn from the three
    generators above, a quarter of them capped by ``max_visits``.
    """

    def test_fast_path_reproduces_the_event_loop(self):
        seed = FUZZ_SEED + 7
        rng = np.random.default_rng(seed)
        draws = (draw_case, tracked_case, lockstep_case)
        fast = deaths = cuts = ties = 0
        for index in range(FUZZ_CASES):
            case = draws[index % len(draws)](rng)
            if rng.integers(4) == 0:
                case["max_visits"] = int(rng.integers(1, 300))
            got, rode = full_run(case, fast_path=True)
            want, _ = full_run(case, fast_path=False)
            difference = first_difference(got, want)
            assert difference is None, (
                f"case {index} (seed {seed}) diverged: {json.dumps(case, sort_keys=True)}\n"
                f"{difference}"
            )
            if isinstance(got, str):
                continue
            result = got[0]
            fast += rode
            deaths += rode and bool(result.dead_mules())
            cuts += rode and sum(v.is_target for v in result.visits) == case.get("max_visits")
            ties += rode and len({v.time for v in result.visits}) < len(result.visits)
        # Most cases must ride the fast path, through deaths, cuts and ties.
        assert fast >= FUZZ_CASES * 3 // 4, f"only {fast}/{FUZZ_CASES} cases rode the fast path"
        assert min(deaths, ties) >= FUZZ_CASES // 10 and cuts >= FUZZ_CASES // 40, \
            (deaths, cuts, ties)


class TestEventLoopStaysAuthoritative:
    """The three-way harness's event-loop leg really is the plain engine."""

    def test_event_leg_ignores_batch_switch(self):
        case = draw_case(np.random.default_rng(FUZZ_SEED + 2))
        spec = case_spec(case, fast_path=False)
        first = execute_run(spec)
        with batchpath.batchpath_disabled():
            second = execute_run(spec)
        assert canonical(first) == canonical(second)


# --------------------------------------------------------------------------- #
# The leg-pattern build: closed-form walk and array leg lengths
# --------------------------------------------------------------------------- #

def frozen_dedup_walk(raw_prefix, raw_cycle):
    """The duplicate-skip state machine as every pattern ran it before the
    closed form: the reference :func:`repro.sim.fastpath.dedup_walk` must
    equal."""
    plen = len(raw_prefix)
    clen = len(raw_cycle)
    emitted = []
    prev = None
    seen = {}
    pos = 0
    while True:
        if pos >= plen:
            if clen == 0:
                break
            state = ((pos - plen) % clen, prev)
            if state in seen:
                return emitted, seen[state]
            seen[state] = len(emitted)
        node = None
        for _ in range(8):
            if pos < plen:
                candidate = raw_prefix[pos]
            else:
                candidate = raw_cycle[(pos - plen) % clen]
            pos += 1
            if candidate != prev:
                node = candidate
                break
        if node is None:
            break
        emitted.append(node)
        prev = node
    return emitted, -1


COLD_LAYOUT = {
    "num_targets": 400, "num_mules": 4, "num_clusters": 8, "num_vips": 20,
    "with_recharge_station": True, "mule_battery": 200_000.0,
}
COLD_STRATEGIES = ["b-tctp", "w-tctp", "rw-tctp", "chb", "sweep", "staggered-chb", "random"]
COLD_SIM = SimulationConfig(horizon=50_000.0, track_energy=True)


def cold_spec(strategy: str) -> RunSpec:
    """One cell of a 400-target clustered layout with VIPs, recharge and batteries."""
    return RunSpec(strategy=strategy, scenario=ScenarioSpec("clustered", COLD_LAYOUT),
                   sim=COLD_SIM, seed=FUZZ_SEED)


@pytest.fixture(scope="module")
def cold_sims():
    """A simulator per loop strategy on one planned cold layout."""
    from repro.baselines.base import get_strategy, seeded_params
    from repro.runner.campaign import build_cell_scenario
    from repro.sim.engine import PatrolSimulator

    sims = {}
    for strategy in COLD_STRATEGIES[:-1]:
        spec = cold_spec(strategy)
        scenario = build_cell_scenario(spec)
        planner = get_strategy(strategy, **seeded_params(strategy, spec.params, spec.seed))
        sims[strategy] = PatrolSimulator(scenario, planner.plan(scenario), COLD_SIM)
    return sims


def reference_legs(pattern, route, first_from):
    """The per-leg ``distance()`` loop, tiled as the pattern tiles its legs."""
    from repro.geometry.point import distance

    points = [route.coordinates[n] for n in pattern.walk]
    legs = [distance(first_from, points[0])]
    for k in range(1, len(points)):
        legs.append(distance(points[k - 1], points[k]))
    if pattern.cycle_start >= 0:
        cycle = [distance(points[-1], points[pattern.cycle_start])]
        legs += (cycle + legs[pattern.cycle_start + 1:]) * pattern.laps
    return legs


class TestLegPatternBuild:
    """The closed-form walk and the array leg lengths equal the per-node loops."""

    def test_closed_form_walk_matches_the_state_machine(self):
        from repro.sim.fastpath import dedup_walk

        rng = np.random.default_rng(FUZZ_SEED + 5)
        closed = cycling = halted = 0
        for _ in range(20_000):
            alphabet = [f"n{i}" for i in range(int(rng.integers(1, 9)))]
            prefix = [alphabet[int(i)] for i in rng.integers(len(alphabet), size=rng.integers(0, 8))]
            cycle = [alphabet[int(i)] for i in rng.integers(len(alphabet), size=rng.integers(1, 8))]
            want = frozen_dedup_walk(prefix, cycle)
            assert dedup_walk(prefix, cycle) == want, (prefix, cycle)
            ring = prefix + cycle + cycle[:1]
            closed += all(a != b for a, b in zip(ring, ring[1:]))
            halted += want[1] < 0
            cycling += want[1] >= 0
        # The draw must reach the closed form, the state machine's period
        # search past runs and neighbour duplicates, and the 8-skip halt.
        assert closed >= 1_000 and cycling - closed >= 1_000 and halted >= 100

    def test_every_route_of_a_cold_layout(self, cold_sims):
        from repro.core.plan import AlternatingLoopRoute, LoopRoute
        from repro.sim.fastpath import dedup_walk, route_pattern

        rounds_seen = set()
        for sim in cold_sims.values():
            for route in sim.plan.routes.values():
                variants = [route]
                if type(route) is LoopRoute:
                    n = len(route.loop)
                    variants += [
                        LoopRoute(route.mule_id, route.loop, route.coordinates, entry_index=e)
                        for e in (1, n // 2, n - 1)
                    ]
                else:
                    n = len(route.patrol_loop)
                    variants += [
                        AlternatingLoopRoute(
                            route.mule_id, route.patrol_loop, route.recharge_loop,
                            route.coordinates, patrol_rounds=r, entry_index=e,
                        )
                        for r in (1, 2, 3, 4) for e in (0, 1, n // 2, n - 1)
                    ]
                    rounds_seen.update(range(1, 5))
                for variant in variants:
                    pattern = route_pattern(variant)
                    assert dedup_walk(*pattern) == frozen_dedup_walk(*pattern)
        assert rounds_seen == {1, 2, 3, 4}, "the layout planned no alternating route"

    def test_closed_form_on_every_batched_cold_route(self, monkeypatch):
        from repro.sim import fastpath

        loops, built = [], []
        skip_walk, build_rows = fastpath._skip_walk, fastpath._rows

        def spy_skip_walk(*pattern):
            loops.append(pattern)
            return skip_walk(*pattern)

        def spy_build_rows(sim):
            built.append(build_rows(sim))
            return built[-1]

        monkeypatch.setattr(fastpath, "_skip_walk", spy_skip_walk)
        monkeypatch.setattr(fastpath, "_rows", spy_build_rows)
        clear_caches()
        records = batchpath.batch_execute_records([cold_spec(s) for s in COLD_STRATEGIES])
        clear_caches()
        assert [r is not None for r in records] == [True] * 6 + [False]  # random declines
        assert sum(len(rows) for rows in built) == 24
        assert loops == [], f"{len(loops)} batched routes ran the state machine"

    def test_leg_lengths_equal_a_distance_loop(self, cold_sims):
        from repro.sim.fastpath import LegPattern, node_codes

        for sim in cold_sims.values():
            sync_time = sim._patrol_start_time()
            codes = node_codes(sim)
            for mule in sim.scenario.mules:
                route = sim.plan.route_for(mule.id)
                pattern = LegPattern(sim, mule, route, sync_time, codes, 10**6)
                first_from = pattern.start_point if pattern.init_event else mule.position
                want = reference_legs(pattern, route, first_from)
                assert [v.hex() for v in pattern.dists.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("kind", ["floats", "ints", "big-ints", "float32"])
    def test_hops_keep_the_scalar_subtraction(self, kind):
        from repro.geometry.point import Point, distance
        from repro.sim.fastpath import _hops

        rng = np.random.default_rng(FUZZ_SEED + 6)
        raw = rng.uniform(-1e3, 1e3, (60, 2))
        # Every other point carries the odd coordinate type: converting it
        # to float64 before subtracting would change the hops next to it.
        odd = {
            "floats": float,
            "ints": int,
            "big-ints": lambda v: 2**53 + int(v * 1e3),  # rounds as a float
            "float32": np.float32,  # subtracts in single precision
        }[kind]
        points = [Point(float(x), float(y)) if i % 2 else Point(odd(x), odd(y))
                  for i, (x, y) in enumerate(raw)]
        want = [distance(a, b) for a, b in zip(points, points[1:])]
        assert [float(v).hex() for v in _hops(points)] == [float(v).hex() for v in want]
