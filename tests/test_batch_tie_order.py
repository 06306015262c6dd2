"""The batch's tie order: the engine's ``(time, sequence)`` pop order, replayed.

When two visit events share a timestamp, the event loop's heap pops the one
with the lower sequence number first, and packet sizes and the delivery-list
order follow.  The fast tiers never run that heap; their one result
(:func:`repro.sim.fastpath.fast_result`) solves the order from each mule's
chain of event times (:func:`repro.sim.fastpath._pop_ranks`).
These tests hold the solver to a ``heapq`` replay of the engine's rule on
seeded chain sets of every shape that ties, and the chains the batch builds
from real rows (initial legs, dwell-done events, battery stops) to the order
in which the event loop records its visits.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import sys

import numpy as np
import pytest

from repro.core.plan import LoopRoute, PatrolPlan
from repro.energy.battery import Battery
from repro.geometry.point import Point
from repro.network.field import Field
from repro.network.mules import DataMule
from repro.network.scenario import Scenario, SimulationParameters
from repro.network.targets import RechargeStation, Sink, Target
from repro.runner.campaign import _json_sanitize, _record_columns
from repro.sim import batchpath, fastpath
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.sim.fastpath import fast_path_rejection
from repro.sim.metrics import average_dcdt, average_sd, max_visiting_interval


def replayed_ranks(chains) -> np.ndarray:
    """Pop positions under the engine's rule, by running its heap.

    Each mule pushes its first event up front, in mule order; every pop
    pushes that mule's next event with the next counter value.
    """
    offsets = np.concatenate(([0], np.cumsum([len(c) for c in chains])))
    heap = [(chain[0], mule, mule, 0) for mule, chain in enumerate(chains) if len(chain)]
    heapq.heapify(heap)
    counter = len(chains)
    ranks = np.empty(offsets[-1], dtype=np.int64)
    for position in range(offsets[-1]):
        _time, _seq, mule, j = heapq.heappop(heap)
        ranks[offsets[mule] + j] = position
        if j + 1 < len(chains[mule]):
            heapq.heappush(heap, (chains[mule][j + 1], counter, mule, j + 1))
            counter += 1
    return ranks


def chain_from(start: float, increments) -> np.ndarray:
    """Event times as the engine adds them: ``start``, then one sum per step."""
    return np.cumsum(np.concatenate(([start], increments)))


def lockstep(rng):
    # Every mule leaves one point at once on the same legs.
    legs = rng.integers(1, 6, size=int(rng.integers(50, 1500))).astype(float)
    return [chain_from(0.0, legs) for _ in range(int(rng.integers(2, 6)))]


def merge(rng):
    # Mules reach one lockstep tail from different pasts; the mule that got
    # there first leads it for good, and the higher-indexed mules get there
    # first here.
    mules = int(rng.integers(2, 6))
    tail = chain_from(100.0, rng.integers(1, 4, size=int(rng.integers(20, 400))))
    chains = []
    for mule in range(mules):
        last = 99.0 - (mules - mule)  # higher index, earlier arrival
        before = np.sort(rng.choice(np.arange(last), size=int(rng.integers(0, 5)),
                                    replace=False)).astype(float)
        chains.append(np.concatenate((before, [last], tail)))
    return chains


def zero_duration(rng):
    # Legs of no length: a successor at the same instant as its predecessor.
    return [chain_from(float(rng.integers(0, 3)),
                       rng.choice([0.0, 0.0, 1.0], size=int(rng.integers(1, 60))))
            for _ in range(int(rng.integers(2, 6)))]


def dwell(rng):
    # Arrivals each followed by a dwell-done event on some mules: the dwell
    # ends land on other mules' arrivals.
    chains = []
    for _ in range(int(rng.integers(2, 6))):
        dwell_time = float(rng.choice([0.0, 1.0, 2.0]))
        steps = []
        for leg in rng.integers(1, 4, size=int(rng.integers(5, 80))):
            steps.append(float(leg))
            if dwell_time:
                steps.append(dwell_time)
        chains.append(chain_from(0.0, steps))
    return chains


def initial_legs(rng):
    # An initial leg to a start position, then the shared patrol from the
    # synchronized start (the slowest mule's arrival) on one set of legs.
    mules = int(rng.integers(2, 6))
    inits = rng.integers(0, 4, size=mules).astype(float)
    legs = rng.integers(0, 3, size=int(rng.integers(5, 100))).astype(float)
    base = inits.max()
    return [np.concatenate(([init], base + np.cumsum(legs))) for init in inits]


def battery_cut(rng):
    # Lockstep rows cut where each mule's battery ends the patrol.
    return [chain[:int(rng.integers(0, len(chain) + 1))] for chain in lockstep(rng)]


def tie_heavy(rng):
    return [chain_from(float(rng.integers(0, 4)),
                       rng.choice([0.0, 1.0, 2.0, 3.0], size=int(rng.integers(0, 40))))
            for _ in range(int(rng.integers(1, 6)))]


SHAPES = {
    "lockstep": (lockstep, 40),
    "merge": (merge, 100),
    "zero-duration": (zero_duration, 100),
    "dwell": (dwell, 100),
    "initial-legs": (initial_legs, 100),
    "battery-cut": (battery_cut, 40),
    "tie-heavy": (tie_heavy, 300),
}


class TestPopRanks:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_the_heap_replay(self, shape):
        draw, sets = SHAPES[shape]
        rng = np.random.default_rng(list(SHAPES).index(shape))
        for index in range(sets):
            chains = draw(rng)
            got = fastpath._pop_ranks(chains)
            want = replayed_ranks(chains)
            assert np.array_equal(got, want), f"{shape} set {index}: {chains}"

    def test_merge_is_led_by_the_higher_index(self):
        # Mule 1 reaches t = 5 from t = 1, mule 0 from t = 2: from there on
        # every tie pops mule 1 first.
        chains = [np.array([2.0, 5.0, 7.0, 9.0]), np.array([1.0, 5.0, 7.0, 9.0])]
        assert fastpath._pop_ranks(chains).tolist() == [1, 3, 5, 7, 0, 2, 4, 6]

    def test_tie_free_chains_sort_by_time(self):
        chains = [np.array([1.0, 4.0]), np.array([2.0, 3.0])]
        assert fastpath._pop_ranks(chains).tolist() == [0, 3, 1, 2]


# --------------------------------------------------------------------------- #
# The chains the batch builds, against the engine's recorded visit order
# --------------------------------------------------------------------------- #

LATTICE = [0.0, 60.0, 120.0]


def lattice_cell(seed: int):
    """A small hand-built cell whose integer layout makes visits tie.

    Targets sit on a 60 m lattice (some on the sink or on each other, so
    some legs have no length), every mule leaves the sink at 2 m/s, and each
    follows its own loop, entered at a random node (an initial leg) or not.
    Dwell, tracked batteries, a recharge station and a synchronized start
    are drawn too.
    """
    rng = np.random.default_rng(seed)

    def lattice_point():
        return Point(float(rng.choice(LATTICE)), float(rng.choice(LATTICE)))

    # g0 stays off the sink, so that some loop moves.
    points = [Point(120.0, 60.0)] + [lattice_point() for _ in range(int(rng.integers(1, 5)))]
    targets = [Target(f"g{i}", point, data_rate=float(rng.choice([1.0, 2.5])))
               for i, point in enumerate(points)]
    sink = Sink("sink", Point(0.0, 0.0))
    station = RechargeStation("recharge", lattice_point()) if rng.integers(3) == 0 else None
    tracked = bool(rng.integers(2))
    mules = [
        DataMule(f"m{i}", sink.position, velocity=2.0,
                 battery=Battery(50_000.0, remaining=float(rng.integers(2_000, 30_000)))
                 if tracked else None)
        for i in range(int(rng.integers(2, 5)))
    ]
    scenario = Scenario(
        targets=targets, sink=sink, mules=mules, recharge_station=station,
        field=Field(), name="lattice",
        params=SimulationParameters(collection_time=float(rng.choice([0.0, 0.0, 10.0, 30.0]))),
    )
    coords = scenario.patrol_points(include_recharge=station is not None)
    names = sorted(coords)
    routes = {}
    for mule in mules:
        while True:  # a lap over one point would never advance time
            size = int(rng.integers(2, len(names) + 1))
            loop = [names[i] for i in rng.permutation(len(names))[:size]]
            if len({coords[n] for n in loop}) > 1:
                break
        entry = int(rng.integers(len(loop))) if rng.integers(2) else 0
        routes[mule.id] = LoopRoute(mule.id, loop, coords, entry_index=entry,
                                    start=coords[loop[entry]] if entry else None)
    config = SimulationConfig(horizon=float(rng.choice([600.0, 2_000.0])),
                              track_energy=tracked, synchronized_start=bool(rng.integers(2)))
    return scenario, PatrolPlan(strategy="manual", routes=routes), config


def batch_reduction(scenario, plan, config, monkeypatch):
    """What a batch miss makes of the cell: its record columns, or why it declines.

    Returns ``(columns, result, solved)``: the fast result the columns were
    reduced from (``None`` on a decline), and whether the reduction solved
    the engine's tie order.  The reduction builds neither list.
    """
    sim = PatrolSimulator(scenario, plan, config)
    assert fast_path_rejection(sim) is None
    solves = []
    original = fastpath._pop_ranks
    with monkeypatch.context() as patcher:
        patcher.setattr(fastpath, "_pop_ranks",
                        lambda chains: solves.append(chains) or original(chains))
        result = fastpath.fast_result(sim)
        if isinstance(result, str):
            return result, None, False
        columns = _record_columns((), scenario, plan, result)
    assert "visits" not in vars(result) and "deliveries" not in vars(result)
    return columns, result, bool(solves)


class TestRowChains:
    def test_batch_visit_order_is_the_event_loops(self, monkeypatch):
        solved = deaths = initial = dwelling = 0
        for seed in range(200):
            reduced, fast, solved_here = batch_reduction(*lattice_cell(seed), monkeypatch)
            scenario, plan, config = lattice_cell(seed)
            result = PatrolSimulator(scenario, plan,
                                     dataclasses.replace(config, fast_path=False)).run()
            if reduced == "battery-clip":
                continue
            expected = {
                "average_dcdt": average_dcdt(result),
                "average_sd": average_sd(result),
                "max_visiting_interval": max_visiting_interval(result),
                "delivered_data": result.total_delivered_data(),
                "total_distance": result.total_distance(),
                "num_dead_mules": len(result.dead_mules()),
            }
            assert json.dumps(_json_sanitize(reduced)) == json.dumps(_json_sanitize(expected)), \
                f"seed {seed}"
            if not solved_here:
                continue
            solved += 1
            # The lists the result builds on first read follow the solved order.
            assert fast.visits == result.visits, f"seed {seed}"
            assert fast.deliveries == result.deliveries, f"seed {seed}"
            deaths += expected["num_dead_mules"] > 0
            initial += any(route.start_position() not in (None, scenario.sink.position)
                           for route in plan.routes.values())
            dwelling += scenario.params.collection_time > 0
        # The draws must reach every shape the chains carry.
        assert solved >= 100, solved
        assert min(deaths, initial, dwelling) >= 20, (deaths, initial, dwelling)

    def test_tied_flushes_sum_in_pop_order(self, monkeypatch):
        # m1 (index 0) runs sink -> g1 -> g2, m2 sink -> g3: both flush at the
        # sink every 100 s, with data on board and at no shared target.  m2's
        # flush pops first (its chain reached t = 50 straight from the sink,
        # m1's by way of g1 at t = 25), and the delivery sum is taken in that
        # order: with these rates, adding m1's packets first moves the last
        # bit of a sequential sum (the built-in ``sum`` before Python 3.12).
        def build():
            sink = Sink("sink", Point(0.0, 0.0))
            targets = [Target("g1", Point(50.0, 0.0), data_rate=2.55),
                       Target("g2", Point(100.0, 0.0), data_rate=0.11),
                       Target("g3", Point(0.0, 100.0), data_rate=2.03)]
            scenario = Scenario(
                targets=targets, sink=sink, field=Field(), params=SimulationParameters(),
                mules=[DataMule(m, sink.position, velocity=2.0) for m in ("m1", "m2")],
                name="tied-flushes",
            )
            coords = scenario.patrol_points()
            return scenario, PatrolPlan(strategy="manual", routes={
                "m1": LoopRoute("m1", ["sink", "g1", "g2"], coords),
                "m2": LoopRoute("m2", ["sink", "g3"], coords),
            })

        config = SimulationConfig(horizon=1_000.0, track_energy=False)
        reduced, fast, solved = batch_reduction(*build(), config, monkeypatch)
        result = PatrolSimulator(*build(), dataclasses.replace(config, fast_path=False)).run()
        assert solved
        assert fast.visits == result.visits and fast.deliveries == result.deliveries
        assert [(d.delivered_at, d.mule_id) for d in result.deliveries[:3]] \
            == [(100.0, "m2"), (100.0, "m1"), (100.0, "m1")]
        assert reduced["delivered_data"] == result.total_delivered_data()
        if sys.version_info < (3, 12):
            by_mule = sorted(result.deliveries, key=lambda d: (d.delivered_at, d.mule_id))
            assert sum(d.size for d in by_mule) != result.total_delivered_data()

    def test_a_flush_of_many_packets_is_no_tie(self, monkeypatch):
        # B-TCTP on a pinned 12-target layout: each sink visit delivers the
        # packets of several targets, and no two deliveries share an instant.
        # The tie test sees each flush once, so the row set never solves.
        from repro.geometry.cache import clear_caches
        from repro.runner.spec import RunSpec
        from repro.scenarios import ScenarioSpec

        solves = []
        original = fastpath._pop_ranks
        monkeypatch.setattr(fastpath, "_pop_ranks",
                            lambda chains: solves.append(chains) or original(chains))
        spec = RunSpec(
            strategy="b-tctp",
            scenario=ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 3}, seed=42),
            sim=SimulationConfig(horizon=50_000.0, track_energy=False),
        )
        clear_caches()
        try:
            record = batchpath.batch_execute_records([spec])[0]
        finally:
            clear_caches()
        assert record is not None and record["delivered_data"] > 0
        assert solves == []
