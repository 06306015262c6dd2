"""Micro-benchmarks of the library's building blocks.

These do not correspond to a paper figure; they track the cost of the pieces
every experiment is built from — circuit construction, WPP construction, the
patrolling-rule walk, planning, and raw simulator throughput — so performance
regressions show up independently of the experiment harness.
"""

import pytest

from repro.core.btctp import plan_btctp
from repro.core.wtctp import build_weighted_patrolling_path, plan_wtctp
from repro.geometry.cache import caching_disabled
from repro.graphs.hamiltonian import build_hamiltonian_circuit, convex_hull_insertion_tour
from repro.graphs.improve import two_opt
from repro.sim.engine import PatrolSimulator, SimulationConfig
from repro.workloads.generator import uniform_scenario


@pytest.fixture(scope="module")
def scenario_40():
    return uniform_scenario(num_targets=40, num_mules=4, seed=3)


@pytest.fixture(scope="module")
def vip_scenario_30():
    return uniform_scenario(num_targets=30, num_mules=2, seed=4, num_vips=4, vip_weight=3)


@pytest.mark.benchmark(group="micro-path")
def test_bench_hull_insertion_tour(benchmark, scenario_40):
    coords = scenario_40.patrol_points()
    tour = benchmark(convex_hull_insertion_tour, coords)
    assert len(tour) == len(coords)


@pytest.mark.benchmark(group="micro-path")
def test_bench_two_opt(benchmark, scenario_40):
    coords = scenario_40.patrol_points()
    tour = build_hamiltonian_circuit(coords, method="nearest-neighbor")
    improved = benchmark(two_opt, tour)
    assert improved.length() <= tour.length() + 1e-6


@pytest.mark.benchmark(group="micro-path")
def test_bench_wpp_construction(benchmark, vip_scenario_30):
    coords = vip_scenario_30.patrol_points()
    tour = build_hamiltonian_circuit(coords, start=vip_scenario_30.sink.id)
    weights = vip_scenario_30.weights()

    def build():
        # the WPP memo would serve every round after the first
        with caching_disabled():
            return build_weighted_patrolling_path(tour, weights, "balanced")

    structure, walk = benchmark(build)
    assert structure.is_eulerian()
    assert len(walk) > len(tour)


@pytest.mark.benchmark(group="micro-plan")
def test_bench_plan_btctp(benchmark, scenario_40):
    plan = benchmark(plan_btctp, scenario_40)
    assert plan.metadata["path_length"] > 0


@pytest.mark.benchmark(group="micro-plan")
def test_bench_plan_wtctp(benchmark, vip_scenario_30):
    plan = benchmark(plan_wtctp, vip_scenario_30)
    assert plan.metadata["wpp_length"] >= plan.metadata["hamiltonian_length"]


@pytest.mark.benchmark(group="micro-sim")
def test_bench_simulator_throughput(benchmark, scenario_40):
    """Simulate 50k seconds of a 4-mule patrol; reports events/second indirectly."""
    plan = plan_btctp(scenario_40)

    def run():
        return PatrolSimulator(scenario_40.fresh_copy(), plan,
                               SimulationConfig(horizon=50_000.0)).run()

    result = benchmark(run)
    assert len(result.visits) > 100
