"""Differential tests for the planning kernels (repro.planning.kernels).

Every kernel must be **byte-identical** to the scalar loop it was written
from, frozen in ``planning_reference.py``:

* kernel-level — the cheapest-insertion / nearest-neighbour / 2-opt /
  Or-opt kernels build the reference loops' tours node for node over seeded
  random instances (including tie-heavy lattices and duplicate points) and
  over small and degenerate layouts at each builder's size guards;
  the cheapest-insertion kernel also matches a frozen copy of its
  point-major predecessor at cold-sweep sizes, on both of its selection
  paths (the shortcut and the chain replay);
* plan-level — ``serialize_plan`` of every golden strategy call and of
  seeded random planning specs is byte-equal under the kernels and under
  :func:`~planning_reference.reference_planning` (a spec that planning
  rejects must be rejected with the same message);
* record-level — full :func:`~repro.runner.campaign.execute_run` records are
  byte-equal both ways.

``reference_planning()`` clears every cache on entry and exit: the
hamiltonian memo's key names the builder but not the 2-opt pass, and the
batch keys its rows by spec alone, so a warm cache would serve one leg's
result to the other and make the comparison vacuous.
``TestReferenceHarness`` proves the reference legs never reach a kernel.

Seed and case count are fixed for CI but overridable::

    REPRO_PLANNING_FUZZ_SEED=123 REPRO_PLANNING_FUZZ_CASES=80 \
        pytest tests/test_planning_kernels.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from plan_golden import golden_scenarios, golden_strategy_calls, serialize_plan
from repro.baselines.base import get_strategy, strategy_params
from repro.geometry.cache import caching_disabled, clear_caches
from repro.geometry.hull import convex_hull_indices
from planning_reference import reference_planning
from repro.geometry.point import Point, distance_matrix
from repro.graphs import hamiltonian, improve
from repro.graphs.hamiltonian import convex_hull_insertion_tour
from repro.graphs.improve import or_opt, two_opt
from repro.graphs.tour import Tour
from repro.planning import kernels
from repro.runner.campaign import _json_sanitize, execute_run
from repro.runner.spec import RunSpec
from repro.scenarios import ScenarioSpec
from repro.sim.engine import SimulationConfig

FUZZ_SEED = int(os.environ.get("REPRO_PLANNING_FUZZ_SEED", "20260808"))
FUZZ_CASES = int(os.environ.get("REPRO_PLANNING_FUZZ_CASES", "40"))


def _random_coords(rng, n, *, lattice=False):
    pts = rng.uniform(0, 1000, (n, 2))
    if lattice:  # snap to a coarse grid so exact distance ties are common
        pts = np.round(pts / 125) * 125
    return {f"t{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)}


def _tie_heavy_layouts(rng):
    """(kind, points, hull size or None) inputs the uniform draws never reach.

    Hulls of one and two points, and exact cost ties at up to 160 points,
    where the insertion kernel's row pruning and stale-row recomputes run
    often.  Integer-valued coordinates keep collinearity exact.
    """
    yield "collinear", [(3.0 * k, 2.0 * k - 7.0) for k in rng.permutation(60)], 2
    yield "coincident", [(250.0, 125.0)] * 24, 1
    two = [(0.0, 0.0), (375.0, 125.0)]
    yield "two-point multiset", [two[b] for b in rng.integers(0, 2, 30)], 2
    yield "coarse lattice", np.round(rng.uniform(0, 1000, (160, 2)) / 125) * 125, None
    centres = rng.uniform(100, 900, (4, 2))
    clusters = np.round(centres[rng.integers(0, 4, 120)] + rng.normal(0, 30, (120, 2)))
    clusters[rng.integers(0, 120, 30)] = clusters[rng.integers(0, 120, 30)]
    yield "clusters with duplicates", clusters, None
    angles = rng.uniform(0, 2 * np.pi, 80)
    radii = rng.choice([350.0, 375.0, 400.0], 80)
    ring = np.round(np.c_[500 + radii * np.cos(angles), 500 + radii * np.sin(angles)])
    yield "ring with centre duplicates", np.vstack([ring, [(500.0, 500.0)] * 12]), None


def hull_tour(coords):
    """Hull insertion, looked up where ``reference_planning()`` swaps it."""
    return hamiltonian.TOUR_BUILDERS["hull-insertion"](coords)


def nn_tour(coords, **kwargs):
    return hamiltonian.nearest_neighbor_tour(coords, **kwargs)


def _both_ways(build, coords):
    """(reference, kernel) tours for one builder, caches cold on both legs."""
    with reference_planning(), caching_disabled():
        reference = build(coords)
    with caching_disabled():
        kernel = build(coords)
    return reference, kernel


class TestChainArgmin:
    @staticmethod
    def _scalar_chain(costs, eps):
        best = None
        best_index = None
        for index, cost in enumerate(costs):
            if best is None or cost < best - eps:
                best, best_index = cost, index
        return best_index

    def test_matches_scalar_chain_on_adversarial_sequences(self):
        rng = np.random.default_rng(FUZZ_SEED)
        eps = 1e-12
        for _ in range(200):
            base = rng.uniform(-10, 10, int(rng.integers(1, 60)))
            # inject near-ties straddling the epsilon window
            if base.size > 3:
                base[2] = base[1] - eps / 2        # within eps: must NOT win
                base[3] = base[1] - eps * 2        # beyond eps: must win
            assert kernels.chain_argmin(base, eps) == self._scalar_chain(base, eps)

    def test_descending_sequence_takes_last(self):
        costs = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        assert kernels.chain_argmin(costs, 1e-12) == 4

    def test_tie_within_eps_keeps_first(self):
        costs = np.array([1.0, 1.0 - 5e-13, 2.0])
        assert kernels.chain_argmin(costs, 1e-12) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            kernels.chain_argmin(np.empty(0), 1e-12)


class TestKernelTourIdentity:
    def test_hull_insertion_identical(self):
        rng = np.random.default_rng(FUZZ_SEED + 1)
        for trial in range(25):
            coords = _random_coords(rng, int(rng.integers(4, 45)), lattice=trial % 4 == 0)
            reference, kernel = _both_ways(hull_tour, coords)
            assert list(kernel.order) == list(reference.order)
        for kind, pts, hull_size in _tie_heavy_layouts(rng):
            coords = {f"t{i}": Point(float(x), float(y)) for i, (x, y) in enumerate(pts)}
            if hull_size is not None:
                assert len(convex_hull_indices(list(coords.values()))) == hull_size, kind
            reference, kernel = _both_ways(hull_tour, coords)
            assert list(kernel.order) == list(reference.order), kind

    def test_nearest_neighbor_identical(self):
        rng = np.random.default_rng(FUZZ_SEED + 2)
        for trial in range(25):
            coords = _random_coords(rng, int(rng.integers(2, 45)), lattice=trial % 3 == 0)
            reference, kernel = _both_ways(nn_tour, coords)
            assert list(kernel.order) == list(reference.order)

    def test_nearest_neighbor_lattice_tie_break(self):
        # four candidates exactly equidistant from the start: the reference
        # loop breaks the tie on str(id); the kernel must pick the same node
        coords = {
            "center": Point(0, 0),
            "n": Point(0, 10), "s": Point(0, -10), "e": Point(10, 0), "w": Point(-10, 0),
        }
        reference, kernel = _both_ways(lambda c: nn_tour(c, start="center"), coords)
        assert list(kernel.order) == list(reference.order)

    def test_duplicate_points_identical(self):
        coords = {
            "a": Point(0, 0), "b": Point(100, 0), "c": Point(100, 100),
            "d": Point(0, 100), "dup1": Point(50, 50), "dup2": Point(50, 50),
        }
        for build in (hull_tour, nn_tour):
            reference, kernel = _both_ways(build, coords)
            assert list(kernel.order) == list(reference.order)

    def test_two_opt_identical(self):
        rng = np.random.default_rng(FUZZ_SEED + 3)
        for trial in range(25):
            coords = _random_coords(rng, int(rng.integers(4, 45)), lattice=trial % 4 == 0)
            reference, kernel = _both_ways(lambda c: improve.two_opt(hull_tour(c)), coords)
            assert list(kernel.order) == list(reference.order)

    def test_or_opt_identical(self):
        rng = np.random.default_rng(FUZZ_SEED + 4)
        for trial in range(25):
            coords = _random_coords(rng, int(rng.integers(5, 45)), lattice=trial % 4 == 0)
            reference, kernel = _both_ways(lambda c: improve.or_opt(hull_tour(c)), coords)
            assert list(kernel.order) == list(reference.order)

    def test_improvement_passes_never_lengthen(self):
        rng = np.random.default_rng(FUZZ_SEED + 5)
        for _ in range(8):
            coords = _random_coords(rng, int(rng.integers(6, 30)))
            clear_caches()
            with caching_disabled():
                tour = convex_hull_insertion_tour(coords)
                assert two_opt(tour).length() <= tour.length() + 1e-9
                assert or_opt(tour).length() <= tour.length() + 1e-9


# Small and degenerate layouts, one per branch a builder takes around its
# kernel: hull insertion's n <= 3 return, the one-node nearest-neighbour
# tour, the n < 4 and n < 5 guards of 2-opt and Or-opt, a hull that holds
# every point (no insertion round), and distances that are all ties or zero.
# Integer-valued coordinates keep collinearity and the ties exact.
BOUNDARY_LAYOUTS = {
    "one point": [(5.0, 5.0)],
    "two points": [(0.0, 0.0), (3.0, 4.0)],
    "triangle": [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)],
    "crossed square": [(0.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 10.0)],
    "square with inner point": [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 1.0), (0.0, 10.0)],
    "hull only": [(0.0, 0.0), (4.0, -1.0), (8.0, 0.0), (9.0, 4.0), (8.0, 8.0),
                  (4.0, 9.0), (0.0, 8.0), (-1.0, 4.0)],
    "collinear": [(3.0 * k, 2.0 * k - 7.0) for k in (4, 0, 7, 2, 5, 1, 6, 3)],
    "coincident": [(250.0, 125.0)] * 6,
    "two coincident clusters": [(0.0, 0.0), (375.0, 125.0)] * 4,
}

# 2-opt and Or-opt start from the input order, so a scrambled layout gives
# them moves to make: the crossed square is the smallest tour 2-opt mends,
# the square with its inner point visited out of line the smallest Or-opt
# mends.
BOUNDARY_BUILDERS = {
    "hull-insertion": hull_tour,
    "nearest-neighbor": nn_tour,
    "two-opt": lambda coords: improve.two_opt(Tour(list(coords), coords)),
    "or-opt": lambda coords: improve.or_opt(Tour(list(coords), coords)),
}


def _layout(name):
    return {f"t{i}": Point(x, y) for i, (x, y) in enumerate(BOUNDARY_LAYOUTS[name])}


class TestBoundaryLayoutsAgainstReference:
    """Each heuristic builds the reference's tour on small and degenerate inputs."""

    def test_hull_only_layout_has_no_interior_point(self):
        pts = list(_layout("hull only").values())
        assert len(convex_hull_indices(pts)) == len(pts)

    @pytest.mark.parametrize("builder", list(BOUNDARY_BUILDERS))
    @pytest.mark.parametrize("layout", list(BOUNDARY_LAYOUTS))
    def test_builder_matches_reference(self, layout, builder):
        coords = _layout(layout)
        reference, kernel = _both_ways(BOUNDARY_BUILDERS[builder], coords)
        assert list(kernel.order) == list(reference.order)
        assert sorted(kernel.order) == sorted(coords)

    @pytest.mark.parametrize("layout", ["square with inner point", "collinear",
                                        "two coincident clusters"])
    def test_nearest_neighbor_from_every_start(self, layout):
        coords = _layout(layout)
        for start in coords:
            reference, kernel = _both_ways(lambda c, s=start: nn_tour(c, start=s), coords)
            assert list(kernel.order) == list(reference.order), start

    @pytest.mark.parametrize("improve_tour", [False, True])
    @pytest.mark.parametrize("method", ["hull-insertion", "nearest-neighbor"])
    def test_circuit_matches_reference(self, method, improve_tour):
        # Through the public entry point: the memo key names the builder, so
        # the swapped-in loops never serve a kernel-built circuit or back.
        rng = np.random.default_rng(FUZZ_SEED + 8)
        coords = _random_coords(rng, 30, lattice=True)

        def build(c):
            return hamiltonian.build_hamiltonian_circuit(
                c, method=method, improve=improve_tour, start="t7"
            )

        with reference_planning():
            reference = build(coords)
        kernel = build(coords)
        assert kernel.order[0] == "t7"
        assert list(kernel.order) == list(reference.order)


_frozen_chain_argmin = kernels.chain_argmin


def _frozen_cheapest_insertion_order(dmat, hull, n, *, eps=1e-12):
    """The point-major incremental kernel, frozen as a reference.

    ``cost[q, s]`` per remaining point q and slot s, two new columns per
    insertion, and the chain replayed over the candidate rows on every
    round.  It was held to the scalar loop by ``test_hull_insertion_identical``
    and bench_pr9; the slot-major kernel must match it tour for tour.
    """
    tour_idx = list(hull)
    in_hull = set(hull)
    rem = np.array([i for i in range(n) if i not in in_hull], dtype=np.intp)
    left = rem.size
    if not left:
        return tour_idx
    m = len(tour_idx)
    tour = np.asarray(tour_idx)
    nxt = np.asarray(tour_idx[1:] + tour_idx[:1])
    cost = np.empty((left, m + left))
    cost[:, :m] = (dmat[tour][:, rem].T + dmat[rem][:, nxt]) - dmat[tour, nxt][None, :]
    slots = np.arange(m + left)
    alive = np.ones(left, dtype=bool)
    row_min = np.empty(left + 1)
    row_min[0] = np.inf
    mins = row_min[1:]
    cost[:, :m].min(axis=1, out=mins)
    while True:
        rows = (mins < np.minimum.accumulate(row_min)[:-1]).nonzero()[0]
        k, pos = divmod(_frozen_chain_argmin(cost[rows[:, None], slots[:m]], eps), m)
        r = rows[k]
        p = int(rem[r])
        a, b = tour_idx[pos], tour_idx[(pos + 1) % m]
        tour_idx.insert(pos + 1, p)
        left -= 1
        if not left:
            return tour_idx
        s = slots[pos]
        slots[pos + 2 : m + 1] = slots[pos + 1 : m]
        slots[pos + 1] = m
        alive[r] = False
        mins[r] = np.inf
        stale = ((cost[:, s] <= mins) & alive).nonzero()[0]
        into_ap = (dmat[a, rem] + dmat[rem, p]) - dmat[a, p]
        into_pb = (dmat[p, rem] + dmat[rem, b]) - dmat[p, b]
        cost[:, s] = into_ap
        cost[:, m] = into_pb
        np.minimum(mins, np.minimum(into_ap, into_pb), out=mins, where=alive)
        m += 1
        if stale.size:
            mins[stale] = cost[stale, :m].min(axis=1)


def _insert_counting_replays(dmat, hull, n):
    """(kernel tour, number of rounds that replayed the chain)."""
    replays = 0

    def counting(costs, eps):
        nonlocal replays
        replays += 1
        return _frozen_chain_argmin(costs, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "chain_argmin", counting)
        order = kernels.cheapest_insertion_order(dmat, hull, n)
    return order, replays


def _clustered_points(num_targets, seed):
    """A clustered layout's targets plus its sink: the nodes b-tctp tours."""
    scenario = ScenarioSpec(
        "clustered", {"num_targets": num_targets, "num_clusters": 8}, seed=seed
    ).build(seed)
    return [t.position for t in scenario.targets] + [scenario.sink.position]


class TestInsertionKernelAtColdScale:
    """The slot-major kernel against the frozen point-major kernel, tour for tour.

    Clustered layouts of cold-sweep's sizes (sweep tours ~100 nodes, b-tctp
    401) must take the shortcut on most rounds; every tie-heavy layout must
    replay the chain at least once, so both selection paths are held.
    """

    @pytest.mark.parametrize("num_targets", [100, 400])
    def test_clustered_layouts_take_the_shortcut(self, num_targets):
        pts = _clustered_points(num_targets, FUZZ_SEED + num_targets)
        dmat, hull, n = distance_matrix(pts), convex_hull_indices(pts), len(pts)
        order, replays = _insert_counting_replays(dmat, hull, n)
        assert order == _frozen_cheapest_insertion_order(dmat, hull, n)
        rounds = n - len(hull)
        assert 2 * replays < rounds, f"{replays} of {rounds} rounds replayed the chain"

    def test_tie_heavy_layouts_replay_the_chain(self):
        rng = np.random.default_rng(FUZZ_SEED + 6)
        for kind, pts, _ in _tie_heavy_layouts(rng):
            pts = [Point(float(x), float(y)) for x, y in pts]
            dmat, hull, n = distance_matrix(pts), convex_hull_indices(pts), len(pts)
            order, replays = _insert_counting_replays(dmat, hull, n)
            assert order == _frozen_cheapest_insertion_order(dmat, hull, n), kind
            assert replays >= 1, kind

    @pytest.mark.parametrize("rival, expected", [
        ("same point", [0, 3, 1, 2]),
        ("earlier point", [0, 4, 3, 1, 2]),   # 3 takes edge (0, 1) first
    ])
    def test_near_tie_within_eps_follows_the_chain(self, rival, expected):
        # A cost 4e-13 above the minimum, scanned before it, wins the chain
        # (the minimum does not beat it by more than 1e-12) although it is
        # not the argmin.  Hull 0-1-2 with zero-length edges; every cost not
        # set here is at least 5.
        def matrix(n):
            dmat = np.full((n, n), 5.0)
            dmat[:3, :3] = 0.0
            np.fill_diagonal(dmat, 0.0)
            return dmat

        if rival == "same point":
            # point 3: 1.5 + 4e-13 into edge (0, 1), exactly 1.5 into (1, 2)
            dmat = matrix(4)
            dmat[0, 3], dmat[3, 1] = 1.0, 0.5 + 4e-13
            dmat[1, 3], dmat[3, 2] = 1.0, 0.5
        else:
            # into edge (0, 1): point 3 at 1.5 + 4e-13, point 4 at exactly 1.5
            dmat = matrix(5)
            dmat[0, 3], dmat[3, 1] = 1.0, 0.5 + 4e-13
            dmat[0, 4], dmat[4, 1] = 1.0, 0.5
        n = dmat.shape[0]
        order, replays = _insert_counting_replays(dmat, [0, 1, 2], n)
        assert order == _frozen_cheapest_insertion_order(dmat, [0, 1, 2], n)
        assert order == expected and replays >= 1

    def test_asymmetric_dmat(self):
        # dmat[a, q] and dmat[q, a] differ, so a kernel that read one for the
        # other would price insertions differently; the rounded copy adds
        # exact ties, so both selection paths see an asymmetric matrix.
        rng = np.random.default_rng(FUZZ_SEED + 7)
        pts = rng.uniform(0, 1000, (120, 2))
        hull = convex_hull_indices([Point(float(x), float(y)) for x, y in pts])
        dmat = distance_matrix(pts) + rng.uniform(0, 200, (120, 120))
        np.fill_diagonal(dmat, 0.0)
        assert not np.array_equal(dmat, dmat.T)
        replays = []
        for matrix in (dmat, np.round(dmat / 100) * 100):
            order, count = _insert_counting_replays(matrix, hull, 120)
            assert order == _frozen_cheapest_insertion_order(matrix, hull, 120)
            assert order != _frozen_cheapest_insertion_order(matrix.T.copy(), hull, 120)
            replays.append(count)
        assert 2 * replays[0] < 120 - len(hull) and replays[1] >= 1, replays


class TestGoldenPlansAgainstReference:
    """The golden strategy calls plan byte-identically with the kernels."""

    def test_golden_calls_identical_to_reference(self):
        scenarios = golden_scenarios()
        for key, strategy, kwargs in golden_strategy_calls():
            with reference_planning():
                reference = serialize_plan(
                    get_strategy(strategy, **kwargs).plan(scenarios[key].fresh_copy())
                )
            kernel = serialize_plan(
                get_strategy(strategy, **kwargs).plan(scenarios[key].fresh_copy())
            )
            assert json.dumps(kernel, sort_keys=True) == json.dumps(reference, sort_keys=True), (
                f"plan diverged from the reference: {key} / {strategy} / {kwargs}"
            )


class TestReferenceHarness:
    """A reference leg builds every tour with the frozen loops, never a kernel.

    Three cells, one per heuristic the strategies reach, run end to end
    under ``reference_planning()`` with spies on the reference builders and
    every kernel entry point made to raise: a path the harness missed would
    fail here instead of comparing the kernels with themselves.
    """

    CELLS = [
        ({}, "convex_hull_insertion_tour"),
        ({"tsp_method": "nearest-neighbor"}, "nearest_neighbor_tour"),
        ({"improve_tour": True}, "two_opt"),
    ]

    def test_each_cell_runs_its_reference_builder_and_no_kernel(self, monkeypatch):
        import planning_reference

        calls = dict.fromkeys(
            ["convex_hull_insertion_tour", "nearest_neighbor_tour", "two_opt", "or_opt"], 0
        )

        def spy(name):
            original = getattr(planning_reference, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counting

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference leg reached a planning kernel")

        for name in calls:
            monkeypatch.setattr(planning_reference, name, spy(name))
        for name in kernels.__all__:
            monkeypatch.setattr(kernels, name, forbidden)

        for params, builder in self.CELLS:
            before = calls[builder]
            spec = RunSpec(
                strategy="b-tctp",
                scenario=ScenarioSpec("uniform", {"num_targets": 12, "num_mules": 2}, seed=4),
                params=params,
                sim=SimulationConfig(horizon=2_500.0),
                seed=1,
            )
            with reference_planning():
                record = execute_run(spec)
            assert record["num_targets"] == 12
            assert calls[builder] > before, (params, calls)
        assert calls["convex_hull_insertion_tour"] >= 2  # the 2-opt cell starts from it

    def test_everything_is_restored_on_exit(self):
        kernel_side = (
            dict(hamiltonian.TOUR_BUILDERS), hamiltonian.nearest_neighbor_tour,
            improve.two_opt, improve.or_opt,
        )
        with pytest.raises(RuntimeError), reference_planning():
            assert hamiltonian.TOUR_BUILDERS["hull-insertion"] is not convex_hull_insertion_tour
            raise RuntimeError("the block fails")
        assert (
            dict(hamiltonian.TOUR_BUILDERS), hamiltonian.nearest_neighbor_tour,
            improve.two_opt, improve.or_opt,
        ) == kernel_side
        assert hamiltonian.TOUR_BUILDERS["hull-insertion"] is convex_hull_insertion_tour
        assert improve.two_opt is two_opt and improve.or_opt is or_opt


FAMILIES = ["uniform", "grid-jitter", "clustered", "ring"]
STRATEGIES = [
    "b-tctp", "w-tctp", "chb", "sweep", "random",
    "b-tctp-cw", "sw-tctp", "cb-tctp", "staggered-chb",
]


def draw_case(rng: np.random.Generator) -> dict:
    return {
        "family": FAMILIES[int(rng.integers(len(FAMILIES)))],
        "strategy": STRATEGIES[int(rng.integers(len(STRATEGIES)))],
        "num_targets": int(rng.integers(4, 35)),
        "num_mules": int(rng.integers(1, 5)),
        "num_vips": int(rng.integers(0, 3)),
        "scenario_seed": int(rng.integers(1_000)),
        "seed": int(rng.integers(1_000_000)),
        "improve": bool(rng.integers(2)),
        "tsp_method": ["hull-insertion", "nearest-neighbor"][int(rng.integers(2))],
    }


def case_spec(case: dict) -> RunSpec:
    declared = strategy_params(case["strategy"])
    params = {}
    if "tsp_method" in declared:
        params["tsp_method"] = case["tsp_method"]
    if "improve_tour" in declared:
        params["improve_tour"] = case["improve"]
    return RunSpec(
        strategy=case["strategy"],
        scenario=ScenarioSpec(
            case["family"],
            {
                "num_targets": case["num_targets"],
                "num_mules": case["num_mules"],
                "num_vips": case["num_vips"],
            },
            seed=case["scenario_seed"],
        ),
        params=params,
        sim=SimulationConfig(horizon=2_500.0),
        seed=case["seed"],
    )


def plan_outcome(spec: RunSpec, plan_params: dict) -> "tuple[str, bool]":
    """``(serialized plan, True)``, or ``("<type>: <message>", False)`` when
    planning rejects the spec with a ``ValueError``."""
    try:
        plan = get_strategy(spec.strategy, **plan_params).plan(
            spec.scenario.build(spec.seed)
        )
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}", False
    return json.dumps(serialize_plan(plan), sort_keys=True), True


class TestFuzzedSpecsAgainstReference:
    def test_plans_and_records_identical_on_random_specs(self):
        # A plan-time rejection (e.g. a small sw-tctp layout with too few
        # break edges for a VIP) is an outcome too: the kernel leg must raise
        # the same type and message, and there is no record to compare.
        rng = np.random.default_rng(FUZZ_SEED)
        for index in range(FUZZ_CASES):
            case = draw_case(rng)
            spec = case_spec(case)

            plan_params = dict(spec.params)
            if "seed" in strategy_params(spec.strategy):
                plan_params.setdefault("seed", spec.seed)

            with reference_planning():
                reference_plan, planned = plan_outcome(spec, plan_params)
                if planned:
                    reference_record = json.dumps(
                        _json_sanitize(execute_run(spec)), sort_keys=True
                    )
            kernel_plan, _ = plan_outcome(spec, plan_params)

            assert kernel_plan == reference_plan, (
                f"case {index} (seed {FUZZ_SEED}) plan diverged: {json.dumps(case)}"
            )
            if not planned:
                continue
            kernel_record = json.dumps(
                _json_sanitize(execute_run(spec)), sort_keys=True
            )
            assert kernel_record == reference_record, (
                f"case {index} (seed {FUZZ_SEED}) record diverged: {json.dumps(case)}"
            )

    def test_generator_is_deterministic(self):
        a = [draw_case(np.random.default_rng(5)) for _ in range(4)]
        b = [draw_case(np.random.default_rng(5)) for _ in range(4)]
        assert a == b
