"""Planning kernels: the tour heuristics as NumPy passes.

These are the only implementation of the four hot loops of tour
construction and improvement —

* cheapest insertion (:func:`cheapest_insertion_order`),
* greedy nearest-neighbour (:func:`nearest_neighbor_order`),
* 2-opt (:func:`two_opt_order`),
* Or-opt (:func:`or_opt_order`),

— reformulated as bulk array updates per round.  2-opt, Or-opt and
nearest-neighbour evaluate every candidate move of a round in one array pass;
cheapest insertion builds its cost matrix once, one row per tour edge
("slot"), and computes only the two slot rows each insertion creates.  The
*selection* among candidates replicates a scalar scan's first-improvement
semantics exactly, so every kernel is **byte-identical** to the Python loop
it was written from:

* float expressions keep the scalar grouping — e.g. the insertion cost is
  computed as ``(dmat[a, p] + dmat[p, b]) - dmat[a, b]``, never reassociated
  — so each candidate's value is the same IEEE double the scalar loop saw;
* the cheapest-insertion scan's ``cost < best - 1e-12`` chain is *not* an
  argmin: which candidate wins depends on scan order.  But the first global
  minimum ``g`` is provably the chain's winner when no other candidate
  ``v`` has ``v - 1e-12 <= g`` (had the chain stopped on such a ``v``
  earlier, it would have rejected ``g``), so the kernel takes it directly
  after two ``count_nonzero`` tests.  Only on a near tie is the chain
  replayed: every accepted candidate is a strict running minimum of the
  cost sequence, so :func:`chain_argmin` extracts the strict running minima
  with one ``np.minimum.accumulate`` and replays the epsilon chain over just
  those few indices.  Random layouts almost never replay; exact ties
  (lattices, duplicate points, collinear runs) replay on most rounds;
* 2-opt / Or-opt pick the first improving move in the scalar scan's
  row-major order (a flattened ``argmax`` over the improvement mask);
* nearest-neighbour keeps the scalar ``(distance, str(id))`` tie key:
  ``np.hypot`` is not guaranteed bit-identical to ``math.hypot``, so the
  vector row only shortlists candidates inside a relative window around the
  row minimum (1e-12, about four thousand ulps — vastly wider than any
  faithful-rounding discrepancy) and the exact ``math.hypot`` key decides
  among the shortlist.

:mod:`repro.graphs.hamiltonian` and :mod:`repro.graphs.improve` call them
directly; there is no second runtime path.  The scalar loops are kept
frozen in ``tests/planning_reference.py``, and its ``reference_planning()``
swaps them in for the differential legs: ``tests/test_planning_kernels.py``
(kernels, golden plans and fuzzed records), ``tests/test_graphs_improve.py``,
``tests/test_fastpath_differential.py`` and ``benchmarks/bench_pr9.py``
compare plans and full run records against them before any speed claim.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geometry.point import hypot_row

__all__ = [
    "chain_argmin",
    "cheapest_insertion_order",
    "nearest_neighbor_order",
    "two_opt_order",
    "or_opt_order",
]

# Soft bound on floats per delta/cost block in the 2-opt and Or-opt rounds;
# larger tours are scanned in row chunks (in scan order, so first-improvement
# selection is unaffected) to keep peak memory flat.
_MAX_BLOCK_FLOATS = 4_000_000

# Relative shortlist window for the nearest-neighbour row minimum (see the
# module docstring): any candidate whose np.hypot distance is within this
# factor of the row minimum is re-measured with math.hypot before the exact
# (distance, str(id)) key picks the winner.
_NN_WINDOW = 1e-12


# --------------------------------------------------------------------------- #
# The first-improvement chain
# --------------------------------------------------------------------------- #

def chain_argmin(costs: np.ndarray, eps: float) -> int:
    """Index the scalar scan ``if best is None or c < best - eps`` would accept last.

    The scalar cheapest-insertion scan is *not* an argmin: ``best`` follows a
    sequential chain in which a candidate is accepted only when it beats the
    current best by more than ``eps``.  But every accepted candidate is a
    strict running minimum of the sequence: when ``c[k]`` is accepted,
    ``c[k] < best - eps``, every earlier rejected value satisfies
    ``v >= best_then - eps >= best - eps > c[k]`` (``best`` never increases),
    and every earlier accepted value is ``>= best`` — so no earlier value is
    smaller.  The converse lets the chain be replayed over only the strict
    running minima (a logarithmic-size set in expectation), extracted here
    with one vectorized ``np.minimum.accumulate``.
    """
    flat = np.ascontiguousarray(costs).ravel()
    if flat.size == 0:
        raise ValueError("chain_argmin over an empty cost array")
    running = np.minimum.accumulate(flat)
    strict = np.empty(flat.size, dtype=bool)
    strict[0] = True
    strict[1:] = flat[1:] < running[:-1]
    candidates = np.flatnonzero(strict)
    best_index = int(candidates[0])
    best = flat[best_index]
    for k in candidates[1:]:
        value = flat[k]
        if value < best - eps:
            best_index = int(k)
            best = value
    return best_index


# --------------------------------------------------------------------------- #
# Cheapest insertion (convex-hull construction)
# --------------------------------------------------------------------------- #

def cheapest_insertion_order(
    dmat: np.ndarray, hull: Sequence[int], n: int, *, eps: float = 1e-12
) -> list[int]:
    """Complete a convex-hull sub-tour by repeated cheapest insertion.

    Incremental twin of the scalar insertion loop (frozen in
    ``tests/planning_reference.py``), which scans every (remaining point p,
    tour position pos) pair each round and keeps the first
    ``cost < best - eps`` improvement (the "chain").  Returns the
    completed index tour (a permutation of ``range(n)``) with the scalar
    loop's exact picks:

    * **Slot rows, built once.**  ``cost[s, q]`` is the price of inserting
      remaining point ``q`` into the tour edge held by row ("slot") ``s``,
      ``(dmat[a, q] + dmat[q, b]) - dmat[a, b]`` — the scalar grouping, so
      every entry is the IEEE double the scalar scan computes.  ``slots``
      maps tour positions to rows.  ``dmat[:, rem]`` and ``dmat[rem].T`` are
      gathered once, so the two operands of a slot row are plain rows
      (``dmat`` need not be symmetric).
    * **Two new rows per round.**  Inserting p into edge (a, b) replaces
      one edge with (a, p) and (p, b): the first overwrites (a, b)'s row in
      place, the second takes the next free row, and only those two rows
      are computed.  Every other entry is already the double a full rebuild
      would give — the same expression on the same operands.
    * **Stale points.**  Each remaining point keeps its minimum over the
      live slots.  A point whose minimum may have sat on the replaced edge
      (old entry ``<=`` minimum, one contiguous row compare) is recomputed
      over the live slots; every other point only folds in the two new
      entries.  Inserted points are held at ``+inf``.
    * **The shortcut.**  Let ``g`` be the first global minimum in scan
      order: point ``r`` (the first argmin of the minima) at ``pos`` (the
      first argmin of its costs in tour order).  The chain reaches ``g``
      holding some earlier cost ``v`` as its best and rejects ``g`` only if
      ``v - eps <= g`` (the float expression the chain evaluates); once it
      accepts ``g``, no later cost (all ``>= g``) beats ``g - eps``.  So
      ``g`` wins unless some *other* live cost has ``v - eps <= g``.  Two
      ``count_nonzero`` tests rule that out: one over the minima
      (``v - eps`` is monotone in ``v``, so a point's minimum stands for
      all its costs) and one over point ``r``'s costs.
    * **The replay, on near ties only.**  When either test finds a second
      candidate, the chain is replayed as the scalar scan runs it.
      :func:`chain_argmin` proves every accepted candidate is a strict
      running minimum of the row-major (remaining order, tour position)
      scan, and a point holds one only if its minimum is strictly below
      that of every earlier point.  The chain is replayed over just those
      points, gathered in tour order; their strict running minima are
      exactly the full scan's, so the epsilon chain accepts the same
      winner.

    A round costs O(remaining) plus O(tour length) per stale point (and per
    candidate point on a replay), instead of a full (remaining x positions)
    rebuild.
    """
    tour_idx: list[int] = list(hull)
    in_hull = set(hull)
    rem = np.array([i for i in range(n) if i not in in_hull], dtype=np.intp)
    left = rem.size
    if not left:
        return tour_idx
    m = len(tour_idx)
    # to_rem[a] = dmat[a, rem] and from_rem[b] = dmat[rem, b], as contiguous rows.
    to_rem = np.take(dmat, rem, axis=1)
    from_rem = np.ascontiguousarray(dmat[rem].T)
    tour = np.asarray(tour_idx)
    nxt = np.asarray(tour_idx[1:] + tour_idx[:1])
    cost = np.empty((m + left, left))
    np.subtract(to_rem[tour] + from_rem[nxt], dmat[tour, nxt][:, None], out=cost[:m])
    slots = np.arange(m + left)
    alive = np.ones(left, dtype=bool)
    # row_min[0] is a +inf sentinel: point q is a replay candidate exactly
    # when row_min[q + 1] < min(row_min[:q + 1]).
    row_min = np.empty(left + 1)
    row_min[0] = np.inf
    mins = row_min[1:]
    cost[:m].min(axis=0, out=mins)

    while True:
        r = int(mins.argmin())
        row = cost[slots[:m], r]  # the scan's row r: point r's costs in tour order
        pos = int(row.argmin())
        g = row[pos]
        if np.count_nonzero(mins - eps <= g) != 1 or np.count_nonzero(row - eps <= g) != 1:
            rows = (mins < np.minimum.accumulate(row_min)[:-1]).nonzero()[0]
            k, pos = divmod(chain_argmin(cost[slots[:m, None], rows].T, eps), m)
            r = int(rows[k])
        p = int(rem[r])
        a, b = tour_idx[pos], tour_idx[(pos + 1) % m]
        tour_idx.insert(pos + 1, p)
        left -= 1
        if not left:
            return tour_idx
        # Edge (a, b) in row s becomes (a, p); (p, b) takes row m.
        s = slots[pos]
        slots[pos + 2 : m + 1] = slots[pos + 1 : m]
        slots[pos + 1] = m
        alive[r] = False
        mins[r] = np.inf
        stale = ((cost[s] <= mins) & alive).nonzero()[0]
        into_ap, into_pb = cost[s], cost[m]
        np.add(to_rem[a], from_rem[p], out=into_ap)
        np.subtract(into_ap, dmat[a, p], out=into_ap)
        np.add(to_rem[p], from_rem[b], out=into_pb)
        np.subtract(into_pb, dmat[p, b], out=into_pb)
        np.minimum(mins, np.minimum(into_ap, into_pb), out=mins, where=alive)
        m += 1
        if stale.size:
            mins[stale] = cost[:m, stale].min(axis=0)


# --------------------------------------------------------------------------- #
# Nearest neighbour
# --------------------------------------------------------------------------- #

def nearest_neighbor_order(coords: np.ndarray, keys: Sequence[str], start: int) -> list[int]:
    """Greedy nearest-neighbour visiting order over coordinate rows.

    ``keys[i]`` is the scalar loop's ``str(node_id)`` tie-break key,
    precomputed once.  Each step takes a masked ``np.hypot`` row, shortlists
    everything within a relative window of the row minimum, and applies the
    exact scalar key ``(math.hypot(...), keys[i])`` to the shortlist — so the
    selected index matches the scalar ``min(unvisited, key=...)`` even where
    ``np.hypot`` and ``math.hypot`` disagree in the last ulp.
    """
    coords = np.ascontiguousarray(coords, dtype=float)
    n = coords.shape[0]
    xs, ys = coords[:, 0], coords[:, 1]
    alive = np.ones(n, dtype=bool)
    alive[start] = False
    order = [start]
    current = start
    for _ in range(n - 1):
        row = hypot_row(coords, current)
        masked = np.where(alive, row, np.inf)
        rmin = masked.min()
        shortlist = np.flatnonzero(masked <= rmin * (1.0 + _NN_WINDOW))
        cx, cy = xs[current], ys[current]
        nxt = min(
            (int(i) for i in shortlist),
            key=lambda i: (math.hypot(cx - xs[i], cy - ys[i]), keys[i]),
        )
        order.append(nxt)
        alive[nxt] = False
        current = nxt
    return order


# --------------------------------------------------------------------------- #
# 2-opt
# --------------------------------------------------------------------------- #

def _first_true(mask: np.ndarray) -> "tuple[int, int] | None":
    """Row-major (row, col) of the first True in a 2-D boolean mask, else None."""
    flat = mask.ravel()
    pos = int(flat.argmax())
    if not flat[pos]:
        return None
    return divmod(pos, mask.shape[1])


def two_opt_round(
    order: list[int], dmat: np.ndarray, tol: float
) -> "tuple[int, int] | None":
    """The (i, j) move the scalar 2-opt scan would apply this round, else None.

    Evaluates the whole delta matrix
    ``(dmat[a, c] + dmat[b, d]) - (dmat[a, b] + dmat[c, d])`` by broadcast
    (in row chunks so peak memory stays flat) and returns the first entry
    with ``delta < -tol`` in the scalar scan's row-major (i, j) order —
    i over ``range(n - 1)``, j over ``range(i + 2, n)``, skipping the
    wrap-adjacent (0, n-1) pair.
    """
    n = len(order)
    o = np.asarray(order)
    succ = np.roll(o, -1)                  # d[j] = order[(j+1) % n]
    edge = dmat[o, succ]                   # dmat[c, d] per j; rows reuse o/succ
    j_idx = np.arange(n)
    block = max(1, _MAX_BLOCK_FLOATS // max(n, 1))
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        a = o[i0:i1]
        b = o[i0 + 1 : i1 + 1]
        # delta[i, j] = (dmat[a, c] + dmat[b, d]) - (dmat[a, b] + dmat[c, d])
        delta = (dmat[a][:, o] + dmat[b][:, succ]) - (
            dmat[a, b][:, None] + edge[None, :]
        )
        valid = j_idx[None, :] >= (np.arange(i0, i1) + 2)[:, None]
        if i0 == 0:
            valid[0, n - 1] = False        # d == a: reversing the whole tour
        hit = _first_true((delta < -tol) & valid)
        if hit is not None:
            return i0 + hit[0], hit[1]
    return None


def two_opt_order(
    order: list[int], dmat: np.ndarray, *, max_rounds: int, tol: float
) -> list[int]:
    """Run the scalar 2-opt move sequence over an index order, vectorized.

    Each round applies the first improving reversal (exactly the move the
    scalar first-improvement scan takes) and rescans; stops when a round
    finds no improving move or after ``max_rounds`` rounds.
    """
    order = list(order)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        hit = two_opt_round(order, dmat, tol)
        if hit is None:
            break
        i, j = hit
        order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
    return order


# --------------------------------------------------------------------------- #
# Or-opt
# --------------------------------------------------------------------------- #

def _or_opt_round(
    order: list[int], dmat: np.ndarray, seg_len: int, tol: float
) -> "tuple[int, int] | None":
    """First improving (i, j) relocation of a ``seg_len`` chain, else None.

    Mirrors one ``seg_len`` pass of the scalar ``try_round``: for every
    rotation start i the removal gain and the full row of insertion costs
    over the reduced tour ``rest`` are evaluated at once, and the first
    (i, j) with ``insertion_cost < removal_gain - tol`` in row-major order
    wins.  Segments that contain their own neighbours (only possible when
    ``seg_len >= n``) never improve in the scalar loop, so those passes are
    skipped wholesale.
    """
    n = len(order)
    if seg_len >= n:
        return None
    m = n - seg_len
    o = np.asarray(order)
    idx = np.arange(n)
    s0 = o                                  # seg[0]  = order[i]
    sl = o[(idx + seg_len - 1) % n]         # seg[-1] = order[(i+L-1) % n]
    prev = o[(idx - 1) % n]
    nxt = o[(idx + seg_len) % n]
    # removal_gain[i] = (dmat[prev, seg0] + dmat[segL, next]) - dmat[prev, next]
    gain = (dmat[prev, s0] + dmat[sl, nxt]) - dmat[prev, nxt]
    threshold = gain - tol                  # scalar compares against this value

    jj = np.arange(m)
    block = max(1, _MAX_BLOCK_FLOATS // max(m, 1))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        rows = idx[i0:i1]
        # rest = order minus the seg positions, original order preserved:
        # without wrap-around rest skips positions [i, i+L); with wrap-around
        # (i + L > n) the segment covers the ends and rest is the contiguous
        # middle [i+L-n, i).
        wrap = (rows + seg_len > n)[:, None]
        positions = np.where(
            wrap,
            (rows + seg_len - n)[:, None] + jj[None, :],
            jj[None, :] + seg_len * (jj[None, :] >= rows[:, None]),
        )
        a = o[positions]
        b = o[positions[:, (jj + 1) % m]]
        # insertion_cost = (dmat[a, seg0] + dmat[segL, b]) - dmat[a, b]
        cost = (dmat[a, s0[i0:i1, None]] + dmat[sl[i0:i1, None], b]) - dmat[a, b]
        hit = _first_true(cost < threshold[i0:i1, None])
        if hit is not None:
            return i0 + hit[0], hit[1]
    return None


def or_opt_order(
    order: list[int],
    dmat: np.ndarray,
    *,
    segment_lengths: "tuple[int, ...]",
    max_rounds: int,
    tol: float,
) -> list[int]:
    """Run the scalar Or-opt move sequence over an index order, vectorized.

    Each round scans segment lengths in the given order and applies the
    first improving relocation (the exact scalar move); rounds repeat while
    a move was found and ``max_rounds`` is not exhausted.
    """
    order = list(order)
    rounds = 0
    while rounds < max_rounds:
        hit = None
        for seg_len in segment_lengths:
            found = _or_opt_round(order, dmat, seg_len, tol)
            if found is not None:
                hit = (seg_len, *found)
                break
        if hit is None:
            break
        seg_len, i, j = hit
        n = len(order)
        seg = [order[(i + k) % n] for k in range(seg_len)]
        removed = {(i + k) % n for k in range(seg_len)}
        rest = [order[k] for k in range(n) if k not in removed]
        order = rest[: j + 1] + seg + rest[j + 1 :]
        rounds += 1
    return order
