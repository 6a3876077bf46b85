"""Dense-case linear arrangement solver.

Partitions the points into k = round(1/eps) parts and embeds the parts
consecutively on the line (ascending part id, ascending point id inside each
part).  Two modes: ``faithful`` enumerates a grid of pairwise crossing-weight
targets and asks the bounded-partition search for each cell; ``reduced`` runs
a direct local search over part assignments, taking the exact gain of every
move in O(1) from per-row prefix-cut tables, and then polishes the identity
and every distinct restart arrangement by one swap hill-climb that steps all
of them in lockstep.  Both climb on the integer copy of the metric that
``local_search.quantize`` makes, through ``local_search.ascend``, and pick
on it: the climbed rows' exact values come in one batch, the largest wins
and the smaller slot tuple breaks equal values (``local_search.pick``).
Only the winner is scored on the true metric, once.  Faithful always also
considers the reduced winner, so on the quantized metric it never scores
below it.
"""

from __future__ import annotations

import math
from functools import partial
from operator import attrgetter

import numpy as np

from .local_search import (SolveConfig, ascend, distinct_rows, pick, pick_rows, quantize,
                           reduced_restarts, row_values)
from .metric import Metric
from .objectives import LinearArrangement, evaluate_la
from .partition_search import grid_partitions


_position = attrgetter("position")  # the tie-break key of arrangements

# Most sweeps of the swap climb that polishes the reduced search's arrangements.
CLIMB_SWEEPS = 40


def part_count(eps: float) -> int:
    """The k = round(1/eps) parts of the dense regime, at least 2."""
    return max(2, round(1.0 / eps))


def _embed_assignment(assignment) -> LinearArrangement:
    """Parts laid out consecutively: ascending part id, ascending point id."""
    return LinearArrangement.from_order(np.argsort(assignment, kind="stable").tolist())


def _embed_rows(assigns: np.ndarray) -> np.ndarray:
    """The slots of ``_embed_assignment`` of each (C, n) assignment row, one
    (C, n) row each, from one argsort: slot s + 1 scattered to the point in
    slot s of every row."""
    c, n = assigns.shape
    slots = np.empty_like(assigns)
    slots[np.arange(c)[:, None], np.argsort(assigns, axis=1, kind="stable")] = np.arange(1, n + 1)
    return slots


def _prefix_cut_gains(dist: np.ndarray, k: int):
    """Gain function of the reduced search: the (C, n k) table of the change
    of the value of the consecutive-parts embedding under every move of each
    assignment row, cell p k + b for moving p to part b, in O(1) per move from
    per-row tables of O(n^2) entries.

    The value is the sum of cut(t), the weight across the cut after the
    first t slots.  Moving p from part a to part b takes p out of its slot
    x and puts it in slot y, shifting the points between by one.  With
    P[p, t] p's weight to the first t slots, T[p, t] = sum_{s <= t} P[p, s]
    and deg(p) p's weight to all points, the value changes for x < y by

        cut(y) - cut(x) + 2 (T[p, y] - T[p, x]) - (y - x) deg(p),

    as each cut t in [x, y) becomes cut(t + 1) + 2 P[p, t + 1] - deg(p).
    For y < x, each cut t in [y, x) becomes cut(t - 1) + deg(p) -
    2 P[p, t - 1], the same sum with the sign turned and (y - 1, x - 1)
    for (x, y), over T shifted by one slot.  For b = a both ends are x - 1,
    so p's own part reads exactly 0.

    With W the weight of all pairs, the magnitudes of these terms sum to at
    most (5n + 8) W <= 13 n W: each cut is at most 4 W (the degrees of its
    left side plus twice the weight inside it), so the two cuts 8 W, the four
    entries of T 4 n W and the slope term n W.
    """
    deg = dist.sum(axis=1)
    return lambda assigns: _gain_rows(dist, deg, assigns, k)


def _gain_rows(dist, deg, assigns, k):
    """``_prefix_cut_gains``'s gains of (C, n) assignment rows."""
    c, n = assigns.shape
    row, ids = np.arange(c)[:, None], np.arange(n)
    onehot = assigns[:, :, None] == np.arange(k)
    sizes = onehot.sum(axis=1)
    before = np.cumsum(sizes, axis=1) - sizes
    below = np.cumsum(onehot, axis=1) - onehot  # lower ids in each part
    slot = before[row, assigns] + below[row, ids, assigns]  # 0-based
    order = np.empty_like(assigns)  # the point in each slot
    order[row, slot] = ids
    prefix = np.zeros((c, n + 1, n))  # P, indexed [row, t, p]
    np.cumsum(dist.take(order, axis=0), axis=1, out=prefix[:, 1:])
    sums = np.cumsum(prefix, axis=1)  # T
    cut = np.zeros((c, n + 1))  # cut(0) = cut(n) = 0
    np.cumsum((deg[order] - 2.0 * prefix[row, ids, order])[:, :-1], axis=1, out=cut[:, 1:n])

    right = assigns[:, :, None] < np.arange(k)  # (row, p, b)
    x = slot[:, :, None] + 1
    y = before[:, None, :] + below + ~right
    lo, hi = np.where(right, x, y - 1), np.where(right, y, x - 1)
    row, ids = row[:, :, None], ids[:, None]
    inner = (sums[row, np.maximum(hi - ~right, 0), ids]
             - sums[row, np.maximum(lo - ~right, 0), ids])
    change = cut[row, hi] - cut[row, lo] + 2.0 * inner - (hi - lo) * deg[ids]
    return np.where(right, change, -change).reshape(c, n * k)


def _swap_gains(dist: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """n x n matrices of the LA value change when points i and j trade
    slots, one per row of ``pos`` (positions of shape (n,) or (C, n)).

    With A = |pos_i - pos_j| and S = D A, the gain is
    (S_ij - S_ii) + (S_ji - S_jj) + 2 D_ij A_ij.  With W the weight of all
    pairs, each partial sum of S_ij is at most n deg(i) <= n W, so the
    magnitudes of these terms sum to at most 6 n W <= 13 n W.

    Two n x n arrays per row: A, which becomes the table in place, and S,
    from which its own diagonal is taken row by row.  The terms are added in
    another order than the formula's, which is exact on ``quantize``'s
    integer metric, the only one the climb sees: every term and partial sum
    is an integer below 6 n W < 2^52.
    """
    gaps = pos[..., :, None] - pos[..., None, :]
    np.abs(gaps, out=gaps)
    s = dist @ gaps
    s -= np.diagonal(s, axis1=-2, axis2=-1).copy()[..., :, None]  # S_ij - S_ii
    gaps *= dist
    gaps *= 2.0
    gaps += s
    gaps += np.swapaxes(s, -1, -2)
    return gaps


def _swap_hill_climb(q: np.ndarray, starts: np.ndarray, sweeps: int) -> np.ndarray:
    """The (S, n) slots that steepest-ascent slot swaps on the quantized
    metric ``q`` reach from each (S, n) start row of slots, until a local
    maximum, every start in lockstep through ``ascend``, which reads each
    start's n x n swap table and takes its first best swap in row-major
    order.  On ``quantize``'s integer metric the table is exactly symmetric
    with a zero diagonal, so that swap is the first best pair i < j, and no
    swap of a point with itself is ever taken."""
    pos = starts.astype(float)
    n = pos.shape[1]

    def swap(ids, picks):
        i, j = divmod(picks, n)
        pos[ids, i], pos[ids, j] = pos[ids, j], pos[ids, i]

    ascend(pos, sweeps, n * n, lambda rows: _swap_gains(q, rows).reshape(len(rows), n * n), swap)
    return pos.astype(starts.dtype)


def _arrangement_values(dist: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The value sum_{i < j} dist_ij |pos_i - pos_j| of each (C, n) row of
    slots, from one n x n array per row, in batches of at most
    ``BATCH_ENTRIES`` entries.  On ``quantize``'s metric, with W the weight
    of all pairs, the sum over ordered pairs is at most 2 n W <= 2^49 < 2^52,
    so every partial sum is an exact integer and each value is
    ``evaluate_la``'s there, bit for bit."""
    n = pos.shape[1]

    def values(rows):
        rows = rows.astype(float)
        gaps = rows[:, :, None] - rows[:, None, :]
        np.abs(gaps, out=gaps)
        gaps *= dist
        return gaps.reshape(len(rows), n * n).sum(axis=1) / 2.0

    return row_values(pos, n * n, values)


def _solve_reduced(q: np.ndarray, cfg: SolveConfig, seed: int):
    """(arrangement, its value on ``q``) of the reduced search, the value
    None when its one candidate needs no pick."""
    n, k = len(q), part_count(cfg.eps)
    starts = np.arange(1, n + 1)[None]  # the identity
    if cfg.restarts:
        restarts = reduced_restarts(n, k, seed, cfg.restarts, _prefix_cut_gains(q, k), n * (n + 1))
        starts = np.vstack([starts, _embed_rows(restarts)])
    # a start's climb does not depend on the other starts, so each distinct
    # start climbs once; a climb never ends below its start, so the climbed
    # identity stands for the identity
    ends = _swap_hill_climb(q, distinct_rows(starts)[0], CLIMB_SWEEPS)
    # slot swaps of a permutation: each row is one, so no bijection check
    if len(ends) == 1:
        return LinearArrangement(tuple(ends[0].tolist())), None
    return pick_rows(ends, _arrangement_values(q, ends), LinearArrangement, _position)


def _solve_faithful(m: Metric, q: np.ndarray, cfg: SolveConfig, seed: int, best):
    n, k, eps = m.n, part_count(cfg.eps), cfg.eps
    # floor(eps * n) points per part, the rest in the last part; as
    # (k - 1) * eps <= 1, the rest is never negative
    base = int(math.floor(eps * n))
    sizes = [base / n] * (k - 1) + [(n - base * (k - 1)) / n]
    levels = int(math.floor(1.0 / eps**7 + 1e-9)) + 1  # grid values 0..1/eps^7
    assignments = grid_partitions(m, k, lambda: [sizes], levels, eps**9, cfg.restarts, seed)
    arrangements = map(_embed_assignment, assignments)
    return pick(arrangements, partial(evaluate_la, Metric(q)), _position, best)


def solve_la_dense(
    m: Metric, cfg: SolveConfig, seed: int = 0
) -> tuple[LinearArrangement, float]:
    """(arrangement, its value) of the best arrangement found for a dense
    instance: the identity when n < k or when all points coincide
    (:meth:`Metric.coincident`, which reads row 0 before the whole matrix).
    Candidates are picked on ``quantize``'s metric; only the winner's value
    is taken on ``m``."""
    n = m.n
    if n < part_count(cfg.eps) or m.coincident():
        identity = LinearArrangement.from_order(range(n))
        return identity, evaluate_la(m, identity)
    q = quantize(m.dist)
    best = _solve_reduced(q, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, q, cfg, seed, best)
    return best[0], evaluate_la(m, best[0])
