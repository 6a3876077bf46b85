"""Dense-case hierarchical clustering solver.

Partitions the points into k + 1 parts (k = round(1/eps)) and hangs each part
as an ascending-id ladder off a leaf slot of a small skeleton tree, building
each candidate straight into its leaf order and spans
(``objectives.ladders_on``).  In ``faithful`` mode the skeletons are all
leaf-labeled binary trees on the slots and a grid of size / crossing-weight
targets drives the bounded partition search; ``reduced`` mode local-searches
slot assignments against the ladder over the slots (slot 0 cut off first) on
the integer copy of the metric that ``local_search.quantize`` makes, taking
the exact gain of every move in O(1) from per-row tables.  Every candidate is
picked on that copy: the reduced search's final rows get their exact values
in one batch from the same tables, the largest wins and the smaller
serialized tree breaks equal values (``local_search.pick``), and only the
winner is scored on the true metric, once.
Both modes always consider the single ascending-id ladder over all points,
so on the quantized metric the output never scores below it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .local_search import SolveConfig, pick, pick_rows, quantize, reduced_restarts, row_values
from .metric import Metric
from .objectives import HcTree, all_binary_trees, evaluate_hc, ladder_tree, ladders_on
from .partition_search import grid_cells, grid_partitions

# solve_hc_dense's small-n branch (n <= slots) scores every tree when n is at
# most this: (2n - 3)!! trees, 135135 at n = 8.  It bounds that enumeration's
# cost and is not the HC oracle's cap.
ENUMERATE_MAX_N = 8


def slot_count(eps: float) -> int:
    """The k + 1 slots of the dense regime, k = round(1/eps) and at least 1."""
    return max(1, round(1.0 / eps)) + 1


def _parts_of(assignment, slots: int) -> list:
    parts = [[] for _ in range(slots)]
    for point, slot in enumerate(assignment):
        parts[slot].append(point)
    return parts


def _caterpillar_gains(dist: np.ndarray, slots: int):
    """Gain function of the reduced search: the (C, n slots) table of the
    value change of the caterpillar-of-ladders tree when a row moves p to
    slot b, in cell p slots + b (0 when b is p's slot), in O(1) per move
    from per-row tables of O(n slots + slots^2) entries.

    With W_ab the weight between slots a and b, F_a the points in slots a
    and later, t_a the slot sizes and R(i) the weight from i to the higher
    ids of its own slot, the value is

        <K, W> - sum_i rank(i) R(i),   2 K_ab = F_min(a, b), 2 K_aa = t_a.

    Moving p from a to b adds e q^T + q e^T to W (e = 1_b - 1_a, q = p's
    weight to each slot) and turns K into K' of the moved sizes.  F gains 1
    on the slots after a up to b (loses 1 after b up to a), so with
    C_b = sum_{s <= b} sum_{t > s} W_st the first term gains
    C_b - C_a + (W_bb - W_aa) / 2 + (2 K q)_b - (2 K q)_a +
    sum_{s >= min(a, b)} q_s.  The rank term changes by G(p, b) - G(p, a),
    where G(p, s) is p's rank among s's lower ids times its weight to s's
    higher ids, plus its rank-weighted weight to s's lower ids, plus the R
    of s's higher ids, whose ranks p's arrival (or leaving) shifts by one.
    The gain is the first change less the second.

    With W the weight of all pairs, the magnitudes of these terms sum to at
    most (6n + 7) W <= 13 n W: each of the two C + W_bb / 2 <= 2 W, each of
    the two (2 K q) <= n deg(p) <= n W, the suffix sum of q <= W and
    G(p, a) + G(p, b) <= (4n + 2) W.
    """
    upper = np.triu(dist, 1)
    return lambda assigns: _gain_rows(dist, upper, assigns, slots)


def _times(mat, cols):
    """mat @ cols[l] for every l of (C, n, s) ``cols``, as one product."""
    c, n, s = cols.shape
    out = mat @ cols.transpose(1, 0, 2).reshape(n, c * s)
    return out.reshape(n, c, s).transpose(1, 0, 2)


def _slot_tables(dist, upper, assigns, slots):
    """What the caterpillar's gains and values share, for (C, n) assignment
    rows, each indexed [row, p, slot] or [row, slot, slot]: the one-hot
    slots; p's count of lower ids in each slot; rank(p), p's among its own
    slot's ids, as [row, p, 0]; p's weight to each slot and to the higher ids
    of each slot; W, twice a slot's own weight on its diagonal; R(p), as
    [row, p, 0]; and 2 K."""
    c, n = assigns.shape
    row, ids, slot = np.arange(c)[:, None], np.arange(n), np.arange(slots)
    onehot = (assigns[:, :, None] == slot).astype(float)
    sizes = onehot.sum(axis=1)
    below = np.cumsum(onehot, axis=1) - onehot  # lower ids of each slot
    rank = below[row, ids, assigns][:, :, None]
    part = _times(dist, onehot)
    higher = _times(upper, onehot)
    cross = onehot.transpose(0, 2, 1) @ part  # W
    own = higher[row, ids, assigns][:, :, None]  # R
    from_slot = np.cumsum(sizes[:, ::-1], axis=1)[:, ::-1]
    twice_k = from_slot[:, np.minimum.outer(slot, slot)]  # 2 K
    twice_k[:, slot, slot] = sizes
    return onehot, below, rank, part, higher, cross, own, twice_k


def _gain_rows(dist, upper, assigns, slots):
    """``_caterpillar_gains``'s gains of (C, n) assignment rows."""
    c, n = assigns.shape
    row, ids, slot = np.arange(c)[:, None], np.arange(n), np.arange(slots)
    onehot, below, rank, part, higher, cross, own, twice_k = _slot_tables(
        dist, upper, assigns, slots)
    lower_ranked = _times(upper.T, onehot * rank)
    above = np.zeros_like(onehot)  # R summed over each slot's higher ids
    above[:, :-1] = np.cumsum((onehot * own)[:, :0:-1], axis=1)[:, ::-1]
    join = below * higher + lower_ranked + above

    shift = np.cumsum(np.triu(cross, 1).sum(axis=2), axis=1)  # C
    by_slot = shift + np.diagonal(cross, axis1=1, axis2=2) / 2.0
    to_slot = by_slot[:, None, :] + part @ twice_k - join  # the terms of b
    suffix = np.cumsum(part[..., ::-1], axis=2)[..., ::-1]
    here = assigns[:, :, None]
    gain = (to_slot - to_slot[row, ids, assigns][:, :, None]
            + suffix[row[:, :, None], ids[:, None], np.minimum(here, slot)])  # (row, p, b)
    gain[row, ids, assigns] = 0.0  # the formula holds for b != a only
    return gain.reshape(c, n * slots)


def _caterpillar_values(dist: np.ndarray, assigns: np.ndarray, slots: int) -> np.ndarray:
    """The value <K, W> - sum_i rank(i) R(i) (see ``_caterpillar_gains``) of
    the caterpillar-of-ladders tree of each (C, n) assignment row, from the
    tables its gains start from, in batches of at most ``BATCH_ENTRIES``
    entries.  The all-zero row is the ascending ladder over all points.

    With W the weight of all pairs, the entries of the slot weights sum to
    2 W and each entry of 2 K is at most n, so <2 K, W> <= 2 n W, and
    sum_i rank(i) R(i) <= n W.  On ``quantize``'s metric both are integers
    at most 2 n W <= 2^49 < 2^52, as is every partial sum, and so is half
    the first: each pair of slots is counted twice, and a slot's own
    weight doubled.  So each value is ``evaluate_hc``'s there, bit for bit.
    """
    upper = np.triu(dist, 1)

    def values(rows):
        _, _, rank, _, _, cross, own, twice_k = _slot_tables(dist, upper, rows, slots)
        return (twice_k * cross).sum(axis=(1, 2)) / 2.0 - (rank * own).sum(axis=(1, 2))

    return row_values(assigns, len(dist) * slots + slots * slots, values)


def _solve_reduced(q: np.ndarray, cfg: SolveConfig, seed: int):
    """(tree, its value on ``q``) of the reduced search: the best of the
    ascending ladder, the all-zero row, and each restart's final row."""
    n, slots = len(q), slot_count(cfg.eps)
    restarts = reduced_restarts(n, slots, seed, cfg.restarts, _caterpillar_gains(q, slots),
                                n * slots + slots * slots)
    rows = np.vstack([np.zeros((1, n), dtype=np.int64), restarts])
    skeleton = ladder_tree(range(slots))
    return pick_rows(rows, _caterpillar_values(q, rows, slots),
                     lambda row: ladders_on(skeleton, _parts_of(row, slots)), HcTree.serialize)


def _solve_faithful(m: Metric, q: np.ndarray, cfg: SolveConfig, seed: int, best):
    slots, eps = slot_count(cfg.eps), cfg.eps
    eps_err = eps**3
    # part sizes in {i * eps^2} that can sum to 1 within the per-part slack,
    # built only once the weight grid has passed its cap; crossing weights
    # in {i * eps^3}
    lam_cells = partial(grid_cells, int(math.floor(3.0 / eps + 1e-9)) + 1, eps**2, slots,
                        lambda t: (1.0 - eps_err - 1e-12 <= t) & (t <= 1.0 + eps_err + 1e-12))
    weight_levels = int(math.floor(9.0 / eps + 1e-9)) + 1
    grid = grid_partitions(m, slots, lam_cells, weight_levels, eps_err, cfg.restarts, seed)
    skeletons = []  # the (2 slots - 3)!! trees, built at the first hit of a grid within its caps
    score = partial(evaluate_hc, Metric(q))
    for assignment in grid:
        skeletons = skeletons or list(all_binary_trees(range(slots)))
        parts = _parts_of(assignment, slots)
        trees = (ladders_on(skeleton, parts) for skeleton in skeletons)
        best = pick(trees, score, HcTree.serialize, best)
    return best


def solve_hc_dense(m: Metric, cfg: SolveConfig, seed: int = 0) -> tuple[HcTree, float]:
    """(tree, its value) of the best tree found for a dense instance (a
    single leaf when n = 1).

    With at most ``slot_count(cfg.eps)`` points the ascending ladder
    competes only with every binary tree of up to ``ENUMERATE_MAX_N``
    points; when all points coincide (:meth:`Metric.coincident`, which reads
    row 0 before the whole matrix) it is returned unsearched.  Candidates are
    picked on ``quantize``'s metric, which a solve with one candidate does
    not make; only the winner's value is taken on ``m``.
    """
    n = m.n
    coincident = m.coincident()
    if n <= slot_count(cfg.eps) or coincident:
        # Too few points for the skeleton to matter; any tree with every split
        # nontrivial is fine, the ascending ladder is the canonical one.  It
        # is one of the binary trees, and up to 2 points the only one.
        tree = ladder_tree(range(n))
        if 2 < n <= ENUMERATE_MAX_N and not coincident:
            tree, _ = pick(all_binary_trees(range(n)),
                           partial(evaluate_hc, Metric(quantize(m.dist))), HcTree.serialize)
        return tree, evaluate_hc(m, tree)
    if not cfg.restarts and cfg.grid_mode == "reduced":
        tree = ladder_tree(range(n))  # the one candidate of a search without restarts
        return tree, evaluate_hc(m, tree)
    q = quantize(m.dist)
    best = _solve_reduced(q, cfg, seed) if cfg.restarts else (ladder_tree(range(n)), None)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, q, cfg, seed, best)
    return best[0], evaluate_hc(m, best[0])
