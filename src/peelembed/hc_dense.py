"""Dense-case hierarchical clustering solver.

Partitions the points into k + 1 parts (k = round(1/eps)) and hangs each part
as an ascending-id ladder off a leaf slot of a small skeleton tree, building
each candidate straight into its leaf order and spans
(``objectives.ladders_on``).  In ``faithful`` mode the skeletons are all
leaf-labeled binary trees on the slots and a grid of size / crossing-weight
targets drives the bounded partition search; ``reduced`` mode local-searches
slot assignments against the ladder over the slots (slot 0 cut off first) on
the integer copy of the metric that ``local_search.quantize`` makes, taking
the exact gain of every move in O(1) from per-row tables; the final
candidates are scored on the true metric.
Both modes always consider the single ascending-id ladder over all points,
so the output never scores below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FaithfulGridTooLarge
from .local_search import DenseConfig, best_of, first_copies, quantize, reduced_restarts
from .metric import Metric, subset_stats
from .objectives import HcTree, all_binary_trees, evaluate_hc, ladder_tree, ladders_on
from .partition_search import MAX_GRID_CELLS, grid_cells, grid_partitions

# solve_hc_dense's small-n branch (n <= slots) scores every tree when n is at
# most this: (2n - 3)!! trees, 135135 at n = 8.  It bounds that enumeration's
# cost and is not the HC oracle's cap.
ENUMERATE_MAX_N = 8


@dataclass(frozen=True)
class DenseHcConfig(DenseConfig):
    @property
    def k(self) -> int:
        return max(1, round(1.0 / self.eps))

    @property
    def slots(self) -> int:
        return self.k + 1


def _parts_of(assignment, slots: int) -> list:
    parts = [[] for _ in range(slots)]
    for point, slot in enumerate(assignment):
        parts[slot].append(point)
    return parts


def _caterpillar_gains(dist: np.ndarray, slots: int):
    """Gain function of the reduced search: the change of the value of the
    caterpillar-of-ladders tree under every move of each assignment row, as
    ``local_search.single_moves`` lists them, in O(1) per move from per-row
    tables of O(n slots + slots^2) entries.

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
    return lambda *args: _gain_rows(dist, upper, *args, slots)


def _gain_rows(dist, upper, assigns, points, targets, slots):
    """``_caterpillar_gains``'s gains of (C, n) assignment rows."""
    c, n = assigns.shape
    row, ids, slot = np.arange(c)[:, None], np.arange(n), np.arange(slots)
    onehot = (assigns[:, :, None] == slot).astype(float)
    sizes = onehot.sum(axis=1)
    below = np.cumsum(onehot, axis=1) - onehot  # lower ids of each slot
    rank = below[row, ids, assigns][:, :, None]

    def times(mat, cols):  # mat @ cols[l] for every row l, as one product
        out = mat @ cols.transpose(1, 0, 2).reshape(n, c * slots)
        return out.reshape(n, c, slots).transpose(1, 0, 2)

    part = times(dist, onehot)
    higher = times(upper, onehot)
    lower_ranked = times(upper.T, onehot * rank)
    cross = onehot.transpose(0, 2, 1) @ part
    own = higher[row, ids, assigns][:, :, None]  # R
    above = np.zeros_like(onehot)  # R summed over each slot's higher ids
    above[:, :-1] = np.cumsum((onehot * own)[:, :0:-1], axis=1)[:, ::-1]
    join = below * higher + lower_ranked + above

    from_slot = np.cumsum(sizes[:, ::-1], axis=1)[:, ::-1]
    twice_k = from_slot[:, np.minimum.outer(slot, slot)]  # 2 K
    twice_k[:, slot, slot] = sizes
    shift = np.cumsum(np.triu(cross, 1).sum(axis=2), axis=1)  # C
    by_slot = shift + np.diagonal(cross, axis1=1, axis2=2) / 2.0
    to_slot = by_slot[:, None, :] + part @ twice_k - join  # the terms of b
    suffix = np.cumsum(part[..., ::-1], axis=2)[..., ::-1]
    here = assigns[:, :, None]
    gain = (to_slot - to_slot[row, ids, assigns][:, :, None]
            + suffix[row[:, :, None], ids[:, None], np.minimum(here, slot)])  # (row, p, b)
    return gain.reshape(c, n * slots)[row, points * slots + targets]


def _solve_reduced(m: Metric, cfg: DenseHcConfig, seed: int):
    n, slots = m.n, cfg.slots
    skeleton = ladder_tree(range(slots))
    restarts = []
    if cfg.budget.restarts:  # quantizing reads every distance; a zero budget needs none
        restarts = reduced_restarts(n, slots, seed, cfg.budget,
                                    _caterpillar_gains(quantize(m.dist), slots),
                                    n * slots + slots * slots)
    ladder = ladder_tree(range(n))
    rows, which = first_copies(restarts, np.ndarray.tobytes)
    trees = [ladders_on(skeleton, _parts_of(row, slots)) for row in rows]
    values = {id(tree): evaluate_hc(m, tree) for tree in [ladder, *trees]}
    return best_of([ladder, *(trees[i] for i in which)], lambda tree: values[id(tree)],
                   HcTree.serialize)


def _solve_faithful(m: Metric, cfg: DenseHcConfig, seed: int, best):
    n, slots, eps = m.n, cfg.slots, cfg.eps
    eps_err = eps**3
    rho = subset_stats(m, range(n)).density
    skeletons = list(all_binary_trees(range(slots)))

    size_levels = int(math.floor(3.0 / eps + 1e-9)) + 1  # lambda in {i * eps^2}
    weight_levels = int(math.floor(9.0 / eps + 1e-9)) + 1  # mu in {i * eps^3}
    pairs = slots * (slots - 1) // 2

    raw = max(size_levels**slots, weight_levels**pairs)
    if raw > 20_000_000:
        raise FaithfulGridTooLarge(f"{raw} raw grid cells cannot be enumerated")

    # Prune cells that are infeasible on their face: part sizes must be able
    # to sum to n within the per-part slack, crossing weights cannot sum past
    # the total weight fraction rho.
    lam_cells = list(grid_cells(size_levels, eps**2, slots,
                                lambda t: 1.0 - eps_err - 1e-12 <= t <= 1.0 + eps_err + 1e-12))
    mu_cells = list(grid_cells(weight_levels, eps**3, pairs,
                               lambda w: w - pairs * eps_err <= rho + 1e-12))
    if len(lam_cells) * len(mu_cells) > MAX_GRID_CELLS:
        raise FaithfulGridTooLarge(
            f"{len(lam_cells)} * {len(mu_cells)} grid cells exceed the cap {MAX_GRID_CELLS}"
        )

    for assignment in grid_partitions(m, slots, lam_cells, mu_cells, eps_err, cfg.budget, seed):
        parts = _parts_of(assignment, slots)
        trees = (ladders_on(skeleton, parts) for skeleton in skeletons)
        best = best_of(trees, lambda tree: evaluate_hc(m, tree), HcTree.serialize, best)
    return best


def solve_hc_dense(m: Metric, cfg: DenseHcConfig, seed: int = 0) -> tuple[HcTree, float]:
    """(tree, its value) of the best tree found for a dense instance (a
    single leaf when n = 1).

    With at most ``cfg.slots`` points the ascending ladder competes only
    with every binary tree of up to ``ENUMERATE_MAX_N`` points; when all
    points coincide (:meth:`Metric.coincident`, which reads row 0 before the
    whole matrix) it is returned unsearched.
    """
    n = m.n
    coincident = m.coincident()
    if n <= cfg.slots or coincident:
        # Too few points for the skeleton to matter; any tree with every split
        # nontrivial is fine, the ascending ladder is the canonical one.
        candidates = [ladder_tree(range(n))]
        if n <= ENUMERATE_MAX_N and not coincident:
            candidates += all_binary_trees(range(n))
        return best_of(candidates, lambda tree: evaluate_hc(m, tree), HcTree.serialize)
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best
