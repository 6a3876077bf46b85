"""Dense-case hierarchical clustering solver.

Partitions the points into k + 1 parts (k = round(1/eps)) and hangs each part
as an ascending-id ladder off a leaf slot of a small skeleton tree.  In
``faithful`` mode the skeletons are all leaf-labeled binary trees on the
slots and a grid of size / crossing-weight targets drives the bounded
partition search; ``reduced`` mode local-searches slot assignments against a
caterpillar skeleton.  Both modes always consider the single ascending-id
ladder over all points, so the output never scores below it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FaithfulGridTooLarge
from .local_search import DenseConfig, best_of, reduced_restarts, sizes_and_ranks
from .metric import Metric, subset_stats
from .objectives import HcTree, evaluate_hc, ladder_tree
from .oracles import all_binary_trees
from .partition_search import MAX_GRID_CELLS, grid_cells, grid_partitions


@dataclass(frozen=True)
class DenseHcConfig(DenseConfig):
    @property
    def k(self) -> int:
        return max(1, round(1.0 / self.eps))

    @property
    def slots(self) -> int:
        return self.k + 1


def _skeleton_tree(skeleton, parts) -> Optional[HcTree]:
    """Replace skeleton slot leaves by ascending-id ladders; drop empty slots."""

    def build(node):
        if isinstance(node, tuple):
            left = build(node[0])
            right = build(node[1])
            if left is None:
                return right
            if right is None:
                return left
            return (left, right)
        members = parts[node]
        if not members:
            return None
        return ladder_tree(members).root

    root = build(skeleton)
    return None if root is None else HcTree(root)


def _parts_of(assignment, slots: int) -> list:
    parts = [[] for _ in range(slots)]
    for point, slot in enumerate(assignment):
        parts[slot].append(point)
    return parts


def _caterpillar_skeleton(slots: int):
    node = slots - 1
    for s in range(slots - 2, -1, -1):
        node = (s, node)
    return node


def _caterpillar_values(dist: np.ndarray, assigns: np.ndarray, slots: int) -> np.ndarray:
    """Value of the caterpillar-of-ladders tree of each assignment row.

    The LCA of a pair in one slot is the ladder node that peels the smaller
    id, holding t_a - rank(min id) leaves (t_a the slot size, rank 0-based
    by id within the slot).  The LCA of a pair in different slots is the
    spine node of the lower slot, holding every point in that slot or later.
    Both counts fall as the id, or the slot, rises, so each is the larger of
    the two points' own counts and the LCA matrix is built by broadcasting.
    """
    c, n = assigns.shape
    sizes, rank = sizes_and_ranks(assigns, slots)
    from_slot = np.cumsum(sizes[:, ::-1], axis=1)[:, ::-1]
    spine = np.take_along_axis(from_slot, assigns, 1)
    ladder = np.take_along_axis(sizes, assigns, 1) - rank
    same = assigns[:, :, None] == assigns[:, None, :]
    lca = np.where(same, np.maximum(ladder[:, :, None], ladder[:, None, :]),
                   np.maximum(spine[:, :, None], spine[:, None, :]))
    return (lca * dist).reshape(c, n * n).sum(axis=1) / 2.0


def _solve_reduced(m: Metric, cfg: DenseHcConfig, seed: int):
    n, slots = m.n, cfg.slots
    skeleton = _caterpillar_skeleton(slots)
    restarts = reduced_restarts(
        n, slots, seed, cfg.budget, lambda rows: _caterpillar_values(m.dist, rows, slots)
    )
    trees = (_skeleton_tree(skeleton, _parts_of(assign, slots)) for assign in restarts)
    return best_of(itertools.chain([ladder_tree(range(n))], trees),
                   lambda tree: evaluate_hc(m, tree), HcTree.serialize)


def _solve_faithful(m: Metric, cfg: DenseHcConfig, seed: int, best):
    n, slots, eps = m.n, cfg.slots, cfg.eps
    eps_err = eps**3
    rho = subset_stats(m, range(n)).density
    skeletons = list(all_binary_trees(list(range(slots))))

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
        trees = (_skeleton_tree(skeleton, parts) for skeleton in skeletons)
        best = best_of(trees, lambda tree: evaluate_hc(m, tree), HcTree.serialize, best)
    return best


def solve_hc_dense(m: Metric, cfg: DenseHcConfig, seed: int = 0) -> tuple[HcTree, float]:
    """(tree, its value) of the best tree found for a dense instance (a
    single leaf when n = 1)."""
    n = m.n
    if n <= cfg.slots or m.diameter() <= 0.0:
        # Too few points for the skeleton to matter; any tree with every split
        # nontrivial is fine, the ascending ladder is the canonical one.
        candidates = [ladder_tree(range(n))]
        if n <= 8 and m.diameter() > 0.0:
            candidates += map(HcTree, all_binary_trees(list(range(n))))
        return best_of(candidates, lambda tree: evaluate_hc(m, tree), HcTree.serialize)
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best
