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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FaithfulGridTooLarge, InvalidSpec
from .local_search import TIE_TOL, scan_argmax, score_moves, single_moves, sizes_and_ranks
from .metric import Metric, subset_stats
from .objectives import HcTree, evaluate_hc, ladder_tree
from .oracles import all_binary_trees
from .partition_search import PartitionSpec, SearchBudget, search_partition

_INF = math.inf


@dataclass(frozen=True)
class DenseHcConfig:
    eps: float
    grid_mode: str = "reduced"  # 'reduced' or 'faithful'
    budget: SearchBudget = field(default_factory=SearchBudget)
    max_grid_cells: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")
        if self.grid_mode not in ("reduced", "faithful"):
            raise InvalidSpec(f"unknown grid mode {self.grid_mode!r}")

    @property
    def k(self) -> int:
        return max(1, round(1.0 / self.eps))

    @property
    def slots(self) -> int:
        return self.k + 1


def has_not_all_small_weights(m: Metric, c0: float, c1: float) -> bool:
    """True when at most a (1 - c1) fraction of pairs weigh below c0 * D_V."""
    n = m.n
    if n < 2:
        return False
    diam = m.diameter()
    iu = np.triu_indices(n, 1)
    small = int((m.dist[iu] < c0 * diam).sum())
    return small <= (1.0 - c1) * len(iu[0])


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


def _better(value, tree, best):
    if best is None:
        return True
    bv, btree = best
    if value > bv + 1e-12:
        return True
    return abs(value - bv) <= 1e-12 and tree.serialize() < btree.serialize()


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
    """
    c, n = assigns.shape
    sizes, rank = sizes_and_ranks(assigns, slots)
    from_slot = np.cumsum(sizes[:, ::-1], axis=1)[:, ::-1]
    ladder = np.take_along_axis(sizes, assigns, 1) - rank
    low = np.minimum(assigns[:, :, None], assigns[:, None, :]).reshape(c, n * n)
    lca = np.take_along_axis(from_slot, low, 1).reshape(c, n, n)
    same = assigns[:, :, None] == assigns[:, None, :]
    first = np.minimum.outer(np.arange(n), np.arange(n))
    lca = np.where(same, ladder[:, first], lca)
    return (lca * dist).reshape(c, n * n).sum(axis=1) / 2.0


def _solve_reduced(m: Metric, cfg: DenseHcConfig, seed: int):
    n, slots = m.n, cfg.slots
    skeleton = _caterpillar_skeleton(slots)
    ladder = ladder_tree(range(n))
    best = (evaluate_hc(m, ladder), ladder)

    def score(rows):
        return _caterpillar_values(m.dist, rows, slots)

    seeds = np.random.SeedSequence(seed).spawn(cfg.budget.restarts)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, slots, size=n)
        value = score(assign[None, :])[0]
        for _ in range(cfg.budget.moves(n)):
            points, targets = single_moves(assign, slots)
            values = score_moves(assign, points, targets, score)
            gains = values - value
            pick = scan_argmax(gains)
            if gains[pick] <= TIE_TOL:
                break
            assign[points[pick]] = targets[pick]
            value = values[pick]
        tree = _skeleton_tree(skeleton, _parts_of(assign, slots))
        value = evaluate_hc(m, tree)
        if _better(value, tree, best):
            best = (value, tree)
    return best


def _solve_faithful(m: Metric, cfg: DenseHcConfig, seed: int, best):
    n, slots = m.n, cfg.slots
    eps = cfg.eps
    eps_err = eps**3
    diam = m.diameter()
    if diam <= 0.0:
        return best
    rho = subset_stats(m, range(n)).density
    skeletons = list(all_binary_trees(list(range(slots))))

    size_levels = int(math.floor(3.0 / eps + 1e-9)) + 1  # lambda in {i * eps^2}
    weight_levels = int(math.floor(9.0 / eps + 1e-9)) + 1  # mu in {i * eps^3}
    pairs = [(a, b) for a in range(slots) for b in range(a + 1, slots)]

    raw = max(size_levels**slots, weight_levels ** len(pairs))
    if raw > 20_000_000:
        raise FaithfulGridTooLarge(f"{raw} raw grid cells cannot be enumerated")

    # Prune cells that are infeasible on their face: part sizes must be able
    # to sum to n within the per-part slack, crossing weights cannot sum past
    # the total weight fraction rho.
    lam_cells = [
        lam
        for cell in itertools.product(range(size_levels), repeat=slots)
        for lam in [[i * eps**2 for i in cell]]
        if 1.0 - eps_err - 1e-12 <= sum(lam) <= 1.0 + eps_err + 1e-12
    ]
    mu_cells = [
        mu
        for cell in itertools.product(range(weight_levels), repeat=len(pairs))
        for mu in [[i * eps**3 for i in cell]]
        if sum(mu) - len(pairs) * eps_err <= rho + 1e-12
    ]
    if len(lam_cells) * len(mu_cells) > cfg.max_grid_cells:
        raise FaithfulGridTooLarge(
            f"{len(lam_cells)} * {len(mu_cells)} grid cells exceed the cap "
            f"{cfg.max_grid_cells}"
        )

    seen = set()
    for lam in lam_cells:
        size_bounds = [(v, v) for v in lam]
        for mu in mu_cells:
            wb = [[(0.0, _INF)] * slots for _ in range(slots)]
            for (a, b), target in zip(pairs, mu):
                wb[a][b] = wb[b][a] = (target, target)
            spec = PartitionSpec.build(slots, size_bounds=size_bounds, weight_bounds=wb)
            part = search_partition(
                m, spec, eps_err=eps_err, budget=cfg.budget, seed=seed
            )
            if part is None or part.assignment in seen:
                continue
            seen.add(part.assignment)
            parts = _parts_of(part.assignment, slots)
            for skeleton in skeletons:
                tree = _skeleton_tree(skeleton, parts)
                value = evaluate_hc(m, tree)
                if _better(value, tree, best):
                    best = (value, tree)
    return best


def solve_hc_dense(m: Metric, cfg: DenseHcConfig, seed: int = 0) -> HcTree:
    """Best tree found for a dense instance (single leaf when n = 1)."""
    n = m.n
    if n == 1:
        return HcTree(0)
    if n <= cfg.slots or m.diameter() <= 0.0:
        # Too few points for the skeleton to matter; any tree with every split
        # nontrivial is fine, the ascending ladder is the canonical one.
        ladder = ladder_tree(range(n))
        best = (evaluate_hc(m, ladder), ladder)
        if n <= 8 and m.diameter() > 0.0:
            for node in all_binary_trees(list(range(n))):
                cand = HcTree(node)
                value = evaluate_hc(m, cand)
                if _better(value, cand, best):
                    best = (value, cand)
        return best[1]
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best[1]
