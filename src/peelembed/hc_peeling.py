"""Multi-layer peeling solver for the hierarchical clustering objective.

Each level either hands the whole subinstance to the dense solver (case a,
density at least eps^2), cuts the points outside the core off one by one as
an ascending-id ladder and stops (case b, the core holds little weight) or
hangs that ladder above a recursive solution of the core (case c).  A full
per-level trace is returned alongside the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DepthExceeded, InvalidSpec
from .hc_dense import DenseHcConfig, solve_hc_dense
from .metric import Metric, find_core, subset_stats
from .objectives import HcTree, evaluate_hc, ladder_tree, relabel
from .trace import LevelRecord, RecursionTrace


@dataclass(frozen=True)
class HcPeelConfig:
    eps: float
    dense: Optional[DenseHcConfig] = None
    max_depth: Optional[int] = None  # None -> 2 * log2(log2(n) + 2) + 8

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")

    def dense_config(self) -> DenseHcConfig:
        return self.dense if self.dense is not None else DenseHcConfig(eps=self.eps)

    def depth_cap(self, n: int) -> int:
        if self.max_depth is not None:
            return self.max_depth
        return int(2 * math.log2(math.log2(max(n, 2)) + 2)) + 8


def solve_hc(m: Metric, cfg: HcPeelConfig, seed: int = 0) -> Tuple[HcTree, RecursionTrace]:
    trace = RecursionTrace()
    tree = _solve(m, cfg, seed, list(range(m.n)), 0, trace)
    trace.value = evaluate_hc(m, tree)
    trace.validate()
    return tree, trace


def _solve(m, cfg, seed, ids, level, trace) -> HcTree:
    """Return a tree over ``ids`` (original point ids at the leaves)."""
    if level > cfg.depth_cap(m.n):
        raise DepthExceeded(f"peeling depth exceeded {cfg.depth_cap(m.n)} levels")
    ids = sorted(ids)
    sub = m.submetric(ids)
    stats = subset_stats(sub, range(sub.n))
    rho = stats.density
    eps = cfg.eps
    pos = {orig: loc for loc, orig in enumerate(ids)}

    def record(case, a_loc, b_loc, c_loc, w_a, w_ac, tree, at=None):
        if w_ac is None:
            alpha = beta = gamma = None
        else:
            root = math.sqrt(rho) if math.isfinite(rho) else 0.0
            beta = sub.n * (w_a + w_ac)
            alpha = beta * (1.0 - root)
            gamma = 1.0 + 2.0 * root
        local = HcTree(relabel(tree.root, pos))
        trace.levels.insert(
            len(trace.levels) if at is None else at,
            LevelRecord(
                level=level,
                n=sub.n,
                rho=rho,
                case=case,
                a_ids=tuple(ids[i] for i in a_loc),
                b_ids=tuple(ids[i] for i in b_loc),
                c_ids=tuple(ids[i] for i in c_loc),
                w_a=w_a,
                w_ac=w_ac,
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                alg_value=evaluate_hc(sub, local),
            ),
        )

    def dense_leaf():
        local = solve_hc_dense(sub, cfg.dense_config(), seed)
        tree = HcTree(relabel(local.root, {loc: orig for loc, orig in enumerate(ids)}))
        record("a", (), (), tuple(range(sub.n)), 0.0, None, tree)
        return tree

    if rho >= eps**2 or sub.n < 2:
        return dense_leaf()

    core_loc = sorted(find_core(sub).core)
    core_set = set(core_loc)
    a_loc = [v for v in range(sub.n) if v not in core_set]
    if not a_loc:
        # The core swallowed everything; recursing would not shrink the
        # instance, so the dense solver takes it whole.
        return dense_leaf()

    core_ids = [ids[i] for i in core_loc]
    a_ids = [ids[i] for i in a_loc]
    w_a = subset_stats(sub, a_loc).weight_sum if len(a_loc) > 1 else 0.0
    w_ac = float(sub.dist[np.ix_(a_loc, core_loc)].sum())
    w_core = subset_stats(sub, core_loc).weight_sum if len(core_loc) > 1 else 0.0

    if w_core < 16.0 * eps * stats.weight_sum:
        tree = ladder_tree(a_ids, tail=ladder_tree(core_ids))
        record("b", tuple(a_loc), (), tuple(core_loc), w_a, w_ac, tree)
        return tree

    at = len(trace.levels)  # deeper records land after this one
    core_tree = _solve(m, cfg, seed, core_ids, level + 1, trace)
    tree = ladder_tree(a_ids, tail=core_tree)
    record("c", tuple(a_loc), (), tuple(core_loc), w_a, w_ac, tree, at=at)
    return tree


__all__ = ["HcPeelConfig", "solve_hc"]
