"""Multi-layer peeling solver for the linear arrangement objective.

Each level either hands the whole subinstance to the dense solver (case a,
density at least eps^6), peels the layer of points far from the core and
stops (case b, little weight left outside the layer) or peels the layer and
recurses on the rest (case c).  Peeled layers are placed leftmost in
ascending id order; a full per-level trace is returned alongside the
arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DepthExceeded, InvalidSpec
from .la_dense import DenseLaConfig, solve_la_dense
from .metric import Metric, find_core, subset_stats
from .objectives import LinearArrangement, evaluate_la
from .trace import LevelRecord, RecursionTrace


@dataclass(frozen=True)
class LaPeelConfig:
    eps: float
    dense: Optional[DenseLaConfig] = None
    max_depth: Optional[int] = None  # None -> 4 * log2(n) + 8

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")

    def dense_config(self) -> DenseLaConfig:
        return self.dense if self.dense is not None else DenseLaConfig(eps=self.eps)

    def depth_cap(self, n: int) -> int:
        if self.max_depth is not None:
            return self.max_depth
        return int(4 * math.log2(max(n, 2))) + 8


def solve_la(
    m: Metric, cfg: LaPeelConfig, seed: int = 0
) -> Tuple[LinearArrangement, RecursionTrace]:
    trace = RecursionTrace()
    order = _solve(m, cfg, seed, list(range(m.n)), 0, trace)
    arr = LinearArrangement.from_order(order)
    trace.value = evaluate_la(m, arr)
    trace.validate()
    return arr, trace


def _solve(m, cfg, seed, ids, level, trace) -> list:
    """Return the left-to-right order of ``ids`` (original point ids)."""
    if level > cfg.depth_cap(m.n):
        raise DepthExceeded(f"peeling depth exceeded {cfg.depth_cap(m.n)} levels")
    ids = sorted(ids)
    sub = m.submetric(ids)
    stats = subset_stats(sub, range(sub.n))
    rho = stats.density
    eps = cfg.eps

    def record(case, a_loc, b_loc, c_loc, w_a, w_ac, order_loc, at=None):
        if w_ac is None:
            alpha = beta = gamma = None
        else:
            root = math.sqrt(rho) if math.isfinite(rho) else 0.0
            alpha = 0.5 * sub.n * w_ac * (1.0 - 5.0 * root / eps**2)
            beta = 0.5 * sub.n * w_ac * (1.0 + 13.0 * root / eps**2)
            gamma = 1.0 + 4.0 * root
        arr_loc = LinearArrangement.from_order(order_loc)
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
                alg_value=evaluate_la(sub, arr_loc),
            )
        )

    if rho >= eps**6 or sub.n < 2:
        arr = solve_la_dense(sub, cfg.dense_config(), seed)
        order_loc = arr.order()
        record("a", (), (), tuple(range(sub.n)), 0.0, None, order_loc)
        return [ids[i] for i in order_loc]

    core = sorted(find_core(sub).core)
    dist_to_core = sub.dist[:, core].min(axis=1)
    threshold = eps**2 * stats.diameter
    a_loc = [v for v in range(sub.n) if dist_to_core[v] >= threshold]
    rest_loc = [v for v in range(sub.n) if dist_to_core[v] < threshold]
    core_set = set(core)
    b_loc = [v for v in rest_loc if v not in core_set]
    if not a_loc:
        # Every point sits near the core; nothing to peel, so the dense
        # solver takes the whole subinstance.
        arr = solve_la_dense(sub, cfg.dense_config(), seed)
        order_loc = arr.order()
        record("a", (), (), tuple(range(sub.n)), 0.0, None, order_loc)
        return [ids[i] for i in order_loc]

    w_a = subset_stats(sub, a_loc).weight_sum if len(a_loc) > 1 else 0.0
    w_ac = float(sub.dist[np.ix_(a_loc, core)].sum())
    w_rest = subset_stats(sub, rest_loc).weight_sum if len(rest_loc) > 1 else 0.0

    if w_rest < eps * stats.weight_sum:
        order_loc = a_loc + rest_loc  # both ascending
        record("b", tuple(a_loc), tuple(b_loc), tuple(core), w_a, w_ac, order_loc)
        return [ids[i] for i in order_loc]

    at = len(trace.levels)  # deeper records land after this one
    rest_ids = [ids[i] for i in rest_loc]
    rest_order = _solve(m, cfg, seed, rest_ids, level + 1, trace)
    pos = {orig: loc for loc, orig in enumerate(ids)}
    order_loc = a_loc + [pos[p] for p in rest_order]
    record("c", tuple(a_loc), tuple(b_loc), tuple(core), w_a, w_ac, order_loc, at=at)
    return [ids[i] for i in order_loc]


__all__ = ["LaPeelConfig", "solve_la"]
