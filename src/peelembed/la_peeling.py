"""Multi-layer peeling for linear arrangement: case (a) at density eps^6;
the layer is the points far from the core, placed leftmost in ascending id
order, and case (b) places the kept points after it in ascending id order.
"""

from __future__ import annotations

import math

import numpy as np

from .la_dense import solve_la_dense
from .local_search import SolveConfig
from .metric import Metric
from .objectives import LinearArrangement, evaluate_la
from .peeling import Policy, peel
from .trace import RecursionTrace


def default_depth(n: int) -> int:
    """The depth cap of an n-point LA peel: 4 * log2(n) + 8."""
    return int(4 * math.log2(max(n, 2))) + 8


def _core_distances(sub, core):
    """Each point's distance to the core: the minimum of its row over the
    core's columns, read in place rather than from an n x |core| copy."""
    in_core = np.zeros(sub.n, dtype=bool)
    in_core[list(core)] = True
    return np.minimum.reduce(sub.dist, axis=1, where=in_core, initial=np.inf)


def _split(sub, stats, core, eps):
    """The layer is every point at least eps^2 * D from the core."""
    far = _core_distances(sub, core) >= eps**2 * stats.diameter
    kept = np.flatnonzero(~far).tolist()
    return np.flatnonzero(far).tolist(), sorted(set(kept).difference(core)), kept


def _terms(n, root, w_a, w_ac, eps):
    alpha = 0.5 * n * w_ac * (1.0 - 5.0 * root / eps**2)
    beta = 0.5 * n * w_ac * (1.0 + 13.0 * root / eps**2)
    return alpha, beta, 1.0 + 4.0 * root


_POLICY = Policy(
    depth=lambda n: default_depth(n),
    dense_power=6,
    case_b_factor=1.0,
    split=_split,
    terms=_terms,
    dense=lambda sub, cfg, seed: solve_la_dense(sub, cfg, seed),
    canonical=lambda k: LinearArrangement.from_order(range(k)),
    join=lambda layer, kept, inner: LinearArrangement.from_order(
        layer + [kept[i] for i in inner.order()]
    ),
    value=lambda m, arr, layer, below: evaluate_la(m, arr),
)


def solve_la(
    m: Metric, cfg: SolveConfig, seed: int = 0
) -> tuple[LinearArrangement, RecursionTrace]:
    return peel(_POLICY, m, cfg, seed)


__all__ = ["solve_la"]
