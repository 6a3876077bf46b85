"""Multi-layer peeling for hierarchical clustering: case (a) at density
eps^2; the layer is the points outside the core, cut off one by one as an
ascending-id ladder above the core's tree, an ascending ladder in case (b).
"""

from __future__ import annotations

import math

from .hc_dense import solve_hc_dense
from .local_search import SolveConfig
from .metric import Metric
from .objectives import HcTree, evaluate_hc, ladder_tree
from .peeling import Policy, peel
from .trace import RecursionTrace


def default_depth(n: int) -> int:
    """The depth cap of an n-point HC peel: 2 * log2(log2(n) + 2) + 8."""
    return int(2 * math.log2(math.log2(max(n, 2)) + 2)) + 8


def _split(sub, stats, core, eps):
    """The layer is every point outside the core."""
    core_set = set(core)
    return [v for v in range(sub.n) if v not in core_set], [], core


def _terms(n, root, w_a, w_ac, eps):
    beta = n * (w_a + w_ac)
    return beta * (1.0 - root), beta, 1.0 + 2.0 * root


def _join(layer, kept, inner):
    """The layer's ladder over the kept points' tree, in their ids."""
    return ladder_tree(layer, tail=inner.relabel(kept))


def _value(sub, tree, layer, below):
    """Case (b) scores the whole tree; case (c) adds the layer's ladder nodes
    to the kept tree's value."""
    if below is None:
        return evaluate_hc(sub, tree)
    return evaluate_hc(sub, tree, top=len(layer), below=below)


_POLICY = Policy(
    depth=lambda n: default_depth(n),
    dense_power=2,
    case_b_factor=16.0,
    split=_split,
    terms=_terms,
    dense=lambda sub, cfg, seed: solve_hc_dense(sub, cfg, seed),
    canonical=lambda k: ladder_tree(range(k)),
    join=_join,
    value=_value,
)


def solve_hc(m: Metric, cfg: SolveConfig, seed: int = 0) -> tuple[HcTree, RecursionTrace]:
    return peel(_POLICY, m, cfg, seed)


__all__ = ["solve_hc"]
