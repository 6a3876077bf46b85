"""The multi-layer peeling recursion shared by both objectives.

Each level either hands the whole subinstance to the dense solver (case a:
density at least eps^p, or no layer to peel), peels a layer and gives the
kept points a canonical solution (case b: they carry less than an f * eps
fraction of the weight) or peels the layer and recurses on the kept points
(case c).  The objective's :class:`Policy` fixes p and f, the depth cap,
the layer, the accounting terms, the dense solver and how a layer joins the
solution of the kept points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DepthExceeded
from .local_search import SolveConfig
from .metric import Metric, find_core, subset_stats
from .trace import LevelRecord, RecursionTrace


@dataclass(frozen=True)
class Policy:
    """What one objective decides in the recursion; solutions are in local
    ids 0..k-1 of a k-point subinstance.  The depth cap and the solvers are
    wrapped in lambdas so that each call looks them up by module-level name,
    where tests patch the cap and profilers and tracers wrap the solvers.
    Every solve's settings come in one :class:`SolveConfig`: its eps sets
    the thresholds, and the dense solver takes it whole."""

    depth: Callable  # n -> the depth cap of an n-point peel
    dense_power: int  # case (a) when the density is at least eps ** dense_power
    case_b_factor: float  # case (b) when the kept weight < case_b_factor * eps * W
    split: Callable  # (sub, stats, core, eps) -> ascending ids (layer, B, kept)
    terms: Callable  # (n, sqrt(rho), w_a, w_ac, eps) -> (alpha, beta, gamma)
    dense: Callable  # (sub, solve config, seed) -> (solution, its value on sub)
    canonical: Callable  # k -> the solution case (b) gives k kept points
    join: Callable  # (layer, kept, solution of kept in ids local to kept) -> solution
    # (sub, joined solution, layer, value of the kept points' solution on
    # their own metric in case (c), None in case (b)) -> value of the solution
    value: Callable


def peel(policy: Policy, m: Metric, cfg: SolveConfig, seed: int):
    """Peel all of ``m``; returns (solution, RecursionTrace)."""
    trace = RecursionTrace()
    cap = policy.depth(m.n)
    stats = subset_stats(m, range(m.n))
    solution, trace.value = _level(policy, cfg, seed, cap, m, list(range(m.n)), stats, 0, trace)
    trace.levels.reverse()  # each level is recorded after the levels below it
    trace.validate()
    return solution, trace


def _weight(sub: Metric, ids: list) -> float:
    return subset_stats(sub, ids).weight_sum if len(ids) > 1 else 0.0


def _level(policy, cfg, seed, cap, sub, ids, stats, level, trace):
    """(solution, its value on ``sub``), the solution in ids local to ``sub``.

    ``sub`` is the metric the root induces on its ascending point ids
    ``ids``, and ``stats`` are its subset stats, both from the level above.
    """
    if level > cap:
        raise DepthExceeded(f"peeling depth exceeded {cap} levels")
    rho, eps = stats.density, cfg.eps
    layer = []
    if rho < eps**policy.dense_power:  # a single point has infinite density
        core = find_core(sub, stats).core
        layer, b, kept = policy.split(sub, stats, core, eps)
    if layer:
        w_a = _weight(sub, layer)
        w_ac = float(sub.dist[np.ix_(layer, core)].sum())
        # the next level's block: a view when the kept ids are one run, as the
        # outliers a case-(c) level peels come last; else its one copy
        kept_sub = sub.submetric(kept)
        kept_stats = subset_stats(kept_sub, range(kept_sub.n))
        if kept_stats.weight_sum < policy.case_b_factor * eps * stats.weight_sum:
            case, inner, below = "b", policy.canonical(len(kept)), None
        else:
            case = "c"
            inner, below = _level(policy, cfg, seed, cap, kept_sub, [ids[i] for i in kept],
                                  kept_stats, level + 1, trace)
        del kept_sub  # not alive while this level is scored
        solution = policy.join(layer, kept, inner)
        value = policy.value(sub, solution, layer, below)
        terms = policy.terms(sub.n, math.sqrt(rho), w_a, w_ac, eps)
    else:
        # Dense, or every point sits in or near the core: recursing would not
        # shrink the instance, so the dense solver takes it whole.
        case, b, core, w_a, w_ac, terms = "a", [], range(sub.n), 0.0, None, (None,) * 3
        solution, value = policy.dense(sub, cfg, seed)
    alpha, beta, gamma = terms
    trace.levels.append(
        LevelRecord(
            level=level,
            n=sub.n,
            rho=rho,
            case=case,
            a_ids=tuple(ids[i] for i in layer),
            b_ids=tuple(ids[i] for i in b),
            c_ids=tuple(ids[i] for i in core),
            w_a=w_a,
            w_ac=w_ac,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            alg_value=value,
        )
    )
    return solution, value
