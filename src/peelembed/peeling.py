"""The multi-layer peeling recursion shared by both objectives.

Each level either hands the whole subinstance to the dense solver (case a:
density at least eps^p, or no layer to peel), peels a layer and gives the
kept points a canonical solution (case b: they carry less than an f * eps
fraction of the weight) or peels the layer and recurses on the kept points
(case c).  The objective's :class:`Policy` fixes p and f, the layer, the
accounting terms, the dense solver and how a layer joins the solution of
the kept points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DepthExceeded, InvalidSpec
from .metric import Metric, find_core, subset_stats
from .trace import LevelRecord, RecursionTrace


@dataclass(frozen=True)
class PeelConfig:
    """Peeling parameters.  Each objective's subclass sets ``dense_type``, the
    dense config class (built from ``eps`` when ``dense`` is None), and
    ``default_depth(n)``, the depth cap when ``max_depth`` is None."""

    eps: float
    dense: Optional[object] = None
    max_depth: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")

    def dense_config(self):
        return self.dense if self.dense is not None else self.dense_type(eps=self.eps)

    def depth_cap(self, n: int) -> int:
        return self.max_depth if self.max_depth is not None else self.default_depth(n)


@dataclass(frozen=True)
class Policy:
    """What one objective decides in the recursion; solutions are in local
    ids 0..k-1 of a k-point subinstance.  Solvers are wrapped in lambdas so
    that each call looks them up by module-level name, where profilers and
    tracers install their wrappers."""

    dense_power: int  # case (a) when the density is at least eps ** dense_power
    case_b_factor: float  # case (b) when the kept weight < case_b_factor * eps * W
    split: Callable  # (sub, stats, core, eps) -> ascending ids (layer, B, kept)
    terms: Callable  # (n, sqrt(rho), w_a, w_ac, eps) -> (alpha, beta, gamma)
    dense: Callable  # (sub, dense config, seed) -> solution
    canonical: Callable  # k -> the solution case (b) gives k kept points
    join: Callable  # (layer, kept, solution of kept in ids local to kept) -> solution
    value: Callable  # (metric, solution) -> objective value


def peel(policy: Policy, m: Metric, cfg: PeelConfig, seed: int):
    """Peel all of ``m``; returns (solution, RecursionTrace)."""
    trace = RecursionTrace()
    solution = _level(policy, m, cfg, seed, list(range(m.n)), 0, trace)
    trace.levels.reverse()  # each level is recorded after the levels below it
    # level 0 scored this solution on an identical copy of m
    trace.value = trace.levels[0].alg_value
    trace.validate()
    return solution, trace


def _weight(sub: Metric, ids: list) -> float:
    return subset_stats(sub, ids).weight_sum if len(ids) > 1 else 0.0


def _level(policy, m, cfg, seed, ids, level, trace):
    """Solution on the ascending point ids ``ids`` of ``m``, in local ids."""
    cap = cfg.depth_cap(m.n)
    if level > cap:
        raise DepthExceeded(f"peeling depth exceeded {cap} levels")
    sub = m.submetric(ids)
    stats = subset_stats(sub, range(sub.n))
    rho, eps = stats.density, cfg.eps
    layer = []
    if rho < eps**policy.dense_power:  # a single point has infinite density
        core = sorted(find_core(sub).core)
        layer, b, kept = policy.split(sub, stats, core, eps)
    if layer:
        w_a = _weight(sub, layer)
        w_ac = float(sub.dist[np.ix_(layer, core)].sum())
        if _weight(sub, kept) < policy.case_b_factor * eps * stats.weight_sum:
            case, inner = "b", policy.canonical(len(kept))
        else:
            case = "c"
            inner = _level(policy, m, cfg, seed, [ids[i] for i in kept], level + 1, trace)
        solution = policy.join(layer, kept, inner)
        terms = policy.terms(sub.n, math.sqrt(rho), w_a, w_ac, eps)
    else:
        # Dense, or every point sits in or near the core: recursing would not
        # shrink the instance, so the dense solver takes it whole.
        case, b, core, w_a, w_ac, terms = "a", [], range(sub.n), 0.0, None, (None,) * 3
        solution = policy.dense(sub, cfg.dense_config(), seed)
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
            alg_value=policy.value(sub, solution),
        )
    )
    return solution
