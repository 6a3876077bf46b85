"""Bounded-partition search used by both dense-case solvers.

The contract: given per-part size bounds (fractions of n) and per-pair
crossing-weight bounds (fractions of n^2 * D_V), find a k-partition meeting
every bound within an additive slack ``eps_err``.  Small instances are solved
by exhaustive enumeration over all k^n assignments (no false negatives);
larger ones by randomized-restart single-point-move local search over a
penalty function, where a miss only means "not found within budget".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSpec, SpecInfeasibleTrivially
from .metric import Metric

_INF = math.inf


@dataclass(frozen=True)
class SearchBudget:
    exhaustive_n: int = 12
    restarts: int = 32
    moves_per_restart: Optional[int] = None  # None -> 200 * n
    exhaustive_assignments: int = 200_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and value < 0:
                raise InvalidSpec(f"{name} must be >= 0, got {value}")

    def exhaustive(self, n: int, k: int) -> bool:
        """Whether a k-part search on n points enumerates all k^n assignments."""
        return n <= self.exhaustive_n and k**n <= self.exhaustive_assignments

    def moves(self, n: int) -> int:
        return self.moves_per_restart if self.moves_per_restart is not None else 200 * n


@dataclass(frozen=True)
class PartitionSpec:
    """Size bounds per part and crossing-weight bounds per ordered pair.

    ``size_bounds[j]`` is (lb, ub) on |V_j| / n; ``weight_bounds[j][j']`` is
    (lb, ub) on W_{V_j, V_j'} / (n^2 * D_V), with the diagonal bounding the
    intra-part weight.  Unset bounds default to (0, inf).
    """

    k: int
    size_bounds: tuple
    weight_bounds: tuple

    @classmethod
    def build(cls, k, size_bounds=None, weight_bounds=None) -> "PartitionSpec":
        sb = [(0.0, _INF)] * k if size_bounds is None else [tuple(b) for b in size_bounds]
        if weight_bounds is None:
            wb = [[(0.0, _INF)] * k for _ in range(k)]
        else:
            wb = [[tuple(b) for b in row] for row in weight_bounds]
        if len(sb) != k or len(wb) != k or any(len(row) != k for row in wb):
            raise InvalidSpec(f"bounds do not match k={k}")
        for lb, ub in sb:
            if lb < 0 or ub < lb:
                raise InvalidSpec(f"bad size bound ({lb}, {ub})")
        for row in wb:
            for lb, ub in row:
                if lb < 0 or ub < lb:
                    raise InvalidSpec(f"bad weight bound ({lb}, {ub})")
        return cls(k=k, size_bounds=tuple(sb), weight_bounds=tuple(map(tuple, wb)))

    def to_json(self) -> str:
        def enc(b):
            return [b[0], None if math.isinf(b[1]) else b[1]]

        return json.dumps(
            {
                "k": self.k,
                "size_bounds": [enc(b) for b in self.size_bounds],
                "weight_bounds": [[enc(b) for b in row] for row in self.weight_bounds],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PartitionSpec":
        doc = json.loads(text)

        def dec(b):
            return (float(b[0]), _INF if b[1] is None else float(b[1]))

        return cls.build(
            int(doc["k"]),
            [dec(b) for b in doc["size_bounds"]],
            [[dec(b) for b in row] for row in doc["weight_bounds"]],
        )


@dataclass(frozen=True)
class Partition:
    assignment: tuple
    part_sizes: tuple
    crossing_weights: tuple  # k x k, symmetric; diagonal = intra-part weight

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    def dump(self) -> str:
        lines = ["assignment " + " ".join(str(a) for a in self.assignment)]
        for row in self.crossing_weights:
            lines.append(" ".join(repr(float(w)) for w in row))
        return "\n".join(lines) + "\n"


def _spec_arrays(spec: PartitionSpec):
    k = spec.k
    slb = np.array([b[0] for b in spec.size_bounds])
    sub = np.array([b[1] for b in spec.size_bounds])
    wlb = np.array([[spec.weight_bounds[j][j2][0] for j2 in range(k)] for j in range(k)])
    wub = np.array([[spec.weight_bounds[j][j2][1] for j2 in range(k)] for j in range(k)])
    return slb, sub, wlb, wub


def crossing_matrix(m: Metric, assignment: Sequence[int], k: int) -> np.ndarray:
    """Symmetric k x k weight matrix; off-diagonal = crossing, diagonal = intra."""
    assign = np.asarray(assignment, dtype=int)
    onehot = np.eye(k)[assign]
    cross = onehot.T @ m.dist @ onehot
    np.fill_diagonal(cross, np.diag(cross) / 2.0)
    return cross


def make_partition(m: Metric, assignment: Sequence[int], k: int) -> Partition:
    assign = tuple(int(a) for a in assignment)
    sizes = tuple(int((np.asarray(assign) == j).sum()) for j in range(k))
    cross = crossing_matrix(m, assign, k)
    return Partition(
        assignment=assign,
        part_sizes=sizes,
        crossing_weights=tuple(tuple(float(x) for x in row) for row in cross),
    )


def partition_feasible(
    m: Metric, spec: PartitionSpec, eps_err: float, assignment: Sequence[int]
) -> bool:
    """Exact feasibility recomputation; the only check trusted before returning."""
    n = m.n
    diam = m.diameter()
    norm = n * n * diam if diam > 0 else 1.0
    slb, sub, wlb, wub = _spec_arrays(spec)
    sizes = np.bincount(np.asarray(assignment, dtype=int), minlength=spec.k) / n
    if (sizes < slb - eps_err - 1e-12).any() or (sizes > sub + eps_err + 1e-12).any():
        return False
    cross = crossing_matrix(m, assignment, spec.k) / norm
    return not (
        (cross < wlb - eps_err - 1e-12).any() or (cross > wub + eps_err + 1e-12).any()
    )


def enumerate_assignments(m: Metric, k: int):
    """All k^n assignments with their size and weight statistics, the input of
    the exhaustive regime; a caller searching many specs on one metric builds
    it once and passes it to :func:`search_partition`."""
    digits = np.array(list(itertools.product(range(k), repeat=m.n)), dtype=np.int8)
    onehot = np.eye(k)[digits]  # (A, n, k)
    sizes = onehot.sum(axis=1)
    inner = np.einsum("nm,amk->ank", m.dist, onehot)
    cross = np.einsum("ank,anj->akj", onehot, inner)
    idx = np.arange(k)
    cross[:, idx, idx] /= 2.0
    return digits, sizes, cross


def search_partition(
    m: Metric,
    spec: PartitionSpec,
    eps_err: float,
    budget: Optional[SearchBudget] = None,
    seed: int = 0,
    enumerated=None,
) -> Optional[Partition]:
    """Find a partition meeting ``spec`` within additive slack ``eps_err``.

    Returns None when nothing is found; in the exhaustive regime that means
    no feasible partition exists, otherwise only that the budget ran out.
    ``enumerated`` is ``enumerate_assignments(m, spec.k)``, for a caller that
    has it; it changes no result.
    """
    if eps_err < 0:
        raise InvalidSpec("eps_err must be nonnegative")
    budget = budget or SearchBudget()
    n, k = m.n, spec.k
    if k > n:
        raise InvalidSpec(f"k={k} exceeds n={n}")
    slb, sub, wlb, wub = _spec_arrays(spec)
    # each part gets eps_err of slack, so only a k * eps_err gap in the size
    # sums rules out every assignment outright
    slack = k * eps_err + 1e-12
    if slb.sum() > 1.0 + slack or sub.sum() < 1.0 - slack:
        raise SpecInfeasibleTrivially(
            f"size fractions cannot sum to 1: lb={slb.sum():g}, ub={sub.sum():g}"
        )

    if budget.exhaustive(n, k):
        assignment = _search_exhaustive(m, spec, eps_err,
                                        enumerated or enumerate_assignments(m, k))
    else:
        assignment = _search_local(m, spec, eps_err, budget, seed)
    if assignment is None:
        return None
    assert partition_feasible(m, spec, eps_err, assignment)
    return make_partition(m, assignment, k)


def _search_exhaustive(m, spec, eps_err, enumerated):
    n = m.n
    diam = m.diameter()
    norm = n * n * diam if diam > 0 else 1.0
    slb, sub, wlb, wub = _spec_arrays(spec)
    digits, sizes, cross = enumerated
    ok = (
        (sizes / n >= slb - eps_err - 1e-12).all(axis=1)
        & (sizes / n <= sub + eps_err + 1e-12).all(axis=1)
        & (cross / norm >= wlb - eps_err - 1e-12).all(axis=(1, 2))
        & (cross / norm <= wub + eps_err + 1e-12).all(axis=(1, 2))
    )
    hits = np.flatnonzero(ok)
    if len(hits) == 0:
        return None
    return tuple(int(a) for a in digits[hits[0]])  # lexicographically smallest


def _search_local(m, spec, eps_err, budget, seed):
    n, k = m.n, spec.k
    diam = m.diameter()
    norm = n * n * diam if diam > 0 else 1.0
    slb, sub, wlb, wub = _spec_arrays(spec)
    slack = max(eps_err, 1e-12)

    def penalty(sizes, cross):
        sfrac = sizes / n
        wfrac = cross / norm
        v = np.maximum(0.0, slb - eps_err - sfrac) + np.maximum(0.0, sfrac - sub - eps_err)
        w = np.maximum(0.0, wlb - eps_err - wfrac) + np.maximum(0.0, wfrac - wub - eps_err)
        return float(v.sum() + w[np.isfinite(w)].sum()) / slack

    found = []
    seeds = np.random.SeedSequence(seed).spawn(budget.restarts)
    for restart, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        assign = _greedy_seed(rng, n, k, slb, sub)
        onehot = np.eye(k)[assign]
        part_dist = m.dist @ onehot  # part_dist[p, j] = W(p, part j)
        sizes = onehot.sum(axis=0)
        cross = crossing_matrix(m, assign, k)
        pen = penalty(sizes, cross)
        for _ in range(budget.moves(n)):
            if pen <= 0.0:
                break
            best = None  # (new_pen, point, target)
            for p in range(n):
                a = assign[p]
                for b in range(k):
                    if b == a:
                        continue
                    sz = sizes.copy()
                    sz[a] -= 1
                    sz[b] += 1
                    cr = cross.copy()
                    cr[a, :] -= part_dist[p]
                    cr[:, a] -= part_dist[p]
                    cr[b, :] += part_dist[p]
                    cr[:, b] += part_dist[p]
                    cr[a, a] += part_dist[p, a]
                    cr[b, b] -= part_dist[p, b]
                    cand = penalty(sz, cr)
                    if best is None or cand < best[0] - 1e-15:
                        best = (cand, p, b)
            if best is None or best[0] >= pen - 1e-15:
                break
            pen, p, b = best
            a = assign[p]
            assign[p] = b
            sizes[a] -= 1
            sizes[b] += 1
            cross[a, :] -= part_dist[p]
            cross[:, a] -= part_dist[p]
            cross[b, :] += part_dist[p]
            cross[:, b] += part_dist[p]
            cross[a, a] += part_dist[p, a]
            cross[b, b] -= part_dist[p, b]
            part_dist[:, a] -= m.dist[:, p]
            part_dist[:, b] += m.dist[:, p]
        if pen <= 0.0:
            cand = tuple(int(x) for x in assign)
            if partition_feasible(m, spec, eps_err, cand):
                found.append(cand)
    if not found:
        return None
    return min(found)  # deterministic regardless of restart evaluation order


def _greedy_seed(rng, n, k, slb, sub):
    """Random assignment biased toward the size lower bounds."""
    order = rng.permutation(n)
    assign = np.zeros(n, dtype=int)
    quota = np.floor(slb * n).astype(int)
    pos = 0
    for j in range(k):
        take = min(int(quota[j]), n - pos)
        assign[order[pos : pos + take]] = j
        pos += take
    if pos < n:
        assign[order[pos:]] = rng.integers(0, k, size=n - pos)
    return assign
