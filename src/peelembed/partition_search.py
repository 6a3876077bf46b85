"""Bounded-partition search used by both dense-case solvers.

The contract: given per-part size bounds (fractions of n) and per-pair
crossing-weight bounds (fractions of n^2 * D_V), find a k-partition meeting
every bound within an additive slack ``eps_err``.  Small instances are solved
by exhaustive enumeration over all k^n assignments (no false negatives);
larger ones by randomized-restart single-point-move local search over a
penalty function, where a miss only means "not found within budget".  The
faithful grids of both dense solvers drive the search through
:func:`grid_partitions`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSpec, SpecInfeasibleTrivially
from .local_search import SearchBudget, scan_argmax, single_moves
from .metric import Metric

_INF = math.inf

# Most cells a faithful grid may enumerate before it is refused.
MAX_GRID_CELLS = 2_000_000


@dataclass(frozen=True)
class PartitionSpec:
    """Size bounds per part and crossing-weight bounds per ordered pair.

    ``size_bounds[j]`` is (lb, ub) on |V_j| / n; ``weight_bounds[j][j']`` is
    (lb, ub) on W_{V_j, V_j'} / (n^2 * D_V), with the diagonal bounding the
    intra-part weight.  Each bound has 0 <= lb <= ub and a finite lb; unset
    bounds default to (0, inf).
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
        # written so that a NaN bound fails too
        for kind, bounds in (("size", sb), ("weight", [b for row in wb for b in row])):
            for lb, ub in bounds:
                if not (0 <= lb <= ub and math.isfinite(lb)):
                    raise InvalidSpec(f"bad {kind} bound ({lb}, {ub})")
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


def _bounds(m: Metric, spec: PartitionSpec):
    """(norm, slb, sub, wlb, wub): the weight normaliser n^2 * D_V (1 when
    D_V = 0) and the spec's size and weight lower and upper bound arrays."""
    k = spec.k
    diam = m.diameter()
    norm = m.n * m.n * diam if diam > 0 else 1.0
    slb = np.array([b[0] for b in spec.size_bounds])
    sub = np.array([b[1] for b in spec.size_bounds])
    wlb = np.array([[spec.weight_bounds[j][j2][0] for j2 in range(k)] for j in range(k)])
    wub = np.array([[spec.weight_bounds[j][j2][1] for j2 in range(k)] for j in range(k)])
    return norm, slb, sub, wlb, wub


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
    return _feasible(m, _bounds(m, spec), eps_err, assignment)


def _feasible(m: Metric, bounds, eps_err: float, assignment: Sequence[int]) -> bool:
    """``partition_feasible`` against ``_bounds(m, spec)``."""
    norm, slb, sub, wlb, wub = bounds
    sizes = np.bincount(np.asarray(assignment, dtype=int), minlength=len(slb)) / m.n
    if (sizes < slb - eps_err - 1e-12).any() or (sizes > sub + eps_err + 1e-12).any():
        return False
    cross = crossing_matrix(m, assignment, len(slb)) / norm
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
    if not eps_err >= 0:  # NaN fails too
        raise InvalidSpec(f"eps_err must be nonnegative, got {eps_err}")
    budget = budget or SearchBudget()
    n, k = m.n, spec.k
    if k > n:
        raise InvalidSpec(f"k={k} exceeds n={n}")
    bounds = _bounds(m, spec)
    _, slb, sub, _, _ = bounds
    # each part gets eps_err of slack, so only a k * eps_err gap in the size
    # sums rules out every assignment outright
    slack = k * eps_err + 1e-12
    if slb.sum() > 1.0 + slack or sub.sum() < 1.0 - slack:
        raise SpecInfeasibleTrivially(
            f"size fractions cannot sum to 1: lb={slb.sum():g}, ub={sub.sum():g}"
        )

    if budget.exhaustive(n, k):
        assignment = _search_exhaustive(m, bounds, eps_err,
                                        enumerated or enumerate_assignments(m, k))
    else:
        assignment = _search_local(m, bounds, eps_err, budget, seed)
    if assignment is None:
        return None
    assert _feasible(m, bounds, eps_err, assignment)
    return make_partition(m, assignment, k)


def _search_exhaustive(m, bounds, eps_err, enumerated):
    n = m.n
    norm, slb, sub, wlb, wub = bounds
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


def _search_local(m, bounds, eps_err, budget, seed):
    norm, slb, sub, wlb, wub = bounds
    n, k = m.n, len(slb)
    slack = max(eps_err, 1e-12)

    def penalty(sizes, cross):
        """Penalties of (C, k) part sizes and (C, k, k) crossing matrices."""
        sfrac = sizes / n
        wfrac = cross / norm
        v = np.maximum(0.0, slb - eps_err - sfrac) + np.maximum(0.0, sfrac - sub - eps_err)
        w = np.maximum(0.0, wlb - eps_err - wfrac) + np.maximum(0.0, wfrac - wub - eps_err)
        return (v.sum(axis=1) + w.reshape(len(w), k * k).sum(axis=1)) / slack

    found = []
    for ss in np.random.SeedSequence(seed).spawn(budget.restarts):
        assign = _greedy_seed(np.random.default_rng(ss), n, k, slb, sub)
        onehot = np.eye(k)[assign]
        part_dist = m.dist @ onehot  # part_dist[p, j] = W(p, part j)
        sizes = onehot.sum(axis=0)
        cross = crossing_matrix(m, assign, k)
        pen = penalty(sizes[None], cross[None])[0]
        for _ in range(budget.moves(n) if k > 1 else 0):  # one part allows no move
            if pen <= 0.0:
                break
            points, targets, sz, cr = _moved_states(assign, sizes, cross, part_dist)
            cands = penalty(sz, cr)
            pick = scan_argmax(-cands, tol=1e-15)  # the lowest, earliest on near-ties
            if cands[pick] >= pen - 1e-15:
                break
            p, b = points[pick], targets[pick]
            part_dist[:, assign[p]] -= m.dist[:, p]
            part_dist[:, b] += m.dist[:, p]
            assign[p], sizes, cross, pen = b, sz[pick], cr[pick], cands[pick]
        if pen <= 0.0:
            cand = tuple(int(x) for x in assign)
            if _feasible(m, bounds, eps_err, cand):
                found.append(cand)
    if not found:
        return None
    return min(found)  # deterministic regardless of restart evaluation order


def _moved_states(assign, sizes, cross, part_dist):
    """Points, targets, (C, k) part sizes and (C, k, k) crossing matrices of
    every single-point move in scan order; ``part_dist[p, j]`` = W(p, part j)."""
    points, targets = single_moves(assign, len(sizes))
    rows, a, b = np.arange(len(points)), assign[points], targets
    moved = part_dist[points]
    sz = np.repeat(sizes[None], len(points), axis=0)
    sz[rows, a] -= 1
    sz[rows, b] += 1
    cr = np.repeat(cross[None], len(points), axis=0)
    cr[rows, a, :] -= moved
    cr[rows, :, a] -= moved
    cr[rows, b, :] += moved
    cr[rows, :, b] += moved
    cr[rows, a, a] += moved[rows, a]
    cr[rows, b, b] -= moved[rows, b]
    return points, targets, sz, cr


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


def grid_cells(levels: int, step: float, count: int, keep):
    """Faithful-grid cells: lists [i_1 * step, ..., i_count * step] with
    0 <= i < levels, in lexicographic order, whose sum ``keep`` accepts."""
    for cell in itertools.product(range(levels), repeat=count):
        values = [i * step for i in cell]
        if keep(sum(values)):
            yield values


def grid_partitions(m, parts: int, size_cells, mu_cells, eps_err: float,
                    budget: SearchBudget, seed: int):
    """Yield each new assignment the bounded-partition search finds for a grid
    cell: part-size fractions from ``size_cells`` (outer loop) times crossing
    weights of the pairs a < b, row-major, from ``mu_cells`` (inner loop)."""
    pairs = [(a, b) for a in range(parts) for b in range(a + 1, parts)]
    enumerated = enumerate_assignments(m, parts) if budget.exhaustive(m.n, parts) else None
    seen = set()
    for lam in size_cells:
        for mu in mu_cells:
            wb = [[(0.0, _INF)] * parts for _ in range(parts)]
            for (a, b), target in zip(pairs, mu):
                wb[a][b] = wb[b][a] = (target, target)
            spec = PartitionSpec.build(parts, size_bounds=[(v, v) for v in lam],
                                       weight_bounds=wb)
            part = search_partition(m, spec, eps_err=eps_err, budget=budget, seed=seed,
                                    enumerated=enumerated)
            if part is not None and part.assignment not in seen:
                seen.add(part.assignment)
                yield part.assignment
