"""What the two dense solvers share: config, tie-break, reduced local
search and the faithful grid's partition driver.

Each restart of the reduced search starts from a seeded random assignment
of the points to parts and runs sweeps of single-point moves.  A sweep looks
at every move "point p to part b" in a fixed order (ascending p, then
ascending b, skipping p's own part) and keeps the first move that no later
move beats by more than ``TIE_TOL``.  The solvers score a whole sweep at
once: ``score_moves`` evaluates every moved assignment in bounded batches
and ``scan_argmax`` returns the index that the sequential scan would have
kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .partition_search import PartitionSpec, SearchBudget, enumerate_assignments, search_partition

# A candidate replaces the incumbent only when it is better by more than this.
TIE_TOL = 1e-12

# Most cells a faithful grid may enumerate before it is refused.
MAX_GRID_CELLS = 2_000_000

# Most n x n entries one batch of candidates may hold.  Each entry costs a few
# dozen bytes of temporaries, so a sweep stays within tens of MB whatever n
# and the number of parts are.
BATCH_ENTRIES = 1 << 19


@dataclass(frozen=True)
class DenseConfig:
    """Parameters of both dense solvers."""

    eps: float
    grid_mode: str = "reduced"  # 'reduced' or 'faithful'
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")
        if self.grid_mode not in ("reduced", "faithful"):
            raise InvalidSpec(f"unknown grid mode {self.grid_mode!r}")


def best_of(candidates, value, key, best=None):
    """(candidate, value) of the best of ``best`` (None or such a pair) and
    ``candidates``, scored in order: a candidate replaces the incumbent when
    it scores more than ``TIE_TOL`` higher, or within ``TIE_TOL`` with a
    smaller ``key``.  A candidate that is the incumbent object itself is not
    rescored, as it could not replace itself."""
    for cand in candidates:
        if best is not None and cand is best[0]:
            continue
        v = value(cand)
        if (best is None or v > best[1] + TIE_TOL
                or (abs(v - best[1]) <= TIE_TOL and key(cand) < key(best[0]))):
            best = (cand, v)
    return best


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
            wb = [[(0.0, math.inf)] * parts for _ in range(parts)]
            for (a, b), target in zip(pairs, mu):
                wb[a][b] = wb[b][a] = (target, target)
            spec = PartitionSpec.build(parts, size_bounds=[(v, v) for v in lam],
                                       weight_bounds=wb)
            part = search_partition(m, spec, eps_err=eps_err, budget=budget, seed=seed,
                                    enumerated=enumerated)
            if part is not None and part.assignment not in seen:
                seen.add(part.assignment)
                yield part.assignment


def reduced_restarts(n: int, parts: int, seed: int, budget: SearchBudget, score):
    """Yield the final assignment of each seeded restart of the reduced search.

    ``score`` maps a (C, n) array of assignments to their C values.  Gains
    are taken against the score of the current assignment, so a move that
    rebuilds it gains exactly 0.
    """
    for ss in np.random.SeedSequence(seed).spawn(budget.restarts):
        assign = np.random.default_rng(ss).integers(0, parts, size=n)
        value = score(assign[None, :])[0]
        for _ in range(budget.moves(n)):
            points, targets = single_moves(assign, parts)
            values = score_moves(assign, points, targets, score)
            gains = values - value
            pick = scan_argmax(gains)
            if gains[pick] <= TIE_TOL:
                break
            assign[points[pick]] = targets[pick]
            value = values[pick]
        yield assign


def scan_argmax(gains) -> int:
    """Index kept by a left-to-right scan that replaces its incumbent only on
    ``gain > incumbent + TIE_TOL`` (the first entry starts as incumbent).

    Every replacement is larger than all entries before it, so only strict
    running maxima can be kept; their values ascend, which lets each jump to
    the next replacement be a binary search.
    """
    g = np.asarray(gains, dtype=float)
    running = np.maximum.accumulate(g)
    records = np.flatnonzero(np.concatenate(([True], g[1:] > running[:-1])))
    values = g[records]
    k = 0
    while True:
        nxt = int(np.searchsorted(values, values[k] + TIE_TOL, side="right"))
        if nxt == len(values):
            return int(records[k])
        k = nxt


def sizes_and_ranks(assigns: np.ndarray, parts: int):
    """Part sizes (C, parts) and each point's 0-based id rank in its part (C, n)."""
    onehot = assigns[:, :, None] == np.arange(parts)
    ranks = np.take_along_axis(np.cumsum(onehot, axis=1), assigns[:, :, None], 2)[..., 0]
    return onehot.sum(axis=1), ranks - 1


def single_moves(assign: np.ndarray, parts: int):
    """(points, targets) of every single-point move, in scan order."""
    n = len(assign)
    points = np.repeat(np.arange(n), parts - 1)
    offset = np.tile(np.arange(parts - 1), n)
    targets = offset + (offset >= assign[points])
    return points, targets


def score_moves(assign: np.ndarray, points, targets, score) -> np.ndarray:
    """``score`` of each moved copy of ``assign``, in batches.

    ``score`` maps a (C, n) array of assignments to their C values.
    """
    n = len(assign)
    step = max(1, BATCH_ENTRIES // (n * n))
    out = np.empty(len(points))
    for start in range(0, len(points), step):
        p = points[start : start + step]
        rows = np.repeat(assign[None, :], len(p), axis=0)
        rows[np.arange(len(p)), p] = targets[start : start + step]
        out[start : start + len(p)] = score(rows)
    return out
