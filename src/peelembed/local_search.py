"""What every local search shares: the search budget, the dense solvers'
config and tie-break, the reduced search's restart loop and the move sweep.

Each restart starts from a seeded assignment of the points to parts and runs
sweeps of single-point moves.  A sweep looks at every move "point p to part
b" in a fixed order (ascending p, then ascending b, skipping p's own part)
and keeps the first move that no later move beats by more than a tolerance.
A whole sweep is scored at once: ``single_moves`` lists the moves,
``score_moves`` scores the moved assignments in bounded batches and
``scan_argmax`` returns the index that the sequential scan would have kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidSpec

# A candidate replaces the incumbent only when it is better by more than this.
TIE_TOL = 1e-12

# Most n x n entries one batch of candidates may hold.  Each entry costs a few
# dozen bytes of temporaries, so a sweep stays within tens of MB whatever n
# and the number of parts are.
BATCH_ENTRIES = 1 << 19


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


def scan_argmax(gains, tol: float = TIE_TOL) -> int:
    """Index kept by a left-to-right scan that replaces its incumbent only on
    ``gain > incumbent + tol`` (the first entry starts as incumbent).

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
        nxt = int(np.searchsorted(values, values[k] + tol, side="right"))
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
