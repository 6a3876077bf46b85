"""What every local search shares: the search budget, the dense solvers'
config and tie-break, the reduced search's restart loop and the move sweep.

Each restart starts from a seeded assignment of the points to parts and runs
sweeps of single-point moves.  A sweep looks at every move "point p to part
b" in a fixed order (ascending p, then ascending b, skipping p's own part)
and keeps the first move that no later move beats by more than a tolerance.
A whole sweep is scored at once: ``single_moves`` lists the moves, the
search's gain function gives the gain of each from per-row tables in O(1)
per move, and ``scan_argmax`` returns the index that the sequential scan
would have kept.  Each of them takes one assignment row or a stack of them,
so the reduced search sweeps all its restarts in lockstep, and
``gaining_picks`` keeps the restarts that still gain; the LA swap climb
steps its starts the same way.

The reduced search runs on ``quantize``'s integer copy of the metric, on
which every gain is exact whatever the order of its sums.  So the tolerance
only breaks exact ties: a move gains when its gain is positive, and a sweep
keeps its first best move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidSpec

# A candidate replaces the incumbent only when it is better by more than this.
TIE_TOL = 1e-12

# Most table entries one batch of rows may hold: the gain tables of the
# reduced searches and the n x n gains of the LA swap climb.  Each entry costs
# a few dozen bytes of temporaries, so a sweep stays within a few MB whatever
# n, the number of parts and the number of rows sweeping together are.
BATCH_ENTRIES = 1 << 16

# Largest n and k^n at which a k-part partition search enumerates every assignment.
EXHAUSTIVE_N = 12
EXHAUSTIVE_ASSIGNMENTS = 200_000


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 32
    moves_per_restart: Optional[int] = None  # None -> 200 * n

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and value < 0:
                raise InvalidSpec(f"{name} must be >= 0, got {value}")

    def exhaustive(self, n: int, k: int) -> bool:
        """Whether a k-part search on n points enumerates all k^n assignments."""
        return n <= EXHAUSTIVE_N and k**n <= EXHAUSTIVE_ASSIGNMENTS

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


def quantize(dist: np.ndarray) -> np.ndarray:
    """The metric that the reduced search runs on: ``dist`` over its largest
    entry D, times 2^s, rounded to integers, with
    s = floor(log2(2^53 / (16 n^3))).

    Each entry is then an integer in [0, 2^s], and the weight W of all pairs
    is below n^2 2^s / 2 <= 2^48 / n.  A move's gain is a signed sum of
    products of entries and small integers whose magnitudes sum to at most
    13 n W (see the gain tables of both dense solvers); every table entry and
    partial sum is bounded by the same sum, so stays below 13 * 2^48 < 2^52.
    Below 2^53 every product and sum of integers is exact, and so is every
    multiple of 1/2 below 2^52, as HC's halved terms are.  So every gain is
    exact, in any order of summation, BLAS's included.  Dividing by D before
    scaling keeps a tiny D from overflowing the scale factor.
    """
    s = 49 - (len(dist) ** 3 - 1).bit_length()  # 49 - ceil(log2 n^3)
    return np.rint(dist / dist.max() * 2.0**s)


def reduced_restarts(n: int, parts: int, seed: int, budget: SearchBudget,
                     gains) -> np.ndarray:
    """Final assignments of the seeded restarts of the reduced search, one
    (restarts, n) row per restart in seed order.

    ``gains(assigns, points, targets)`` takes (C, n) assignment rows and the
    moves that ``single_moves`` lists for them, and gives the (C, M) gains of
    the moves.  The restarts sweep in lockstep: each sweep scores the moves
    of every restart still gaining at once, and a restart whose best move
    gains at most ``TIE_TOL`` stops.
    """
    seqs = np.random.SeedSequence(seed).spawn(budget.restarts)
    assigns = np.array([np.random.default_rng(ss).integers(0, parts, size=n) for ss in seqs],
                       dtype=np.int64).reshape(len(seqs), n)
    live = np.arange(len(seqs))
    for _ in range(budget.moves(n)):
        if not len(live):
            break
        current = assigns[live]
        points, targets = single_moves(current, parts)
        live, rows, picks = gaining_picks(live, gains(current, points, targets))
        assigns[live, points[picks]] = targets[rows, picks]
    return assigns


def gaining_picks(live: np.ndarray, gains: np.ndarray):
    """One lockstep step of steepest ascent: ``gains`` holds a row of move
    gains for each search in ``live``.  Gives (live, rows, picks) of the
    searches whose ``scan_argmax`` pick gains more than ``TIE_TOL``: their
    ids, their rows in ``gains`` and their picks.  The others stop."""
    picks = scan_argmax(gains)
    rows = np.arange(len(live))
    go = gains[rows, picks] > TIE_TOL
    return live[go], rows[go], picks[go]


def scan_argmax(gains, tol: float = TIE_TOL):
    """Index kept by a left-to-right scan of each row of ``gains`` that
    replaces its incumbent only on ``gain > incumbent + tol`` (the row's first
    entry starts as incumbent): an int for one (M,) row, an (L,) array for
    (L, M) rows.

    Every replacement is larger than all entries before it, so only a row's
    strict running maxima, its records, can be kept, and their values ascend.
    The record that replaces record r is its row's first record above
    value(r) + tol.  One stable sort of every row's records and thresholds
    finds it for all records at once; the scan then jumps from record to
    record in every row together.

    Usually no sort is needed: when every entry ahead of a row's first
    largest entry is below it by more than tol (``ahead + tol < top``,
    rounded as the scan rounds it), the scan reaches that entry with a
    smaller incumbent, takes it, and no later entry can beat it.  If every
    row is such a row, those entries are returned at once.
    """
    g = np.atleast_2d(np.asarray(gains, dtype=float))
    width = g.shape[1]
    running = np.maximum.accumulate(g, axis=1)
    first = g.argmax(axis=1)
    at = np.arange(len(g))
    top, ahead = g[at, first], np.where(first > 0, running[at, first - 1], -np.inf)
    if (ahead + tol < top).all():
        return int(first[0]) if np.ndim(gains) == 1 else first
    is_record = np.empty(g.shape, dtype=bool)
    is_record[:, 0] = True
    np.greater(g[:, 1:], running[:, :-1], out=is_record[:, 1:])
    records = np.flatnonzero(is_record)  # row by row, ascending in each row
    row = records // width
    values = g.take(records)
    count = len(records)
    # Sorted by (row, value), a record ahead of an equal threshold, the
    # thresholds keep their own order, so a threshold's place minus its index
    # counts the records up to it: the index of the first record past it.
    order = np.lexsort((np.concatenate((values, values + tol)), np.concatenate((row, row))))
    after = np.flatnonzero(order >= count) - np.arange(count)
    per_row = np.bincount(row)
    ends = np.cumsum(per_row)
    # a record with none past it in its row is where the scan stops
    after = np.where(after < ends[row], after, np.arange(count))
    kept = ends - per_row  # each row's first entry
    while True:
        nxt = after[kept]
        if (nxt == kept).all():
            break
        kept = nxt
    cols = records[kept] - width * np.arange(len(kept))
    return int(cols[0]) if np.ndim(gains) == 1 else cols


def single_moves(assigns: np.ndarray, parts: int):
    """(points, targets) of every single-point move, in scan order: ``points``
    is (M,), ``targets`` (L, M) for (L, n) assignment rows or (M,) for one."""
    n = np.shape(assigns)[-1]
    points = np.repeat(np.arange(n), parts - 1)
    offset = np.tile(np.arange(parts - 1), n)
    targets = offset + (offset >= assigns[..., points])
    return points, targets
