"""What every local search shares: the one solve config, a restart's
sweeps, the dense solvers' pick, the one row dedup, the steepest-ascent
loop and the reduced search's restart loop.

Each restart of the reduced search starts from a seeded assignment of the
points to parts and runs sweeps of single-point moves.  A sweep reads the
gain of every move "point p to part b" off the row's gain table, cell
p * parts + b (ascending p, then ascending b), 0 in p's own part, and takes
the first move of largest gain; the search's gain function builds the table
from per-row tables in O(1) per move.  ``ascend`` sweeps a stack of rows in
lockstep: the reduced search's restarts, the LA swap climb's starts and the
partition search's (cell, restart) rows, whose tables hold drops in penalty.

All run on ``quantize``'s integer copy of the metric, on which every gain
and every candidate's value is exact whatever the order of its sums.  So a
move gains when its gain is positive, the first largest gain is the same in
any order of summation, and the dense solvers' final pick (``pick``,
``pick_rows``) is a total order on (value, key) with no tolerance: only its
winner is scored on the true metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

# Most table entries one batch of rows may hold: the gain and value tables
# of the reduced searches and the n x n gains of the LA swap climb.  Each
# entry costs a few dozen bytes of temporaries, so a sweep stays within a few
# MB whatever n, the number of parts and the number of rows sweeping
# together are.
BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SolveConfig:
    """One solve's settings.  ``eps`` sets the peeling thresholds and the
    dense solvers' parts; ``grid_mode`` is 'reduced' or 'faithful'; each
    local search runs ``restarts`` seeded restarts of at most moves(n) sweeps."""

    eps: float
    grid_mode: str = "reduced"
    restarts: int = 32

    def __post_init__(self):
        if self.restarts < 0:
            raise InvalidSpec(f"restarts must be >= 0, got {self.restarts}")
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")
        if math.isinf(1.0 / self.eps):  # the dense solvers' round(1 / eps) parts
            raise InvalidSpec(f"eps must have a finite 1/eps, got {self.eps}")
        if self.grid_mode not in ("reduced", "faithful"):
            raise InvalidSpec(f"unknown grid mode {self.grid_mode!r}")


def moves(n: int) -> int:
    """Most sweeps of one restart on n points."""
    return 200 * n


def pick(candidates, value, key, best=None):
    """(candidate, value) of the best of ``best`` and ``candidates``: the
    largest ``value``, and the smallest ``key`` among equal values.  Every
    value is an exact integer of ``quantize``'s metric, so this is a total
    order: the winner depends neither on the order of the candidates nor on
    repeats.  ``best`` is None or a (candidate, value) incumbent, whose value
    is None when it is yet to be scored."""
    if best is not None and best[1] is None:
        best = (best[0], value(best[0]))
    for cand in candidates:
        v = value(cand)
        if best is None or v > best[1] or (v == best[1] and key(cand) < key(best[0])):
            best = (cand, v)
    return best


def pick_rows(rows, values, build, key):
    """``pick`` over the candidates ``build(row)`` of the (C, n) ``rows``,
    given their exact ``values``: only the rows tied at the largest value are
    built, each distinct one once, as a tuple of ints."""
    top = values.max()
    tied = dict.fromkeys(map(tuple, rows[values == top].tolist()))
    return min(map(build, tied), key=key), float(top)


def row_values(rows, entries, value):
    """The values ``value(batch)`` gives each row of ``rows``, from
    ``entries`` table entries per row, in batches of at most
    ``BATCH_ENTRIES // entries`` rows."""
    step = max(1, BATCH_ENTRIES // entries)
    return np.concatenate([value(rows[start:start + step]) for start in range(0, len(rows), step)])


def distinct_rows(rows: np.ndarray):
    """(states, inverse): the distinct rows of an (L, n) array, ordered by
    their bytes, and the index of each row's state among them, so that a
    search steps or scores each state once."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    return rows[first], inverse


def quantize(dist: np.ndarray) -> np.ndarray:
    """The metric that the local searches run on and the dense solvers pick
    on: ``dist`` over its largest entry D, times 2^s, rounded to integers,
    with s = floor(log2(2^53 / (16 n^3))).

    Each entry is then an integer in [0, 2^s], and the weight W of all pairs
    is below n^2 2^s / 2 <= 2^48 / n.  A move's gain is a signed sum of
    products of entries and small integers whose magnitudes sum to at most
    13 n W (see the gain tables of both dense solvers and the LA swap gains);
    every table entry and partial sum is bounded by the same sum, so stays
    below 13 * 2^48 < 2^52.  A candidate's value, a sum of entries times
    slot gaps or leaf counts of at most n, is at most n W < 2^48; the value
    formulas of both dense solvers stay below 2^52 the same way.
    Below 2^53 every product and sum of integers is exact, and so is every
    multiple of 1/2 below 2^52, as HC's halved terms are.  So every gain and
    value is exact, in any order of summation, BLAS's included.  Dividing by D before
    scaling keeps a tiny D from overflowing the scale factor; when D = 0 the
    copy is all zeros.
    """
    s = 49 - (len(dist) ** 3 - 1).bit_length()  # 49 - ceil(log2 n^3)
    q = dist / (dist.max() or 1.0)
    q *= 2.0**s
    return np.rint(q, out=q)


def ascend(rows: np.ndarray, sweeps: int, entries: int, gains, move) -> None:
    """Steepest ascent of each row of ``rows``, in lockstep and in place, for
    at most ``sweeps`` sweeps.  ``gains(batch)`` gives the (L, M) move gains
    of (L, ...) rows from ``entries`` table entries per row, and
    ``move(ids, picks)`` makes move ``picks[i]`` of row ``ids[i]``.  A sweep
    takes the live rows in batches of at most ``BATCH_ENTRIES // entries``,
    picks each row's first move of largest gain and stops a row whose best
    gain is not positive, so a row's moves do not depend on its batch.
    """
    step = max(1, BATCH_ENTRIES // entries)
    live = np.arange(len(rows))
    for _ in range(sweeps):
        if not len(live):
            break
        going = []
        for start in range(0, len(live), step):
            batch = live[start:start + step]
            g = gains(rows[batch])
            picks = g.argmax(axis=1)
            go = g[np.arange(len(batch)), picks] > 0.0
            move(batch[go], picks[go])
            going.append(batch[go])
        live = np.concatenate(going)


def reduced_restarts(n: int, parts: int, seed: int, restarts: int,
                     gains, entries: int) -> np.ndarray:
    """Final assignments of the seeded restarts of the reduced search, one
    (restarts, n) row per restart in seed order.

    ``gains(assigns)`` takes (C, n) assignment rows and gives their
    (C, n * parts) gain tables from ``entries`` table entries per row: cell
    p * parts + b is the gain of moving point p to part b, 0 in p's own part,
    so a stay is never a positive gain and never taken.  The restarts climb
    in lockstep through ``ascend``, for at most ``moves(n)`` sweeps.
    """
    seqs = np.random.SeedSequence(seed).spawn(restarts)
    assigns = np.array([np.random.default_rng(ss).integers(0, parts, size=n) for ss in seqs],
                       dtype=np.int64).reshape(len(seqs), n)

    def move(ids, picks):
        point, part = divmod(picks, parts)
        assigns[ids, point] = part

    ascend(assigns, moves(n), entries, gains, move)
    return assigns
