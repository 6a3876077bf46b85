"""Batched single-point-move sweeps shared by the dense solvers.

A sweep of the reduced local search looks at every move "point p to part b"
in a fixed order (ascending p, then ascending b, skipping p's own part) and
keeps the first move that no later move beats by more than ``TIE_TOL``.  The
solvers score a whole sweep at once: ``score_moves`` evaluates every moved
assignment in bounded batches and ``scan_argmax`` returns the index that the
sequential scan would have kept.
"""

from __future__ import annotations

import numpy as np

# A candidate replaces the incumbent only when it is better by more than this.
TIE_TOL = 1e-12

# Most n x n entries one batch of candidates may hold.  Each entry costs a few
# dozen bytes of temporaries, so a sweep stays within tens of MB whatever n
# and the number of parts are.
BATCH_ENTRIES = 1 << 19


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
