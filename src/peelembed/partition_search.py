"""Bounded-partition search used by both dense-case solvers.

The contract: given per-part size bounds (fractions of n) and per-pair
crossing-weight bounds (fractions of n^2 * D_V), find a k-partition meeting
every bound within an additive slack ``eps_err``.  Small instances are solved
by exhaustive enumeration over all k^n assignments (no false negatives);
larger ones by randomized-restart single-point-move local search over a
penalty function, where a miss only means "not found within budget".  The
faithful grids of both dense solvers ask this of every cell of a grid:
:func:`grid_partitions` builds a grid's crossing-weight cells, refuses a grid
over ``MAX_GRID_CELLS`` and searches each grid once: one enumeration per
grid, or every (cell, restart) row of a chunk of cells sweeping in lockstep.
:func:`search_partition` is the one-cell case.

A grid's work is done once and in long NumPy loops.  :func:`grid_cells`
builds a grid as one array.  The enumeration holds each part's sizes and
each crossing-matrix entry of all assignments as one contiguous plane, and
every cell test runs on these planes.  A local-regime sweep scores the moves
of each distinct row state once: rows of one start that have made the same
moves hold bit-identical states, whatever their cells, and only the weight
terms of their penalties are taken row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FaithfulGridTooLarge, InvalidSpec, SpecInfeasibleTrivially
from .local_search import BATCH_ENTRIES, SearchBudget
from .metric import Metric, subset_stats

_INF = math.inf

# Most cells a faithful grid may enumerate before it is refused.
MAX_GRID_CELLS = 2_000_000

# Largest n and k^n at which a k-part partition search enumerates every assignment.
EXHAUSTIVE_N = 12
EXHAUSTIVE_ASSIGNMENTS = 200_000


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


@dataclass(frozen=True)
class Partition:
    assignment: tuple
    part_sizes: tuple
    crossing_weights: tuple  # k x k, symmetric; diagonal = intra-part weight

    @property
    def k(self) -> int:
        return len(self.part_sizes)


def _norm(m: Metric) -> float:
    """The weight normaliser n^2 * D_V, 1 when D_V = 0."""
    return m.n * m.n * m.diameter() or 1.0


def _bounds(m: Metric, spec: PartitionSpec):
    """(norm, slb, sub, wlb, wub): ``_norm(m)`` and the spec's size and
    weight lower and upper bound arrays."""
    k = spec.k
    sb, wb = np.reshape(spec.size_bounds, (k, 2)), np.reshape(spec.weight_bounds, (k, k, 2))
    return _norm(m), sb[:, 0], sb[:, 1], wb[..., 0], wb[..., 1]


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
    return Partition(assignment=assign, part_sizes=sizes,
                     crossing_weights=tuple(tuple(float(x) for x in row) for row in cross))


def partition_feasible(m: Metric, spec: PartitionSpec, eps_err: float,
                       assignment: Sequence[int]) -> bool:
    """Exact feasibility recomputation; the only check trusted before returning."""
    return _feasible(m, _bounds(m, spec), eps_err, assignment)


def _feasible(m: Metric, bounds, eps_err: float, assignment: Sequence[int]) -> bool:
    """``partition_feasible`` against ``_bounds(m, spec)``."""
    norm, slb, sub, wlb, wub = bounds
    sizes = np.bincount(np.asarray(assignment, dtype=int), minlength=len(slb)) / m.n
    if (sizes < slb - eps_err - 1e-12).any() or (sizes > sub + eps_err + 1e-12).any():
        return False
    cross = crossing_matrix(m, assignment, len(slb)) / norm
    return not ((cross < wlb - eps_err - 1e-12).any() or (cross > wub + eps_err + 1e-12).any())


def enumerate_assignments(m: Metric, k: int):
    """All k^n assignments with their size and weight statistics, the input of
    the exhaustive regime.  The statistics are built in chunks of at most
    ``BATCH_ENTRIES`` one-hot entries; each einsum sums an entry's products
    in one C loop, so a chunk gives the bits of the whole.  The (A, k) sizes
    and (A, k, k) crossing matrices are views of (k, A) and (k, k, A)
    planes, each entry's values of all assignments contiguous."""
    digits = np.indices((k,) * m.n, dtype=np.int8).reshape(m.n, -1).T  # lexicographic rows
    sizes = np.empty((k, len(digits))).T
    cross = np.empty((k, k, len(digits))).transpose(2, 0, 1)
    step = max(1, BATCH_ENTRIES // (m.n * k))
    for lo in range(0, len(digits), step):
        onehot = np.eye(k)[digits[lo : lo + step]]  # (A, n, k)
        sizes[lo : lo + step] = onehot.sum(axis=1)
        inner = np.einsum("nm,amk->ank", m.dist, onehot)
        cross[lo : lo + step] = np.einsum("ank,anj->akj", onehot, inner)
    idx = np.arange(k)
    cross[:, idx, idx] /= 2.0
    return digits, sizes, cross


def search_partition(m: Metric, spec: PartitionSpec, eps_err: float,
                     budget: Optional[SearchBudget] = None, seed: int = 0) -> Optional[Partition]:
    """Find a partition meeting ``spec`` within additive slack ``eps_err``.

    Returns None when nothing is found; in the exhaustive regime that means
    no feasible partition exists, otherwise only that the budget ran out.
    """
    if not eps_err >= 0:  # NaN fails too
        raise InvalidSpec(f"eps_err must be nonnegative, got {eps_err}")
    n, k = m.n, spec.k
    if k > n:
        raise InvalidSpec(f"k={k} exceeds n={n}")
    bounds = norm, slb, sub, wlb, wub = _bounds(m, spec)
    # each part gets eps_err of slack, so only a k * eps_err gap in the size
    # sums rules out every assignment outright
    slack = k * eps_err + 1e-12
    if slb.sum() > 1.0 + slack or sub.sum() < 1.0 - slack:
        raise SpecInfeasibleTrivially(
            f"size fractions cannot sum to 1: lb={slb.sum():g}, ub={sub.sum():g}"
        )
    cell = (norm, slb[None], sub[None], wlb[None], wub[None])
    assignment = next(_search_cells(m, cell, eps_err, budget or SearchBudget(), seed))
    if assignment is None:
        return None
    assert _feasible(m, bounds, eps_err, assignment)
    return make_partition(m, assignment, k)


def exhaustive(n: int, k: int) -> bool:
    """Whether a k-part search on n points enumerates all k^n assignments."""
    return n <= EXHAUSTIVE_N and k**n <= EXHAUSTIVE_ASSIGNMENTS


def _search_cells(m, bounds, eps_err, budget, seed):
    """Each cell's hit, an assignment tuple or None, size cell outer: ``bounds``
    is ``_bounds``'s tuple stacked over L size cells (L, k) and U weight cells (U, k, k)."""
    if exhaustive(m.n, bounds[1].shape[1]):
        return _exhaustive_hits(m, bounds, eps_err)
    return _local_hits(m, bounds, eps_err, budget, seed)


def _exhaustive_hits(m, bounds, eps_err):
    """Each cell's lexicographically smallest hit: each size cell and each
    weight cell is tested once against the grid's one enumeration.

    Each test runs on the contiguous planes of ``enumerate_assignments``,
    one part's sizes or one matrix entry's weights of all assignments, so
    that NumPy's inner loops run over the assignments.  A size cell is
    tested one part at a time.  A chunk of weight cells is tested one matrix
    entry at a time, each test a (cells, assignments) plane; an entry whose
    bounds in the chunk admit its plane's least and largest value passes
    every test and is skipped."""
    norm, slb, sub, wlb, wub = bounds
    k = slb.shape[1]
    digits, sizes, cross = enumerate_assignments(m, k)
    sizes /= m.n  # in place: the k^n statistics are held once
    cross /= norm
    sizes, planes = sizes.T, cross.transpose(1, 2, 0)  # (k, A) and (k, k, A)
    least, largest = planes.min(axis=2), planes.max(axis=2)
    fits = []
    for lo, hi in zip(slb - eps_err - 1e-12, sub + eps_err + 1e-12):
        fit = np.ones(len(digits), dtype=bool)
        for plane, a, b in zip(sizes, lo, hi):
            fit &= plane >= a
            fit &= plane <= b
        fits.append(np.flatnonzero(fit))
    first = np.full((len(slb), len(wlb)), -1, dtype=np.int32)  # -1: no hit
    chunk = max(1, BATCH_ENTRIES // len(digits))  # weight cells per BATCH_ENTRIES tests
    for u in range(0, len(wlb), chunk):
        lo, hi = wlb[u : u + chunk] - eps_err - 1e-12, wub[u : u + chunk] + eps_err + 1e-12
        ok = np.ones((len(lo), len(digits)), dtype=bool)
        for i, j in np.ndindex(k, k):
            if not (lo[:, i, j] <= least[i, j]).all():
                ok &= planes[i, j] >= lo[:, i, j, None]
            if not (hi[:, i, j] >= largest[i, j]).all():
                ok &= planes[i, j] <= hi[:, i, j, None]
        for cells, fit in zip(first, fits):
            if len(fit):
                hit = ok[:, fit]
                cells[u : u + chunk] = np.where(hit.any(axis=1), fit[hit.argmax(axis=1)], -1)
    for i in first.ravel():
        yield None if i < 0 else tuple(digits[i].tolist())


def _local_hits(m, bounds, eps_err, budget, seed):
    """Each cell's lexicographically smallest feasible restart result.

    A restart starts from ``_greedy_seed`` of its size cell, so each size
    cell has ``budget.restarts`` starts, shared by its weight cells.  Chunks
    of whole weight cells sweep all their (cell, restart) rows in lockstep,
    as many cells as keep a sweep's moved crossing matrices within
    ``BATCH_ENTRIES`` entries.  A sweep moves each row still above penalty 0
    to its lowest-penalty single-point move, the earliest within 1e-15, and
    stops a row that this would not lower by more than 1e-15.

    Rows that start alike and have made the same moves hold bit-identical
    assignments, sizes, crossing matrices and point-to-part weights, whatever
    their cells: each row keeps a group id, one per start when a chunk
    begins and one per (group, move) after each sweep, and a sweep lists
    and sizes the moves of each group once.  Only the weight terms of the
    penalty, which read a row's own cell, are taken row by row.
    """
    norm, slb, sub, wlb, wub = bounds
    n, k = m.n, slb.shape[1]
    slack = max(eps_err, 1e-12)
    seqs = np.random.SeedSequence(seed).spawn(budget.restarts)
    starts = len(seqs)
    sweeps = budget.moves(n) if k > 1 else 0  # one part allows no move
    chunk = max(1, BATCH_ENTRIES // max(1, starts * n * max(1, k - 1) * k * k))

    def penalty(sizes, cross, lo, hi, group, wlo, whi):
        """(L, C) penalties of L rows, row r with the (C, k) part sizes and
        (C, k, k) crossing matrices ``sizes[group[r]]`` and
        ``cross[group[r]]`` and the (1, k, k) weight bounds of its cell."""
        sfrac, wfrac = sizes / n, (cross / norm)[group]
        v = np.maximum(0.0, lo - eps_err - sfrac) + np.maximum(0.0, sfrac - hi - eps_err)
        w = np.maximum(0.0, wlo - eps_err - wfrac) + np.maximum(0.0, wfrac - whi - eps_err)
        return (v.sum(axis=-1)[group] + w.reshape(*w.shape[:-2], k * k).sum(axis=-1)) / slack

    for lo, hi in zip(slb, sub):
        start = np.array([_greedy_seed(np.random.default_rng(ss), n, k, lo) for ss in seqs],
                         dtype=int).reshape(starts, n)
        onehot = np.eye(k)[start]
        state = (start, onehot.sum(axis=1),
                 np.array([crossing_matrix(m, row, k) for row in start]).reshape(starts, k, k),
                 np.array([m.dist @ row for row in onehot]).reshape(starts, n, k))
        for u in range(0, len(wlb), chunk):
            cells = len(wlb[u : u + chunk])
            # rows cell by cell, each cell's in seed order; part_dist[r, p, j] = W(p, part j)
            assign, sizes, cross, part_dist = (np.concatenate([x] * cells) for x in state)
            group = np.tile(np.arange(starts), cells)
            wlo, whi = (np.repeat(w[u : u + chunk], starts, axis=0)[:, None] for w in (wlb, wub))
            pen = penalty(state[1][:, None], state[2][:, None], lo, hi, group, wlo, whi)[:, 0]
            live = np.arange(len(assign))
            for _ in range(sweeps):
                live = live[pen[live] > 0.0]
                if not len(live):
                    break
                heads, inverse = np.unique(group[live], return_index=True, return_inverse=True)[1:]
                heads = live[heads]
                points, targets, sz, cr = _moved_states(assign[heads], sizes[heads], cross[heads],
                                                        part_dist[heads])
                cands = penalty(sz, cr, lo, hi, inverse, wlo[live], whi[live])
                picks = scan_argmax(-cands, 1e-15)  # the lowest, earliest on near-ties
                best = cands[np.arange(len(live)), picks]
                go = best < pen[live] - 1e-15
                live, inverse, picks = live[go], inverse[go], picks[go]
                p, b = points[picks], targets[inverse, picks]
                moved = m.dist[:, p].T
                part_dist[live, :, assign[live, p]] -= moved
                part_dist[live, :, b] += moved
                assign[live, p] = b
                sizes[live], cross[live] = sz[inverse, picks], cr[inverse, picks]
                pen[live], group[live] = best[go], inverse * len(points) + picks
            for c in range(cells):
                own = slice(c * starts, (c + 1) * starts)
                done = assign[own][pen[own] <= 0.0].tolist()
                cell = (norm, lo, hi, wlb[u + c], wub[u + c])
                yield next((hit for hit in sorted(map(tuple, done))
                            if _feasible(m, cell, eps_err, hit)), None)


def _moved_states(assign, sizes, cross, part_dist):
    """Points, targets, (L, C, k) part sizes and (L, C, k, k) crossing
    matrices of every single-point move of each of L rows, in scan order;
    ``part_dist[r, p, j]`` = W(p, part j) in row r.  Scan order is ascending
    p, then ascending target, skipping p's own part: on these float sums a
    move from a to a is not an exact no-op, so it is not listed."""
    n, k = assign.shape[1], sizes.shape[1]
    points = np.repeat(np.arange(n), k - 1)
    offset = np.tile(np.arange(k - 1), n)
    targets = offset + (offset >= assign[:, points])
    rows, cols = np.arange(len(assign))[:, None], np.arange(len(points))
    a, b = assign[:, points], targets
    moved = part_dist[:, points]
    sz = np.repeat(sizes[:, None], len(points), axis=1)
    sz[rows, cols, a] -= 1
    sz[rows, cols, b] += 1
    cr = np.repeat(cross[:, None], len(points), axis=1)
    cr[rows, cols, a, :] -= moved
    cr[rows, cols, :, a] -= moved
    cr[rows, cols, b, :] += moved
    cr[rows, cols, :, b] += moved
    cr[rows, cols, a, a] += moved[rows, cols, a]
    cr[rows, cols, b, b] -= moved[rows, cols, b]
    return points, targets, sz, cr


def scan_argmax(gains, tol: float):
    """Index kept by a left-to-right scan of each row of ``gains`` that
    replaces its incumbent only on ``gain > incumbent + tol`` (the row's first
    entry starts as incumbent): an int for one (M,) row, an (L,) array for
    (L, M) rows.  The local regime's sweep picks its moves with it.

    Most rows need no scan: when every entry ahead of a row's first largest
    entry is below it by more than tol (``ahead + tol < top``, rounded as the
    scan rounds it), the scan reaches that entry with a smaller incumbent,
    takes it, and no later entry can beat it.  Only the other rows, whose
    top is near-tied with an earlier entry, are scanned entry by entry.
    """
    g = np.atleast_2d(np.asarray(gains, dtype=float))
    picks = g.argmax(axis=1)
    ahead = np.where(np.arange(g.shape[1]) < picks[:, None], g, -np.inf).max(axis=1)
    for r in np.flatnonzero(~(ahead + tol < g.max(axis=1))):
        row, kept = g[r].tolist(), 0
        for c, gain in enumerate(row):
            if gain > row[kept] + tol:
                kept = c
        picks[r] = kept
    return int(picks[0]) if np.ndim(gains) == 1 else picks


def _greedy_seed(rng, n, k, slb):
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


def grid_cells(levels: int, step: float, count: int, keep) -> np.ndarray:
    """Faithful-grid cells: the (C, count) rows [i_1 * step, ..., i_count * step]
    with 0 <= i < levels, in lexicographic order, whose sums ``keep`` accepts;
    ``keep`` maps an array of sums to a mask.  Each sum adds its row's values
    left to right."""
    values = np.indices((levels,) * count).reshape(count, -1).T * step
    total = np.zeros(len(values))
    for column in values.T:
        total += column
    return values[keep(total)]


def grid_partitions(m, parts: int, size_cells, levels: int, eps_err: float,
                    budget: SearchBudget, seed: int):
    """Yield each new assignment the bounded-partition search finds for a grid
    cell: the part-size fractions of each row of ``size_cells()`` (outer
    loop) times crossing weights of the pairs a < b, row-major, from
    ``grid_cells(levels, eps_err, pairs, ...)`` (inner loop).  Each cell asks
    for its sizes and crossing weights exactly, within ``eps_err``, and
    bounds no intra-part weight.

    Before any search, a grid of more than ``MAX_GRID_CELLS`` weight cells is
    refused without calling ``size_cells``, so that no size grid is built
    for it; weight cells whose sum less the slack exceeds the density rho
    are pruned, as crossing weights cannot sum past the total weight
    fraction; and a grid of more than ``MAX_GRID_CELLS`` size times kept
    weight cells is refused.
    """
    pairs = parts * (parts - 1) // 2
    if levels**pairs > MAX_GRID_CELLS:
        raise FaithfulGridTooLarge(f"{levels}^{pairs} grid cells exceed the cap {MAX_GRID_CELLS}")
    rho = subset_stats(m, range(m.n)).density
    mu = grid_cells(levels, eps_err, pairs, lambda w: w - pairs * eps_err <= rho + 1e-12)
    sizes = np.array(size_cells(), dtype=float).reshape(-1, parts)
    if len(sizes) * len(mu) > MAX_GRID_CELLS:
        raise FaithfulGridTooLarge(
            f"{len(sizes)} * {len(mu)} grid cells exceed the cap {MAX_GRID_CELLS}")
    a, b = np.triu_indices(parts, 1)
    wlb, wub = np.zeros((len(mu), parts, parts)), np.full((len(mu), parts, parts), _INF)
    wlb[:, a, b] = wlb[:, b, a] = wub[:, a, b] = wub[:, b, a] = mu
    seen = set()
    for hit in _search_cells(m, (_norm(m), sizes, sizes, wlb, wub), eps_err, budget, seed):
        if hit is not None and hit not in seen:
            seen.add(hit)
            yield hit
