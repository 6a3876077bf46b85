"""Bounded-partition search used by both dense-case solvers.

The contract: given per-part size bounds (fractions of n) and per-pair
crossing-weight bounds (fractions of n^2 * D_V), find a k-partition meeting
every bound within an additive slack ``eps_err``.  Small instances are solved
by exhaustive enumeration over all k^n assignments (no false negatives);
larger ones by randomized-restart single-point-move local search over a
penalty function, where a miss only means "not found within budget".
:func:`grid_partitions` asks this of every cell of a faithful grid, refuses
a grid over ``MAX_GRID_CELLS`` and searches each grid once: one enumeration,
or all (cell, restart) rows of a chunk of cells climbing in lockstep.
:func:`search_partition` is the one-cell case.  A hit is an assignment
tuple, the part of each point.

Every decision runs on ``local_search.quantize``'s integer copy of the
metric, on which D_V is 2^s.  :func:`_integer_cells` puts each bound once on
the scale n^2 2^s, where a part of c points counts c n 2^s, so that every
statistic, bound and penalty of up to 14 parts is an integer below 2^53.
Every cell test and move pick is then an exact comparison in any order of
summation, BLAS's included, and a row at penalty 0 is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import FaithfulGridTooLarge, InvalidSpec, SpecInfeasibleTrivially
from .local_search import BATCH_ENTRIES, SolveConfig, ascend, moves, quantize
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


def _bounds(spec: PartitionSpec):
    """(slb, sub, wlb, wub): the spec's size and weight lower and upper
    bounds as the (1, k) and (1, k * k) arrays of one cell, weights row-major."""
    k = spec.k
    sb, wb = np.reshape(spec.size_bounds, (1, k, 2)), np.reshape(spec.weight_bounds, (1, k * k, 2))
    return sb[..., 0], sb[..., 1], wb[..., 0], wb[..., 1]


def _integer_cells(m: Metric, eps_err: float, *bounds):
    """(q, unit, cells): ``quantize``'s copy of the distances, the value n 2^s
    of a point of a part (2^s read as 1 when D_V = 0), and ``bounds`` = (slb,
    sub, wlb, wub), (L, k) size and (U, k * k) weight cells, as integers on
    the scale n^2 2^s: widened by eps_err + 1e-12, rounded inward exactly, so
    an integer meets a bound within the slack exactly when it meets the
    result, and clipped to [0, scale + 1], which no statistic leaves."""
    q = quantize(m.dist)
    unit = m.n * (q.max() or 1.0)
    whole = m.n * int(unit)
    sp, sq = (Fraction(eps_err) + Fraction(1e-12)).as_integer_ratio()

    def on_scale(b, sign):  # sign -1 for a lower bound, +1 for an upper one
        if b == _INF:
            return whole + 1
        p, d = b.as_integer_ratio()
        num = (p * sq + sign * sp * d) * whole
        return min(max(sign * (sign * num // (d * sq)), 0), whole + 1)  # floor or ceiling

    cells = []
    for values, sign in zip(bounds, (-1, 1, -1, 1)):
        distinct, inverse = np.unique(values, return_inverse=True)
        put = np.array([on_scale(b, sign) for b in distinct.tolist()], dtype=float)
        cells.append(put[inverse].reshape(np.shape(values)))
    return q, unit, tuple(cells)


def _stats(q: np.ndarray, assigns: np.ndarray, k: int):
    """Part sizes (L, k), crossing matrices (L, k, k) and point-to-part
    weights (L, n, k) of (L, n) assignment rows on the integer metric ``q``:
    exact sums of integers times 0 or 1, in any order of summation."""
    onehot = np.eye(k)[assigns]
    part_dist = q @ onehot
    cross = onehot.transpose(0, 2, 1) @ part_dist
    cross[:, range(k), range(k)] /= 2.0
    return onehot.sum(axis=1), cross, part_dist


def _penalty(unit: float, cell, sizes, weights, inverse):
    """Summed amounts by which the part sizes of state ``inverse[r]``, c
    points counting c * ``unit``, and its crossing weights leave row r's
    bounds ``cell`` = (lo, hi, wlo, whi): 0 exactly when it meets them all."""
    lo, hi, wlo, whi = cell
    sizes, weights = sizes * unit, weights[inverse]
    return ((np.maximum(lo - sizes, 0.0) + np.maximum(sizes - hi, 0.0)).sum(axis=-1)[inverse]
            + (np.maximum(wlo - weights, 0.0) + np.maximum(weights - whi, 0.0)).sum(axis=-1))


def enumerate_assignments(q: np.ndarray, k: int):
    """All k^n assignments of the n points of the integer metric ``q``
    (``quantize``'s copy) with their part sizes and crossing matrices, the
    input of the exhaustive regime, built by ``_stats`` in chunks of at most
    ``BATCH_ENTRIES`` one-hot entries, two BLAS products each.  The (A, k)
    sizes and (A, k, k) crossing matrices are views of (k, A) and (k, k, A)
    planes, each entry's values contiguous."""
    n = len(q)
    digits = np.indices((k,) * n, dtype=np.int8).reshape(n, -1).T  # lexicographic rows
    sizes = np.empty((k, len(digits))).T
    cross = np.empty((k, k, len(digits))).transpose(2, 0, 1)
    step = max(1, BATCH_ENTRIES // (n * k))
    for lo in range(0, len(digits), step):
        sizes[lo : lo + step], cross[lo : lo + step], _ = _stats(q, digits[lo : lo + step], k)
    return digits, sizes, cross


def search_partition(m: Metric, spec: PartitionSpec, eps_err: float,
                     restarts: int = SolveConfig.restarts, seed: int = 0) -> Optional[tuple]:
    """The assignment tuple, each point's part, of a partition meeting
    ``spec`` within additive slack ``eps_err``: the one-cell grid's hit.

    Returns None when nothing is found; in the exhaustive regime that means
    no feasible partition exists, otherwise only that ``restarts`` seeded
    restarts found none.
    """
    if not eps_err >= 0:  # NaN fails too
        raise InvalidSpec(f"eps_err must be nonnegative, got {eps_err}")
    if restarts < 0:
        raise InvalidSpec(f"restarts must be >= 0, got {restarts}")
    n, k = m.n, spec.k
    if k > n:
        raise InvalidSpec(f"k={k} exceeds n={n}")
    slb, sub, _, _ = bounds = _bounds(spec)
    # each part gets eps_err of slack, so only a k * eps_err gap in the size
    # sums rules out every assignment outright
    slack = k * eps_err + 1e-12
    if slb.sum() > 1.0 + slack or sub.sum() < 1.0 - slack:
        raise SpecInfeasibleTrivially(
            f"size fractions cannot sum to 1: lb={slb.sum():g}, ub={sub.sum():g}"
        )
    return next(_search_cells(m, bounds, eps_err, restarts, seed))


def exhaustive(n: int, k: int) -> bool:
    """Whether a k-part search on n points enumerates all k^n assignments."""
    return n <= EXHAUSTIVE_N and k**n <= EXHAUSTIVE_ASSIGNMENTS


def _search_cells(m, bounds, eps_err, restarts, seed):
    """Each cell's hit, an assignment tuple or None, size cell outer: ``bounds``
    is (slb, sub, wlb, wub), fractions of (L, k) size and (U, k * k) weight cells."""
    q, unit, cells = _integer_cells(m, eps_err, *bounds)
    if exhaustive(m.n, cells[0].shape[1]):
        return _exhaustive_hits(q, unit, cells)
    return _local_hits(q, unit, cells, bounds[0], restarts, seed)


def _exhaustive_hits(q, unit, cells):
    """Each cell's lexicographically smallest hit: each size cell and each
    weight cell is tested once against the grid's one enumeration, one part
    or matrix entry at a time on its contiguous plane of all assignments;
    a chunk of weight cells is tested as a (cells, assignments) plane, and
    an entry whose bounds in the chunk admit its plane's least and largest
    value is skipped."""
    lo, hi, wlo, whi = cells
    digits, sizes, cross = enumerate_assignments(q, lo.shape[1])
    sizes *= unit  # in place: the k^n statistics are held once
    sizes, planes = sizes.T, cross.transpose(1, 2, 0).reshape(wlo.shape[1], -1)  # (k, A), (k k, A)
    least, largest = planes.min(axis=1), planes.max(axis=1)
    fits = []
    for cell_lo, cell_hi in zip(lo, hi):
        fit = np.ones(len(digits), dtype=bool)
        for plane, a, b in zip(sizes, cell_lo, cell_hi):
            fit &= plane >= a
            fit &= plane <= b
        fits.append(np.flatnonzero(fit))
    first = np.full((len(lo), len(wlo)), -1, dtype=np.int32)  # -1: no hit
    chunk = max(1, BATCH_ENTRIES // len(digits))  # weight cells per BATCH_ENTRIES tests
    for u in range(0, len(wlo), chunk):
        a, b = wlo[u : u + chunk], whi[u : u + chunk]
        ok = np.ones((len(a), len(digits)), dtype=bool)
        for e, plane in enumerate(planes):
            if not (a[:, e] <= least[e]).all():
                ok &= plane >= a[:, e, None]
            if not (b[:, e] >= largest[e]).all():
                ok &= plane <= b[:, e, None]
        for row, fit in zip(first, fits):
            if len(fit):
                hit = ok[:, fit]
                row[u : u + chunk] = np.where(hit.any(axis=1), fit[hit.argmax(axis=1)], -1)
    for i in first.ravel():
        yield None if i < 0 else tuple(digits[i].tolist())


def _local_hits(q, unit, cells, slb, restarts, seed):
    """Each cell's lexicographically smallest restart result at penalty 0.

    Each size cell's ``restarts`` starts, from its ``_greedy_seed``,
    are shared by its weight cells.  Chunks of whole weight cells climb all
    their (cell, restart) rows in lockstep through ``ascend`` on ``_drops``'
    tables, as many cells as keep a sweep's moved crossing weights within
    ``BATCH_ENTRIES`` entries.  A matrix entry whose bounds admit every
    weight in every cell adds 0 to every penalty and is left out."""
    lo, hi, wlo, whi = cells
    n, k = q.shape[0], lo.shape[1]
    active = ((wlo > 0.0) | (whi < n * unit)).any(axis=0)  # every weight is below n * unit
    wlo, whi = wlo[:, active], whi[:, active]
    seqs = np.random.SeedSequence(seed).spawn(restarts)
    starts = len(seqs)
    entries = n * k * max(1, active.sum())  # a row's moved crossing weights
    chunk = max(1, BATCH_ENTRIES // (entries * max(1, starts)))
    for size_lo, size_hi, fracs in zip(lo, hi, slb):
        start = np.array([_greedy_seed(np.random.default_rng(ss), n, k, fracs) for ss in seqs],
                         dtype=np.min_scalar_type(k)).reshape(starts, n)
        for u in range(0, len(wlo), chunk):
            cell_lo, cell_hi = wlo[u : u + chunk], whi[u : u + chunk]
            assign = np.tile(start, (len(cell_lo), 1))  # rows cell by cell, each in seed order
            row_lo, row_hi = (np.repeat(w, starts, axis=0) for w in (cell_lo, cell_hi))

            def drops(ids):
                cell = size_lo, size_hi, row_lo[ids, None, None], row_hi[ids, None, None]
                return _drops(q, unit, cell, assign[ids], active)

            def move(ids, picks):
                point, part = divmod(picks, k)
                assign[ids, point] = part

            ascend(np.arange(len(assign)), moves(n), entries, drops, move)
            states, inverse = _distinct(assign)
            sizes, cross, _ = _stats(q, states, k)
            weights = cross.reshape(len(states), k * k)[:, active]
            done = _penalty(unit, (size_lo, size_hi, row_lo, row_hi), sizes, weights, inverse) == 0
            for rows, ok in zip(assign.reshape(len(cell_lo), starts, n),
                                done.reshape(len(cell_lo), starts)):
                yield min(map(tuple, rows[ok].tolist()), default=None)


def _drops(q, unit, cell, rows, active):
    """(R, n * k) drops in ``_penalty`` of the moves of (R, n) assignment
    rows against ``cell``, its weight bounds (R, 1, 1, A) over the ``active``
    entries of the row-major k * k matrices: cell p * k + b for "point p to
    part b", written 0 in p's own part.  The moved states of each distinct
    row are built once."""
    n, k = rows.shape[1], len(cell[0])
    states, inverse = _distinct(rows)
    sizes, cross, part_dist = _stats(q, states, k)
    i, j = np.divmod(np.flatnonzero(active), k)
    delta = np.eye(k) - np.eye(k)[states][:, :, None]  # [h, p, b, j]: change of part j's size
    near = part_dist[:, :, None]  # [h, p, 0, j]: W(p, part j)
    moved = delta[..., i] * near[..., j] + near[..., i] * delta[..., j]
    moved[..., i == j] /= 2.0  # the diagonal counts each intra-part pair once
    weights = cross.reshape(len(states), k * k)[:, active]
    moved += weights[:, None, None]
    now = _penalty(unit, cell, sizes[:, None, None], weights[:, None, None], inverse)
    drop = now - _penalty(unit, cell, sizes[:, None, None] + delta, moved, inverse)
    drop = drop.reshape(len(rows), n * k)
    drop[np.arange(len(rows))[:, None], np.arange(n) * k + rows] = 0.0  # stays
    return drop


def _distinct(rows):
    """(states, inverse): the distinct rows of an (L, n) array, and the
    index of each row's state among them."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    return rows[first], inverse


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
                    restarts: int, seed: int):
    """Yield each new assignment the bounded-partition search finds for a grid
    cell: the part-size fractions of each row of ``size_cells()`` (outer
    loop) times crossing weights of the pairs a < b, row-major, from
    ``grid_cells(levels, eps_err, pairs, ...)`` (inner loop).  Each cell asks
    for its sizes and crossing weights exactly, within ``eps_err``, and
    bounds no intra-part weight.

    Before any search, a grid of more than ``MAX_GRID_CELLS`` weight cells is
    refused without calling ``size_cells``; weight cells whose sum less the
    slack exceeds the density rho are pruned, as crossing weights cannot sum
    past it; and a grid of more than ``MAX_GRID_CELLS`` size times kept
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
    pair, mirror = a * parts + b, b * parts + a  # row-major entries of the k x k matrix
    wlb, wub = np.zeros((len(mu), parts * parts)), np.full((len(mu), parts * parts), _INF)
    wlb[:, pair] = wlb[:, mirror] = wub[:, pair] = wub[:, mirror] = mu
    seen = set()
    for hit in _search_cells(m, (sizes, sizes, wlb, wub), eps_err, restarts, seed):
        if hit is not None and hit not in seen:
            seen.add(hit)
            yield hit
