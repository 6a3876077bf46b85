"""Dense-case linear arrangement solver.

Partitions the points into k = round(1/eps) parts and embeds the parts
consecutively on the line (ascending part id, ascending point id inside each
part).  Two modes: ``faithful`` enumerates a grid of pairwise crossing-weight
targets and asks the bounded-partition search for each cell; ``reduced`` runs
a direct local search over part assignments, taking the exact gain of every
move in O(1) from per-row prefix-cut tables, and then polishes the identity
and every distinct restart arrangement by one swap hill-climb that steps all
of them in lockstep.  Both climb on the integer copy of the metric that
``local_search.quantize`` makes, through ``local_search.ascend``; only the
final pick scores the true metric.  Faithful always also considers the
reduced candidate, so it never scores below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import FaithfulGridTooLarge, InvalidSpec
from .local_search import DenseConfig, ascend, best_of, first_copies, quantize, reduced_restarts
from .metric import Metric, subset_stats
from .objectives import LinearArrangement, evaluate_la
from .partition_search import MAX_GRID_CELLS, grid_cells, grid_partitions


_position = attrgetter("position")  # the tie-break key of arrangements


@dataclass(frozen=True)
class DenseLaConfig(DenseConfig):
    swap_sweeps: int = 40

    def __post_init__(self):
        super().__post_init__()
        if self.swap_sweeps < 0:
            raise InvalidSpec(f"swap_sweeps must be >= 0, got {self.swap_sweeps}")

    @property
    def k(self) -> int:
        return max(2, round(1.0 / self.eps))


def _embed_assignment(assignment) -> LinearArrangement:
    """Parts laid out consecutively: ascending part id, ascending point id."""
    return LinearArrangement.from_order(np.argsort(assignment, kind="stable").tolist())


def _prefix_cut_gains(dist: np.ndarray, k: int):
    """Gain function of the reduced search: the change of the value of the
    consecutive-parts embedding under every move of each assignment row, as
    ``local_search.single_moves`` lists them, in O(1) per move from per-row
    tables of O(n^2) entries.

    The value is the sum of cut(t), the weight across the cut after the
    first t slots.  Moving p from part a to part b takes p out of its slot
    x and puts it in slot y, shifting the points between by one.  With
    P[p, t] p's weight to the first t slots, T[p, t] = sum_{s <= t} P[p, s]
    and deg(p) p's weight to all points, the value changes for x < y by

        cut(y) - cut(x) + 2 (T[p, y] - T[p, x]) - (y - x) deg(p),

    as each cut t in [x, y) becomes cut(t + 1) + 2 P[p, t + 1] - deg(p).
    For y < x, each cut t in [y, x) becomes cut(t - 1) + deg(p) -
    2 P[p, t - 1], the same sum with the sign turned and (y - 1, x - 1)
    for (x, y), over T shifted by one slot.

    With W the weight of all pairs, the magnitudes of these terms sum to at
    most (5n + 8) W <= 13 n W: each cut is at most 4 W (the degrees of its
    left side plus twice the weight inside it), so the two cuts 8 W, the four
    entries of T 4 n W and the slope term n W.
    """
    deg = dist.sum(axis=1)
    return lambda *args: _gain_rows(dist, deg, *args, k)


def _gain_rows(dist, deg, assigns, points, targets, k):
    """``_prefix_cut_gains``'s gains of (C, n) assignment rows."""
    c, n = assigns.shape
    row, ids = np.arange(c)[:, None], np.arange(n)
    onehot = assigns[:, :, None] == np.arange(k)
    sizes = onehot.sum(axis=1)
    before = np.cumsum(sizes, axis=1) - sizes
    below = np.cumsum(onehot, axis=1) - onehot  # lower ids in each part
    slot = before[row, assigns] + below[row, ids, assigns]  # 0-based
    order = np.empty_like(assigns)  # the point in each slot
    order[row, slot] = ids
    prefix = np.zeros((c, n + 1, n))  # P, indexed [row, t, p]
    np.cumsum(dist.take(order, axis=0), axis=1, out=prefix[:, 1:])
    sums = np.cumsum(prefix, axis=1)  # T
    cut = np.zeros((c, n + 1))  # cut(0) = cut(n) = 0
    np.cumsum((deg[order] - 2.0 * prefix[row, ids, order])[:, :-1], axis=1, out=cut[:, 1:n])

    right = assigns[:, points] < targets
    x = slot[:, points] + 1
    y = before[row, targets] + below[row, points, targets] + ~right
    lo, hi = np.where(right, x, y - 1), np.where(right, y, x - 1)
    inner = (sums[row, np.maximum(hi - ~right, 0), points]
             - sums[row, np.maximum(lo - ~right, 0), points])
    change = cut[row, hi] - cut[row, lo] + 2.0 * inner - (hi - lo) * deg[points]
    return np.where(right, change, -change)


def _swap_gains(dist: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """n x n matrices of the LA value change when points i and j trade
    slots, one per row of ``pos`` (positions of shape (n,) or (C, n)).

    With A = |pos_i - pos_j| and S = D A, the gain is
    S_ij + S_ji - S_ii - S_jj + 2 D_ij A_ij.  With W the weight of all
    pairs, each partial sum of S_ij is at most n deg(i) <= n W, so the
    magnitudes of these terms sum to at most 6 n W <= 13 n W.
    """
    gaps = np.abs(pos[..., :, None] - pos[..., None, :])
    s = dist @ gaps
    diag = np.diagonal(s, axis1=-2, axis2=-1)
    # in place, in the order of the formula: this rounds as the one-line form
    gains = s + np.swapaxes(s, -1, -2)
    gains -= diag[..., :, None]
    gains -= diag[..., None, :]
    gaps *= 2.0 * dist
    gains += gaps
    return gains


def _swap_hill_climb(q: np.ndarray, starts, sweeps: int) -> list:
    """Steepest-ascent slot swaps on the quantized metric ``q`` from each
    start arrangement until a local maximum, every start in lockstep through
    ``ascend``, which takes each start's first best swap of the pairs i < j
    in row-major order; a start comes back as itself when no swap gains, so
    that ``best_of`` skips rescoring it."""
    pos = np.array([arr.position for arr in starts], dtype=float)
    n = pos.shape[1]
    upper = np.triu_indices(n, 1)
    flat = upper[0] * n + upper[1]

    def swap(ids, picks):
        i, j = upper[0][picks], upper[1][picks]
        pos[ids, i], pos[ids, j] = pos[ids, j], pos[ids, i]

    ascend(pos, sweeps, n * n,
           lambda rows: _swap_gains(q, rows).reshape(len(rows), n * n)[:, flat], swap)
    # slot swaps of a permutation: each row is one, so no bijection check
    climbed = (LinearArrangement(tuple(row)) for row in pos.astype(int).tolist())
    return [arr if new == arr else new for arr, new in zip(starts, climbed)]


def _solve_reduced(m: Metric, cfg: DenseLaConfig, seed: int):
    n, k = m.n, cfg.k
    identity = LinearArrangement.from_order(range(n))
    # quantizing reads every distance; a zero budget with no climb needs none
    q = quantize(m.dist) if cfg.budget.restarts or cfg.swap_sweeps else None
    restarts = []
    if cfg.budget.restarts:
        restarts = reduced_restarts(n, k, seed, cfg.budget, _prefix_cut_gains(q, k), n * (n + 1))
    # a start's climb does not depend on the other starts: each distinct
    # start climbs once, and each distinct arrangement is scored once
    starts, which = first_copies([identity, *map(_embed_assignment, restarts)], _position)
    climbed = _swap_hill_climb(q, starts, cfg.swap_sweeps)
    arrs, which = first_copies([identity, *(climbed[i] for i in which)], _position)
    values = {id(arr): evaluate_la(m, arr) for arr in arrs}
    return best_of([arrs[i] for i in which], lambda arr: values[id(arr)], _position)


def _solve_faithful(m: Metric, cfg: DenseLaConfig, seed: int, best):
    n, k, eps = m.n, cfg.k, cfg.eps
    # floor(eps * n) points per part, the rest in the last part; as
    # (k - 1) * eps <= 1, the rest is never negative
    base = int(math.floor(eps * n))
    sizes = [base / n] * (k - 1) + [(n - base * (k - 1)) / n]
    pairs = k * (k - 1) // 2
    levels = int(math.floor(1.0 / eps**7 + 1e-9)) + 1  # grid values 0..1/eps^7
    if levels**pairs > MAX_GRID_CELLS:
        raise FaithfulGridTooLarge(
            f"{levels}^{pairs} grid cells exceed the cap {MAX_GRID_CELLS}"
        )
    rho = subset_stats(m, range(n)).density
    # crossing weights cannot sum past the total weight fraction rho
    mu_cells = grid_cells(levels, eps**9, pairs, lambda w: w - pairs * eps**9 <= rho + 1e-12)
    assignments = grid_partitions(m, k, [sizes], mu_cells, eps**9, cfg.budget, seed)
    arrangements = map(_embed_assignment, assignments)
    return best_of(arrangements, lambda arr: evaluate_la(m, arr), _position, best)


def solve_la_dense(
    m: Metric, cfg: DenseLaConfig, seed: int = 0
) -> tuple[LinearArrangement, float]:
    """(arrangement, its value) of the best arrangement found for a dense
    instance: the identity when n < k or when all points coincide
    (:meth:`Metric.coincident`, which reads row 0 before the whole matrix)."""
    n = m.n
    if n < cfg.k or m.coincident():
        identity = LinearArrangement.from_order(range(n))
        return identity, evaluate_la(m, identity)
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best
