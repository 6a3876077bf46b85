"""Dense-case linear arrangement solver.

Partitions the points into k = round(1/eps) parts and embeds the parts
consecutively on the line (ascending part id, ascending point id inside each
part).  Two modes: ``faithful`` enumerates a grid of pairwise crossing-weight
targets and asks the bounded-partition search for each cell; ``reduced`` runs
a direct local search over part assignments.  Faithful always also considers
the reduced candidate, so it never scores below it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import FaithfulGridTooLarge
from .local_search import (TIE_TOL, DenseConfig, best_of, reduced_restarts, scan_argmax,
                           sizes_and_ranks)
from .metric import Metric, subset_stats
from .objectives import LinearArrangement, evaluate_la
from .partition_search import MAX_GRID_CELLS, grid_cells, grid_partitions


_position = attrgetter("position")  # the tie-break key of arrangements


@dataclass(frozen=True)
class DenseLaConfig(DenseConfig):
    swap_sweeps: int = 40

    @property
    def k(self) -> int:
        return max(2, round(1.0 / self.eps))


def _embed_assignment(assignment) -> LinearArrangement:
    """Parts laid out consecutively: ascending part id, ascending point id."""
    n = len(assignment)
    order = sorted(range(n), key=lambda v: (assignment[v], v))
    return LinearArrangement.from_order(order)


def _arrangement_values(dist: np.ndarray, assigns: np.ndarray, k: int) -> np.ndarray:
    """``evaluate_la`` of the consecutive-parts embedding of each assignment row.

    Point i sits at slot (points in lower parts) + (rank of i by id in its
    part) + 1; the pair sum is taken exactly as ``evaluate_la`` takes it.
    """
    c, n = assigns.shape
    sizes, rank = sizes_and_ranks(assigns, k)
    before = np.cumsum(sizes, axis=1) - sizes
    pos = (np.take_along_axis(before, assigns, 1) + rank + 1).astype(float)
    # in place: at n ~ 100 a fresh (c, n, n) temporary per step costs more than
    # the step itself
    gaps = pos[:, :, None] - pos[:, None, :]
    np.abs(gaps, out=gaps)
    gaps *= dist
    return gaps.reshape(c, n * n).sum(axis=1) / 2.0


def _swap_gains(dist: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """n x n matrix of the LA value change when points i and j trade slots.

    With A = |pos_i - pos_j| and S = D A, the gain is
    S_ij + S_ji - S_ii - S_jj + 2 D_ij A_ij.
    """
    gaps = np.abs(pos[:, None] - pos[None, :])
    s = dist @ gaps
    diag = np.diag(s)
    return s + s.T - diag[:, None] - diag[None, :] + 2.0 * dist * gaps


def _swap_hill_climb(m: Metric, arr: LinearArrangement, sweeps: int) -> LinearArrangement:
    """Steepest-descent slot swaps until a local maximum (deterministic);
    ``arr`` itself when no swap gains, so that ``best_of`` skips rescoring it.

    Each sweep scans the pairs i < j row-major for the best swap.
    """
    pos = np.array(arr.position, dtype=float)
    upper = np.triu_indices(m.n, 1)
    for _ in range(sweeps):
        gains = _swap_gains(m.dist, pos)[upper]
        pick = scan_argmax(gains)
        if gains[pick] <= TIE_TOL:
            break
        i, j = upper[0][pick], upper[1][pick]
        pos[i], pos[j] = pos[j], pos[i]
    climbed = LinearArrangement.from_positions(int(p) for p in pos)
    return arr if climbed == arr else climbed


def _solve_reduced(m: Metric, cfg: DenseLaConfig, seed: int):
    n, k = m.n, cfg.k
    identity = LinearArrangement.from_order(range(n))
    restarts = reduced_restarts(
        n, k, seed, cfg.budget, lambda rows: _arrangement_values(m.dist, rows, k)
    )
    starts = itertools.chain([identity], map(_embed_assignment, restarts))
    climbed = (_swap_hill_climb(m, arr, cfg.swap_sweeps) for arr in starts)
    return best_of(itertools.chain([identity], climbed), lambda arr: evaluate_la(m, arr),
                   _position)


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
    instance (identity when n < k)."""
    n = m.n
    if n < cfg.k or m.diameter() <= 0.0:
        identity = LinearArrangement.from_order(range(n))
        return identity, evaluate_la(m, identity)
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best
