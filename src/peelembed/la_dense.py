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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FaithfulGridTooLarge, InvalidSpec
from .local_search import TIE_TOL, scan_argmax, score_moves, single_moves, sizes_and_ranks
from .metric import Metric, subset_stats
from .objectives import LinearArrangement, evaluate_la
from .partition_search import PartitionSpec, SearchBudget, search_partition

_INF = math.inf


@dataclass(frozen=True)
class DenseLaConfig:
    eps: float
    grid_mode: str = "reduced"  # 'reduced' or 'faithful'
    budget: SearchBudget = field(default_factory=SearchBudget)
    max_grid_cells: int = 2_000_000
    swap_sweeps: int = 40

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise InvalidSpec(f"eps must be in (0, 1], got {self.eps}")
        if self.grid_mode not in ("reduced", "faithful"):
            raise InvalidSpec(f"unknown grid mode {self.grid_mode!r}")

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
    gaps = np.abs(pos[:, :, None] - pos[:, None, :])
    return (dist * gaps).reshape(c, n * n).sum(axis=1) / 2.0


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
    """Steepest-descent slot swaps until a local maximum (deterministic).

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
    return LinearArrangement.from_positions(int(p) for p in pos)


def _better(value, arr, best):
    """Deterministic argmax: larger value, ties to lexicographically smaller."""
    if best is None:
        return True
    bv, barr = best
    if value > bv + 1e-12:
        return True
    return abs(value - bv) <= 1e-12 and arr.position < barr.position


def _solve_reduced(m: Metric, cfg: DenseLaConfig, seed: int):
    n, k = m.n, cfg.k
    best = None
    for cand in (
        LinearArrangement.from_order(range(n)),
        _swap_hill_climb(m, LinearArrangement.from_order(range(n)), cfg.swap_sweeps),
    ):
        value = evaluate_la(m, cand)
        if _better(value, cand, best):
            best = (value, cand)

    def score(rows):
        return _arrangement_values(m.dist, rows, k)

    seeds = np.random.SeedSequence(seed).spawn(cfg.budget.restarts)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, k, size=n)
        value = score(assign[None, :])[0]
        for _ in range(cfg.budget.moves(n)):
            points, targets = single_moves(assign, k)
            gains = score_moves(assign, points, targets, score) - value
            pick = scan_argmax(gains)
            if gains[pick] <= TIE_TOL:
                break
            assign[points[pick]] = targets[pick]
            # gains stay measured from this running sum, not a fresh score;
            # the two can differ in the last bit and tip a near-tie
            value += gains[pick]
        arr = _swap_hill_climb(m, _embed_assignment(assign), cfg.swap_sweeps)
        value = evaluate_la(m, arr)
        if _better(value, arr, best):
            best = (value, arr)
    return best


def _faithful_size_counts(n: int, eps: float, k: int) -> Optional[list]:
    """Exact part sizes: floor(eps * n) each, remainder folded into the last."""
    base = int(math.floor(eps * n))
    counts = [base] * (k - 1)
    last = n - base * (k - 1)
    if base < 0 or last < 0:
        return None
    counts.append(last)
    return counts


def _solve_faithful(m: Metric, cfg: DenseLaConfig, seed: int, best):
    n, k = m.n, cfg.k
    eps = cfg.eps
    eps_err = eps**9
    diam = m.diameter()
    if diam <= 0.0:
        return best
    rho = subset_stats(m, range(n)).density

    counts = _faithful_size_counts(n, eps, k)
    if counts is None:
        return best
    size_bounds = [(c / n, c / n) for c in counts]

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    levels = int(math.floor(1.0 / eps**7 + 1e-9)) + 1  # grid values 0..1/eps^7
    if levels ** len(pairs) > cfg.max_grid_cells:
        raise FaithfulGridTooLarge(
            f"{levels}^{len(pairs)} grid cells exceed the cap {cfg.max_grid_cells}"
        )

    seen = {}
    for cell in itertools.product(range(levels), repeat=len(pairs)):
        mu = [i * eps**9 for i in cell]
        # Crossing weights cannot sum past the total weight fraction rho.
        if sum(mu) - len(pairs) * eps_err > rho + 1e-12:
            continue
        wb = [[(0.0, _INF)] * k for _ in range(k)]
        for (a, b), target in zip(pairs, mu):
            wb[a][b] = wb[b][a] = (target, target)
        spec = PartitionSpec.build(k, size_bounds=size_bounds, weight_bounds=wb)
        part = search_partition(m, spec, eps_err=eps_err, budget=cfg.budget, seed=seed)
        if part is None or part.assignment in seen:
            continue
        seen[part.assignment] = True
        arr = _embed_assignment(part.assignment)
        value = evaluate_la(m, arr)
        if _better(value, arr, best):
            best = (value, arr)
    return best


def solve_la_dense(m: Metric, cfg: DenseLaConfig, seed: int = 0) -> LinearArrangement:
    """Best arrangement found for a dense instance (identity when n < k)."""
    n = m.n
    if n == 1:
        return LinearArrangement.from_order([0])
    if n < cfg.k or m.diameter() <= 0.0:
        return LinearArrangement.from_order(range(n))
    best = _solve_reduced(m, cfg, seed)
    if cfg.grid_mode == "faithful":
        best = _solve_faithful(m, cfg, seed, best)
    return best[1]
