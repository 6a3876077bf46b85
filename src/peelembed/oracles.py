"""Exact small-instance solvers and literature baselines.

The LA optimum uses the prefix-cut identity: the value of an arrangement
equals the sum over cut positions t of the weight crossing between the first
t points and the rest, so the maximum over permutations is a subset DP.  The
HC optimum uses the root-split recursion: a tree on S contributes
|S| * W(T, S \\ T) at the root plus the optimal values of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import TooLarge
from .metric import Metric
from .objectives import HcTree, LinearArrangement, evaluate_hc, evaluate_la

LA_ORACLE_MAX_N = 10
HC_ORACLE_MAX_N = 8


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: Union[LinearArrangement, HcTree]
    explored: int


def _subset_weights(m: Metric) -> np.ndarray:
    """intra[S] = sum of pairwise distances inside bitmask subset S."""
    n = m.n
    intra = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        p = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        w = 0.0
        r = rest
        while r:
            q = (r & -r).bit_length() - 1
            w += m.dist[p, q]
            r &= r - 1
        intra[mask] = intra[rest] + w
    return intra


def brute_force_la(m: Metric) -> OracleResult:
    """Exact max linear arrangement over all n! orders (subset DP)."""
    n = m.n
    if n > LA_ORACLE_MAX_N:
        raise TooLarge(f"LA oracle guarded at n <= {LA_ORACLE_MAX_N}")
    if n == 1:
        return OracleResult(0.0, LinearArrangement.from_order([0]), 1)
    intra = _subset_weights(m)
    rowsum = m.dist.sum(axis=1)
    full = (1 << n) - 1

    # cut(S) = W(S, V \ S); value of an order = sum of cut(prefix) over prefixes.
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    choice = np.zeros(1 << n, dtype=int)
    masks = sorted(range(1 << n), key=lambda s: s.bit_count())
    for mask in masks:
        if mask == 0:
            continue
        row = 0.0
        r = mask
        while r:
            p = (r & -r).bit_length() - 1
            row += rowsum[p]
            r &= r - 1
        cut = row - 2.0 * intra[mask]
        cand_best = -np.inf
        cand_p = -1
        r = mask
        while r:
            p = (r & -r).bit_length() - 1
            prev = best[mask ^ (1 << p)]
            if prev > cand_best:
                cand_best = prev
                cand_p = p
            r &= r - 1
        best[mask] = cand_best + cut
        choice[mask] = cand_p

    order = [0] * n
    mask = full
    while mask:
        p = int(choice[mask])
        order[mask.bit_count() - 1] = p
        mask ^= 1 << p
    witness = LinearArrangement.from_order(order)
    rev = witness.reversed()
    if rev.position < witness.position:
        witness = rev
    return OracleResult(evaluate_la(m, witness), witness, (1 << n) - 1)


def brute_force_hc(m: Metric) -> OracleResult:
    """Exact max hierarchical clustering over all leaf-labeled binary trees."""
    n = m.n
    if n > HC_ORACLE_MAX_N:
        raise TooLarge(f"HC oracle guarded at n <= {HC_ORACLE_MAX_N}")
    if n == 1:
        return OracleResult(0.0, HcTree(0), 1)
    intra = _subset_weights(m)
    best = np.zeros(1 << n)
    choice = np.zeros(1 << n, dtype=int)
    explored = 0
    masks = sorted(range(1 << n), key=lambda s: s.bit_count())
    for mask in masks:
        size = mask.bit_count()
        if size < 2:
            continue
        low = mask & -mask
        rest = mask ^ low
        # Splits where the side holding the lowest point varies over subsets.
        sub = rest
        cand_best = -np.inf
        cand_split = 0
        while True:
            left = low | sub
            right = mask ^ left
            if right:
                explored += 1
                cross = intra[mask] - intra[left] - intra[right]
                val = best[left] + best[right] + size * cross
                if val > cand_best or (val == cand_best and left < cand_split):
                    cand_best = val
                    cand_split = left
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = cand_best
        choice[mask] = cand_split

    def build(mask):
        if mask.bit_count() == 1:
            return (mask & -mask).bit_length() - 1
        left = int(choice[mask])
        right = mask ^ left
        return (build(left), build(right))

    witness = HcTree(build((1 << n) - 1))
    return OracleResult(evaluate_hc(m, witness), witness, explored)


def random_bisection_la(m: Metric, seed: int) -> LinearArrangement:
    """Random balanced bisection, each half greedily ordered outward-first.

    Within each half, points with larger total distance to the opposite half
    are placed closer to that half's extreme end of the line.
    """
    n = m.n
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    left = sorted(int(p) for p in perm[: n // 2])
    right = sorted(int(p) for p in perm[n // 2 :])

    def outward(half, other):
        pull = {p: float(m.dist[p, other].sum()) for p in half}
        return sorted(half, key=lambda p: (-pull[p], p))

    left_order = outward(left, right)
    right_order = outward(right, left)
    return LinearArrangement.from_order(left_order + list(reversed(right_order)))


def average_linkage_hc(m: Metric) -> HcTree:
    """Agglomerative average linkage, merging the minimum-average pair first.

    Ties break on the smallest (creation-id, creation-id) cluster pair; fresh
    clusters receive ids n, n+1, ...
    """
    n = m.n
    if n == 1:
        return HcTree(0)
    clusters = {i: (1, i) for i in range(n)}  # id -> (size, tree node)
    avg = {}
    for i in range(n):
        for j in range(i + 1, n):
            avg[(i, j)] = float(m.dist[i, j])
    next_id = n
    while len(clusters) > 1:
        (ci, cj) = min(avg, key=lambda p: (avg[p], p))
        d_ij = avg.pop((ci, cj))
        si, node_i = clusters.pop(ci)
        sj, node_j = clusters.pop(cj)
        merged = (si + sj, (node_i, node_j))
        for ck, (sk, _) in clusters.items():
            d_ik = avg.pop((min(ci, ck), max(ci, ck)))
            d_jk = avg.pop((min(cj, ck), max(cj, ck)))
            avg[(ck, next_id)] = (si * d_ik + sj * d_jk) / (si + sj)
        clusters[next_id] = merged
        next_id += 1
    (_, root) = clusters.popitem()[1]
    return HcTree(root)


def all_binary_trees(leaves: Sequence[int]) -> Iterator:
    """All (2m-3)!! leaf-labeled binary tree shapes over the given leaves.

    Yields raw tree nodes (ints / nested 2-tuples), one representative per
    child-swap equivalence class.
    """
    leaves = list(leaves)
    if not leaves:
        return
    if len(leaves) == 1:
        yield leaves[0]
        return

    def insert(node, leaf):
        yield (node, leaf)
        if isinstance(node, tuple):
            for sub in insert(node[0], leaf):
                yield (sub, node[1])
            for sub in insert(node[1], leaf):
                yield (node[0], sub)

    def grow(prefix_len):
        if prefix_len == 2:
            yield (leaves[0], leaves[1])
            return
        for smaller in grow(prefix_len - 1):
            yield from insert(smaller, leaves[prefix_len - 1])

    yield from grow(len(leaves))
