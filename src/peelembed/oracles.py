"""Exact small-instance solvers and literature baselines.

The LA optimum uses the prefix-cut identity: the value of an arrangement
equals the sum over cut positions t of the weight crossing between the first
t points and the rest, so the maximum over permutations is a subset DP.  The
HC optimum uses the root-split recursion: a tree on S contributes
|S| * W(T, S \\ T) at the root plus the optimal values of both sides.

Both DPs walk the bitmasks of the points one popcount layer at a time, each
layer a few NumPy operations over all of its masks, so every mask finds its
subsets done.  They add as a loop over the masks would: the weight inside S
is the weight inside S without its lowest point, plus the weights from that
point to the rest of S summed from 0.0 in ascending id, and S's row sums are
summed from 0.0 in ascending id.  Ties keep what that loop's scan keeps: LA
the lowest last point among exact maxima, HC the smallest left side (the one
holding S's lowest point) among exact maxima.  So the values, witnesses and
``explored`` counts are those of the loop, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import TooLarge
from .metric import Metric
from .objectives import HcTree, LinearArrangement, evaluate_hc, evaluate_la

LA_ORACLE_MAX_N = 20
HC_ORACLE_MAX_N = 15


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: Union[LinearArrangement, HcTree]
    explored: int


def _subset_weights(m: Metric) -> np.ndarray:
    """intra[S], the weight inside bitmask S, summed as a loop over the masks
    would: the weight inside S without its lowest point p, plus the weight
    from p to the rest of S summed from 0.0 in ascending id.  That second sum
    is the same sum for S without its highest point h plus the weight from p
    to h, so it fills in blocks of one h, ascending; intra fills in blocks of
    one p, descending."""
    n = m.n
    masks = np.arange(1 << n)
    low = np.frexp(masks & -masks)[1] - 1  # exact: the exponent of 2^p is p + 1
    tail = np.zeros(1 << n)
    for h in range(1, n):
        half = 1 << h
        tail[half + 1 : 2 * half] = tail[1:half] + m.dist[low[1:half], h]
    # in place over tail: the masks whose lowest point is p sit at
    # 2^p + i 2^(p+1), and without p at i 2^(p+1), which is done by then
    intra = tail
    for p in range(n - 2, -1, -1):
        step = 2 << p
        intra[1 << p :: step] += intra[::step]
    return intra


def _layers(n: int) -> list:
    """The nonempty bitmasks over n points, one array per popcount."""
    count = np.zeros(1 << n, dtype=np.int8)
    for h in range(n):
        count[1 << h : 2 << h] = count[: 1 << h] + 1
    masks = np.argsort(count, kind="stable")
    ends = list(itertools.accumulate(math.comb(n, k) for k in range(n + 1)))
    return [masks[ends[k - 1] : ends[k]] for k in range(1, n + 1)]


def brute_force_la(m: Metric) -> OracleResult:
    """Exact max linear arrangement over all n! orders (subset DP)."""
    n = m.n
    if n > LA_ORACLE_MAX_N:
        raise TooLarge(f"LA oracle guarded at n <= {LA_ORACLE_MAX_N}")
    if n == 1:
        return OracleResult(0.0, LinearArrangement.from_order([0]), 1)

    # cut(S) = W(S, V \ S); value of an order = sum of cut(prefix) over prefixes.
    rowsum = m.dist.sum(axis=1)
    cut = np.zeros(1 << n)  # first each mask's row sums, from 0.0 in ascending id
    for h in range(n):
        cut[1 << h : 2 << h] = cut[: 1 << h] + rowsum[h]
    cut -= 2.0 * _subset_weights(m)
    # A layer's masks see the layer above still at -inf, so over every point
    # p the argmax of best[mask ^ p] is the lowest member p of the maximum.
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    choice = np.zeros(1 << n, dtype=np.int8)
    points = 1 << np.arange(n)
    for masks in _layers(n):
        prev = best[masks[:, None] ^ points]
        choice[masks] = prev.argmax(axis=1)
        best[masks] = prev.max(axis=1) + cut[masks]

    order = [0] * n
    mask = (1 << n) - 1
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
    points = 1 << np.arange(n)
    for size, masks in enumerate(_layers(n)[1:], start=2):
        # Splits where the side holding the lowest point varies over subsets
        # of the rest, but not all of it; their left masks ascend along a row.
        bits = masks[:, None] & points
        bits = bits[bits != 0].reshape(len(masks), size)
        left = np.empty((len(masks), 1 << (size - 1)), dtype=int)
        left[:, 0] = bits[:, 0]
        for col in range(1, size):
            half = 1 << (col - 1)
            left[:, half : 2 * half] = left[:, :half] | bits[:, col, None]
        left = left[:, :-1]
        right = masks[:, None] ^ left
        cross = intra[masks, None] - intra[left] - intra[right]
        val = best[left] + best[right] + size * cross
        pick = (np.arange(len(masks)), val.argmax(axis=1))
        best[masks] = val[pick]
        choice[masks] = left[pick]
        explored += left.size

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
