"""Helpers recomputing per-level structural quantities from peeling traces.

Used by the unit tests and the acceptance suite to check the split lower
bound, the pair-set and point-set upper bounds, the layer-weight bound, the
ladder payoff floor and the telescoping accounting on realized runs, and
holding the per-candidate reference loops of the dense solvers and the per-k
triangle scan of metric validation.
"""

import numpy as np

from peelembed.hc_dense import _caterpillar_skeleton, _parts_of, _skeleton_tree
from peelembed.la_dense import _embed_assignment, _position
from peelembed.local_search import best_of
from peelembed.metric import subset_stats
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    evaluate_hc,
    evaluate_la,
    ladder_tree,
)


def sub_positions(order, ids):
    """Slots 1..len(ids) of ids induced by a global left-right order."""
    members = set(ids)
    return {p: slot for slot, p in enumerate((q for q in order if q in members), 1)}


def set_weight(m, ids):
    if len(ids) < 2:
        return 0.0
    return subset_stats(m, ids).weight_sum


def set_diameter(m, ids):
    return subset_stats(m, ids).diameter


def cross_weight(m, a_ids, c_ids):
    return float(m.dist[np.ix_(list(a_ids), list(c_ids))].sum())


def la_cross_value(m, pos, a_ids, c_ids):
    """Sum of w_ac * |y_a - y_c| over the A x C pairs."""
    a = list(a_ids)
    c = list(c_ids)
    pa = np.array([pos[p] for p in a], dtype=float)[:, None]
    pc = np.array([pos[p] for p in c], dtype=float)[None, :]
    return float((m.dist[np.ix_(a, c)] * np.abs(pa - pc)).sum())


def split_lower_bound(m, a_ids, c_ids):
    """(n_C / 2) * (W_AC - n_A * n_C * D_C), the realized-split floor."""
    n_c = len(c_ids)
    return (n_c / 2.0) * (
        cross_weight(m, a_ids, c_ids) - len(a_ids) * n_c * set_diameter(m, c_ids)
    )


def pair_set_upper_bound(m, n, a_ids, c_ids):
    """(n - n_C / 2) * (W_AC + n_A * n_C * D_C), valid for any arrangement."""
    n_c = len(c_ids)
    return (n - n_c / 2.0) * (
        cross_weight(m, a_ids, c_ids) + len(a_ids) * n_c * set_diameter(m, c_ids)
    )


def point_set_upper_bound(m, n, p, c_ids):
    """(W_pC + n_C * D_C) * (n - n_C / 2) for a single point p outside C."""
    n_c = len(c_ids)
    w_pc = float(m.dist[p, list(c_ids)].sum())
    return (w_pc + n_c * set_diameter(m, c_ids)) * (n - n_c / 2.0)


def has_not_all_small_weights(m, c0, c1):
    """True when at most a (1 - c1) fraction of pairs weigh below c0 * D_V."""
    n = m.n
    if n < 2:
        return False
    diam = m.diameter()
    iu = np.triu_indices(n, 1)
    small = int((m.dist[iu] < c0 * diam).sum())
    return small <= (1.0 - c1) * len(iu[0])


def reference_triangle_scan(mat, tol):
    """The per-k triangle scan ``validate_metric`` ran over every matrix
    before its pair screen: (i, j, k, worst) at the smallest k whose worst
    slack d_ij - (d_ik + d_kj) exceeds tol, first (i, j) of that slack, or
    None."""
    for k in range(mat.shape[0]):
        slack = mat - (mat[:, k, None] + mat[None, k, :])
        worst = float(slack.max())
        if worst > tol:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return int(i), int(j), k, worst
    return None


def hc_ladder_payoff(m, tree, a_ids):
    """Tree value restricted to pairs with at least one endpoint in A."""
    members = set(a_ids)
    total = 0.0
    stack = [(tree.root, False)]
    done = []
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            done.append([node])
            continue
        if expanded:
            right = done.pop()
            left = done.pop()
            size = len(left) + len(right)
            for i in left:
                for j in right:
                    if i in members or j in members:
                        total += size * m.dist[i, j]
            done.append(left + right)
        else:
            stack.extend(((node, True), (node[1], False), (node[0], False)))
    return total


# ---------------------------------------------------------------------------
# Reference loops of the dense solvers' reduced local search.  They rebuild
# and score every candidate from scratch; the solvers score a whole sweep in
# one numpy pass, and the differential tests compare the two.


def reference_hc_move_values(m, assign, slots):
    """Score of every single-point move via _skeleton_tree + evaluate_hc."""
    skeleton = _caterpillar_skeleton(slots)
    assign = [int(a) for a in assign]
    out = []
    for p in range(len(assign)):
        a = assign[p]
        for b in range(slots):
            if b == a:
                continue
            assign[p] = b
            out.append(evaluate_hc(m, _skeleton_tree(skeleton, _parts_of(assign, slots))))
            assign[p] = a
    return out


def reference_la_move_values(m, assign, k):
    """Score of every single-point move via _embed_assignment + evaluate_la."""
    assign = [int(a) for a in assign]
    out = []
    for p in range(len(assign)):
        a = assign[p]
        for b in range(k):
            if b == a:
                continue
            assign[p] = b
            out.append(evaluate_la(m, _embed_assignment(assign)))
            assign[p] = a
    return out


def reference_swap_gain(m, pos, i, j):
    """Change of the LA value when points i and j trade slots."""
    # Swapping slots of i and j only changes pairs touching them.
    gi = np.abs(pos - pos[j]) - np.abs(pos - pos[i])
    gj = np.abs(pos - pos[i]) - np.abs(pos - pos[j])
    delta = float(m.dist[i] @ gi) + float(m.dist[j] @ gj)
    return delta - 2.0 * m.dist[i, j] * gi[j]  # i-j pair counted twice


def reference_swap_hill_climb(m, arr, sweeps):
    pos = np.array(arr.position, dtype=float)
    for _ in range(sweeps):
        best = None  # (gain, i, j)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                delta = reference_swap_gain(m, pos, i, j)
                if best is None or delta > best[0] + 1e-12:
                    best = (delta, i, j)
        if best is None or best[0] <= 1e-12:
            break
        _, i, j = best
        pos[i], pos[j] = pos[j], pos[i]
    return LinearArrangement.from_positions(int(p) for p in pos)


def reference_hc_reduced(m, cfg, seed):
    """Tree of the reduced HC search, one full evaluation per candidate."""
    n, slots = m.n, cfg.slots
    skeleton = _caterpillar_skeleton(slots)
    ladder = ladder_tree(range(n))
    best = (evaluate_hc(m, ladder), ladder)

    def score(a):
        tree = _skeleton_tree(skeleton, _parts_of(a, slots))
        return evaluate_hc(m, tree), tree

    for ss in np.random.SeedSequence(seed).spawn(cfg.budget.restarts):
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, slots, size=n)
        value, tree = score(assign)
        for _ in range(cfg.budget.moves(n)):
            move = None  # (gain, point, target)
            for p in range(n):
                a = int(assign[p])
                for b in range(slots):
                    if b == a:
                        continue
                    assign[p] = b
                    cand_val, _ = score(assign)
                    assign[p] = a
                    gain = cand_val - value
                    if move is None or gain > move[0] + 1e-12:
                        move = (gain, p, b)
            if move is None or move[0] <= 1e-12:
                break
            _, p, b = move
            assign[p] = b
            value, tree = score(assign)
        best = best_of([tree], lambda _: value, HcTree.serialize, best)
    return best[1]


def reference_la_reduced(m, cfg, seed):
    """Arrangement of the reduced LA search, one full evaluation per candidate."""
    n, k = m.n, cfg.k
    identity = LinearArrangement.from_order(range(n))
    best = best_of([identity, reference_swap_hill_climb(m, identity, cfg.swap_sweeps)],
                   lambda arr: evaluate_la(m, arr), _position)

    for ss in np.random.SeedSequence(seed).spawn(cfg.budget.restarts):
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, k, size=n)
        value = evaluate_la(m, _embed_assignment(assign))
        for _ in range(cfg.budget.moves(n)):
            move = None  # (gain, point, target)
            for p in range(n):
                a = int(assign[p])
                for b in range(k):
                    if b == a:
                        continue
                    assign[p] = b
                    cand_val = evaluate_la(m, _embed_assignment(assign))
                    assign[p] = a
                    gain = cand_val - value
                    if move is None or gain > move[0] + 1e-12:
                        move = (gain, p, b)
            if move is None or move[0] <= 1e-12:
                break
            _, p, b = move
            assign[p] = b
            value = evaluate_la(m, _embed_assignment(assign))
        arr = reference_swap_hill_climb(m, _embed_assignment(assign), cfg.swap_sweeps)
        best = best_of([arr], lambda arr: evaluate_la(m, arr), _position, best)
    return best[1]
