"""Helpers recomputing per-level structural quantities from peeling traces.

Used by the unit tests and the acceptance suite to check the split lower
bound, the pair-set and point-set upper bounds, the layer-weight bound, the
ladder payoff floor and the telescoping accounting on realized runs, and
holding the partition search's exact feasibility test of whole arrays of
assignments with its brute force, the per-candidate reference loops of
the dense solvers and the partition search with its float decisions and
crossing matrix, the per-cell loop of the faithful grids and the einsum
form of the exhaustive enumeration, the per-restart loop of the reduced
search with its move list and batched scorers, the per-k triangle scan,
whole-slab screen and whole-matrix symmetrising of metric validation, the
whole-mask ball count of core detection, the all-token
matrix parse with its format sniff, the node-at-a-time tree walks, the
nested-tuple skeleton trees and tree enumeration, the mask-at-a-time loops
of the exact oracles, the four-array LA swap table, the core gather of the
LA split, and the evaluators, scorers, metric builders and the submetric
gather that faster code replaced.
"""

import itertools
import math

import numpy as np

from peelembed import la_dense, local_search
from peelembed.hc_dense import _parts_of, slot_count
from peelembed.la_dense import _embed_assignment, _position, part_count
from peelembed.local_search import BATCH_ENTRIES, quantize
from peelembed.errors import (
    AsymmetricMatrix,
    InputParse,
    MalformedTree,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    TriangleViolation,
)
from peelembed.instances import FAMILIES, GeneratorSpec, generate
from peelembed.metric import (
    DENSE_BY_CONVENTION,
    SCREEN_MARGIN_EPS,
    TRIANGLE_TOL,
    CoreResult,
    Metric,
    SubsetStats,
    subset_stats,
    validate_metric,
)
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    evaluate_hc,
    evaluate_la,
    ladder_tree,
)
from peelembed.oracles import OracleResult
from peelembed.partition_search import (
    PartitionSpec,
    _bounds,
    _greedy_seed,
    _integer_cells,
    _penalty,
    _stats,
    exhaustive,
)


def family_metrics(sizes):
    """(label, metric) of every generator family at each of ``sizes`` that
    it can draw: two_scale needs n >= 3, and at its default weight ratio
    n >= 13, so it is drawn at weight ratio 0.2."""
    out = []
    for family in FAMILIES:
        for n in sizes:
            if family == "two_scale" and n < 3:
                continue
            kwargs = {"weight_ratio": 0.2} if family == "two_scale" else {}
            spec = GeneratorSpec(family=family, n=n, seed=n, **kwargs)
            out.append((f"{family}-n{n}", generate(spec)))
    return out


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
    before its pair screen, and ``metric._raise_triangle_witness`` before it
    worked in row blocks: (i, j, k, worst) at the smallest k whose worst
    slack d_ij - (d_ik + d_kj) exceeds tol, first (i, j) of that slack, or
    None.  Two n x n temporaries for every k."""
    for k in range(mat.shape[0]):
        slack = mat - (mat[:, k, None] + mat[None, k, :])
        worst = float(slack.max())
        if worst > tol:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return int(i), int(j), k, worst
    return None


def reference_triangle_screen(mat, tol):
    """``metric._triangle_screen`` as it was: each row's whole slab
    differenced out of place in one (n - 1)^2 buffer."""
    n = mat.shape[0]
    margin = SCREEN_MARGIN_EPS * np.finfo(float).eps * max(float(mat.max()), 1.0)
    allowed = tol - margin
    buf = np.empty((n - 1) * (n - 1))
    for i in range(n - 2):
        rest = mat[i, i + 1 :]
        slab = buf[: rest.size * rest.size].reshape(rest.size, rest.size)
        np.subtract(mat[i + 1 :, i + 1 :], rest, out=slab)
        np.abs(slab, out=slab)
        if (slab.max(axis=1) > rest + allowed).any():
            return True
    return False


def reference_validate_metric(raw):
    """``validate_metric`` as it was before its symmetry check and its
    symmetrising worked in row blocks: a copy of ``raw``, then
    ``np.abs(mat - mat.T)`` and ``(mat + mat.T) / 2`` over the whole matrix,
    and the per-k triangle scan.  Returns the validated matrix."""
    mat = np.array(raw, dtype=float)
    if mat.size and not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
        idx = np.unravel_index(int(np.argmin(np.isfinite(mat))), mat.shape)
        where = "".join(f"[{i}]" for i in idx)
        raise NonFiniteDistance(f"dist{where} = {mat[idx]:g} is not finite")
    tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)
    if mat.min() < -tol:
        i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
        raise NegativeDistance(f"dist[{i}][{j}] = {mat[i, j]:g} < 0")
    bad_diag = np.abs(np.diag(mat)) > tol
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise NonzeroDiagonal(f"dist[{i}][{i}] = {mat[i, i]:g} != 0")
    asym = np.abs(mat - mat.T)
    if asym.max() > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetricMatrix(f"dist[{i}][{j}] != dist[{j}][{i}]")
    mat = (mat + mat.T) / 2.0
    np.fill_diagonal(mat, 0.0)
    mat[mat < 0] = 0.0
    witness = reference_triangle_scan(mat, tol)
    if witness is not None:
        raise TriangleViolation(*witness)
    return mat


def reference_parse_metric(text):
    """``metric.parse_metric`` as it was: every token of ``text.split()``
    held at once, then converted with ``float``."""
    tokens = text.split()
    if not tokens:
        raise InputParse("empty metric file")
    try:
        n = int(tokens[0])
        vals = np.fromiter(map(float, tokens[1:]), dtype=float, count=len(tokens) - 1)
    except ValueError as exc:
        raise InputParse(f"metric file: {exc}") from None
    if n < 1 or len(vals) != n * n:
        raise InputParse(f"expected n >= 1 and n * n matrix entries, got n={n} "
                         f"and {len(vals)} entries")
    return validate_metric(vals.reshape(n, n))


def reference_sniff(text):
    """The ``--format auto`` rule as it was: "matrix" if the first token is
    an integer n and exactly 1 + n * n tokens follow, else "points"."""
    tokens = text.split()
    try:
        n = int(tokens[0])
        if len(tokens) == 1 + n * n:
            return "matrix"
    except (ValueError, IndexError):
        pass
    return "points"


def reference_evaluate_hc(m, tree):
    """``evaluate_hc`` as it was: a post-order walk that gathers each node's
    block with ``np.ix_`` from the concatenated leaf arrays of its children."""
    leaves = tree.leaves()
    if sorted(leaves) != list(range(m.n)):
        raise ValueError(f"tree leaves do not cover 0..{m.n - 1}")
    total = 0.0
    stack = [(tree.root, False)]
    done = []  # leaf-index arrays of finished subtrees
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            done.append(np.array([node], dtype=int))
            continue
        if expanded:
            right = done.pop()
            left = done.pop()
            size = len(left) + len(right)
            total += size * float(m.dist[np.ix_(left, right)].sum())
            done.append(np.concatenate([left, right]))
        else:
            stack.extend(((node, True), (node[1], False), (node[0], False)))
    return total


def reference_subset_stats(m, subset):
    """``subset_stats`` by its definition: an ``np.ix_`` gather, whose row
    sums are summed once and halved."""
    idx = sorted(set(int(i) for i in subset))
    sub = m.dist[np.ix_(idx, idx)]
    size, diameter = len(idx), float(sub.max())
    weight = float(sub.sum(axis=1).sum()) / 2.0
    density = weight / (size * size * diameter) if diameter > 0.0 else DENSE_BY_CONVENTION
    return SubsetStats(diameter, weight, size, density)


def reference_find_core(m):
    """``find_core`` as it was: each ball counted by ``np.count_nonzero``
    over the whole mask, ties to the smallest center."""
    stats = subset_stats(m, range(m.n))
    radius = 2.0 * stats.diameter * math.sqrt(stats.density)
    within = m.dist <= radius
    center = int(np.argmax(np.count_nonzero(within, axis=1)))
    return CoreResult(core=tuple(np.flatnonzero(within[center]).tolist()), center=center)


def reference_submetric(m, indices):
    """Distance matrix of ``Metric.submetric`` as it was: one ``np.ix_``
    gather of the sorted ids."""
    idx = np.asarray(sorted(indices), dtype=int)
    return m.dist[np.ix_(idx, idx)]


def reference_metric_from_points(points):
    """Distance matrix of ``metric_from_points`` by its definition, from an
    n x n x d tensor of squared differences added left to right (no
    checks)."""
    pts = np.asarray(points, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        squares = diff * diff
        total = np.zeros(squares.shape[:2])
        for c in range(squares.shape[2]):
            total += squares[:, :, c]
        return np.sqrt(total)


_MID, _END = object(), object()  # markers of reference_leaf_spans' walk


def reference_leaf_spans(root):
    """Leaf order and post-order (lo, mid, hi) spans of a nested-tuple root,
    one stack step per node: the referee of every ``HcTree`` built from
    spans (``parse``, ``relabel``, ``ladder_tree``, ``ladders_on``)."""
    order, spans, open_spans = [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _MID:
            open_spans[-1].append(len(order))
        elif node is _END:
            lo, mid = open_spans.pop()
            spans.append((lo, mid, len(order)))
        elif isinstance(node, tuple):
            if len(node) != 2:
                raise MalformedTree("internal node with != 2 children")
            open_spans.append([len(order)])
            stack.extend((_END, node[1], _MID, node[0]))
        else:
            order.append(int(node))
    return order, spans


def reference_serialize(root):
    """``HcTree.serialize`` of a nested-tuple root as it was: five stack
    pushes per internal node."""
    parts = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, tuple):
            stack.extend((")", node[1], ",", node[0], "("))
        else:
            parts.append(str(node))
    return "".join(parts)


def reference_relabel(node, mapping):
    """The nested-tuple ``relabel`` that ``HcTree.relabel`` replaced: two
    stack steps per internal node."""
    stack = [(node, False)]
    done = []
    while stack:
        nd, expanded = stack.pop()
        if not isinstance(nd, tuple):
            done.append(int(mapping[nd]))
            continue
        if expanded:
            right = done.pop()
            left = done.pop()
            done.append((left, right))
        else:
            stack.extend(((nd, True), (nd[1], False), (nd[0], False)))
    return done[0]


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
# Reference loops of the dense solvers' reduced local search and of the
# partition search.  They rebuild and score every candidate from scratch, or
# run one restart at a time; the searches score a whole sweep of every restart
# in one numpy pass, and the differential tests compare the two.


def reference_single_moves(assigns, parts):
    """(points, targets) of every single-point move, in the scan order of the
    gain tables less each point's own part: ``points`` is (M,), ``targets``
    (L, M) for (L, n) assignment rows or (M,) for one.  The reduced search
    listed its moves so before it read them off its gain tables."""
    n = np.shape(assigns)[-1]
    points = np.repeat(np.arange(n), parts - 1)
    offset = np.tile(np.arange(parts - 1), n)
    targets = offset + (offset >= assigns[..., points])
    return points, targets


def score_moves(assigns, points, targets, score):
    """``score`` of each moved copy of each assignment row, in batches: the
    batched scoring that the reduced search ran before it took each move's
    gain from per-row tables.

    ``assigns``, ``points`` and ``targets`` are as ``reference_single_moves``
    takes and gives them; the result has the shape of ``targets``.  Candidate (l, j) is
    row l with point ``points[j]`` moved to part ``targets[l, j]``.  A batch
    holds at most ``BATCH_ENTRIES`` n x n entries.  ``score`` maps a (C, n)
    array of assignments to their C values.
    """
    rows = np.atleast_2d(assigns)
    flat = np.reshape(targets, -1)
    n, width = rows.shape[1], len(points)
    step = max(1, BATCH_ENTRIES // (n * n))
    out = np.empty(len(flat))
    for start in range(0, len(flat), step):
        cand = np.arange(start, min(start + step, len(flat)))
        batch = rows[cand // width]
        batch[np.arange(len(cand)), points[cand % width]] = flat[cand]
        out[cand] = score(batch)
    return out.reshape(np.shape(targets))


def sizes_and_ranks(assigns, parts):
    """Part sizes (C, parts) and each point's 0-based id rank in its part (C, n)."""
    onehot = assigns[:, :, None] == np.arange(parts)
    ranks = np.take_along_axis(np.cumsum(onehot, axis=1), assigns[:, :, None], 2)[..., 0]
    return onehot.sum(axis=1), ranks - 1


def sequential_argmax(gains, tol):
    """Index kept by a left-to-right scan of ``gains`` that replaces its
    incumbent only on ``gain > incumbent + tol``, the first entry starting
    as incumbent."""
    best = None
    for idx, gain in enumerate(gains):
        if best is None or gain > gains[best] + tol:
            best = idx
    return best


def reference_reduced_restarts(n, parts, seed, restarts, score):
    """``reduced_restarts`` as it was: each restart runs all its sweeps before
    the next one starts, and scores every moved copy of its assignment with
    ``score``, a gain being the moved value less the current one; yields each
    final assignment."""
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        assign = np.random.default_rng(ss).integers(0, parts, size=n)
        value = score(assign[None, :])[0]
        for _ in range(local_search.moves(n)):
            points, targets = reference_single_moves(assign, parts)
            values = score_moves(assign, points, targets, score)
            gains = values - value
            pick = sequential_argmax(gains.tolist(), 1e-12)
            if gains[pick] <= 1e-12:
                break
            assign[points[pick]] = targets[pick]
            value = values[pick]
        yield assign


def reference_caterpillar_values(dist, assigns, slots):
    """Value of the caterpillar-of-ladders tree of each assignment row, as
    the reduced HC search once scored it: the LCA of a pair in one slot is
    the ladder node that peels the smaller id, holding the slot's points from
    that id on; the LCA of a pair in different slots is the spine node of the
    lower slot, holding every point in that slot or later."""
    c, n = assigns.shape
    sizes, rank = sizes_and_ranks(assigns, slots)
    from_slot = np.cumsum(sizes[:, ::-1], axis=1)[:, ::-1]
    ladder = np.take_along_axis(sizes, assigns, 1) - rank
    low = np.minimum(assigns[:, :, None], assigns[:, None, :]).reshape(c, n * n)
    lca = np.take_along_axis(from_slot, low, 1).reshape(c, n, n)
    same = assigns[:, :, None] == assigns[:, None, :]
    first = np.minimum.outer(np.arange(n), np.arange(n))
    lca = np.where(same, ladder[:, first], lca)
    return (lca * dist).reshape(c, n * n).sum(axis=1) / 2.0


def reference_arrangement_values(dist, assigns, k):
    """``evaluate_la`` of the consecutive-parts embedding of each assignment
    row, as the reduced LA search once scored it: point i sits at slot
    (points in lower parts) + (rank of i by id in its part) + 1."""
    c, n = assigns.shape
    sizes, rank = sizes_and_ranks(assigns, k)
    before = np.cumsum(sizes, axis=1) - sizes
    pos = (np.take_along_axis(before, assigns, 1) + rank + 1).astype(float)
    gaps = np.abs(pos[:, :, None] - pos[:, None, :]) * dist
    return gaps.reshape(c, n * n).sum(axis=1) / 2.0


def reference_skeleton_tree(skeleton, parts):
    """``objectives.ladders_on`` as it was: the nested-tuple ``skeleton`` with
    its slot leaves replaced by ascending-id ladders, empty slots dropped,
    walked into an ``HcTree`` (``None`` when every slot is empty)."""

    def build(node):
        if isinstance(node, tuple):
            left = build(node[0])
            right = build(node[1])
            if left is None:
                return right
            if right is None:
                return left
            return (left, right)
        members = parts[node]
        if not members:
            return None
        ladder = members[-1]
        for point in reversed(members[:-1]):
            ladder = (point, ladder)
        return ladder

    root = build(skeleton)
    return None if root is None else HcTree(root)


def reference_caterpillar_skeleton(slots):
    """The reduced HC search's skeleton as nested tuples: (0, (1, (..., slots - 1)))."""
    node = slots - 1
    for s in range(slots - 2, -1, -1):
        node = (s, node)
    return node


def reference_hc_value(m, assign, slots):
    """``evaluate_hc`` of the caterpillar-of-ladders tree of one assignment."""
    skeleton = reference_caterpillar_skeleton(slots)
    return evaluate_hc(m, reference_skeleton_tree(skeleton, _parts_of(assign, slots)))


def reference_la_value(m, assign, k):
    """``evaluate_la`` of the consecutive-parts embedding of one assignment."""
    return evaluate_la(m, _embed_assignment(assign))


def reference_move_gains(value, m, assign, parts, moves=None):
    """Gain of every single-point move of one assignment in scan order, or of
    the (point, target) pairs ``moves``: the ``value`` (``reference_hc_value``
    or ``reference_la_value``) of the moved assignment less the value of
    ``assign``."""
    assign = [int(a) for a in assign]
    if moves is None:
        moves = [(p, b) for p in range(len(assign)) for b in range(parts) if b != assign[p]]
    base = value(m, assign, parts)
    out = []
    for p, b in moves:
        moved = list(assign)
        moved[p] = int(b)
        out.append(value(m, moved, parts) - base)
    return np.array(out)


def reference_swap_gain(m, pos, i, j):
    """Change of the LA value when points i and j trade slots."""
    # Swapping slots of i and j only changes pairs touching them.
    gi = np.abs(pos - pos[j]) - np.abs(pos - pos[i])
    gj = np.abs(pos - pos[i]) - np.abs(pos - pos[j])
    delta = float(m.dist[i] @ gi) + float(m.dist[j] @ gj)
    return delta - 2.0 * m.dist[i, j] * gi[j]  # i-j pair counted twice


def reference_swap_table(dist, pos):
    """The swap tables of ``la_dense._swap_gains`` with the terms added in
    the order of the formula, S + S^T - diag_i - diag_j + 2 D A, from four
    n x n arrays per row."""
    gaps = np.abs(pos[..., :, None] - pos[..., None, :])
    s = dist @ gaps
    diag = np.diagonal(s, axis1=-2, axis2=-1)
    gains = s + np.swapaxes(s, -1, -2)
    gains -= diag[..., :, None]
    gains -= diag[..., None, :]
    gaps *= 2.0 * dist
    gains += gaps
    return gains


def reference_evaluate_la(m, arrangement):
    """``evaluate_la`` as one expression over two n x n arrays."""
    pos = np.asarray(arrangement.position, dtype=float)
    gaps = np.abs(pos[:, None] - pos[None, :])
    return float((m.dist * gaps).sum() / 2.0)


def reference_core_distances(sub, core):
    """``la_peeling._core_distances`` as the minima of an n x |core| gather
    of the core's columns."""
    return sub.dist[:, core].min(axis=1)


def reference_la_split(sub, stats, core, eps):
    """``la_peeling._split`` on ``reference_core_distances``."""
    far = reference_core_distances(sub, core) >= eps**2 * stats.diameter
    kept = np.flatnonzero(~far).tolist()
    return np.flatnonzero(far).tolist(), sorted(set(kept).difference(core)), kept


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


def reference_pick(candidates, value, key):
    """The dense solvers' pick: the candidate of largest ``value``, and of
    smallest ``key`` among equal values, as one sort key."""
    return min(candidates, key=lambda cand: (-value(cand), key(cand)))


def reference_hc_reduced(m, cfg, seed):
    """Tree of the reduced HC search, one full evaluation per candidate: the
    restarts search the quantized metric, and the pick takes the ladder and
    each restart's tree by their values there."""
    n, slots = m.n, slot_count(cfg.eps)
    q = Metric(quantize(m.dist))
    skeleton = reference_caterpillar_skeleton(slots)
    candidates = [ladder_tree(range(n))]

    def score(a):
        tree = reference_skeleton_tree(skeleton, _parts_of(a, slots))
        return evaluate_hc(q, tree), tree

    for ss in np.random.SeedSequence(seed).spawn(cfg.restarts):
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, slots, size=n)
        value, tree = score(assign)
        for _ in range(local_search.moves(n)):
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
        candidates.append(tree)
    return reference_pick(candidates, lambda tree: evaluate_hc(q, tree), HcTree.serialize)


def reference_la_reduced(m, cfg, seed):
    """Arrangement of the reduced LA search, one full evaluation per candidate:
    the restarts and the swap climb search the quantized metric, and the pick
    takes the identity, its climb and each restart's climb by their values
    there."""
    n, k, sweeps = m.n, part_count(cfg.eps), la_dense.CLIMB_SWEEPS
    q = Metric(quantize(m.dist))
    identity = LinearArrangement.from_order(range(n))
    candidates = [identity, reference_swap_hill_climb(q, identity, sweeps)]

    for ss in np.random.SeedSequence(seed).spawn(cfg.restarts):
        rng = np.random.default_rng(ss)
        assign = rng.integers(0, k, size=n)
        value = evaluate_la(q, _embed_assignment(assign))
        for _ in range(local_search.moves(n)):
            move = None  # (gain, point, target)
            for p in range(n):
                a = int(assign[p])
                for b in range(k):
                    if b == a:
                        continue
                    assign[p] = b
                    cand_val = evaluate_la(q, _embed_assignment(assign))
                    assign[p] = a
                    gain = cand_val - value
                    if move is None or gain > move[0] + 1e-12:
                        move = (gain, p, b)
            if move is None or move[0] <= 1e-12:
                break
            _, p, b = move
            assign[p] = b
            value = evaluate_la(q, _embed_assignment(assign))
        candidates.append(reference_swap_hill_climb(q, _embed_assignment(assign), sweeps))
    return reference_pick(candidates, lambda arr: evaluate_la(q, arr), _position)


def reference_faithful_pick(m, objective, parts, hits, reduced):
    """Witness of a faithful solve whose grid found the assignments ``hits``
    and whose reduced search found ``reduced``: the pick, on the quantized
    metric, of ``reduced`` and, for each hit, the tree of every skeleton
    on the slots (HC) or the consecutive-parts arrangement (LA)."""
    q = Metric(quantize(m.dist))
    if objective == "hc":
        skeletons = list(reference_all_binary_trees(range(parts)))
        candidates = [reduced] + [reference_skeleton_tree(skeleton, _parts_of(hit, parts))
                                  for hit in hits for skeleton in skeletons]
        return reference_pick(candidates, lambda tree: evaluate_hc(q, tree), HcTree.serialize)
    orders = (sorted(range(m.n), key=lambda p: (hit[p], p)) for hit in hits)
    candidates = [reduced, *map(LinearArrangement.from_order, orders)]
    return reference_pick(candidates, lambda arr: evaluate_la(q, arr), _position)


def reference_move(sizes, cross, part_dist, p, a, b):
    """Copies of the part sizes and the crossing matrix after point p moves
    from part a to part b; ``part_dist[p, j]`` is p's weight to part j."""
    sz = sizes.copy()
    sz[a] -= 1
    sz[b] += 1
    cr = cross.copy()
    cr[a, :] -= part_dist[p]
    cr[:, a] -= part_dist[p]
    cr[b, :] += part_dist[p]
    cr[:, b] += part_dist[p]
    cr[a, a] += part_dist[p, a]
    cr[b, b] -= part_dist[p, b]
    return sz, cr


def all_assignments(n, k):
    """The k^n assignments of n points to k parts as (k^n, n) rows, in
    lexicographic order."""
    return np.indices((k,) * n).reshape(n, -1).T


def exact_masks(m, eps_err, bounds, assignments):
    """For each cell of ``bounds`` = (slb, sub, wlb, wub), the (L, k) size
    and (U, k * k) weight cells of ``_search_cells``, size cell outer, the
    mask of the (A, n) ``assignments`` that meet it within ``eps_err``: the
    partition search's exact test, the metric quantized and the bounds put
    on its integer scale once by ``_integer_cells``, each assignment's
    statistics built once by ``_stats`` and its penalty taken by
    ``_penalty``, feasible at 0."""
    assigns = np.asarray(assignments, dtype=int).reshape(-1, m.n)
    q, unit, (lo, hi, wlo, whi) = _integer_cells(m, eps_err, *bounds)
    sizes, cross, _ = _stats(q, assigns, lo.shape[1])
    weights, rows = cross.reshape(len(assigns), -1), np.arange(len(assigns))
    for size_lo, size_hi in zip(lo, hi):
        for cell_lo, cell_hi in zip(wlo, whi):
            yield _penalty(unit, (size_lo, size_hi, cell_lo, cell_hi), sizes, weights, rows) == 0


def exact_feasible(m, spec, eps_err, assignments):
    """``exact_masks`` of the one cell of ``spec``: which of the (A, n)
    ``assignments`` meet it within ``eps_err``, as the search decides."""
    return next(exact_masks(m, eps_err, _bounds(spec), assignments))


def smallest_feasible(m, spec, eps_err):
    """The lexicographically smallest assignment tuple meeting ``spec``
    within ``eps_err`` by ``exact_feasible``, or None: brute force over all
    k^n assignments."""
    assigns = all_assignments(m.n, spec.k)
    hits = np.flatnonzero(exact_feasible(m, spec, eps_err, assigns))
    return tuple(assigns[hits[0]].tolist()) if len(hits) else None


def reference_crossing_matrix(m, assignment, k):
    """``partition_search.crossing_matrix`` as it was: the symmetric k x k
    float weight matrix of an assignment on the true metric, off-diagonal
    the crossing weights, diagonal the intra-part weights."""
    onehot = np.eye(k)[np.asarray(assignment, dtype=int)]
    cross = onehot.T @ m.dist @ onehot
    np.fill_diagonal(cross, np.diag(cross) / 2.0)
    return cross


def float_bounds(m, spec):
    """(norm, slb, sub, wlb, wub): the weight normaliser n^2 * D_V, 1 when
    D_V = 0, and ``spec``'s bound arrays, as the float decisions of the
    partition search read them."""
    slb, sub, wlb, wub = (b[0] for b in _bounds(spec))
    return (m.n * m.n * m.diameter() or 1.0, slb, sub, wlb.reshape(spec.k, spec.k),
            wub.reshape(spec.k, spec.k))


def reference_feasible(m, spec, eps_err, assignment):
    """The partition search's feasibility test on float sums, as it was:
    every size fraction and normalised crossing weight within
    eps_err + 1e-12 of its bounds."""
    norm, slb, sub, wlb, wub = float_bounds(m, spec)
    sizes = np.bincount(np.asarray(assignment, dtype=int), minlength=spec.k) / m.n
    cross = reference_crossing_matrix(m, assignment, spec.k) / norm
    return not ((sizes < slb - eps_err - 1e-12).any() or (sizes > sub + eps_err + 1e-12).any()
                or (cross < wlb - eps_err - 1e-12).any() or (cross > wub + eps_err + 1e-12).any())


def reference_search_local(m, spec, eps_err, restarts, seed):
    """Assignment found by the partition search's local regime, or None, as
    it was: every candidate move copies the sizes and the crossing matrix and
    is scored on its own; the lowest penalty wins, the earliest within 1e-15."""
    n, k = m.n, spec.k
    norm, slb, sub, wlb, wub = float_bounds(m, spec)
    slack = max(eps_err, 1e-12)

    def penalty(sizes, cross):
        sfrac = sizes / n
        wfrac = cross / norm
        v = np.maximum(0.0, slb - eps_err - sfrac) + np.maximum(0.0, sfrac - sub - eps_err)
        w = np.maximum(0.0, wlb - eps_err - wfrac) + np.maximum(0.0, wfrac - wub - eps_err)
        return float(v.sum() + w[np.isfinite(w)].sum()) / slack

    found = []
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(ss)
        assign = _greedy_seed(rng, n, k, slb)
        onehot = np.eye(k)[assign]
        part_dist = m.dist @ onehot  # part_dist[p, j] = W(p, part j)
        sizes = onehot.sum(axis=0)
        cross = reference_crossing_matrix(m, assign, k)
        pen = penalty(sizes, cross)
        for _ in range(local_search.moves(n)):
            if pen <= 0.0:
                break
            best = None  # (new_pen, point, target)
            for p in range(n):
                a = assign[p]
                for b in range(k):
                    if b == a:
                        continue
                    cand = penalty(*reference_move(sizes, cross, part_dist, p, a, b))
                    if best is None or cand < best[0] - 1e-15:
                        best = (cand, p, b)
            if best is None or best[0] >= pen - 1e-15:
                break
            pen, p, b = best
            a = assign[p]
            assign[p] = b
            sizes, cross = reference_move(sizes, cross, part_dist, p, a, b)
            part_dist[:, a] -= m.dist[:, p]
            part_dist[:, b] += m.dist[:, p]
        if pen <= 0.0:
            cand = tuple(int(x) for x in assign)
            if reference_feasible(m, spec, eps_err, cand):
                found.append(cand)
    return min(found) if found else None


def reference_search_exhaustive(m, spec, eps_err, enumerated):
    """Lexicographically smallest assignment of ``enumerated``, the output of
    ``enumerate_assignments``, that meets ``spec``, or None: one spec tested
    against every assignment."""
    n = m.n
    norm, slb, sub, wlb, wub = float_bounds(m, spec)
    digits, sizes, cross = enumerated
    ok = (
        (sizes / n >= slb - eps_err - 1e-12).all(axis=1)
        & (sizes / n <= sub + eps_err + 1e-12).all(axis=1)
        & (cross / norm >= wlb - eps_err - 1e-12).all(axis=(1, 2))
        & (cross / norm <= wub + eps_err + 1e-12).all(axis=(1, 2))
    )
    hits = np.flatnonzero(ok)
    if len(hits) == 0:
        return None
    return tuple(int(a) for a in digits[hits[0]])


def reference_enumerate_assignments(dist, k):
    """``enumerate_assignments``'s digits, sizes and crossing matrices in the
    einsum form it had, on the distances ``dist`` as given: the statistics of
    chunks of at most ``BATCH_ENTRIES`` one-hot entries, each sum of an
    entry's products in one C loop."""
    n = len(dist)
    digits = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int8)
    sizes, cross = np.empty((len(digits), k)), np.empty((len(digits), k, k))
    step = max(1, BATCH_ENTRIES // (n * k))
    for lo in range(0, len(digits), step):
        onehot = np.eye(k)[digits[lo : lo + step]]  # (A, n, k)
        sizes[lo : lo + step] = onehot.sum(axis=1)
        inner = np.einsum("nm,amk->ank", dist, onehot)
        cross[lo : lo + step] = np.einsum("ank,anj->akj", onehot, inner)
    idx = np.arange(k)
    cross[:, idx, idx] /= 2.0
    return digits, sizes, cross


def reference_grid_cells(levels, step, count, keep):
    """``partition_search.grid_cells`` as it was: lists [i_1 * step, ...,
    i_count * step] over ``itertools.product``, each kept when ``keep``
    accepts its Python ``sum``."""
    for cell in itertools.product(range(levels), repeat=count):
        values = [i * step for i in cell]
        if keep(sum(values)):
            yield values


def reference_weight_cells(m, parts, levels, eps_err):
    """The crossing-weight cells ``grid_partitions`` searches: each pair's
    weight on the grid {i * eps_err : 0 <= i < levels}, pairs a < b
    row-major, cells in lexicographic order, kept when their sum less
    ``pairs * eps_err`` is at most the density rho."""
    pairs = parts * (parts - 1) // 2
    rho = reference_subset_stats(m, range(m.n)).density
    cells = ([i * eps_err for i in cell]
             for cell in itertools.product(range(levels), repeat=pairs))
    return [mu for mu in cells if sum(mu) - pairs * eps_err <= rho + 1e-12]


def reference_grid_partitions(m, parts, size_cells, levels, eps_err, restarts, seed):
    """The assignments ``grid_partitions`` yields, in order, as its per-cell
    loop found them: one spec per cell of ``reference_weight_cells``,
    searched on its own, against the grid's one enumeration in the
    exhaustive regime and by ``reference_search_local`` in the local one."""
    pairs = [(a, b) for a in range(parts) for b in range(a + 1, parts)]
    mu_cells = reference_weight_cells(m, parts, levels, eps_err)
    enumerated = reference_enumerate_assignments(m.dist, parts) if exhaustive(m.n, parts) else None
    found = []
    for lam in size_cells:
        for mu in mu_cells:
            wb = [[(0.0, np.inf)] * parts for _ in range(parts)]
            for (a, b), target in zip(pairs, mu):
                wb[a][b] = wb[b][a] = (target, target)
            spec = PartitionSpec.build(parts, size_bounds=[(v, v) for v in lam],
                                       weight_bounds=wb)
            if enumerated is not None:
                hit = reference_search_exhaustive(m, spec, eps_err, enumerated)
            else:
                hit = reference_search_local(m, spec, eps_err, restarts, seed)
            if hit is not None and hit not in found:
                found.append(hit)
    return found


def reference_subset_weights(m):
    """``oracles._subset_weights`` as a loop over the masks: intra[S], the
    weight inside bitmask S, is the weight inside S without its lowest point
    p plus the weights from p to the rest summed from 0.0 in ascending id."""
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


def reference_brute_force_la(m):
    """``oracles.brute_force_la`` as the loop DP it replaced, without its cap:
    masks by popcount, each scanning its points p ascending with a strict
    ``>``, so the lowest p among exact maxima is kept."""
    n = m.n
    if n == 1:
        return OracleResult(0.0, LinearArrangement.from_order([0]), 1)
    intra = reference_subset_weights(m)
    rowsum = m.dist.sum(axis=1)
    best = np.full(1 << n, -np.inf)
    best[0] = 0.0
    choice = np.zeros(1 << n, dtype=int)
    for mask in sorted(range(1, 1 << n), key=lambda s: s.bit_count()):
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


def reference_brute_force_hc(m):
    """``oracles.brute_force_hc`` as the loop DP it replaced, without its cap:
    masks by popcount, each scanning its splits with the left side (the one
    holding the lowest point) descending, keeping the smallest left side
    among exact maxima."""
    n = m.n
    if n == 1:
        return OracleResult(0.0, HcTree(0), 1)
    intra = reference_subset_weights(m)
    best = np.zeros(1 << n)
    choice = np.zeros(1 << n, dtype=int)
    explored = 0
    for mask in sorted(range(1 << n), key=lambda s: s.bit_count()):
        size = mask.bit_count()
        if size < 2:
            continue
        low = mask & -mask
        rest = mask ^ low
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
        return (build(left), build(mask ^ left))

    witness = HcTree(build((1 << n) - 1))
    return OracleResult(evaluate_hc(m, witness), witness, explored)


def reference_all_binary_trees(leaves):
    """``objectives.all_binary_trees`` as nested tuples, in its order: the
    trees over the first j + 1 leaves are those over the first j with leaf j
    inserted as the right sibling of each node, in pre-order."""
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
