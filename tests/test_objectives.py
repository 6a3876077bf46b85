import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from peelembed.errors import DuplicateLeaf, EmptyInput, MalformedTree, SizeMismatch
from peelembed.metric import Metric, metric_from_points, validate_metric
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    evaluate_hc,
    evaluate_la,
    ladder_tree,
    relabel,
)
from structural import reference_evaluate_hc

M3 = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])  # w01=1, w02=2, w12=1
U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def pair_loop_la(m, arr):
    total = 0.0
    for i in range(m.n):
        for j in range(i + 1, m.n):
            total += m.dist[i, j] * abs(arr.position[i] - arr.position[j])
    return total


def pair_loop_hc(m, tree):
    def lca_size(node, i, j):
        if not isinstance(node, tuple):
            return None
        left = set(HcTree(node[0]).leaves()) if isinstance(node[0], tuple) else {node[0]}
        right = set(HcTree(node[1]).leaves()) if isinstance(node[1], tuple) else {node[1]}
        both = left | right
        if i in left and j in left:
            return lca_size(node[0], i, j)
        if i in right and j in right:
            return lca_size(node[1], i, j)
        return len(both) if (i in both and j in both) else None

    total = 0.0
    for i in range(m.n):
        for j in range(i + 1, m.n):
            total += m.dist[i, j] * lca_size(tree.root, i, j)
    return total


def test_la_frozen_values():
    assert evaluate_la(M3, LinearArrangement.from_order([0, 1, 2])) == 6.0
    assert evaluate_la(M3, LinearArrangement.from_order([1, 0, 2])) == 5.0
    assert evaluate_la(U4, LinearArrangement.from_order([2, 0, 3, 1])) == 10.0


def test_hc_frozen_values():
    assert evaluate_hc(M3, HcTree((0, (1, 2)))) == 11.0
    assert evaluate_hc(M3, HcTree((1, (0, 2)))) == 10.0
    assert evaluate_hc(U4, ladder_tree([0, 1, 2, 3])) == 20.0


def test_la_positions_must_biject():
    with pytest.raises(SizeMismatch):
        LinearArrangement.from_positions([1, 1, 2])
    with pytest.raises(SizeMismatch):
        LinearArrangement.from_order([0, 0, 1])
    with pytest.raises(SizeMismatch):
        evaluate_la(M3, LinearArrangement.from_order([0, 1]))


def test_hc_tree_validation():
    with pytest.raises(DuplicateLeaf):
        HcTree((0, (0, 1)))
    with pytest.raises(MalformedTree):
        HcTree((0, 1, 2))
    with pytest.raises(SizeMismatch):
        evaluate_hc(M3, HcTree((0, 1)))  # leaf 2 missing


def test_la_serialize_roundtrip():
    arr = LinearArrangement.from_order([2, 0, 1])
    assert LinearArrangement.parse(arr.serialize()) == arr
    assert arr.reversed().reversed() == arr


def test_hc_serialize_roundtrip():
    tree = HcTree((0, (1, 2)))
    assert tree.serialize() == "(0,(1,2))"
    assert HcTree.parse(tree.serialize()) == tree
    with pytest.raises(MalformedTree):
        HcTree.parse("(0,1))")
    with pytest.raises(MalformedTree):
        HcTree.parse("(0,1,2)")


def test_deep_ladder_no_recursion_limit():
    from peelembed.metric import Metric

    n = 3000
    tree = ladder_tree(range(n))
    text = tree.serialize()
    # deep tuple == would itself recurse, so compare serializations
    assert HcTree.parse(text).serialize() == text
    assert HcTree(relabel(tree.root, {i: i for i in range(n)})).serialize() == text
    idx = np.arange(n, dtype=float)
    metric = Metric(np.abs(idx[:, None] - idx[None, :]))
    assert evaluate_hc(metric, tree) > 0


def test_ladder_tail_replaces_deepest_slot():
    tail = HcTree((3, 4))
    tree = ladder_tree([0, 1, 2], tail=tail)
    assert tree.root == (0, (1, (2, (3, 4))))
    assert ladder_tree([], tail=tail).root == tail.root
    with pytest.raises(EmptyInput):
        ladder_tree([])
    with pytest.raises(DuplicateLeaf):
        ladder_tree([3], tail=tail)


def test_single_leaf_tree_scores_zero():
    m1 = validate_metric([[0.0]])
    assert evaluate_hc(m1, HcTree(0)) == 0.0
    assert evaluate_la(m1, LinearArrangement.from_order([0])) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_la_matches_pair_loop_and_reversal(n, seed):
    rng = np.random.default_rng(seed)
    m = random_metric(rng, n)
    order = list(rng.permutation(n))
    arr = LinearArrangement.from_order(order)
    val = evaluate_la(m, arr)
    assert val == pytest.approx(pair_loop_la(m, arr), rel=1e-12)
    assert evaluate_la(m, arr.reversed()) == pytest.approx(val, rel=1e-12)
    assert val <= m.n * m.total_weight() + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_hc_matches_pair_loop_and_child_swap(n, seed):
    rng = np.random.default_rng(seed)
    m = random_metric(rng, n)
    order = list(rng.permutation(n))
    tree = ladder_tree(order[: n // 2], tail=ladder_tree(order[n // 2 :]))
    val = evaluate_hc(m, tree)
    assert val == pytest.approx(pair_loop_hc(m, tree), rel=1e-12)
    swapped = HcTree((tree.root[1], tree.root[0]))
    assert evaluate_hc(m, swapped) == pytest.approx(val, rel=1e-12)
    assert 2 * m.total_weight() - 1e-9 <= val <= m.n * m.total_weight() + 1e-9


def random_tree(rng, leaves):
    """Random binary tree: merge two random subtrees until one is left."""
    nodes = [int(p) for p in leaves]
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        right, left = nodes.pop(j), nodes.pop(i)
        nodes.append((left, right))
    return nodes[0]


def caterpillar(rng, leaves):
    """Spine whose every node hangs one leaf, on a random side."""
    node = int(leaves[0])
    for p in leaves[1:]:
        node = (int(p), node) if rng.random() < 0.5 else (node, int(p))
    return node


def hc_trees(rng, n):
    """Ladders with and without a tail, a caterpillar, a random tree and a
    relabelled subtree under a ladder, each over 0..n-1."""
    perm = [int(p) for p in rng.permutation(n)]
    cut = int(rng.integers(0, n))
    kept = sorted(int(p) for p in rng.choice(n, size=n - cut, replace=False))
    layer = [p for p in range(n) if p not in set(kept)]
    inner = HcTree(random_tree(rng, range(len(kept))))
    return [
        ladder_tree(perm),
        ladder_tree(perm[:cut], tail=HcTree(random_tree(rng, perm[cut:]))),
        HcTree(caterpillar(rng, perm)),
        HcTree(random_tree(rng, perm)),
        ladder_tree(layer, tail=HcTree(relabel(inner.root, kept))),
    ]


def hc_metrics(rng, n):
    """A point-cloud metric, one induced by ``submetric`` and two built from
    a Fortran-ordered matrix."""
    m = metric_from_points(rng.normal(size=(n, 3)))
    big = metric_from_points(rng.normal(size=(n + 7, 2)) * 10.0)
    ids = sorted(int(p) for p in rng.choice(n + 7, size=n, replace=False))
    fortran = np.asfortranarray(m.dist)
    return [m, big.submetric(ids), Metric(fortran), validate_metric(fortran)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 129, 300])
def test_evaluate_hc_bit_equal_to_reference(n):
    rng = np.random.default_rng(n)
    for m in hc_metrics(rng, n):
        for tree in hc_trees(rng, n):
            assert evaluate_hc(m, tree) == reference_evaluate_hc(m, tree)


def test_ladder_tree_checks_its_parts():
    tail = HcTree((3, (4, 5)))
    tree = ladder_tree([2, 0, 1], tail=tail)
    assert tree.root == (2, (0, (1, (3, (4, 5)))))
    assert sorted(tree.leaves()) == list(range(6))
    with pytest.raises(DuplicateLeaf):
        ladder_tree([0, 4], tail=tail)
    with pytest.raises(DuplicateLeaf):
        ladder_tree([0, 1, 0])
