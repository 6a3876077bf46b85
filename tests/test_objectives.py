import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from peelembed.errors import DuplicateLeaf, EmptyInput, MalformedTree, SizeMismatch
from peelembed.metric import validate_metric
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    evaluate_hc,
    evaluate_la,
    ladder_tree,
    relabel,
)

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
