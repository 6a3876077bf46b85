import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from peelembed.errors import DuplicateLeaf, InvalidSpec, TooLarge
from peelembed.instances import GeneratorSpec, generate
from peelembed.metric import Metric, subset_stats, validate_metric
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    all_binary_trees,
    evaluate_hc,
    evaluate_la,
)
from peelembed.oracles import (
    HC_ORACLE_MAX_N,
    LA_ORACLE_MAX_N,
    _subset_weights,
    average_linkage_hc,
    brute_force_hc,
    brute_force_la,
    random_bisection_la,
)
from structural import (
    reference_all_binary_trees,
    reference_brute_force_hc,
    reference_brute_force_la,
    reference_subset_weights,
)

M3 = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def la_by_permutations(m):
    best = -1.0
    for perm in itertools.permutations(range(m.n)):
        best = max(best, evaluate_la(m, LinearArrangement.from_order(perm)))
    return best


def hc_by_enumeration(m):
    best = -1.0
    for tree in all_binary_trees(range(m.n)):
        best = max(best, evaluate_hc(m, tree))
    return best


def test_la_oracle_frozen():
    res = brute_force_la(M3)
    assert res.value == 6.0
    order = res.witness.order()
    assert {order[0], order[-1]} == {0, 2}  # heavy pair at the endpoints
    assert brute_force_la(U4).value == 10.0
    assert brute_force_la(validate_metric([[0.0]])).value == 0.0


def test_hc_oracle_frozen():
    res = brute_force_hc(M3)
    assert res.value == 11.0
    assert brute_force_hc(U4).value == 20.0
    m2 = validate_metric([[0, 0.7], [0.7, 0]])
    assert brute_force_hc(m2).value == pytest.approx(1.4)


def test_oracle_guards():
    for oracle, cap in ((brute_force_la, LA_ORACLE_MAX_N), (brute_force_hc, HC_ORACLE_MAX_N)):
        with pytest.raises(TooLarge):
            oracle(validate_metric(np.ones((cap + 1, cap + 1)) - np.eye(cap + 1)))


def _same_result(got, want):
    return (got.value, got.witness.serialize(), got.explored) == (
        want.value, want.witness.serialize(), want.explored)


def _assert_matches_loops(m, label):
    # value, witness bytes and explored count equal the loop DPs', bit for bit
    assert _subset_weights(m).tobytes() == reference_subset_weights(m).tobytes(), label
    if m.n <= LA_ORACLE_MAX_N:
        assert _same_result(brute_force_la(m), reference_brute_force_la(m)), label
    if m.n <= HC_ORACLE_MAX_N:
        assert _same_result(brute_force_hc(m), reference_brute_force_hc(m)), label


def test_oracles_match_loop_references_on_corpus(corpus):
    for label, m in corpus:
        _assert_matches_loops(m, label)


def _bench_sweep_families():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_sweep.py"
    spec = importlib.util.spec_from_file_location("bench_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES


@pytest.mark.parametrize("family", _bench_sweep_families())
def test_oracles_match_loop_references_on_bench_families(family):
    # n <= 10: the HC loop takes seconds at n = 12
    for n in range(1, 11):
        try:
            m = generate(GeneratorSpec(family=family, n=n, seed=0))
        except InvalidSpec:  # too few points for the family's outliers
            continue
        _assert_matches_loops(m, f"{family}-n{n}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(0, 10**6), st.booleans())
def test_oracles_match_loop_references_on_random_metrics(n, seed, ties):
    # ties: distances of 1 and 2 only, a metric with many exactly equal values
    rng = np.random.default_rng(seed)
    if ties:
        upper = np.triu(rng.integers(1, 3, size=(n, n)), 1).astype(float)
        m = Metric(upper + upper.T)
    else:
        m = random_metric(rng, n)
    _assert_matches_loops(m, f"n{n}-s{seed}-{ties}")


@pytest.mark.parametrize("leaves", [[], [3], [0, 1], [2, 0, 1], [5, 1, 7, 3, 0], list(range(7))])
def test_all_binary_trees_match_nested_reference(leaves):
    got = [(t.order, t.spans) for t in all_binary_trees(leaves)]
    want = [(t.order, t.spans) for t in map(HcTree, reference_all_binary_trees(leaves))]
    assert got == want


def test_all_binary_trees_rejects_repeated_leaves():
    with pytest.raises(DuplicateLeaf, match="leaf 1"):
        list(all_binary_trees([0, 1, 2, 1]))


def test_witness_reevaluates_to_value(corpus):
    for label, m in corpus[:40]:
        la = brute_force_la(m)
        assert evaluate_la(m, la.witness) == la.value, label
        if m.n <= 8:
            hc = brute_force_hc(m)
            assert evaluate_hc(m, hc.witness) == hc.value, label


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_la_dp_matches_permutation_enumeration(n, seed):
    m = random_metric(np.random.default_rng(seed), n)
    assert brute_force_la(m).value == pytest.approx(la_by_permutations(m), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_hc_dp_matches_tree_enumeration(n, seed):
    m = random_metric(np.random.default_rng(seed), n)
    assert brute_force_hc(m).value == pytest.approx(hc_by_enumeration(m), rel=1e-12)


def test_all_binary_trees_double_factorial_counts():
    for n, count in [(2, 1), (3, 3), (4, 15), (5, 105), (6, 945)]:
        trees = [t.serialize() for t in all_binary_trees(range(n))]
        assert len(trees) == count
        assert len(set(trees)) == count  # no duplicates


def test_random_bisection_deterministic_and_sound(two_cluster_6):
    a = random_bisection_la(two_cluster_6, seed=7)
    b = random_bisection_la(two_cluster_6, seed=7)
    assert a == b
    opt = brute_force_la(two_cluster_6).value
    vals = [
        evaluate_la(two_cluster_6, random_bisection_la(two_cluster_6, seed=s))
        for s in range(200)
    ]
    assert max(vals) <= opt + 1e-9
    assert np.mean(vals) >= 0.5 * opt


def test_average_linkage_two_cluster(two_cluster_6):
    tree = average_linkage_hc(two_cluster_6)
    assert evaluate_hc(two_cluster_6, tree) == brute_force_hc(two_cluster_6).value
    # root must split the clusters
    left = set(HcTree(tree.root[0]).leaves() if isinstance(tree.root[0], tuple) else [tree.root[0]])
    assert left in ({0, 1, 2}, {3, 4, 5})


def test_average_linkage_two_thirds_floor(corpus):
    for label, m in corpus:
        if m.n > 8:
            continue
        val = evaluate_hc(m, average_linkage_hc(m))
        opt = brute_force_hc(m).value
        assert val <= opt + 1e-9, label
        assert val >= (2.0 / 3.0) * opt - 1e-9, label


def test_fact_33_floor_on_random_metrics():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = random_metric(rng, n)
        w = subset_stats(m, range(n)).weight_sum
        assert brute_force_la(m).value >= n * w / 3.0 - 1e-9
        assert brute_force_hc(m).value >= 2.0 * n * w / 3.0 - 1e-9
