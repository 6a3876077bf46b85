import numpy as np
import pytest

from conftest import random_metric
from peelembed import objectives
from peelembed.errors import InvalidSpec
from peelembed.hc_dense import _parts_of, slot_count, solve_hc_dense
from peelembed.local_search import SolveConfig, best_of
from peelembed.metric import subset_stats, validate_metric
from peelembed.objectives import HcTree, all_binary_trees, evaluate_hc, ladder_tree, ladders_on
from peelembed.oracles import brute_force_hc
from structural import (
    has_not_all_small_weights,
    reference_all_binary_trees,
    reference_caterpillar_skeleton,
    reference_skeleton_tree,
)

U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def test_config_validation():
    assert slot_count(0.5) == 3
    assert slot_count(0.9) == 2  # k floored at 1
    with pytest.raises(InvalidSpec):
        SolveConfig(eps=1.5)


def test_n2_unique_tree():
    m = validate_metric([[0, 0.7], [0.7, 0]])
    tree, _ = solve_hc_dense(m, SolveConfig(eps=0.5))
    assert evaluate_hc(m, tree) == pytest.approx(1.4)


def test_uniform_any_mode_scores_twenty():
    for mode in ("reduced", "faithful"):
        tree, _ = solve_hc_dense(U4, SolveConfig(eps=0.5, grid_mode=mode))
        assert evaluate_hc(U4, tree) == 20.0


def test_two_cluster_faithful_hits_oracle(two_cluster_6):
    opt = brute_force_hc(two_cluster_6).value
    tree, _ = solve_hc_dense(two_cluster_6, SolveConfig(eps=0.5, grid_mode="faithful"))
    assert evaluate_hc(two_cluster_6, tree) == pytest.approx(opt)


def test_faithful_never_below_reduced_never_below_ladder():
    rng = np.random.default_rng(4)
    for seed in range(3):
        m = random_metric(rng, 6)
        ladder_val = evaluate_hc(m, ladder_tree(range(m.n)))
        red = evaluate_hc(m, solve_hc_dense(m, SolveConfig(eps=0.5), seed=seed)[0])
        fai = evaluate_hc(
            m, solve_hc_dense(m, SolveConfig(eps=0.5, grid_mode="faithful"), seed=seed)[0]
        )
        assert fai >= red - 1e-9 >= ladder_val - 2e-9


def test_soundness_against_oracle(corpus):
    for label, m in corpus[:30]:
        tree, _ = solve_hc_dense(m, SolveConfig(eps=0.5))
        assert evaluate_hc(m, tree) <= brute_force_hc(m).value + 1e-9, label


def test_determinism(two_cluster_6):
    cfg = SolveConfig(eps=0.5, grid_mode="faithful")
    a = solve_hc_dense(two_cluster_6, cfg, seed=5)
    b = solve_hc_dense(two_cluster_6, cfg, seed=5)
    assert a[0].serialize() == b[0].serialize() and a[1] == b[1]


def test_has_not_all_small_weights_on_dense_instances():
    # On any metric with rho >= eps^2, the predicate must hold at c0=c1=eps^2.
    rng = np.random.default_rng(6)
    eps = 0.5
    checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = random_metric(rng, n)
        if subset_stats(m, range(n)).density >= eps**2:
            assert has_not_all_small_weights(m, eps**2, eps**2)
            checked += 1
    assert checked >= 10


def test_has_not_all_small_weights_counterexample():
    # Tight 5-point cluster plus one outlier: 10 of 15 pairs are tiny, so the
    # small-pair fraction 2/3 exceeds 1 - c1 = 1/2.
    dist = np.full((6, 6), 1e-4)
    dist[5, :] = dist[:, 5] = 1.0
    np.fill_diagonal(dist, 0.0)
    m = validate_metric(dist)
    assert not has_not_all_small_weights(m, 0.5, 0.5)


@pytest.mark.parametrize("slots", range(1, 7))
def test_ladders_on_matches_nested_skeleton_trees(slots):
    # every skeleton on the slots, parts of 0-24 points with some slots left
    # empty, and every slot empty (no tree)
    rng = np.random.default_rng(slots)
    for skeleton in all_binary_trees(range(slots)):
        root = skeleton.root
        assert ladders_on(skeleton, [[] for _ in range(slots)]) is None
        for _ in range(5):
            n = int(rng.integers(0, 25))
            used = rng.choice(slots, size=int(rng.integers(1, slots + 1)), replace=False)
            parts = _parts_of(used[rng.integers(0, len(used), n)], slots)
            got, want = ladders_on(skeleton, parts), reference_skeleton_tree(root, parts)
            if want is None:
                assert n == 0 and got is None
            else:
                assert (got.order, got.spans) == (want.order, want.spans)
    assert ladder_tree(range(slots)) == HcTree(reference_caterpillar_skeleton(slots))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_small_n_branch_walks_no_tree(monkeypatch, n):
    # at n <= slots every tree is built straight into order and spans while
    # it is enumerated, and the pick is that of the nested trees walked
    walks = []
    walk = objectives._leaf_spans

    def counted(root):
        walks.append(1)
        return walk(root)

    m = random_metric(np.random.default_rng(n), n)
    cfg = SolveConfig(eps=0.25)
    assert n <= slot_count(cfg.eps)
    monkeypatch.setattr(objectives, "_leaf_spans", counted)
    tree, value = solve_hc_dense(m, cfg)
    assert len(walks) == 0
    monkeypatch.undo()
    nested = map(HcTree, reference_all_binary_trees(range(n)))
    want = best_of([ladder_tree(range(n)), *nested], lambda t: evaluate_hc(m, t), HcTree.serialize)
    assert (tree, value) == want


@pytest.mark.parametrize("n", [12, 120])
def test_reduced_search_walks_no_tree(monkeypatch, n):
    # each distinct restart's tree is built straight into order and spans
    walks = []
    walk = objectives._leaf_spans

    def counted(root):
        walks.append(1)
        return walk(root)

    monkeypatch.setattr(objectives, "_leaf_spans", counted)
    m = random_metric(np.random.default_rng(n), n)
    tree, value = solve_hc_dense(m, SolveConfig(eps=0.5))
    assert len(walks) == 0
    assert value == evaluate_hc(m, tree)
