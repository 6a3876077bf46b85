import numpy as np
import pytest

from conftest import random_metric
from peelembed.errors import FaithfulGridTooLarge, InvalidSpec
from peelembed.la_dense import part_count, solve_la_dense
from peelembed.local_search import SolveConfig
from peelembed.metric import validate_metric
from peelembed.objectives import LinearArrangement, evaluate_la
from peelembed.oracles import brute_force_la

U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def test_config_validation():
    assert part_count(0.5) == 2
    assert part_count(0.26) == 4
    assert part_count(0.9) == 2  # k floored at 2
    with pytest.raises(InvalidSpec):
        SolveConfig(eps=0.0)
    with pytest.raises(InvalidSpec):
        SolveConfig(eps=0.5, grid_mode="exact")


def test_negative_swap_sweeps_rejected():
    with pytest.raises(InvalidSpec):
        SolveConfig(eps=0.0)


def test_uniform_any_mode_scores_ten():
    for mode in ("reduced", "faithful"):
        arr, _ = solve_la_dense(U4, SolveConfig(eps=0.5, grid_mode=mode))
        assert evaluate_la(U4, arr) == 10.0


def test_degenerate_sizes():
    m1 = validate_metric([[0.0]])
    assert solve_la_dense(m1, SolveConfig(eps=0.5))[0].position == (1,)
    # n < k returns the identity arrangement
    m2 = validate_metric([[0, 1], [1, 0]])
    cfg = SolveConfig(eps=0.3)  # k = 3
    assert solve_la_dense(m2, cfg)[0].position == (1, 2)


def test_two_cluster_faithful_hits_oracle(two_cluster_6):
    opt = brute_force_la(two_cluster_6).value
    arr, _ = solve_la_dense(two_cluster_6, SolveConfig(eps=0.5, grid_mode="faithful"))
    assert evaluate_la(two_cluster_6, arr) == pytest.approx(opt)


def test_faithful_never_below_reduced(two_cluster_6):
    rng = np.random.default_rng(2)
    for seed in range(4):
        m = random_metric(rng, 6)
        red = evaluate_la(m, solve_la_dense(m, SolveConfig(eps=0.5), seed=seed)[0])
        fai = evaluate_la(
            m, solve_la_dense(m, SolveConfig(eps=0.5, grid_mode="faithful"), seed=seed)[0]
        )
        assert fai >= red - 1e-9


def test_soundness_against_oracle(corpus):
    for label, m in corpus[:30]:
        arr, _ = solve_la_dense(m, SolveConfig(eps=0.5))
        assert evaluate_la(m, arr) <= brute_force_la(m).value + 1e-9, label


def test_output_beats_random_arrangements(corpus):
    rng = np.random.default_rng(9)
    for label, m in corpus[:12]:
        val = evaluate_la(m, solve_la_dense(m, SolveConfig(eps=0.5))[0])
        best_random = max(
            evaluate_la(m, LinearArrangement.from_order(rng.permutation(m.n)))
            for _ in range(100)
        )
        assert val >= best_random - 1e-9, label


def test_budget_monotonicity(two_cluster_6):
    vals = []
    for restarts in (1, 4, 16):
        cfg = SolveConfig(eps=0.5, restarts=restarts)
        vals.append(evaluate_la(two_cluster_6, solve_la_dense(two_cluster_6, cfg, seed=3)[0]))
    assert vals == sorted(vals)


def test_determinism(two_cluster_6):
    cfg = SolveConfig(eps=0.5, grid_mode="faithful")
    a = solve_la_dense(two_cluster_6, cfg, seed=5)
    b = solve_la_dense(two_cluster_6, cfg, seed=5)
    assert a == b


def test_faithful_grid_cap():
    m = random_metric(np.random.default_rng(0), 8)
    cfg = SolveConfig(eps=0.25, grid_mode="faithful")  # k=4: grid explodes
    with pytest.raises(FaithfulGridTooLarge):
        solve_la_dense(m, cfg)
