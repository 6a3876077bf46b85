"""Every level of a peel, recomputed without the recursion's shortcuts.

The recursion scores level 0 on the root metric itself, hands each level
its kept block and its subset stats from the level above, and scores an HC
case-(c) level as the level below plus its ladder.  These tests rebuild every
``LevelRecord`` from ``m.submetric(ids)``, fresh ``subset_stats``, the full
``find_core`` and the reference evaluators, and require bit-equal numbers on
runs of depth 3 and more for both objectives.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from peelembed import hc_dense, hc_peeling, la_dense, la_peeling, metric, objectives, peeling
from peelembed.instances import generate, hc_case_c_spec
from peelembed.local_search import SolveConfig
from peelembed.metric import Metric, find_core, metric_from_points, subset_stats
from peelembed.objectives import HcTree, LinearArrangement, evaluate_la

from structural import reference_evaluate_hc, set_weight

# HC's case (b) test keeps a level in case (c) only while its core holds 16 eps
# of the weight at density below eps^2, which takes n in the thousands per
# level.  The HC policy with the case-(b) factor of LA reaches depth 3 and 4
# on a hundred points; everything else about the levels is HC's.
HC_SHALLOW_B = replace(hc_peeling._POLICY, case_b_factor=1.0)


def nested_line(cluster_n, width, outliers):
    """``cluster_n`` evenly spaced points on [0, width], then one point at
    each position in ``outliers``."""
    pts = np.concatenate([np.linspace(0.0, width, cluster_n), outliers])
    return metric_from_points(pts[:, None])


def la_case(cluster_n=800):
    eps = 0.45
    m = nested_line(cluster_n, 4.2 / cluster_n, [0.17, 1.0])
    return la_peeling._POLICY, m, SolveConfig(eps, restarts=0)


def hc_case(cluster_n, width, outliers, eps):
    return HC_SHALLOW_B, nested_line(cluster_n, width, outliers), SolveConfig(eps, restarts=0)


def hc_calibrated_case():
    spec, eps = hc_case_c_spec(1860)
    return hc_peeling._POLICY, generate(spec), SolveConfig(eps, restarts=0)


# name -> (builder of (policy, metric, config), depth of the run)
CASES = {
    "la-cca": (la_case, 3),
    "hc-ccca": (lambda: hc_case(60, 6 * 0.6 * 0.06 / 60, [0.06, 0.25, 1.0], 0.25), 4),
    "hc-cca": (lambda: hc_case(120, 6 * 2.0 * 0.2 / 120, [0.2, 1.0], 0.3), 3),
    "hc-ccb": (lambda: hc_case(60, 6 * 0.3 * 0.09 / 60, [0.09, 0.3, 1.0], 0.25), 3),
    "hc-ca-calibrated": (hc_calibrated_case, 2),
}


def run(name):
    policy, m, cfg = CASES[name][0]()
    return policy, m, cfg, *peeling.peel(policy, m, cfg, 0)


def level_solutions(m, witness, trace):
    """(ids, solution in ids local to them) of each level, from the witness:
    a level's points are the previous level's minus its layer, its LA order
    is the witness order restricted to them, its HC tree the subtree under
    the spine of the layers above."""
    ids = list(range(m.n))
    node = witness.root if isinstance(witness, HcTree) else None
    out = []
    for rec in trace.levels:
        local = {p: i for i, p in enumerate(ids)}
        if node is None:
            order = [p for p in witness.order() if p in local]
            solution = LinearArrangement.from_order([local[p] for p in order])
        else:
            solution = HcTree(node).relabel(local)
        out.append((ids, solution))
        for _ in rec.a_ids:
            node = None if node is None else node[1]
        peeled = set(rec.a_ids)
        ids = [p for p in ids if p not in peeled]
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_level_matches_a_fresh_recount(name):
    policy, m, cfg, witness, trace = run(name)
    assert trace.depth == CASES[name][1] and trace.case_sequence()[-1] in "ab"
    for rec, (ids, solution) in zip(trace.levels, level_solutions(m, witness, trace)):
        sub = m.submetric(ids)
        stats = subset_stats(sub, range(sub.n))
        assert (rec.n, rec.rho) == (sub.n, stats.density)
        if rec.case == "a":
            assert rec.c_ids == tuple(ids) and rec.w_a == 0.0 and rec.w_ac is None
        else:
            core = sorted(find_core(sub).core)
            layer, b, _ = policy.split(sub, stats, core, cfg.eps)
            assert rec.a_ids == tuple(ids[i] for i in layer)
            assert rec.b_ids == tuple(ids[i] for i in b)
            assert rec.c_ids == tuple(ids[i] for i in core)
            assert rec.w_a == set_weight(sub, layer)
            assert rec.w_ac == float(sub.dist[np.ix_(layer, core)].sum())
        if isinstance(solution, HcTree):
            assert rec.alg_value == reference_evaluate_hc(sub, solution)
        else:
            assert rec.alg_value == evaluate_la(sub, solution)
    assert trace.value == trace.levels[0].alg_value


@pytest.mark.parametrize("name", ["la-cca", "hc-ccca", "hc-ccb"])
def test_level_zero_copies_nothing_and_stats_are_computed_once(monkeypatch, name):
    submetric_sizes, stats_calls, evaluate_calls = [], [], []
    original_submetric, original_stats = Metric.submetric, metric.subset_stats

    def counted_submetric(self, indices):
        submetric_sizes.append(len(indices))
        return original_submetric(self, indices)

    def counted_stats(m, subset):
        stats_calls.append((m.n, len(subset)))
        return original_stats(m, subset)

    monkeypatch.setattr(Metric, "submetric", counted_submetric)
    monkeypatch.setattr(metric, "subset_stats", counted_stats)
    monkeypatch.setattr(peeling, "subset_stats", counted_stats)
    for evaluate in ("evaluate_la", "evaluate_hc"):
        def counted_evaluate(m, solution, original=getattr(objectives, evaluate), **kwargs):
            evaluate_calls.append((m.n, kwargs.get("top")))
            return original(m, solution, **kwargs)

        for module in (objectives, la_dense, hc_dense, la_peeling, hc_peeling):
            if hasattr(module, evaluate):
                monkeypatch.setattr(module, evaluate, counted_evaluate)
    _, m, _, _, trace = run(name)
    levels = trace.levels
    # one copy of its kept block per peeled level, none of the whole root:
    # the block of every level below 0, and the kept points of a case (b)
    assert submetric_sizes == [rec.n - rec.n_a for rec in levels if rec.case != "a"]
    # the whole root once; then per peeled level its kept points and its
    # layer when it has two points or more; none from find_core
    expected = 1 + sum(1 + (rec.n_a > 1) for rec in levels if rec.case != "a")
    assert len(stats_calls) == expected
    # the kept points' stats are those of the whole copied block, with no
    # gather of their own
    whole_sets = [(k, k) for k in [m.n] + submetric_sizes]
    assert [call for call in stats_calls if call[0] == call[1]] == whole_sets
    # each level's solution is scored once, a case-(a) one by the dense
    # solver; only the level that ends the recursion scores a whole tree, an
    # HC case-(c) level only its layer's ladder nodes, onto the level below
    whole = name.startswith("la")
    assert evaluate_calls == [
        (rec.n, None if whole or rec is levels[-1] else rec.n_a) for rec in reversed(levels)
    ]
    if name.startswith("hc"):  # one-point layers: at most two per level
        assert len(stats_calls) <= 2 * trace.depth


def test_hc_peel_holds_one_copy_of_the_matrix():
    """A zero-budget HC peel on 1860 points keeps at most one n x n block
    alive beyond the root matrix: the kept block of the level it is in."""
    policy, m, cfg = hc_calibrated_case()
    tracemalloc.start()
    try:
        peeling.peel(policy, m, cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * m.n * m.n * 8  # a second live copy would read about 2
