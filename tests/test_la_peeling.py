"""Peeling solver for the linear arrangement objective.

Covers case routing, trace structure, the per-level structural bounds
(split floor, pair and point ceilings, layer-weight bound), telescoping,
the level-factor product bound and soundness against the exact oracle.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from peelembed.errors import DepthExceeded, InvalidSpec
from peelembed.instances import GeneratorSpec, generate, la_case_c_spec
from peelembed import la_peeling
from peelembed.la_peeling import _core_distances, _split, default_depth, solve_la
from peelembed.local_search import SolveConfig
from peelembed.metric import Metric
from peelembed.objectives import evaluate_la
from peelembed.oracles import brute_force_la

from structural import (
    la_cross_value,
    pair_set_upper_bound,
    point_set_upper_bound,
    reference_core_distances,
    reference_la_split,
    split_lower_bound,
    sub_positions,
)

CASE_C_CFG = SolveConfig(0.45, restarts=0)


def case_c_run(n, seed=0):
    spec, eps = la_case_c_spec(n, seed=seed)
    assert eps == CASE_C_CFG.eps
    m = generate(spec)
    arr, trace = solve_la(m, CASE_C_CFG, seed=seed)
    return m, arr, trace


class TestConfig:
    def test_eps_validation(self):
        with pytest.raises(InvalidSpec):
            SolveConfig(0.0)
        with pytest.raises(InvalidSpec):
            SolveConfig(1.5)

    def test_depth_cap_default(self):
        assert default_depth(2) == 12
        assert default_depth(1024) == 48


class TestCaseRouting:
    def test_dense_instance_is_case_a(self, cluster_outlier_5):
        # rho = 0.184 >= 0.5^6, so the whole instance goes to the dense leaf.
        arr, trace = solve_la(cluster_outlier_5, SolveConfig(eps=0.5))
        assert trace.case_sequence() == "a"
        assert trace.depth == 1
        assert trace.value == pytest.approx(evaluate_la(cluster_outlier_5, arr))

    def test_two_points_case_a(self):
        m = Metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        arr, trace = solve_la(m, SolveConfig(eps=0.5))
        assert trace.case_sequence() == "a"
        assert trace.value == pytest.approx(1.0)

    def test_outlier_layer_case_b(self):
        # 50 tight points plus one far outlier at eps = 0.6: density ~0.02
        # sits under eps^6 ~ 0.047, the outlier is the whole far layer and
        # the remaining weight is far below eps * W, so one level stops in b.
        spec = GeneratorSpec(
            family="cluster_plus_outliers", n=51, outlier_n=1
        )
        m = generate(spec)
        arr, trace = solve_la(m, SolveConfig(eps=0.6))
        assert trace.case_sequence() == "b"
        rec = trace.levels[0]
        assert rec.a_ids == (50,)
        assert rec.b_ids == ()
        assert set(rec.c_ids) == set(range(50))
        # the peeled layer occupies the leftmost slot
        assert arr.position[50] == 1

    def test_two_scale_reaches_case_c(self):
        _, _, trace = case_c_run(300)
        seq = trace.case_sequence()
        assert seq[0] == "c"
        assert seq[-1] in "ab"
        assert trace.depth >= 2

    def test_case_c_layer_leftmost_ascending(self):
        m, arr, trace = case_c_run(300)
        rec = trace.levels[0]
        order = arr.order()
        assert tuple(order[: len(rec.a_ids)]) == tuple(sorted(rec.a_ids))


@pytest.fixture(scope="module")
def runs():
    return [case_c_run(n, seed=s) for n, s in [(300, 0), (400, 1), (600, 2)]]


class TestStructuralBounds:
    """Per-level inequalities recomputed from the trace and the metric."""

    def test_layer_weight_bound(self, runs):
        # W_A + W_AB <= (2 sqrt(rho) / eps^2) * W_AC at every peeled level.
        eps = CASE_C_CFG.eps
        for m, _, trace in runs:
            for rec in trace.levels:
                if rec.case not in "bc":
                    continue
                w_ab = (
                    float(m.dist[np.ix_(rec.a_ids, rec.b_ids)].sum())
                    if rec.b_ids
                    else 0.0
                )
                cap = (2.0 * math.sqrt(rec.rho) / eps**2) * rec.w_ac
                assert rec.w_a + w_ab <= cap * (1 + 1e-9)

    def test_split_floor_on_realized_levels(self, runs):
        # The realized crossing value at each peeled level clears
        # (n_C / 2) * (W_AC - n_A n_C D_C).
        for m, arr, trace in runs:
            order = arr.order()
            for rec in trace.levels:
                if rec.case not in "bc":
                    continue
                ids = rec.a_ids + rec.b_ids + rec.c_ids
                pos = sub_positions(order, ids)
                got = la_cross_value(m, pos, rec.a_ids, rec.c_ids)
                assert got >= split_lower_bound(m, rec.a_ids, rec.c_ids) - 1e-9

    def test_pair_ceiling_any_arrangement(self, runs):
        # No arrangement of the level's points can push the A x C crossing
        # value past (n - n_C / 2) * (W_AC + n_A n_C D_C).
        rng = np.random.default_rng(7)
        for m, _, trace in runs:
            for rec in trace.levels:
                if rec.case not in "bc":
                    continue
                ids = list(rec.a_ids + rec.b_ids + rec.c_ids)
                cap = pair_set_upper_bound(m, len(ids), rec.a_ids, rec.c_ids)
                for _ in range(5):
                    perm = rng.permutation(len(ids))
                    pos = {ids[i]: int(perm[i]) + 1 for i in range(len(ids))}
                    got = la_cross_value(m, pos, rec.a_ids, rec.c_ids)
                    assert got <= cap * (1 + 1e-9)

    def test_point_ceiling_any_arrangement(self, runs):
        rng = np.random.default_rng(11)
        for m, _, trace in runs:
            rec = trace.levels[0]
            ids = list(rec.a_ids + rec.b_ids + rec.c_ids)
            for _ in range(5):
                perm = rng.permutation(len(ids))
                pos = {ids[i]: int(perm[i]) + 1 for i in range(len(ids))}
                for p in rec.a_ids[:3]:
                    got = la_cross_value(m, pos, [p], rec.c_ids)
                    cap = point_set_upper_bound(m, len(ids), p, rec.c_ids)
                    assert got <= cap * (1 + 1e-9)

    def test_telescoping(self, runs):
        # alg_value_i >= alpha_i + alg_value_{i+1} whenever the shrink
        # factor 1 - 5 sqrt(rho) / eps^2 is positive.
        eps = CASE_C_CFG.eps
        for _, _, trace in runs:
            for i, rec in enumerate(trace.levels[:-1]):
                assert rec.case == "c"
                if 5.0 * math.sqrt(rec.rho) / eps**2 >= 1.0:
                    continue
                nxt = trace.levels[i + 1]
                assert rec.alg_value >= rec.alpha + nxt.alg_value - 1e-9

    def test_level_factor_product(self, runs):
        # The product of 1 + 4 sqrt(rho_j) over levels before i stays under
        # 1 + 5 sqrt(rho_i) thanks to the density growth between levels.
        for _, _, trace in runs:
            prod = 1.0
            for i in range(1, trace.depth):
                prod *= trace.levels[i - 1].gamma
                assert prod <= 1.0 + 5.0 * math.sqrt(trace.levels[i].rho) + 1e-12

    def test_density_growth(self, runs):
        # Density at least quadruples from one level to the next.
        for _, _, trace in runs:
            for i in range(trace.depth - 1):
                assert trace.levels[i + 1].rho >= 4.0 * trace.levels[i].rho

    def test_depth_within_log_bound(self, runs):
        for m, _, trace in runs:
            assert trace.depth <= 2 * math.log2(m.n) + 4

    def test_alpha_beta_bracket_level_value(self, runs):
        # Realized crossing value of each peeled level lands in [alpha, beta]
        # scaled checks are already covered; here just sanity that beta >= alpha.
        for _, _, trace in runs:
            for rec in trace.levels:
                if rec.case == "a":
                    assert rec.alpha is None and rec.gamma is None
                else:
                    assert rec.beta >= rec.alpha
                    assert rec.gamma > 1.0


class TestSoundnessAndDeterminism:
    def test_sound_against_oracle(self, corpus):
        for label, m in corpus:
            if m.n > 8:
                continue
            opt = brute_force_la(m).value
            for eps in (0.5, 1.0):
                arr, trace = solve_la(m, SolveConfig(eps=eps))
                assert trace.value <= opt * (1 + 1e-9), label
                assert trace.value == pytest.approx(evaluate_la(m, arr))

    def test_deterministic(self):
        m, arr1, trace1 = case_c_run(300, seed=5)
        _, arr2, trace2 = case_c_run(300, seed=5)
        assert arr1.position == arr2.position
        assert trace1.to_json_lines() == trace2.to_json_lines()

    def test_trace_json_lines_parse(self):
        _, _, trace = case_c_run(300)
        for line in trace.to_json_lines().splitlines():
            rec = json.loads(line)
            assert rec["case"] in "abc"

    def test_depth_exceeded(self, monkeypatch):
        spec, eps = la_case_c_spec(300)
        m = generate(spec)
        monkeypatch.setattr(la_peeling, "default_depth", lambda n: 0)
        with pytest.raises(DepthExceeded):
            solve_la(m, SolveConfig(eps, restarts=0))


@pytest.mark.parametrize("n", [301, 350, 397])
def test_split_matches_the_core_gather(n, monkeypatch):
    # Each level's distances to the core are read in place: a minimum is
    # exact, so they are the gathered block's minima bit for bit, and every
    # level splits as the gather did.
    calls = []

    def split(*args):
        calls.append(args)
        return _split(*args)

    monkeypatch.setattr(la_peeling, "_POLICY", dataclasses.replace(la_peeling._POLICY, split=split))
    _, _, trace = case_c_run(n)
    assert calls and trace.case_sequence()[0] == "c"
    for sub, stats, core, eps in calls:
        got, want = _core_distances(sub, core), reference_core_distances(sub, core)
        assert got.tobytes() == want.tobytes(), (n, sub.n)
        assert _split(sub, stats, core, eps) == reference_la_split(sub, stats, core, eps)
