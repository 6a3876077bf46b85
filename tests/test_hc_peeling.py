"""Peeling solver for the hierarchical clustering objective.

Covers case routing, the ladder payoff floor, telescoping, the level-factor
product bound, density growth, the case (b) quality floor and soundness
against the exact oracle.
"""

import json
import math

import numpy as np
import pytest

from peelembed.errors import DepthExceeded, InvalidSpec
from peelembed import hc_peeling
from peelembed.hc_peeling import default_depth, solve_hc
from peelembed.instances import GeneratorSpec, generate, hc_case_c_spec
from peelembed.metric import Metric
from peelembed.objectives import evaluate_hc
from peelembed.oracles import brute_force_hc
from peelembed.local_search import SolveConfig

from structural import cross_weight, hc_ladder_payoff, set_weight

HC_EPS = 1.0 / 24.0
CASE_C_CFG = SolveConfig(HC_EPS, restarts=0)


def case_c_run(n, seed=0):
    spec, eps = hc_case_c_spec(n, seed=seed)
    assert eps == CASE_C_CFG.eps
    m = generate(spec)
    tree, trace = solve_hc(m, CASE_C_CFG, seed=seed)
    return m, tree, trace


@pytest.fixture(scope="module")
def runs():
    return [case_c_run(n, seed=s) for n, s in [(1860, 0), (1900, 1)]]


def outlier_layer_instance(core_n=500):
    spec = GeneratorSpec(
        family="cluster_plus_outliers", n=core_n + 1, outlier_n=1
    )
    return generate(spec)


class TestConfig:
    def test_eps_validation(self):
        with pytest.raises(InvalidSpec):
            SolveConfig(eps=-0.1)

    def test_depth_cap_default(self):
        # 2 * log2(log2(n) + 2) + 8, floored
        assert default_depth(2) == int(2 * math.log2(3)) + 8
        assert default_depth(1 << 14) == 16


class TestCaseRouting:
    def test_dense_instance_is_case_a(self, cluster_outlier_5):
        # rho = 0.184 >= 0.4^2, so the whole instance goes to the dense leaf.
        tree, trace = solve_hc(cluster_outlier_5, SolveConfig(eps=0.4))
        assert trace.case_sequence() == "a"
        assert trace.value == pytest.approx(evaluate_hc(cluster_outlier_5, tree))

    def test_two_points_case_a(self):
        m = Metric(np.array([[0.0, 2.0], [2.0, 0.0]]))
        tree, trace = solve_hc(m, SolveConfig(eps=0.5))
        assert trace.case_sequence() == "a"
        assert trace.value == pytest.approx(4.0)

    def test_outlier_layer_case_b(self):
        # Density ~0.002 < 0.05^2 and the core holds almost no weight, so the
        # outlier is cut first and the core follows as an ascending ladder.
        m = outlier_layer_instance()
        tree, trace = solve_hc(m, SolveConfig(eps=0.05))
        assert trace.case_sequence() == "b"
        rec = trace.levels[0]
        assert rec.a_ids == (500,)
        assert set(rec.c_ids) == set(range(500))
        # the peeled point is the first cut at the root
        assert tree.root[0] == 500

    def test_case_b_quality_floor(self):
        # Whenever case (b) fires, the tree clears
        # (1 - sqrt(rho)) * (1 - 16 eps) * n * W.
        eps = 0.05
        m = outlier_layer_instance()
        _, trace = solve_hc(m, SolveConfig(eps=eps))
        rec = trace.levels[0]
        assert rec.case == "b"
        total_w = set_weight(m, range(m.n))
        floor = (1.0 - math.sqrt(rec.rho)) * (1.0 - 16.0 * eps) * m.n * total_w
        assert rec.alg_value >= floor - 1e-9

    def test_two_scale_reaches_case_c(self, runs):
        for _, _, trace in runs:
            seq = trace.case_sequence()
            assert seq[0] == "c"
            assert seq[-1] in "ab"


class TestStructuralBounds:
    def test_ladder_payoff_floor(self, runs):
        # Pairs touching the peeled layer pay at least n_C * (W_A + W_AC).
        # Core pairs keep identical subtree sizes one level down, so the
        # layer payoff is the difference of consecutive level values.
        for m, _, trace in runs:
            for i, rec in enumerate(trace.levels[:-1]):
                assert rec.case == "c"
                payoff = rec.alg_value - trace.levels[i + 1].alg_value
                w_ac = cross_weight(m, rec.a_ids, rec.c_ids)
                floor = len(rec.c_ids) * (rec.w_a + w_ac)
                assert payoff >= floor - 1e-6 * max(1.0, floor)

    def test_layer_payoff_matches_direct_recount(self):
        # Cross-check the difference identity against a direct walk of the
        # tree on a small case (b) instance.
        m = outlier_layer_instance(core_n=40)
        tree, trace = solve_hc(m, SolveConfig(eps=0.2))
        rec = trace.levels[0]
        assert rec.case == "b"
        payoff = hc_ladder_payoff(m, tree, rec.a_ids)
        w_ac = cross_weight(m, rec.a_ids, rec.c_ids)
        assert payoff >= len(rec.c_ids) * (rec.w_a + w_ac) - 1e-9

    def test_telescoping(self, runs):
        for _, _, trace in runs:
            for i, rec in enumerate(trace.levels[:-1]):
                assert rec.alg_value >= rec.alpha + trace.levels[i + 1].alg_value - 1e-6

    def test_level_factor_product(self, runs):
        # Product of 1 + 2 sqrt(rho_j) over levels before i stays under
        # 1 + 3 sqrt(rho_i).
        for _, _, trace in runs:
            prod = 1.0
            for i in range(1, trace.depth):
                prod *= trace.levels[i - 1].gamma
                assert prod <= 1.0 + 3.0 * math.sqrt(trace.levels[i].rho) + 1e-12

    def test_density_growth(self, runs):
        for _, _, trace in runs:
            for i in range(trace.depth - 1):
                assert trace.levels[i + 1].rho >= 4.0 * trace.levels[i].rho

    def test_depth_within_loglog_bound(self, runs):
        for m, _, trace in runs:
            assert trace.depth <= 2 * math.log2(math.log2(m.n) + 2) + 4

    def test_alpha_beta_gamma_fields(self, runs):
        for _, _, trace in runs:
            for rec in trace.levels:
                if rec.case == "a":
                    assert rec.alpha is None and rec.gamma is None
                else:
                    assert rec.alpha == pytest.approx(
                        rec.beta * (1.0 - math.sqrt(rec.rho))
                    )
                    assert rec.gamma == pytest.approx(1.0 + 2.0 * math.sqrt(rec.rho))


class TestSoundnessAndDeterminism:
    def test_sound_against_oracle(self, corpus):
        for label, m in corpus:
            if m.n > 8:
                continue
            opt = brute_force_hc(m).value
            for eps in (0.5, 1.0):
                tree, trace = solve_hc(m, SolveConfig(eps=eps))
                assert trace.value <= opt * (1 + 1e-9), label
                assert trace.value == pytest.approx(evaluate_hc(m, tree))

    def test_deterministic(self, runs):
        m, tree1, trace1 = runs[0]
        tree2, trace2 = solve_hc(m, CASE_C_CFG, seed=0)
        assert tree1.serialize() == tree2.serialize()
        assert trace1.to_json_lines() == trace2.to_json_lines()

    def test_trace_json_lines_parse(self, runs):
        _, _, trace = runs[0]
        for line in trace.to_json_lines().splitlines():
            rec = json.loads(line)
            assert rec["case"] in "abc"

    def test_depth_exceeded(self, monkeypatch):
        spec, eps = hc_case_c_spec(1860)
        m = generate(spec)
        monkeypatch.setattr(hc_peeling, "default_depth", lambda n: 0)
        with pytest.raises(DepthExceeded):
            solve_hc(m, SolveConfig(eps, restarts=0))
