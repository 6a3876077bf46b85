"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every criterion is self-contained; shared expensive
artifacts (the small-n corpus with oracle values and the pool of recursive
multi-scale runs) are built once per module.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from peelembed.cli import main, run_bench
from peelembed.errors import SpecInfeasibleTrivially
from peelembed.hc_dense import solve_hc_dense
from peelembed.hc_peeling import solve_hc
from peelembed.instances import (
    FAMILIES,
    GeneratorSpec,
    generate,
    hc_case_c_spec,
    la_case_c_spec,
)
from peelembed.la_dense import solve_la_dense
from peelembed.la_peeling import solve_la
from peelembed.local_search import SolveConfig
from peelembed.metric import find_core, subset_stats
from peelembed.objectives import evaluate_hc, evaluate_la
from peelembed.oracles import (
    average_linkage_hc,
    brute_force_hc,
    brute_force_la,
    random_bisection_la,
)
from peelembed.partition_search import (
    PartitionSpec,
    search_partition,
)

from structural import (
    cross_weight,
    exact_feasible,
    hc_ladder_payoff,
    la_cross_value,
    pair_set_upper_bound,
    point_set_upper_bound,
    smallest_feasible,
    split_lower_bound,
    sub_positions,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def close_floor(lhs, rhs):
    """lhs >= rhs up to relative rounding slack."""
    return lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def close_ceiling(lhs, rhs):
    return lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


@pytest.fixture(scope="module")
def corpus_oracles(corpus):
    """(label, metric, la_opt, hc_opt) for every corpus instance."""
    return [
        (label, m, brute_force_la(m).value, brute_force_hc(m).value)
        for label, m in corpus
    ]


@pytest.fixture(scope="module")
def case_c_pool():
    """100 multi-scale recursive runs (96 LA, 4 HC) plus their build cost.

    Build cost is CPU time: the shared test machine shows wall-clock swings
    above 10x under external load, while the compute the runtime criteria
    actually constrain is stable.
    """
    start = time.process_time()
    la_runs = []
    for i in range(96):
        spec, eps = la_case_c_spec(250 + 2 * i, seed=i)
        m = generate(spec)
        arr, trace = solve_la(m, SolveConfig(eps, restarts=0), seed=i)
        la_runs.append((m, eps, arr, trace))
    hc_runs = []
    for i in range(4):
        spec, eps = hc_case_c_spec(1860 + 4 * i, seed=i)
        m = generate(spec)
        tree, trace = solve_hc(m, SolveConfig(eps, restarts=0), seed=i)
        hc_runs.append((m, eps, tree, trace))
    elapsed = time.process_time() - start
    return {"la": la_runs, "hc": hc_runs, "seconds": elapsed}


def test_core_guarantee():
    with criterion("core-guarantee (500 instances, <10s)"):
        rng = np.random.default_rng(2024)
        start = time.process_time()
        checked = 0
        while checked < 500:
            family = FAMILIES[checked % len(FAMILIES)]
            low = 20 if family == "two_scale" else 4
            n = int(rng.integers(low, 201))
            m = generate(GeneratorSpec(family=family, n=n, seed=checked))
            stats = subset_stats(m, range(m.n))
            root = math.sqrt(stats.density)
            core = find_core(m).core
            assert close_ceiling(
                subset_stats(m, core).diameter, 4.0 * stats.diameter * root
            )
            assert len(core) >= m.n * (1.0 - root) - 1e-9
            checked += 1
        elapsed = time.process_time() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s CPU"


def la_pair_loop(m, arr):
    pos = arr.position
    return sum(
        m.dist[i, j] * abs(pos[i] - pos[j])
        for i in range(m.n)
        for j in range(i + 1, m.n)
    )


def hc_pair_loop(m, tree):
    total = 0.0

    def walk(node):
        nonlocal total
        if not isinstance(node, tuple):
            return [node]
        left, right = walk(node[0]), walk(node[1])
        size = len(left) + len(right)
        for i in left:
            for j in right:
                total += size * m.dist[i, j]
        return left + right

    walk(tree.root)
    return total


def test_oracle_cross_check(corpus_oracles):
    with criterion("oracle-cross-check (floors and evaluator agreement)"):
        assert len(corpus_oracles) >= 200
        for label, m, la_opt, hc_opt in corpus_oracles:
            w = subset_stats(m, range(m.n)).weight_sum
            assert close_floor(la_opt, m.n * w / 3.0), label
            assert close_floor(hc_opt, 2.0 * m.n * w / 3.0), label
            arr = brute_force_la(m).witness
            tree = brute_force_hc(m).witness
            assert evaluate_la(m, arr) == pytest.approx(
                la_pair_loop(m, arr), rel=1e-12
            )
            assert evaluate_hc(m, tree) == pytest.approx(
                hc_pair_loop(m, tree), rel=1e-12
            )


def test_soundness_sweep(corpus_oracles):
    with criterion("soundness-sweep (all solvers <= oracle on n<=8)"):
        peel, dense = SolveConfig(0.25, restarts=2), SolveConfig(0.5, restarts=2)
        for label, m, la_opt, hc_opt in corpus_oracles:
            la_values = [
                solve_la(m, peel)[1].value,
                evaluate_la(m, solve_la_dense(m, dense)[0]),
                evaluate_la(m, random_bisection_la(m, seed=0)),
            ]
            hc_values = [
                solve_hc(m, peel)[1].value,
                evaluate_hc(m, solve_hc_dense(m, dense)[0]),
                evaluate_hc(m, average_linkage_hc(m)),
            ]
            for v in la_values:
                assert close_ceiling(v, la_opt), label
            for v in hc_values:
                assert close_ceiling(v, hc_opt), label


def test_density_growth_and_depth(case_c_pool):
    with criterion("density-growth-and-depth (100 multi-scale runs, <60s)"):
        assert len(case_c_pool["la"]) + len(case_c_pool["hc"]) == 100
        for m, _, _, trace in case_c_pool["la"]:
            assert "c" in trace.case_sequence()
            for i in range(trace.depth - 1):
                assert trace.levels[i + 1].rho >= 4.0 * trace.levels[i].rho
            assert trace.depth <= 2 * math.log2(m.n) + 4
        for m, _, _, trace in case_c_pool["hc"]:
            assert "c" in trace.case_sequence()
            for i in range(trace.depth - 1):
                assert trace.levels[i + 1].rho >= 4.0 * trace.levels[i].rho
            assert trace.depth <= 2 * math.log2(math.log2(m.n) + 2) + 4
        assert case_c_pool["seconds"] < 60.0, f"took {case_c_pool['seconds']:.1f}s CPU"


def random_la_layer_run(rng):
    """Random outlier instance whose LA peel stops after one layer."""
    core_n = int(rng.integers(25, 61))
    outlier_n = int(rng.integers(1, 4))
    spec = GeneratorSpec(
        family="cluster_plus_outliers",
        n=core_n + outlier_n,
        outlier_n=outlier_n,
        ratio=float(10.0 ** rng.uniform(-5, -2)),
        seed=int(rng.integers(0, 2**31)),
    )
    m = generate(spec)
    eps = float(rng.uniform(0.7, 0.95))
    arr, trace = solve_la(m, SolveConfig(eps))
    rec = trace.levels[0]
    assert rec.case == "b", f"calibration drift: {rec.case} core_n={core_n}"
    return m, eps, arr, rec


def random_hc_layer_run(rng):
    """Random outlier instance whose HC peel stops after one ladder."""
    core_n = int(rng.integers(30, 61))
    outlier_n = int(rng.integers(1, 3))
    spec = GeneratorSpec(
        family="cluster_plus_outliers",
        n=core_n + outlier_n,
        outlier_n=outlier_n,
        ratio=float(10.0 ** rng.uniform(-5, -2)),
        seed=int(rng.integers(0, 2**31)),
    )
    m = generate(spec)
    eps = float(rng.uniform(0.3, 0.45))
    tree, trace = solve_hc(m, SolveConfig(eps))
    rec = trace.levels[0]
    assert rec.case == "b", f"calibration drift: {rec.case} core_n={core_n}"
    return m, eps, tree, rec


def test_structural_property_trials(case_c_pool):
    with criterion("structural-properties (1000 randomized trials each)"):
        rng = np.random.default_rng(99)

        # split floor, layer-weight bound and both ceilings: 1000 fresh
        # random single-layer peels, one random arrangement per trial
        for _ in range(1000):
            m, eps, arr, rec = random_la_layer_run(rng)
            order = arr.order()
            pos = sub_positions(order, range(m.n))
            got = la_cross_value(m, pos, rec.a_ids, rec.c_ids)
            assert close_floor(got, split_lower_bound(m, rec.a_ids, rec.c_ids))

            w_ab = (
                float(m.dist[np.ix_(rec.a_ids, rec.b_ids)].sum()) if rec.b_ids else 0.0
            )
            cap = (2.0 * math.sqrt(rec.rho) / eps**2) * rec.w_ac
            assert close_ceiling(rec.w_a + w_ab, cap)

            perm = rng.permutation(m.n)
            rand_pos = {i: int(perm[i]) + 1 for i in range(m.n)}
            got = la_cross_value(m, rand_pos, rec.a_ids, rec.c_ids)
            assert close_ceiling(got, pair_set_upper_bound(m, m.n, rec.a_ids, rec.c_ids))

            p = int(rng.choice(rec.a_ids))
            got = la_cross_value(m, rand_pos, [p], rec.c_ids)
            assert close_ceiling(got, point_set_upper_bound(m, m.n, p, rec.c_ids))

        # ladder payoff floor: 1000 fresh random single-ladder HC peels
        for _ in range(1000):
            m, _, tree, rec = random_hc_layer_run(rng)
            payoff = hc_ladder_payoff(m, tree, rec.a_ids)
            w_ac = cross_weight(m, rec.a_ids, rec.c_ids)
            assert close_floor(payoff, len(rec.c_ids) * (rec.w_a + w_ac))

        # telescoping for both objectives: trials sample a recursive run and
        # one of its peeled levels from the multi-scale pool
        la_runs = case_c_pool["la"]
        for _ in range(1000):
            _, eps, _, trace = la_runs[int(rng.integers(len(la_runs)))]
            i = int(rng.integers(trace.depth - 1))
            rec = trace.levels[i]
            if 5.0 * math.sqrt(rec.rho) / eps**2 >= 1.0:
                continue
            assert close_floor(rec.alg_value, rec.alpha + trace.levels[i + 1].alg_value)
        hc_runs = case_c_pool["hc"]
        for _ in range(1000):
            _, _, _, trace = hc_runs[int(rng.integers(len(hc_runs)))]
            i = int(rng.integers(trace.depth - 1))
            rec = trace.levels[i]
            assert close_floor(rec.alg_value, rec.alpha + trace.levels[i + 1].alg_value)


def perturbed_two_cluster(seed):
    rng = np.random.default_rng(seed)
    intra = float(rng.uniform(0.05, 0.15))
    inter = float(rng.uniform(0.9, 1.1))
    dist = np.full((6, 6), inter)
    dist[:3, :3] = intra
    dist[3:, 3:] = intra
    np.fill_diagonal(dist, 0.0)
    from peelembed.metric import validate_metric

    return validate_metric(dist)


def test_dense_solver_equivalence():
    with criterion("dense-equivalence (faithful = oracle on 20 seeds, <30s)"):
        start = time.process_time()
        for seed in range(20):
            m = perturbed_two_cluster(seed)
            la_opt = brute_force_la(m).value
            hc_opt = brute_force_hc(m).value

            arr, _ = solve_la_dense(m, SolveConfig(0.5, "faithful"))
            assert evaluate_la(m, arr) == pytest.approx(la_opt, rel=1e-12)
            tree, _ = solve_hc_dense(m, SolveConfig(0.5, "faithful"))
            assert evaluate_hc(m, tree) == pytest.approx(hc_opt, rel=1e-12)

            arr, _ = solve_la_dense(m, SolveConfig(0.5, "reduced"))
            assert evaluate_la(m, arr) >= 0.95 * la_opt
            tree, _ = solve_hc_dense(m, SolveConfig(0.5, "reduced"))
            assert evaluate_hc(m, tree) >= 0.95 * hc_opt
        elapsed = time.process_time() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s CPU"


def test_partition_search_equivalence():
    with criterion("partition-search-equivalence (200 random specs)"):
        from conftest import random_metric

        rng = np.random.default_rng(17)
        found = missing = 0
        for trial in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            if k > n:
                continue
            m = random_metric(rng, n)
            lam = np.sort(rng.uniform(0, 1, size=k))
            mu = rng.uniform(0, 0.2, size=(k, k))
            mu = (mu + mu.T) / 2
            sb = [(max(0.0, l - 0.2), min(1.0, l + 0.2)) for l in lam]
            wb = [[(0.0, float(mu[a][b])) for b in range(k)] for a in range(k)]
            spec = PartitionSpec.build(k, size_bounds=sb, weight_bounds=wb)
            eps_err = 0.05
            try:
                got = search_partition(m, spec, eps_err=eps_err, seed=trial)
            except SpecInfeasibleTrivially:
                assert smallest_feasible(m, spec, eps_err) is None
                missing += 1
                continue
            ref = smallest_feasible(m, spec, eps_err)
            if got is None:
                assert ref is None
                missing += 1
            else:
                assert ref is not None
                assert exact_feasible(m, spec, eps_err, got).all()
                found += 1
        assert found >= 10 and missing >= 10


def corpus_bench_config():
    instances = []
    for family in ("euclidean_gaussian", "euclidean_uniform_box", "clustered",
                   "uniform_metric", "path_metric", "cluster_plus_outliers"):
        for seed in range(6):
            for n in range(2, 9):
                entry = {"family": family, "n": n, "seed": seed}
                if family == "clustered":
                    entry["m_clusters"] = min(2 + seed % 2, n)
                if family == "cluster_plus_outliers":
                    if n < 3:
                        continue
                    entry["outlier_n"] = 1
                instances.append(entry)
    return {"eps": [0.25], "algorithms": ["peel-la", "peel-hc"],
            "restarts": 4, "instances": instances}


def test_bench_ratio_and_reproducibility():
    with criterion("bench-report (mean ratio >= 0.9, byte-identical CSV)"):
        config = corpus_bench_config()
        text = run_bench(config, seed=0)
        assert run_bench(config, seed=0) == text
        header, *rows = text.splitlines()
        cols = header.split(",")
        ratios = {"peel-la": [], "peel-hc": []}
        for row in rows:
            rec = dict(zip(cols, row.split(",")))
            ratios[rec["algorithm"]].append(float(rec["ratio"]))
        for algorithm, values in ratios.items():
            mean = sum(values) / len(values)
            assert mean >= 0.9, f"{algorithm} mean ratio {mean:.3f}"


def test_determinism(tmp_path, case_c_pool):
    with criterion("determinism (identical witnesses, traces and reports)"):
        m, eps, arr0, trace0 = case_c_pool["la"][0]
        arr1, trace1 = solve_la(m, SolveConfig(eps, restarts=0), seed=0)
        assert arr1.position == arr0.position
        assert trace1.to_json_lines() == trace0.to_json_lines()

        m, eps, tree0, htrace0 = case_c_pool["hc"][0]
        tree1, htrace1 = solve_hc(m, SolveConfig(eps, restarts=0), seed=0)
        assert tree1.serialize() == tree0.serialize()
        assert htrace1.to_json_lines() == htrace0.to_json_lines()

        small = perturbed_two_cluster(0)
        for solver in (solve_la_dense, solve_hc_dense):
            (a, a_value), (b, b_value) = (solver(small, SolveConfig(0.5), seed=3)
                                          for _ in range(2))
            assert a.serialize() == b.serialize() and a_value == b_value

        config = {"eps": [0.5], "algorithms": ["peel-la", "peel-hc", "bisect-la"],
                  "instances": [{"family": "clustered", "n": 7, "seed": 1}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.csv"
            rc = main(["--out", str(out), "bench", "--config", str(cfg_path)])
            assert rc == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
