import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from structural import (
    all_assignments,
    exact_feasible,
    exact_masks,
    reference_crossing_matrix,
    reference_enumerate_assignments,
    reference_grid_cells,
    reference_weight_cells,
    smallest_feasible,
)
from peelembed import hc_dense, partition_search
from peelembed.errors import FaithfulGridTooLarge, InvalidSpec, SpecInfeasibleTrivially
from peelembed.hc_dense import slot_count, solve_hc_dense
from peelembed.instances import FAMILIES, GeneratorSpec, generate, two_cluster_metric
from peelembed.la_dense import part_count, solve_la_dense
from peelembed.local_search import SolveConfig, quantize
from peelembed.metric import validate_metric
from peelembed.partition_search import (
    PartitionSpec,
    enumerate_assignments,
    grid_cells,
    search_partition,
)

U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def test_uniform_balanced_split_exact():
    spec = PartitionSpec.build(
        2,
        size_bounds=[(0.5, 0.5), (0.5, 0.5)],
        weight_bounds=[[(0, math.inf), (4 / 16, 4 / 16)], [(4 / 16, 4 / 16), (0, math.inf)]],
    )
    hit = search_partition(U4, spec, eps_err=0.0)
    assert hit is not None
    assert np.bincount(hit).tolist() == [2, 2]
    assert reference_crossing_matrix(U4, hit, 2)[0, 1] == pytest.approx(4.0)


def test_two_cluster_natural_split():
    m = two_cluster_metric()
    norm = m.n * m.n * m.diameter()
    target = (9.0 / norm, 9.0 / norm)
    spec = PartitionSpec.build(
        2,
        size_bounds=[(0.5, 0.5)] * 2,
        weight_bounds=[[(0, math.inf), target], [target, (0, math.inf)]],
    )
    assert search_partition(m, spec, eps_err=1e-9) in ((0, 0, 0, 1, 1, 1), (1, 1, 1, 0, 0, 0))


def test_trivially_infeasible_spec():
    spec = PartitionSpec.build(2, size_bounds=[(1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(SpecInfeasibleTrivially):
        search_partition(U4, spec, eps_err=0.0)
    spec = PartitionSpec.build(2, size_bounds=[(0.0, 0.2), (0.0, 0.2)])
    with pytest.raises(SpecInfeasibleTrivially):
        search_partition(U4, spec, eps_err=0.0)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        PartitionSpec.build(2, size_bounds=[(0.5, 0.2), (0.5, 0.5)])
    with pytest.raises(InvalidSpec):
        PartitionSpec.build(2, size_bounds=[(0.5, 0.5)])
    with pytest.raises(InvalidSpec):
        search_partition(U4, PartitionSpec.build(5), eps_err=0.1)
    for eps_err in (-0.1, math.nan):
        with pytest.raises(InvalidSpec, match="eps_err must be nonnegative"):
            search_partition(U4, PartitionSpec.build(2), eps_err=eps_err)
    for bound in [(math.nan, math.nan), (math.nan, 1.0), (0.0, math.nan),
                  (math.inf, math.inf), (-math.inf, 1.0), (-0.1, 1.0), (0.6, 0.5)]:
        with pytest.raises(InvalidSpec, match="bad size bound"):
            PartitionSpec.build(2, size_bounds=[bound, (0, 1)])
        wb = [[(0.0, math.inf)] * 2 for _ in range(2)]
        wb[1][0] = bound
        with pytest.raises(InvalidSpec, match="bad weight bound"):
            PartitionSpec.build(2, weight_bounds=wb)
    # an infinite upper bound is an open one, as an unset bound is
    assert PartitionSpec.build(2, size_bounds=[(0, math.inf)] * 2) == PartitionSpec.build(2)


@pytest.mark.parametrize("field", ["restarts"])
def test_negative_budget_rejected(field, two_cluster_6):
    with pytest.raises(InvalidSpec, match=f"{field} must be >= 0, got -1"):
        SolveConfig(0.5, **{field: -1})
    assert getattr(SolveConfig(0.5, **{field: 0}), field) == 0
    with pytest.raises(InvalidSpec, match=f"{field} must be >= 0, got -1"):
        search_partition(two_cluster_6, PartitionSpec.build(2), 0.0, **{field: -1})


def test_exhaustive_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    checked_found = checked_missing = 0
    for trial in range(60):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, 4))
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
            continue
        ref = smallest_feasible(m, spec, eps_err)
        if got is None:
            assert ref is None
            checked_missing += 1
        else:
            assert exact_feasible(m, spec, eps_err, got).all()
            assert got == ref  # lexicographically smallest
            checked_found += 1
    assert checked_found >= 5 and checked_missing >= 5


@pytest.mark.parametrize("family", ["clustered", "uniform_metric"])
@pytest.mark.parametrize("objective, n", [("la", 10), ("hc", 7)])
def test_grid_hits_are_the_smallest_exactly_feasible_assignments(objective, n, family,
                                                                   monkeypatch):
    # The exhaustive faithful grids of the search workload's shapes at eps
    # 0.5, driven through _search_cells: a cell misses exactly when no
    # assignment meets it by the exact test, and otherwise hits the
    # lexicographically smallest assignment that does.
    grids = []

    def search(*args, real=partition_search._search_cells):
        grids.append(args)
        return real(*args)

    monkeypatch.setattr(partition_search, "_search_cells", search)
    solve = {"la": solve_la_dense, "hc": solve_hc_dense}[objective]
    m = generate(GeneratorSpec(family=family, n=n))
    solve(m, SolveConfig(0.5, "faithful"))
    [(grid_m, bounds, eps_err, restarts, seed)] = grids
    k = bounds[0].shape[1]
    assert grid_m is m and partition_search.exhaustive(n, k)
    assigns = all_assignments(n, k)
    hits = list(search(m, bounds, eps_err, restarts, seed))
    assert len(hits) == len(bounds[0]) * len(bounds[2])
    for hit, mask in zip(hits, exact_masks(m, eps_err, bounds, assigns), strict=True):
        passing = np.flatnonzero(mask)
        assert hit == (tuple(assigns[passing[0]].tolist()) if len(passing) else None)
    assert None in hits and any(hits), (hits.count(None), len(hits))


@pytest.mark.parametrize("n, k", [(n, k) for k in (2, 3, 4) for n in range(3, 13)
                                  if partition_search.exhaustive(n, k)])
def test_enumeration_in_chunks_is_bit_equal(n, k):
    # Each chunk's two BLAS products give the einsum form's planes bit for
    # bit: on the integer metric every sum is exact, so neither the order of
    # summation nor the chunks of BATCH_ENTRIES one-hot entries change a bit.
    for family, seed in itertools.product(FAMILIES, (1, 2)):
        kwargs = {"weight_ratio": 0.2} if family == "two_scale" else {}
        m = generate(GeneratorSpec(family=family, n=n, seed=seed, **kwargs))
        q = quantize(m.dist)
        got, want = enumerate_assignments(q, k), reference_enumerate_assignments(q, k)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (family, seed)


def test_zero_diameter_metric_is_searched_as_before(monkeypatch):
    # quantize's copy of an all-zero metric is all zeros: the search returns
    # in both regimes what it returned when it divided by a weight normaliser
    # of 1, and the exact test accepts what it accepted, with no NaN and no
    # RuntimeWarning
    m = validate_metric(np.zeros((4, 4)))
    cases = [  # (spec, exhaustive hit, local hit, feasible of the four assignments)
        (PartitionSpec.build(2, size_bounds=[(0.5, 0.5)] * 2),
         (0, 0, 1, 1), (0, 0, 1, 1), [True, False, False]),
        (PartitionSpec.build(2, size_bounds=[(0.25, 0.25), (0.75, 0.75)],
                             weight_bounds=[[(0, math.inf), (0, 0)], [(0, 0), (0, math.inf)]]),
         (0, 1, 1, 1), (0, 1, 1, 1), [False, True, False]),
        (PartitionSpec.build(2, weight_bounds=[[(0, math.inf), (0.1, 0.2)],
                                               [(0.1, 0.2), (0, math.inf)]]),
         None, None, [False, False, False]),
        (PartitionSpec.build(3, size_bounds=[(0.25, 0.5)] * 3),
         (0, 0, 1, 2), (0, 1, 1, 2), [False, False, False, True]),
    ]
    assignments = [(0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 0), (0, 1, 2, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, exhaustive_hit, local_hit, feasible in cases:
            for hit, cutoff in ((exhaustive_hit, 12), (local_hit, 0)):
                monkeypatch.setattr(partition_search, "EXHAUSTIVE_N", cutoff)
                assert search_partition(m, spec, 0.0, restarts=4, seed=0) == hit, (spec, cutoff)
            tested = [a for a in assignments if max(a) < spec.k]
            assert exact_feasible(m, spec, 0.0, tested).tolist() == feasible, spec


def test_enumeration_memory_is_bounded():
    # all 3^11 one-hot and einsum temporaries at once peaked at 117 MB
    m = generate(GeneratorSpec(family="clustered", n=11, seed=0))
    tracemalloc.start()
    try:
        enumerate_assignments(quantize(m.dist), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, peak


def test_local_search_regime_finds_balanced_split():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(0, 0.05, 20), rng.normal(1, 0.05, 20)])
    from peelembed.metric import metric_from_points

    m = metric_from_points(pts[:, None])
    spec = PartitionSpec.build(2, size_bounds=[(0.5, 0.5), (0.5, 0.5)])
    hit = search_partition(m, spec, eps_err=0.01, restarts=8, seed=0)
    assert hit is not None and np.bincount(hit).tolist() == [20, 20]
    again = search_partition(m, spec, eps_err=0.01, restarts=8, seed=0)
    assert again == hit  # determinism under fixed seed and budget


def test_returned_partition_reverifies(corpus):
    for label, m in corpus[:20]:
        k = 2
        spec = PartitionSpec.build(k)  # unconstrained
        hit = search_partition(m, spec, eps_err=0.0)
        assert hit is not None
        assert exact_feasible(m, spec, 0.0, hit).all(), label


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10**6), st.floats(0.0, 0.3))
def test_exhaustive_no_false_notfound(n, seed, eps_err):
    m = random_metric(np.random.default_rng(seed), n)
    target = float(np.triu(m.dist, 1).sum()) / (n * n * m.diameter())
    spec = PartitionSpec.build(
        2, weight_bounds=[[(0.0, math.inf), (0.0, target)], [(0.0, target), (0.0, math.inf)]]
    )
    got = search_partition(m, spec, eps_err=eps_err, seed=seed)
    ref = smallest_feasible(m, spec, eps_err)
    assert (got is None) == (ref is None)


class _Searched(Exception):
    """Raised in place of the search of a grid that passed its caps."""


@pytest.mark.parametrize("objective", ["la", "hc"])
def test_faithful_grid_is_refused_exactly_below_eps_04(objective, monkeypatch):
    # grid_partitions refuses both solvers' faithful grids for every eps below
    # 0.4, before the density pass, HC's size grid and skeleton trees or any
    # search; from 0.4 on it reaches the search, after taking the density once
    calls = []

    def density(*args, real=partition_search.subset_stats):
        calls.append("density")
        return real(*args)

    def size_cells(*args, real=hc_dense.grid_cells):
        calls.append("sizes")
        return real(*args)

    def skeletons(*args, real=hc_dense.all_binary_trees):
        calls.append("skeletons")
        return real(*args)

    def search(*args):
        calls.append("search")
        raise _Searched

    monkeypatch.setattr(partition_search, "subset_stats", density)
    monkeypatch.setattr(hc_dense, "grid_cells", size_cells)
    monkeypatch.setattr(hc_dense, "all_binary_trees", skeletons)
    monkeypatch.setattr(partition_search, "_search_cells", search)
    solve, passed = {"la": (solve_la_dense, ["density", "search"]),
                     "hc": (solve_hc_dense, ["density", "sizes", "search"])}[objective]
    m = generate(GeneratorSpec(family="clustered", n=9))
    for eps in (0.25, 0.3, 0.3999, 0.4, 0.5, 2 / 3, 0.7, 1.0):
        calls.clear()
        cfg = SolveConfig(eps, "faithful", restarts=1)
        if eps < 0.4:
            with pytest.raises(FaithfulGridTooLarge,
                               match=r"^\d+\^\d+ grid cells exceed the cap 2000000$"):
                solve(m, cfg)
            assert calls == [], eps
        else:
            with pytest.raises(_Searched):
                solve(m, cfg)
            assert calls == passed, eps


@pytest.mark.parametrize("eps", [0.4, 0.45, 0.5, 2 / 3, 1.0])
def test_grid_cells_match_the_loop(eps, monkeypatch):
    # Each grid the faithful solves build, both solvers' crossing weights and
    # HC's part sizes, is one array holding bit for bit and in order the
    # cells that the loop over itertools.product kept, and for the weights
    # the cells reference_weight_cells prunes by density.
    calls = []

    def record(kind):
        def cells(*args):
            calls.append((kind, args))
            return grid_cells(*args)
        return cells

    def search(*args):
        raise _Searched

    monkeypatch.setattr(partition_search, "grid_cells", record("weights"))
    monkeypatch.setattr(hc_dense, "grid_cells", record("sizes"))
    monkeypatch.setattr(partition_search, "_search_cells", search)
    m = generate(GeneratorSpec(family="clustered", n=9))
    for solve, parts, kinds in ((solve_hc_dense, slot_count, ["weights", "sizes"]),
                                (solve_la_dense, part_count, ["weights"])):
        calls.clear()
        with pytest.raises(_Searched):
            solve(m, SolveConfig(eps, "faithful", restarts=1))
        assert [kind for kind, _ in calls] == kinds
        for kind, (levels, step, count, keep) in calls:
            got = grid_cells(levels, step, count, keep)
            loop = list(reference_grid_cells(levels, step, count, keep))
            assert len(loop) and got.shape == (len(loop), count), (kind, eps)
            assert got.tobytes() == np.array(loop).tobytes(), (kind, eps)
            if kind == "weights":
                assert loop == reference_weight_cells(m, parts(eps), levels, step), eps


@pytest.mark.parametrize("eps", [0.3, 0.2])
def test_refused_faithful_hc_grid_builds_no_cells(eps):
    # HC's size grid has 11^4 cells at eps 0.3 and 16^6 at eps 0.2, 0.8 GB
    # as one array; the weight grid's cap refuses the grid before any cell
    # of either grid is built.
    m = generate(GeneratorSpec(family="clustered", n=9))
    cfg = SolveConfig(eps, "faithful", restarts=1)
    tracemalloc.start()
    try:
        with pytest.raises(FaithfulGridTooLarge):
            solve_hc_dense(m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
