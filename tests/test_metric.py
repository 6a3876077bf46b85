import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peelembed.errors import (
    AsymmetricMatrix,
    EmptySubset,
    InputParse,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroDiameter,
)
from peelembed.metric import (
    DENSE_BY_CONVENTION,
    find_core,
    format_metric,
    format_point_cloud,
    metric_from_points,
    parse_metric,
    parse_point_cloud,
    subset_stats,
    validate_metric,
)


def test_validate_accepts_smallest_metric():
    m = validate_metric([[0, 1], [1, 0]])
    assert m.n == 2
    assert m.dist[0, 1] == 1.0


def test_validate_accepts_triangle_equality_boundary():
    m = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert m.diameter() == 2.0


def test_validate_rejects_triangle_violation_with_witness():
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    i, j, k = exc.value.triple
    assert {i, j} == {0, 2} and k == 1


def test_validate_rejects_negative_and_diagonal_and_asymmetry():
    with pytest.raises(NegativeDistance):
        validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[1, 1], [1, 0]])
    with pytest.raises(AsymmetricMatrix):
        validate_metric([[0, 1], [2, 0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_before_other_checks(bad):
    with pytest.raises(NonFiniteDistance):
        validate_metric([[0, bad], [bad, 0]])
    # one bad entry makes the matrix asymmetric too; the finite check wins
    with pytest.raises(NonFiniteDistance):
        validate_metric([[0, 1, bad], [1, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_metric_rejects_non_finite_tokens(token):
    with pytest.raises(NonFiniteDistance):
        parse_metric(f"2\n0 {token}\n{token} 0\n")


def test_subset_stats_uniform_metric():
    m = validate_metric(np.ones((4, 4)) - np.eye(4))
    s = subset_stats(m, range(4))
    assert s.diameter == 1.0 and s.weight_sum == 6.0 and s.density == 6 / 16


def test_subset_stats_cluster_outlier(cluster_outlier_5):
    s = subset_stats(cluster_outlier_5, range(5))
    assert s.diameter == 1.0
    assert s.weight_sum == pytest.approx(4.6)
    assert s.density == pytest.approx(0.184)


def test_subset_stats_singleton_sentinel(cluster_outlier_5):
    s = subset_stats(cluster_outlier_5, [2])
    assert s.size == 1 and s.weight_sum == 0.0
    assert s.density == DENSE_BY_CONVENTION
    assert s.density >= 0.5  # sentinel compares above any threshold


def test_subset_stats_empty_rejected(cluster_outlier_5):
    with pytest.raises(EmptySubset):
        subset_stats(cluster_outlier_5, [])


def test_find_core_cluster_outlier(cluster_outlier_5):
    res = find_core(cluster_outlier_5)
    assert res.core == frozenset({0, 1, 2, 3})
    assert res.center == 0
    assert res.stats.diameter == pytest.approx(0.1)


def test_find_core_uniform_takes_everything():
    m = validate_metric(np.ones((4, 4)) - np.eye(4))
    res = find_core(m)
    assert res.core == frozenset(range(4)) and res.center == 0


def test_find_core_antipodal_pair():
    m = validate_metric([[0, 1], [1, 0]])
    assert find_core(m).core == frozenset({0, 1})


def test_find_core_zero_diameter_rejected():
    with pytest.raises(ZeroDiameter):
        find_core(validate_metric(np.zeros((3, 3))))


def test_density_floor_all_corpus(corpus):
    # W >= D * (n - 1) forces rho >= 1/n - 1/n^2 >= 1/(2n) for n >= 2.
    for label, m in corpus:
        s = subset_stats(m, range(m.n))
        if math.isfinite(s.density):
            assert s.density >= 1.0 / (2 * m.n), label
            assert s.density <= 0.5 + 1e-12, label


def test_metric_roundtrip_bit_identical(corpus):
    for label, m in corpus[:20]:
        again = parse_metric(format_metric(m))
        assert np.array_equal(again.dist, parse_metric(format_metric(again)).dist), label


def test_point_cloud_roundtrip():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    m = metric_from_points(pts)
    assert m.dist[0, 1] == pytest.approx(5.0)
    again = parse_point_cloud(format_point_cloud(pts))
    assert np.array_equal(m.dist, again.dist)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_point_cloud_rejects_non_finite_coordinates(token):
    with pytest.raises(NonFiniteDistance, match="point 0 coordinate 0"):
        parse_point_cloud(f"0 {token} 0\n1 1 0\n2 3 1\n3 0 2\n")
    with pytest.raises(NonFiniteDistance):
        metric_from_points(np.array([[0.0, 1.0], [2.0, float(token)]]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n0 2\n", "appears twice"),
        ("0 0 0\n1 1\n2 3 1\n", "1 coordinates, expected 2"),
        ("0 0 0\n1 1 x\n", "line 2"),
        ("0.5 1 2\n", "line 1"),
        ("0 1\n2 3\n", "0..n-1"),
        ("# only a comment\n", "empty"),
    ],
)
def test_point_cloud_rejects_malformed_text(text, message):
    with pytest.raises(InputParse, match=message):
        parse_point_cloud(text)


@pytest.mark.parametrize(
    "text",
    ["", "2\n0 1\n1\n", "2\n0 1\n1 0 7\n", "2\n0 x\nx 0\n", "two\n", "0\n"],
)
def test_parse_metric_rejects_malformed_text(text):
    with pytest.raises(InputParse):
        parse_metric(text)


def test_submetric_induces_sorted_ids(cluster_outlier_5):
    sub = cluster_outlier_5.submetric([4, 0, 2])
    assert sub.n == 3
    assert sub.dist[0, 1] == 0.1  # points 0 and 2
    assert sub.dist[0, 2] == 1.0  # points 0 and 4


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_core_guarantee_random_euclidean(n, seed):
    rng = np.random.default_rng(seed)
    m = metric_from_points(rng.standard_normal((n, 2)))
    s = subset_stats(m, range(m.n))
    if s.diameter == 0.0:
        return
    res = find_core(m)
    root = math.sqrt(s.density)
    assert res.stats.diameter <= 4.0 * s.diameter * root + 1e-9
    assert res.stats.size >= m.n * (1.0 - root) - 1e-9
