"""Instance generators: determinism, validity and frozen small examples."""

import math

import numpy as np
import pytest

from peelembed.errors import InvalidSpec
from peelembed.instances import (
    FAMILIES,
    GeneratorSpec,
    generate,
    hc_case_c_spec,
    la_case_c_spec,
    small_corpus,
    two_cluster_metric,
)
from peelembed.metric import subset_stats, validate_metric


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="nope", n=5)

    def test_bad_n(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="uniform_metric", n=0)

    def test_bad_seed(self):
        with pytest.raises(InvalidSpec, match=r"^seed must be >= 0, got -1$"):
            GeneratorSpec(family="uniform_metric", n=5, seed=-1)
        assert GeneratorSpec(family="uniform_metric", n=5, seed=0).seed == 0

    @pytest.mark.parametrize("field, value", [
        ("n", 4.5), ("n", True), ("seed", 1.5), ("dim", 1.5), ("m_clusters", 2.0),
        ("outlier_n", 3.0), ("outlier_n", False), ("seed", "1"),
    ])
    def test_non_integer_field_rejected(self, field, value):
        # a float or bool would reach numpy, which fails on it with a
        # TypeError of its own; the spec names the field instead
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            GeneratorSpec(**{"family": "cluster_plus_outliers", "n": 4, field: value})
        assert GeneratorSpec(family="clustered", n=np.int64(4), seed=np.int64(1)).n == 4

    @pytest.mark.parametrize("field", ["ratio", "inter_scale", "weight_ratio", "intra_scale"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_scale_rejected(self, field, value):
        # numpy's uniform and normal draws raise OverflowError or ValueError
        # on these; the spec names the field instead
        with pytest.raises(InvalidSpec, match=f"^{field} must be finite and "):
            GeneratorSpec(**{"family": "clustered", "n": 5, field: value})

    def test_zero_scale(self):
        with pytest.raises(InvalidSpec, match="^inter_scale must be finite and > 0, got 0.0$"):
            GeneratorSpec(family="clustered", n=5, inter_scale=0.0)
        m = generate(GeneratorSpec(family="clustered", n=5, intra_scale=0.0, m_clusters=5))
        assert m.n == 5

    def test_core_split_must_cover_n(self):
        # the core is the n - outlier_n points that are not outliers, and
        # must keep at least one
        for outlier_n in (6, 7):
            spec = GeneratorSpec(family="cluster_plus_outliers", n=6, outlier_n=outlier_n)
            with pytest.raises(InvalidSpec, match=f"^outlier_n must be below n=6, got {outlier_n}$"):
                generate(spec)
        assert generate(GeneratorSpec(family="cluster_plus_outliers", n=6, outlier_n=5)).n == 6

    def test_two_scale_needs_room(self):
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec(family="two_scale", n=10, weight_ratio=5.0))
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec(family="two_scale", n=4, outlier_n=2))

    def test_case_c_spec_size_floors(self):
        with pytest.raises(InvalidSpec):
            la_case_c_spec(100)
        with pytest.raises(InvalidSpec):
            hc_case_c_spec(500)


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_regeneration_bit_identical(self, family):
        # two_scale needs enough points for its cluster width to fit
        spec = GeneratorSpec(family=family, n=40 if family == "two_scale" else 12)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.dist, b.dist)

    def test_seed_changes_random_families(self):
        for family in ("euclidean_gaussian", "euclidean_uniform_box", "clustered"):
            a = generate(GeneratorSpec(family=family, n=10, seed=0))
            b = generate(GeneratorSpec(family=family, n=10, seed=1))
            assert not np.array_equal(a.dist, b.dist)

    def test_family_streams_differ(self):
        a = generate(GeneratorSpec(family="euclidean_gaussian", n=8, dim=1))
        b = generate(GeneratorSpec(family="euclidean_uniform_box", n=8, dim=1))
        assert not np.array_equal(a.dist, b.dist)


class TestValidity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_small_instances_are_metrics(self, family):
        sizes = (40, 80) if family == "two_scale" else (3, 7, 12)
        for n in sizes:
            m = generate(GeneratorSpec(family=family, n=n))
            validate_metric(m.dist)  # raises on any axiom violation


class TestFrozenExamples:
    def test_uniform_metric(self):
        m = generate(GeneratorSpec(family="uniform_metric", n=4))
        expected = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(m.dist, expected)

    def test_path_metric(self):
        m = generate(GeneratorSpec(family="path_metric", n=5))
        assert m.dist[0, 4] == 4.0
        assert m.dist[1, 3] == 2.0

    def test_cluster_plus_outliers_density(self):
        # 50 near-duplicates plus a far outlier: rho ~ 1/50, one over the core size.
        m = generate(
            GeneratorSpec(family="cluster_plus_outliers", n=51)
        )
        rho = subset_stats(m, range(m.n)).density
        assert rho == pytest.approx(0.0192, abs=2e-3)

    def test_two_scale_weight_split(self):
        # Intra-cluster weight tracks weight_ratio times the crossing weight.
        m = generate(GeneratorSpec(family="two_scale", n=400, weight_ratio=1.0))
        intra = subset_stats(m, range(m.n - 1)).weight_sum
        cross = float(m.dist[m.n - 1, : m.n - 1].sum())
        assert intra == pytest.approx(cross, rel=0.05)


class TestHelpers:
    def test_small_corpus_shape(self, corpus):
        labels = [label for label, _ in corpus]
        assert len(labels) == len(set(labels))
        assert all(m.n <= 8 for _, m in corpus)
        families = {label.split("-")[0] for label in labels}
        assert "uniform_metric" in families and "clustered" in families

    def test_two_cluster_metric(self):
        m = two_cluster_metric(6, intra=0.1, inter=1.0)
        assert m.dist[0, 1] == 0.1
        assert m.dist[0, 5] == 1.0
