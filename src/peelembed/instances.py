"""Deterministic instance generators for tests and benchmarks.

Families cover the regimes the solvers switch on: dense instances (uniform,
gaussian, box), sparse cluster structure (clustered, cluster_plus_outliers)
and two_scale instances calibrated so that the peeling recursions take their
recursive case at the top level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpec
from .metric import Metric, metric_from_points, validate_metric

FAMILIES = (
    "euclidean_gaussian",
    "euclidean_uniform_box",
    "clustered",
    "uniform_metric",
    "path_metric",
    "cluster_plus_outliers",
    "two_scale",
)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    seed: int = 0
    dim: int = 2  # euclidean families
    m_clusters: int = 3  # clustered
    intra_scale: float = 0.05  # clustered
    inter_scale: float = 1.0  # clustered
    core_n: Optional[int] = None  # cluster_plus_outliers; None -> n - outlier_n
    outlier_n: int = 1  # cluster_plus_outliers, two_scale
    ratio: float = 1e-4  # cluster_plus_outliers: cluster width / outlier distance
    weight_ratio: float = 1.0  # two_scale: intra-cluster weight / crossing weight

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if self.n < 1:
            raise InvalidSpec(f"n must be >= 1, got {self.n}")
        if self.dim < 1 or self.m_clusters < 1 or self.outlier_n < 0:
            raise InvalidSpec("dim, m_clusters and outlier_n must be positive")
        if self.ratio <= 0 or self.inter_scale <= 0 or self.weight_ratio <= 0:
            raise InvalidSpec("scales must be positive")


def generate(spec: GeneratorSpec) -> Metric:
    """Deterministic under spec.seed; regeneration is bit-identical."""
    rng = np.random.default_rng(np.random.SeedSequence((hash_family(spec.family), spec.seed)))
    n = spec.n
    if spec.family == "uniform_metric":
        dist = np.ones((n, n)) - np.eye(n)
        return Metric(dist)
    if spec.family == "path_metric":
        idx = np.arange(n, dtype=float)
        return Metric(np.abs(idx[:, None] - idx[None, :]))
    if spec.family == "euclidean_gaussian":
        return metric_from_points(rng.standard_normal((n, spec.dim)))
    if spec.family == "euclidean_uniform_box":
        return metric_from_points(rng.uniform(0.0, 1.0, size=(n, spec.dim)))
    if spec.family == "clustered":
        centers = rng.uniform(0.0, spec.inter_scale, size=(spec.m_clusters, spec.dim))
        labels = np.arange(n) % spec.m_clusters
        pts = centers[labels] + rng.normal(0.0, spec.intra_scale, size=(n, spec.dim))
        return metric_from_points(pts)
    if spec.family == "cluster_plus_outliers":
        core_n = spec.core_n if spec.core_n is not None else n - spec.outlier_n
        if core_n < 1 or core_n + spec.outlier_n != n:
            raise InvalidSpec(f"core_n + outlier_n must equal n={n}")
        core = rng.uniform(0.0, spec.ratio, size=core_n)
        outliers = 1.0 + spec.ratio * np.arange(spec.outlier_n)
        return metric_from_points(np.concatenate([core, outliers])[:, None])
    if spec.family == "two_scale":
        return _two_scale(spec)
    raise InvalidSpec(f"unknown family {spec.family!r}")


def hash_family(family: str) -> int:
    """Stable per-family stream separator (hash() is salted per process)."""
    return sum((i + 1) * ord(c) for i, c in enumerate(family)) % (2**31)


def _two_scale(spec: GeneratorSpec) -> Metric:
    """Tight evenly spaced cluster plus one far outlier, on the line.

    The cluster width is solved so the intra-cluster weight equals
    ``weight_ratio`` times the cluster/outlier crossing weight.  With the
    crossing weight ~ (n-1) and the diameter ~ 1 this pins the top-level
    density near (1 + weight_ratio)/n while the cluster itself stays dense,
    which is what sends the peeling solvers through their recursive case.
    """
    n = spec.n
    if n < 3 or spec.outlier_n != 1:
        raise InvalidSpec("two_scale needs n >= 3 and exactly one outlier")
    m = n - 1  # cluster size
    # Evenly spaced cluster on [0, w]: intra weight = w * m * (m + 1) / 6.
    # Crossing weight to the outlier at distance ~1 is ~m, so solve
    # w * m * (m + 1) / 6 = weight_ratio * m.
    w = 6.0 * spec.weight_ratio / (m + 1)
    if w >= 0.5:
        raise InvalidSpec(f"weight_ratio {spec.weight_ratio} too large for n={n}")
    cluster = np.linspace(0.0, w, m)
    pts = np.concatenate([cluster, [1.0]])
    return metric_from_points(pts[:, None])


def la_case_c_spec(n: int, seed: int = 0) -> tuple:
    """A two_scale spec plus an eps that routes the LA solver to case (c).

    Calibration: eps = 0.45 makes the dense threshold eps^6 ~ 0.0083 while
    the instance density is ~2/n, and the intra weight is half the total so
    the remainder after peeling the outlier keeps at least an eps fraction.
    """
    if n < 250:
        raise InvalidSpec("LA case (c) calibration needs n >= 250")
    return GeneratorSpec(family="two_scale", n=n, seed=seed, weight_ratio=1.0), 0.45


def hc_case_c_spec(n: int, seed: int = 0) -> tuple:
    """A two_scale spec plus an eps that routes the HC solver to case (c).

    Calibration: eps = 1/24 puts the case (b) threshold 16*eps at 2/3 while
    the core keeps ~0.69 of the weight, and the density ~3.2/n stays under
    eps^2 once n > 1850.
    """
    if n < 1860:
        raise InvalidSpec("HC case (c) calibration needs n >= 1860")
    return GeneratorSpec(family="two_scale", n=n, seed=seed, weight_ratio=2.2), 1.0 / 24.0


def small_corpus(max_n: int = 8, per_family: int = 6) -> list:
    """Deterministic list of (label, Metric) pairs with n <= max_n."""
    out = []
    for family in ("euclidean_gaussian", "euclidean_uniform_box", "clustered",
                   "uniform_metric", "path_metric", "cluster_plus_outliers"):
        for seed in range(per_family):
            for n in range(2, max_n + 1):
                kwargs = {}
                if family == "clustered":
                    kwargs["m_clusters"] = min(2 + seed % 2, n)
                if family == "cluster_plus_outliers":
                    if n < 3:
                        continue
                    kwargs["outlier_n"] = 1
                spec = GeneratorSpec(family=family, n=n, seed=seed, **kwargs)
                out.append((f"{family}-n{n}-s{seed}", generate(spec)))
    return out


def two_cluster_metric(n: int = 6, intra: float = 0.1, inter: float = 1.0) -> Metric:
    """Two tight groups of n/2 points: intra weight ``intra``, cross ``inter``."""
    half = n // 2
    dist = np.full((n, n), inter)
    dist[:half, :half] = intra
    dist[half:, half:] = intra
    np.fill_diagonal(dist, 0.0)
    return validate_metric(dist)
