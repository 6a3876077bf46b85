import os

# single-threaded BLAS so CPU-time runtime budgets measure serial compute
# instead of busy-waiting worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from peelembed.instances import small_corpus, two_cluster_metric
from peelembed.metric import Metric, validate_metric


@pytest.fixture(scope="session")
def corpus():
    """Deterministic small-n corpus shared across test modules."""
    return small_corpus(max_n=8, per_family=6)


@pytest.fixture(scope="session")
def cluster_outlier_5():
    """Points {0,1,2,3} pairwise 0.1, point 4 at 1.0 from all; rho = 0.184."""
    dist = np.full((5, 5), 0.1)
    dist[4, :] = dist[:, 4] = 1.0
    np.fill_diagonal(dist, 0.0)
    return validate_metric(dist)


@pytest.fixture(scope="session")
def two_cluster_6():
    return two_cluster_metric(6, intra=0.1, inter=1.0)


def random_metric(rng, n):
    """Random valid metric via shortest-path closure of a random matrix."""
    raw = rng.uniform(0.2, 1.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    for k in range(n):
        raw = np.minimum(raw, raw[:, k, None] + raw[None, k, :])
    return Metric(raw)
