"""Multi-layer peeling approximation schemes for maximum linear arrangement
and maximum hierarchical clustering on finite metric spaces."""

from .errors import PeelEmbedError
from .hc_dense import solve_hc_dense
from .hc_peeling import solve_hc
from .instances import GeneratorSpec, generate
from .la_dense import solve_la_dense
from .la_peeling import solve_la
from .local_search import SolveConfig
from .metric import Metric, find_core, metric_from_points, subset_stats, validate_metric
from .objectives import HcTree, LinearArrangement, evaluate_hc, evaluate_la, ladder_tree
from .oracles import (
    average_linkage_hc,
    brute_force_hc,
    brute_force_la,
    random_bisection_la,
)
from .partition_search import PartitionSpec, search_partition
from .trace import LevelRecord, RecursionTrace

__version__ = "0.1.0"

__all__ = [
    "GeneratorSpec",
    "HcTree",
    "LevelRecord",
    "LinearArrangement",
    "Metric",
    "PartitionSpec",
    "PeelEmbedError",
    "RecursionTrace",
    "SolveConfig",
    "average_linkage_hc",
    "brute_force_hc",
    "brute_force_la",
    "evaluate_hc",
    "evaluate_la",
    "find_core",
    "generate",
    "ladder_tree",
    "metric_from_points",
    "random_bisection_la",
    "search_partition",
    "solve_hc",
    "solve_hc_dense",
    "solve_la",
    "solve_la_dense",
    "subset_stats",
    "validate_metric",
]
