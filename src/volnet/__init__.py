"""Volunteer-network behavior analytics.

Two-part pipeline over sharing-platform transaction logs: (1) cluster key
users' donors-ratio time series into behavioral archetypes, and (2)
predict from three months of early activity whether a user's giving trend
will stay stable or change, with Shapley-value explanations.
"""

from .behavior import DRSeries, dr_series, detect_hubs
from .community import Partition, louvain, modularity
from .graph import TransactionGraph, build_graph, ego_network, pagerank
from .ingest import (
    EventLog,
    TransactionLog,
    parse_events,
    parse_transactions,
)
from .models import TrainedClassifier, kfold_cv, predict, train
from .pipeline import PipelineConfig, build_config, run, run_method1, run_method2
from .synthgen import SynthConfig, adjusted_rand_index, generate
from .tscluster import (
    ClusterModel,
    calinski_harabasz,
    dtw,
    kmeans_ts,
    label_archetypes,
    soft_dtw,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "DRSeries",
    "EventLog",
    "Partition",
    "PipelineConfig",
    "SynthConfig",
    "TrainedClassifier",
    "TransactionGraph",
    "TransactionLog",
    "__version__",
    "adjusted_rand_index",
    "build_config",
    "build_graph",
    "calinski_harabasz",
    "detect_hubs",
    "dr_series",
    "dtw",
    "ego_network",
    "generate",
    "kfold_cv",
    "kmeans_ts",
    "label_archetypes",
    "louvain",
    "modularity",
    "pagerank",
    "parse_events",
    "parse_transactions",
    "predict",
    "run",
    "run_method1",
    "run_method2",
    "soft_dtw",
    "train",
]
