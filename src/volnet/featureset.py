"""Per-key-user feature vectors at an activity cutoff.

Network features come from the user's ego network built over transactions
up to the cutoff; raw features count the user's activity events up to the
same cutoff. The trend label and prediction case come from the clustering
stage, so each vector is ready for supervised training.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import (
    EgoNetwork,
    clustering_coefficient,
    closeness_centrality,
    degrees,
    density,
    ego_networks,
    pagerank,
)
from .ingest import EventLog, TransactionLog
from .tscluster import ArchetypeLabel, ClusterModel, case_and_trend

NETWORK_FEATURES = (
    "nodes_number",
    "edges_number",
    "density",
    "pagerank",
    "closeness_centrality",
    "clustering_coefficient",
    "pickups_count",
    "percent_of_listing_items",
)
RAW_FEATURES = (
    "articles_count",
    "messages_count",
    "rating_current",
    "rating_count",
    "likes_count",
    "stories_count",
    "comments_count",
)
FEATURE_NAMES = NETWORK_FEATURES + RAW_FEATURES

_KIND_TO_COUNT = {
    "article": "articles_count",
    "message": "messages_count",
    "like": "likes_count",
    "story": "stories_count",
    "comment": "comments_count",
}

CASES = ("starting_high", "starting_low")
LABELS = ("stable", "changes")
DAYS_PER_MONTH = 30


@dataclass(frozen=True)
class FeatureVector:
    """One labeled training example for the trend-prediction stage."""

    user: str
    cutoff_months: int
    features: Mapping[str, float]
    label: str
    case: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        missing = set(FEATURE_NAMES) - set(self.features)
        if missing:
            raise ValueError(f"feature vector missing {sorted(missing)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.features[name] for name in FEATURE_NAMES], dtype=float)


def extract_network_features(ego: EgoNetwork) -> dict[str, float]:
    """Structural features of the user within their (cutoff-limited) ego net."""
    g = ego.graph
    u = ego.ego
    deg = degrees(g, u)
    flow = deg.in_weighted + deg.out_weighted
    if flow == 0:
        raise ValueError(f"user {u!r} has no transactions inside the ego network")
    return {
        "nodes_number": float(len(g.nodes)),
        "edges_number": float(len(g.edges)),
        "density": density(g),
        "pagerank": pagerank(g)[u],
        "closeness_centrality": closeness_centrality(g, u),
        "clustering_coefficient": clustering_coefficient(g, u),
        "pickups_count": float(deg.in_weighted),
        "percent_of_listing_items": deg.out_weighted / flow,
    }


def _count_events(user_events: Iterable, cutoff: datetime) -> dict[str, float]:
    """Counts per kind (and mean rating, 0.0 when unrated) of one user's
    time-sorted events up to and including ``cutoff``."""
    counts = {name: 0.0 for name in RAW_FEATURES}
    rating_sum = 0.0
    for e in user_events:
        if e.at > cutoff:
            break
        if e.kind == "rating":
            counts["rating_count"] += 1.0
            rating_sum += float(e.value)
        else:
            counts[_KIND_TO_COUNT[e.kind]] += 1.0
    counts["rating_current"] = (rating_sum / counts["rating_count"]
                                if counts["rating_count"] > 0 else 0.0)
    return counts


def assemble_all(
    users: Iterable[str],
    log: TransactionLog,
    events: EventLog,
    model: ClusterModel,
    labels: Mapping[int, ArchetypeLabel],
    t_months: int = 3,
) -> list[FeatureVector]:
    """Feature vectors of ``users`` at their cutoffs, in the order given.

    A user's cutoff is their first activity plus ``t_months`` 30-day
    months.  Network features come from the user's ego network over the
    transactions collected up to the cutoff (:func:`graph.ego_networks`),
    raw features from the events up to it, so nothing after the cutoff
    leaks in.  The label and case come from the user's cluster archetype
    (:func:`tscluster.case_and_trend`).
    """
    users = list(users)
    if not users:
        return []
    if t_months < 1:
        raise ValueError("cutoff months must be >= 1")
    cutoffs: dict[str, datetime] = {}
    for u in users:
        if u not in log.first_activity:
            raise KeyError(f"user {u!r} has no transactions")
        cutoffs[u] = log.first_activity[u] + timedelta(days=DAYS_PER_MONTH * t_months)

    events_of: dict[str, list] = defaultdict(list)
    wanted = set(users)
    for e in events.events:
        if e.user_id in wanted:
            events_of[e.user_id].append(e)

    vectors: dict[str, FeatureVector] = {}
    for u, ego in ego_networks(log, cutoffs):
        features = extract_network_features(ego)
        features.update(_count_events(events_of.get(u, ()), cutoffs[u]))

        if u not in model.assignment:
            raise KeyError(f"user {u!r} missing from cluster assignment")
        case, label = case_and_trend(labels[model.assignment[u]].label)
        vectors[u] = FeatureVector(user=u, cutoff_months=t_months, features=features,
                                   label=label, case=case)
    return [vectors[u] for u in users]


def feature_matrix(
    vectors: Sequence[FeatureVector],
    case: str | None = None,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack vectors into (X, y, users); y is 1 for "changes", 0 for "stable".

    With ``case`` given, only vectors of that prediction case are kept.
    """
    if case is not None and case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    picked = [v for v in vectors if case is None or v.case == case]
    if not picked:
        raise ValueError(f"no feature vectors{' for case ' + case if case else ''}")
    X = np.vstack([v.as_array() for v in picked])
    y = np.array([1 if v.label == "changes" else 0 for v in picked], dtype=int)
    return X, y, [v.user for v in picked]


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6f}"


def write_features_csv(vectors: Sequence[FeatureVector], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", *FEATURE_NAMES, "label", "case"])
        for v in sorted(vectors, key=lambda v: v.user):
            row = [v.user]
            row.extend(_format_value(v.features[name]) for name in FEATURE_NAMES)
            row.extend([v.label, v.case])
            writer.writerow(row)


def read_features_csv(path: str, cutoff_months: int = 3) -> list[FeatureVector]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            features = {name: float(row[name]) for name in FEATURE_NAMES}
            out.append(FeatureVector(user=row["user_id"], cutoff_months=cutoff_months,
                                     features=features, label=row["label"], case=row["case"]))
    return out
