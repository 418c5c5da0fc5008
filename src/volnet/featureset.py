"""Per-key-user features at an activity cutoff, and per-scope training tables.

Network features come from the user's ego network built over transactions
up to the cutoff; raw features count the user's activity events up to the
same cutoff, in one bincount over the event log's user and kind codes.
Neither depends on the analysis scope, so a run assembles each key user's
row once (:func:`assemble_all`).  It streams the ego networks, keeps each
one's scalar metrics and PageRank lane, and ranks the lanes in blocks with
:func:`graph.pagerank_lanes`.  The trend label and prediction case come
from a scope's own clustering, so each scope selects its users' rows and
attaches them (:func:`label_scope`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import (RankLane, TransactionGraph, density, ego_networks, node_metrics_lane,
                    pagerank_lanes)
from .ingest import EVENT_KINDS, EventLog, TransactionLog, to_micros, write_rows
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

#: The raw feature that counts each kind of :data:`ingest.EVENT_KINDS`, in its order.
_KIND_COUNTS = ("articles_count", "messages_count", "rating_count", "likes_count",
                "stories_count", "comments_count")

CASES = ("starting_high", "starting_low")
LABELS = ("stable", "changes")
DAYS_PER_MONTH = 30

#: Ego networks per :func:`graph.pagerank_lanes` block in :func:`assemble_all`.
_PAGERANK_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ScopeFeatures:
    """One scope's training table: row ``i`` of ``X`` (columns in
    :data:`FEATURE_NAMES` order) belongs to ``users[i]``, whose label is
    ``y[i]`` (1 for "changes", 0 for "stable") and whose case is ``cases[i]``."""

    users: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    cases: tuple[str, ...]

    def rows(self, case: str | None = None) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """``(X, y, users)``, restricted to the rows of ``case`` when given."""
        if case is not None and case not in CASES:
            raise ValueError(f"unknown case {case!r}")
        keep = [i for i, c in enumerate(self.cases) if case is None or c == case]
        if not keep:
            raise ValueError(f"no feature vectors{' for case ' + case if case else ''}")
        return self.X[keep], self.y[keep], [self.users[i] for i in keep]


def _network_features(g: TransactionGraph, u: str) -> tuple[dict[str, float], RankLane]:
    """:func:`extract_network_features` with ``"pagerank"`` left as NaN, and
    the lane that ranks ``g``."""
    deg, lane, closeness, clustering = node_metrics_lane(g, u)
    flow = deg.in_weighted + deg.out_weighted
    if flow == 0:
        raise ValueError(f"user {u!r} has no transactions inside the ego network")
    return {
        "nodes_number": float(len(g.nodes)),
        "edges_number": float(len(g.edges)),
        "density": density(g),
        "pagerank": math.nan,
        "closeness_centrality": closeness,
        "clustering_coefficient": clustering,
        "pickups_count": float(deg.in_weighted),
        "percent_of_listing_items": deg.out_weighted / flow,
    }, lane


def _fill_pagerank(block: Sequence[tuple[str, dict[str, float], RankLane]]) -> None:
    """Each ``(user, features, lane)``'s ``"pagerank"``, from one block."""
    for (u, features, lane), ranks in zip(block, pagerank_lanes([lane for *_, lane in block])):
        features["pagerank"] = lane.rank_of(u, ranks)


def extract_network_features(g: TransactionGraph, u: str) -> dict[str, float]:
    """Structural features of ``u`` within their (cutoff-limited) ego net ``g``."""
    features, lane = _network_features(g, u)
    _fill_pagerank([(u, features, lane)])
    return features


def _raw_features(events: EventLog, cutoffs: Mapping[str, datetime]) -> np.ndarray:
    """:data:`RAW_FEATURES` of each user of ``cutoffs``, in its order: the
    counts per kind of their events up to and including their cutoff, and
    their mean rating (0.0 when unrated).

    Each rating sum is one weighted bincount over the events in time order,
    so it adds the same floats in the same order as a running sum."""
    n, n_kinds = len(cutoffs), len(EVENT_KINDS)
    slot_of = {u: s for s, u in enumerate(cutoffs)}
    slot = np.array([slot_of.get(u, n) for u in events.user_ids], dtype=np.int64)[events.user]
    cut = np.array([to_micros(c) for c in cutoffs.values()] + [0], dtype=np.int64)
    seen = (slot < n) & (events.at <= cut[slot])
    slot, kind = slot[seen], events.kind[seen]
    raw = np.zeros((n, len(RAW_FEATURES)))
    raw[:, [RAW_FEATURES.index(name) for name in _KIND_COUNTS]] = np.bincount(
        slot * n_kinds + kind, minlength=n * n_kinds).reshape(n, n_kinds)
    rated = kind == EVENT_KINDS.index("rating")
    rating_sum = np.bincount(slot[rated], weights=events.value[seen][rated], minlength=n)
    rated_count = raw[:, RAW_FEATURES.index("rating_count")]
    np.divide(rating_sum, rated_count, out=raw[:, RAW_FEATURES.index("rating_current")],
              where=rated_count > 0)
    return raw


def assemble_all(
    users: Iterable[str],
    log: TransactionLog,
    events: EventLog,
    t_months: int = 3,
) -> np.ndarray:
    """Feature matrix of ``users`` at their cutoffs: row ``i`` is ``users[i]``,
    columns follow :data:`FEATURE_NAMES`.

    A user's cutoff is their first activity plus ``t_months`` 30-day
    months.  Network features come from the user's ego network over the
    transactions collected up to the cutoff (:func:`graph.ego_networks`),
    raw features from the events up to it, so nothing after the cutoff
    leaks in, and a user's row does not depend on who else is assembled.
    """
    users = list(users)
    if not users:
        return np.zeros((0, len(FEATURE_NAMES)))
    if t_months < 1:
        raise ValueError("cutoff months must be >= 1")
    cutoffs: dict[str, datetime] = {}
    for u in users:
        if u not in log.first_activity:
            raise KeyError(f"user {u!r} has no transactions")
        cutoffs[u] = log.first_activity[u] + timedelta(days=DAYS_PER_MONTH * t_months)

    # each ego network is dropped once its lane and scalar features are taken
    pending = ((u, *_network_features(ego, u)) for u, ego in ego_networks(log, cutoffs))
    network: dict[str, dict[str, float]] = {}
    while block := list(islice(pending, _PAGERANK_BLOCK)):
        _fill_pagerank(block)
        network.update((u, features) for u, features, _ in block)
    raw = dict(zip(cutoffs, _raw_features(events, cutoffs).tolist()))
    return np.array([[network[u][name] for name in NETWORK_FEATURES] + raw[u] for u in users],
                    dtype=float)


def label_scope(
    users: Sequence[str],
    X: np.ndarray,
    model: ClusterModel,
    labels: Mapping[int, ArchetypeLabel],
) -> ScopeFeatures:
    """The scope's table: ``X``'s rows (one per user, in order) with each
    user's label and case from their cluster archetype
    (:func:`tscluster.case_and_trend`)."""
    cases, y = [], []
    for u in users:
        if u not in model.assignment:
            raise KeyError(f"user {u!r} missing from cluster assignment")
        case, label = case_and_trend(labels[model.assignment[u]].label)
        cases.append(case)
        y.append(LABELS.index(label))
    return ScopeFeatures(users=tuple(users), X=X, y=np.array(y, dtype=int),
                         cases=tuple(cases))


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6f}"


def write_features_csv(table: ScopeFeatures, path: str) -> None:
    write_rows(path, "csv", ("user_id", *FEATURE_NAMES, "label", "case"), (
        (table.users[i], *map(_format_value, table.X[i]), LABELS[table.y[i]], table.cases[i])
        for i in sorted(range(len(table.users)), key=table.users.__getitem__)))
