"""Per-user feature assembly, the oracle for ``featureset.assemble_all``.

This is the single-user path ``volnet.featureset`` used to ship: each
user's cutoff comes from a scan of the log, the graph is rebuilt from the
log up to that cutoff, and the raw features filter the whole event log.
``assemble_all`` must give the same rows from its streamed ego networks, and
``label_scope`` the same label and case.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta
from typing import Mapping

import numpy as np

from volnet.featureset import DAYS_PER_MONTH, FEATURE_NAMES, extract_network_features
from volnet.graph import build_graph, ego_network
from volnet.ingest import EventLog, TransactionLog
from volnet.tscluster import ArchetypeLabel, ClusterModel, case_and_trend

from ingest_reference import event_rows, transaction_log, transaction_rows

_KIND_TO_COUNT = {
    "article": "articles_count",
    "message": "messages_count",
    "like": "likes_count",
    "story": "stories_count",
    "comment": "comments_count",
}


def cutoff_time(log: TransactionLog, u: str, t_months: int) -> datetime:
    """First transaction of ``u`` in either role plus ``t_months`` 30-day months."""
    if t_months < 1:
        raise ValueError("cutoff months must be >= 1")
    for t in transaction_rows(log):
        if u in (t.lister_id, t.collector_id):
            return t.collected_at + timedelta(days=DAYS_PER_MONTH * t_months)
    raise KeyError(f"user {u!r} has no transactions")


def extract_raw_features(events: EventLog, u: str, cutoff: datetime) -> dict[str, float]:
    """Activity-event counts (and mean rating) up to and including ``cutoff``."""
    mine = [e for e in event_rows(events) if e.user_id == u and e.at <= cutoff]
    kinds = Counter(e.kind for e in mine)
    ratings = [float(e.value) for e in mine if e.kind == "rating"]
    out = {name: float(kinds[kind]) for kind, name in _KIND_TO_COUNT.items()}
    out["rating_count"] = float(len(ratings))
    out["rating_current"] = sum(ratings) / len(ratings) if ratings else 0.0
    return out


def assemble(
    u: str,
    log: TransactionLog,
    events: EventLog,
    model: ClusterModel,
    labels: Mapping[int, ArchetypeLabel],
    t_months: int = 3,
) -> tuple[np.ndarray, tuple[str, str]]:
    """One clustered user's feature row (columns in ``FEATURE_NAMES`` order)
    at their cutoff, and their ``(case, label)``."""
    case, label = case_and_trend(labels[model.assignment[u]].label)
    cutoff = cutoff_time(log, u, t_months)
    seen = transaction_log(t for t in transaction_rows(log) if t.collected_at <= cutoff)
    features = extract_network_features(ego_network(build_graph(seen), u), u)
    features.update(extract_raw_features(events, u, cutoff))
    return np.array([features[name] for name in FEATURE_NAMES]), (case, label)
