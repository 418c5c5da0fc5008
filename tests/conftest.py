"""Shared fixtures: tiny hand-built logs and a reusable synthetic dataset."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping

import numpy as np
import pytest

from volnet.graph import TransactionGraph
from volnet.ingest import TransactionLog
from volnet import models, synthgen

from ingest_reference import Transaction, transaction_log

EPOCH = datetime(2022, 1, 1, tzinfo=timezone.utc)


def at_day(day: float, hour: float = 0.0) -> datetime:
    return EPOCH + timedelta(days=day, hours=hour)


def tx(lister: str, collector: str, day: float, hour: float = 0.0,
       item: str | None = None) -> Transaction:
    when = at_day(day, hour)
    label = item or f"{lister}-{collector}-{day}-{hour}"
    return Transaction(item_id=label, lister_id=lister, collector_id=collector,
                       listed_at=when - timedelta(hours=1), collected_at=when)


def make_log(*transactions: Transaction) -> TransactionLog:
    return transaction_log(transactions)


def graph_of(edges: Mapping[tuple[str, str], object],
             nodes: Iterable[str] = ()) -> TransactionGraph:
    """The graph of named ``edges`` (in their order, with their weights as
    given) over their endpoints and ``nodes``."""
    names = tuple(sorted({*nodes, *(v for pair in edges for v in pair)}))
    code = {v: i for i, v in enumerate(names)}
    weights = list(edges.values())
    return TransactionGraph(names, np.array([code[a] for a, _ in edges], dtype=np.int64),
                            np.array([code[b] for _, b in edges], dtype=np.int64),
                            np.array(weights) if weights else np.zeros(0, dtype=np.int64))


def set_hyperparams(monkeypatch, algorithm: str, **values) -> None:
    """Fit ``algorithm`` with ``values`` over its ``models.HYPERPARAMS``
    entry until ``monkeypatch`` undoes its changes."""
    monkeypatch.setitem(models.HYPERPARAMS, algorithm, {**models.HYPERPARAMS[algorithm], **values})


def edges_of(g: TransactionGraph) -> dict[tuple[str, str], int]:
    """``g``'s edges as ``{(source, target): weight}``, in its edge order."""
    return {(g.names[a], g.names[b]): w
            for a, b, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())}


@pytest.fixture(scope="session")
def seed7_log():
    """The transaction log of the default 200-hero dataset at seed 7."""
    return synthgen.generate(synthgen.SynthConfig(seed=7))[0]


@pytest.fixture(scope="session")
def small_synth():
    """40 heroes, 2 planted communities — shared by integration-style tests."""
    config = synthgen.SynthConfig(n_heroes=40, community_count=2,
                                  noise_sd=0.05, seed=11)
    return synthgen.generate(config)
