"""Shared fixtures: tiny hand-built logs and a reusable synthetic dataset."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from volnet.ingest import TransactionLog
from volnet import synthgen

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


@pytest.fixture(scope="session")
def small_synth():
    """40 heroes, 2 planted communities — shared by integration-style tests."""
    config = synthgen.SynthConfig(n_heroes=40, community_count=2,
                                  noise_sd=0.05, seed=11)
    return synthgen.generate(config)
