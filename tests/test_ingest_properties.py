"""Write → parse round-trip properties of the CSV and JSONL formats
(skipped without Hypothesis)."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet import ingest  # noqa: E402
from volnet.ingest import EVENT_KINDS, ActivityEvent, EventLog, Transaction, TransactionLog  # noqa: E402

FORMATS = ("csv", "jsonl")

# ids with the characters CSV must quote (comma, quote, spaces) and non-ASCII
ids = st.text(alphabet='abcXYZ019_-., "é', min_size=1, max_size=6)
# second-precision UTC instants: the writers render whole seconds
instants = st.integers(min_value=0, max_value=4_000_000_000).map(
    lambda s: datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=s))


@st.composite
def transactions(draw):
    lister, collector = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    listed = draw(instants)
    wait = timedelta(seconds=draw(st.integers(min_value=0, max_value=10_000_000)))
    return Transaction(item_id=draw(ids), lister_id=lister, collector_id=collector,
                       listed_at=listed, collected_at=listed + wait)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(EVENT_KINDS))
    value = (draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
             if kind == "rating" else None)
    return ActivityEvent(user_id=draw(ids), kind=kind, at=draw(instants), value=value)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(transactions(), max_size=12))
def test_transactions_round_trip(scratch, fmt, rows):
    log = TransactionLog.from_transactions(rows)
    path = str(scratch / f"transactions.{fmt}")
    ingest.write_transactions(log, path, fmt=fmt)
    assert ingest.parse_transactions(path, fmt=fmt) == log


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(events(), max_size=12))
def test_events_round_trip(scratch, fmt, rows):
    log = EventLog.from_events(rows)
    path = str(scratch / f"events.{fmt}")
    ingest.write_events(log, path, fmt=fmt)
    back = ingest.parse_events(path, fmt=fmt)
    assert back == log
    # rating values come back bit for bit, not just equal as numbers
    assert [repr(e.value) for e in back.events] == [repr(e.value) for e in log.events]
