"""Per-row log types and parsers for the differential tests.

This is the row design ``volnet.ingest`` used before both logs became
columnar: every row is a validated :class:`Transaction` or
:class:`ActivityEvent`, and the parsers turn every row into a field dict
and then into one of them, sorting the rows by ``collected_at`` or
``at``.  The tests require the columnar parsers to yield the same rows and
the same :class:`ParseReport`, and the columnar packers to reject what
these constructors reject.  :func:`transaction_log`, :func:`event_log`,
:func:`transaction_rows` and :func:`event_rows` convert between the two
designs.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from datetime import datetime
from functools import cache
from typing import Iterable

from volnet.ingest import (
    EVENT_COLUMNS,
    EVENT_KINDS,
    TRANSACTION_COLUMNS,
    EventLog,
    ParseError,
    ParseReport,
    RowError,
    TransactionLog,
    from_micros,
    parse_timestamp,
    to_micros,
)


@dataclass(frozen=True)
class Transaction:
    """One listing-pickup exchange: the lister gave, the collector took."""

    item_id: str
    lister_id: str
    collector_id: str
    listed_at: datetime
    collected_at: datetime

    def __post_init__(self):
        if not self.item_id or not self.lister_id or not self.collector_id:
            raise ValueError("transaction ids must be non-empty")
        if self.lister_id == self.collector_id:
            raise ValueError(f"self-transaction for user {self.lister_id!r}")
        if self.collected_at < self.listed_at:
            raise ValueError(f"item {self.item_id!r} collected before it was listed")


@dataclass(frozen=True)
class ActivityEvent:
    """A non-transactional user action (message, rating, like, ...)."""

    user_id: str
    kind: str
    at: datetime
    value: float | None = None

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("event user_id must be non-empty")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "rating":
            if self.value is None:
                raise ValueError("rating event without a value")
            if not 0.0 <= self.value <= 10.0:
                raise ValueError(f"rating {self.value} outside [0, 10]")
        elif self.value is not None:
            raise ValueError(f"{self.kind} event must not carry a value")


def _columns(rows: Iterable[tuple], width: int) -> list[list]:
    return [list(col) for col in zip(*rows)] or [[] for _ in range(width)]


def transaction_log(rows: Iterable[Transaction]) -> TransactionLog:
    """The columnar log of ``rows``, through the library's row packer."""
    items, listers, collectors, listed, collected = _columns(
        ((t.item_id, t.lister_id, t.collector_id, t.listed_at, t.collected_at) for t in rows), 5)
    return TransactionLog.pack(items, listers, collectors, [to_micros(t) for t in listed],
                               [to_micros(t) for t in collected])


def event_log(rows: Iterable[ActivityEvent]) -> EventLog:
    """The columnar log of ``rows``, through the library's row packer."""
    users, kinds, at, values = _columns(((e.user_id, e.kind, e.at, e.value) for e in rows), 4)
    return EventLog.pack(users, kinds, [to_micros(t) for t in at], values)


def transaction_rows(log: TransactionLog) -> tuple[Transaction, ...]:
    """The rows of a columnar log, in log order."""
    names = log.user_ids
    return tuple(
        Transaction(item, names[a], names[b], from_micros(listed), from_micros(collected))
        for item, a, b, listed, collected in zip(
            log.item_ids.tolist(), log.lister.tolist(), log.collector.tolist(),
            log.listed_at.tolist(), log.collected_at.tolist()))


def event_rows(events: EventLog) -> tuple[ActivityEvent, ...]:
    """The rows of a columnar event log, in log order."""
    names = events.user_ids
    return tuple(
        ActivityEvent(names[u], EVENT_KINDS[k], from_micros(at), None if v != v else v)
        for u, k, at, v in zip(events.user.tolist(), events.kind.tolist(),
                               events.at.tolist(), events.value.tolist()))


def _transaction_from_fields(fields: dict[str, str], stamp) -> Transaction:
    return Transaction(
        item_id=fields["item_id"],
        lister_id=sys.intern(fields["lister_id"]),
        collector_id=sys.intern(fields["collector_id"]),
        listed_at=stamp(fields["listed_at"]),
        collected_at=stamp(fields["collected_at"]),
    )


def _event_from_fields(fields: dict[str, str], stamp) -> ActivityEvent:
    return ActivityEvent(
        user_id=sys.intern(fields["user_id"]),
        kind=fields["kind"],
        at=stamp(fields["at"]),
        value=float(fields["value"]) if fields["value"] else None,
    )


def _iter_rows(path: str, fmt: str, columns: tuple[str, ...]):
    """Yield (line_number, fields | None, reason) triples for each data row."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ParseError(path, (RowError(1, f"expected header {','.join(columns)}"),))
            end = reader.line_num
            for row in reader:
                # a row starts on the file line after the one before it ends
                line, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(columns):
                    yield line, None, f"expected {len(columns)} columns, got {len(row)}"
                    continue
                yield line, dict(zip(columns, row)), ""
    elif fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for i, raw in enumerate(fh):
                line = i + 1
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:  # too long a number, too deep
                    yield line, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"
                    continue
                if not isinstance(obj, dict) or set(obj) != set(columns):
                    yield line, None, f"expected keys {','.join(columns)}"
                    continue
                fields = {}
                for k in columns:
                    v = obj[k]
                    if v is None:
                        fields[k] = ""
                    elif isinstance(v, str):
                        fields[k] = v
                    elif k == "value" and isinstance(v, (int, float)) and not isinstance(v, bool):
                        fields[k] = str(v)
                    else:
                        kinds = "number, string or null" if k == "value" else "string or null"
                        yield line, None, f"{k} must be a JSON {kinds}, got {json.dumps(v)}"
                        break
                else:
                    yield line, fields, ""
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _parse_with_report(path: str, fmt: str, columns: tuple[str, ...], from_fields):
    stamp = cache(parse_timestamp)
    good = []
    bad: list[RowError] = []
    total = 0
    for line, fields, reason in _iter_rows(path, fmt, columns):
        total += 1
        if fields is None:
            bad.append(RowError(line, reason))
            continue
        try:
            good.append(from_fields(fields, stamp))
        except ValueError as exc:
            bad.append(RowError(line, str(exc)))
    return good, ParseReport(path, total, tuple(bad))


def parse_transactions_with_report(path: str, fmt: str = "csv"
                                   ) -> tuple[tuple[Transaction, ...], ParseReport]:
    """The good rows sorted by ``collected_at``, and the parse report."""
    good, report = _parse_with_report(path, fmt, TRANSACTION_COLUMNS, _transaction_from_fields)
    return tuple(sorted(good, key=lambda t: t.collected_at)), report


def parse_events_with_report(path: str, fmt: str = "csv"
                             ) -> tuple[tuple[ActivityEvent, ...], ParseReport]:
    """The good rows sorted by ``at``, and the parse report."""
    good, report = _parse_with_report(path, fmt, EVENT_COLUMNS, _event_from_fields)
    return tuple(sorted(good, key=lambda e: e.at)), report
