"""Transaction/event log parsing, filtering, and key-user selection.

Input files are plain CSV or JSONL.  Transactions carry the exact columns
``item_id,lister_id,collector_id,listed_at,collected_at`` and activity events
``user_id,kind,at,value`` (``value`` empty unless ``kind`` is ``rating``).
Timestamps are RFC 3339, normalized to UTC at parse time.

This module owns the per-user view of a log: :attr:`TransactionLog.by_user`
is the one index of each user's rows, and first activity, the activity
filters and the donors-ratio series read it instead of scanning the log.
"""

from __future__ import annotations

import csv
import json
import logging
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cache, cached_property
from typing import Iterable

log = logging.getLogger(__name__)

EVENT_KINDS = ("article", "message", "rating", "like", "story", "comment")

TRANSACTION_COLUMNS = ("item_id", "lister_id", "collector_id", "listed_at", "collected_at")
EVENT_COLUMNS = ("user_id", "kind", "at", "value")


class ParseError(ValueError):
    """Raised when a file contains malformed rows."""

    def __init__(self, path: str, bad_rows: tuple["RowError", ...]):
        lines = ", ".join(str(r.line) for r in bad_rows[:20])
        more = "" if len(bad_rows) <= 20 else f" (+{len(bad_rows) - 20} more)"
        super().__init__(f"{path}: {len(bad_rows)} malformed row(s) at line(s) {lines}{more}")
        self.path = path
        self.bad_rows = bad_rows


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp without offset: {text!r}")
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Canonical second-precision UTC rendering used by every writer."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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


@dataclass(frozen=True)
class TransactionLog:
    """Immutable transaction sequence, sorted by ``collected_at``."""

    transactions: tuple[Transaction, ...]
    users: frozenset[str]

    @classmethod
    def from_transactions(cls, transactions: Iterable[Transaction]) -> "TransactionLog":
        ordered = tuple(sorted(transactions, key=lambda t: t.collected_at))
        users = frozenset(u for t in ordered for u in (t.lister_id, t.collector_id))
        return cls(transactions=ordered, users=users)

    def __len__(self) -> int:
        return len(self.transactions)

    @cached_property
    def by_user(self) -> dict[str, list[Transaction]]:
        """Each user's transactions, in either role, in log order."""
        rows: dict[str, list[Transaction]] = {}
        for t in self.transactions:
            rows.setdefault(t.lister_id, []).append(t)
            rows.setdefault(t.collector_id, []).append(t)
        return rows

    @cached_property
    def first_activity(self) -> dict[str, datetime]:
        """Each user's first ``collected_at``, in either role."""
        return {u: rows[0].collected_at for u, rows in self.by_user.items()}

    @cached_property
    def _collected_order(self) -> list[datetime]:
        return [t.collected_at for t in self.transactions]

    def count_until(self, until: datetime) -> int:
        """Number of leading transactions with ``collected_at <= until``."""
        return bisect_right(self._collected_order, until)


@dataclass(frozen=True)
class EventLog:
    """Immutable activity-event sequence, sorted by ``at``."""

    events: tuple[ActivityEvent, ...]

    @classmethod
    def from_events(cls, events: Iterable[ActivityEvent]) -> "EventLog":
        return cls(events=tuple(sorted(events, key=lambda e: e.at)))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class KeyUserSet:
    """The analysis population: predefined hero list or hub-rule detections."""

    ids: frozenset[str]
    origin: str  # "predefined" | "hub_rule"

    def __post_init__(self):
        if self.origin not in ("predefined", "hub_rule"):
            raise ValueError(f"unknown key-user origin {self.origin!r}")


@dataclass(frozen=True)
class RowError:
    line: int
    reason: str


@dataclass(frozen=True)
class ParseReport:
    """What the parser saw: total data rows and per-row rejections.

    ``line`` numbers are 1-based file lines (a CSV header is line 1).
    """

    path: str
    total_rows: int
    bad_rows: tuple[RowError, ...] = field(default=())


# User ids repeat on every row a user appears in; interning keeps one
# string per id instead of one per cell.  ``stamp`` is the parse's
# memoized :func:`parse_timestamp`, so timestamps are shared the same way.
def _transaction_from_fields(fields: dict[str, str], stamp) -> Transaction:
    return Transaction(
        item_id=fields["item_id"],
        lister_id=sys.intern(fields["lister_id"]),
        collector_id=sys.intern(fields["collector_id"]),
        listed_at=stamp(fields["listed_at"]),
        collected_at=stamp(fields["collected_at"]),
    )


def _event_from_fields(fields: dict[str, str], stamp) -> ActivityEvent:
    raw_value = fields.get("value") or None
    return ActivityEvent(
        user_id=sys.intern(fields["user_id"]),
        kind=fields["kind"],
        at=stamp(fields["at"]),
        value=float(raw_value) if raw_value is not None else None,
    )


def _iter_rows(path: str, fmt: str, columns: tuple[str, ...]):
    """Yield (line_number, fields | None, reason) triples for each data row."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ParseError(path, (RowError(1, f"expected header {','.join(columns)}"),))
            for i, row in enumerate(reader):
                line = i + 2
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
                except json.JSONDecodeError as exc:
                    yield line, None, f"invalid JSON: {exc.msg}"
                    continue
                if not isinstance(obj, dict) or set(obj) != set(columns):
                    yield line, None, f"expected keys {','.join(columns)}"
                    continue
                yield line, {k: ("" if obj[k] is None else str(obj[k])) for k in columns}, ""
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _parse(path: str, fmt: str, columns: tuple[str, ...], build_row, collect):
    """Build one item per well-formed row; malformed rows go to the report.

    Each distinct timestamp string is parsed once per call: the cache lives
    only as long as the parse, and a malformed value, which raises and so is
    never cached, raises again on every row that holds it."""
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
            good.append(build_row(fields, stamp))
        except ValueError as exc:
            bad.append(RowError(line, str(exc)))
    return collect(good), ParseReport(path, total, tuple(bad))


def _without_bad_rows(parsed, report: ParseReport):
    if report.bad_rows:
        raise ParseError(report.path, report.bad_rows)
    return parsed


def parse_transactions_with_report(path: str, fmt: str = "csv") -> tuple[TransactionLog, ParseReport]:
    """Parse a transaction file, collecting malformed rows instead of failing."""
    return _parse(path, fmt, TRANSACTION_COLUMNS, _transaction_from_fields,
                  TransactionLog.from_transactions)


def parse_transactions(path: str, fmt: str = "csv") -> TransactionLog:
    """Parse transactions; any malformed row raises :class:`ParseError`.

    Use :func:`parse_transactions_with_report` to keep the good rows and
    inspect the bad ones.
    """
    return _without_bad_rows(*parse_transactions_with_report(path, fmt))


def parse_events_with_report(path: str, fmt: str = "csv") -> tuple[EventLog, ParseReport]:
    """Parse an activity-event file, collecting malformed rows instead of failing."""
    return _parse(path, fmt, EVENT_COLUMNS, _event_from_fields, EventLog.from_events)


def parse_events(path: str, fmt: str = "csv") -> EventLog:
    """Parse activity events; mirrors :func:`parse_transactions` semantics."""
    return _without_bad_rows(*parse_events_with_report(path, fmt))


def _write_rows(path: str, fmt: str, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Write value tuples under ``columns``; the mirror of :func:`_parse`."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(columns)
            for values in rows:
                writer.writerow(["" if v is None else str(v) for v in values])
        else:
            for values in rows:
                fh.write(json.dumps(dict(zip(columns, values)), separators=(",", ":")) + "\n")


def write_transactions(log_: TransactionLog, path: str, fmt: str = "csv") -> None:
    """Serialize a log in the canonical on-disk form (round-trips exactly)."""
    _write_rows(path, fmt, TRANSACTION_COLUMNS, (
        (t.item_id, t.lister_id, t.collector_id,
         format_timestamp(t.listed_at), format_timestamp(t.collected_at))
        for t in log_.transactions))


def write_events(events: EventLog, path: str, fmt: str = "csv") -> None:
    _write_rows(path, fmt, EVENT_COLUMNS, (
        (e.user_id, e.kind, format_timestamp(e.at), e.value) for e in events.events))


def filter_min_transactions(log_: TransactionLog, min_count: int) -> TransactionLog:
    """Drop users that appear in fewer than ``min_count`` transactions.

    Counting is joint over lister and collector roles.  The retained user
    set is computed once from the input log and a transaction survives only
    if both endpoints are retained; removals do not cascade (no fixpoint
    iteration), so a retained user may end below the threshold afterwards.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    retained = {u for u, rows in log_.by_user.items() if len(rows) >= min_count}
    kept = [t for t in log_.transactions
            if t.lister_id in retained and t.collector_id in retained]
    return TransactionLog.from_transactions(kept)


def select_active_key_users(
    log_: TransactionLog,
    key: KeyUserSet,
    min_span: timedelta = timedelta(days=365),
    min_listing_weeks: int = 6,
) -> KeyUserSet:
    """Keep key users with a long enough activity span and enough listing weeks.

    A user passes when (a) the gap between their first and last transaction
    is at least ``min_span`` and (b) they listed in at least
    ``min_listing_weeks`` distinct ISO calendar weeks (UTC).  Transactions
    are attributed to weeks by ``collected_at``.
    """
    def active(u: str) -> bool:
        rows = log_.by_user.get(u)
        if not rows or rows[-1].collected_at - rows[0].collected_at < min_span:
            return False
        weeks = {t.collected_at.isocalendar()[:2] for t in rows if t.lister_id == u}
        return len(weeks) >= min_listing_weeks

    retained = frozenset(u for u in key.ids if active(u))
    if not retained:
        log.warning("no key users passed the activity criteria")
    return KeyUserSet(ids=retained, origin=key.origin)
