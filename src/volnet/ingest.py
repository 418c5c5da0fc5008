"""Transaction/event log parsing, filtering, and key-user selection.

Input files are plain CSV or JSONL.  Transactions carry the exact columns
``item_id,lister_id,collector_id,listed_at,collected_at`` and activity events
``user_id,kind,at,value`` (``value`` empty unless ``kind`` is ``rating``).
Timestamps are RFC 3339, normalized to UTC at parse time.

A :class:`TransactionLog` is columnar: one table of user ids, ``int32``
lister and collector codes into it, ``int64`` epoch-microsecond
``listed_at``/``collected_at`` arrays and the item ids, with rows sorted
by ``collected_at``.  The parser appends each row's fields straight to the
column buffers and validates whole columns at once.  Every stage reads the
arrays: :attr:`TransactionLog.by_user` is the one per-user index, offsets
into a row-index array, and first activity, the activity filters and the
donors-ratio series slice it instead of scanning the log.
:class:`Transaction` stays the row value type for logs built by hand
(:meth:`TransactionLog.from_transactions`).
"""

from __future__ import annotations

import csv
import json
import logging
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cache, cached_property
from typing import Iterable

import numpy as np

log = logging.getLogger(__name__)

EVENT_KINDS = ("article", "message", "rating", "like", "story", "comment")

TRANSACTION_COLUMNS = ("item_id", "lister_id", "collector_id", "listed_at", "collected_at")
EVENT_COLUMNS = ("user_id", "kind", "at", "value")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
_DAY_US = timedelta(days=1) // MICROSECOND


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


def to_micros(dt: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (dt - _EPOCH) // MICROSECOND


def from_micros(us: int) -> datetime:
    """The aware UTC datetime ``us`` epoch microseconds after 1970-01-01."""
    return _EPOCH + timedelta(microseconds=int(us))


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


_ROW_COLUMNS = ("item_ids", "lister", "collector", "listed_at", "collected_at")


@dataclass(frozen=True, eq=False)
class TransactionLog:
    """Immutable columnar transaction table, rows sorted by ``collected_at``.

    ``lister`` and ``collector`` are ``int32`` codes into ``user_ids``,
    numbered by first appearance in log order (lister before collector);
    ``listed_at`` and ``collected_at`` are ``int64`` epoch microseconds;
    ``item_ids`` is an object array of strings.  Logs holding the same rows
    hold equal columns.
    """

    user_ids: tuple[str, ...]
    item_ids: np.ndarray
    lister: np.ndarray
    collector: np.ndarray
    listed_at: np.ndarray
    collected_at: np.ndarray

    @classmethod
    def from_columns(cls, user_ids, item_ids, lister, collector, listed_at,
                     collected_at) -> "TransactionLog":
        """Sort the rows stably by ``collected_at`` and renumber the users
        they name by first appearance; users no row names are dropped."""
        order = np.argsort(collected_at, kind="stable")
        lister, collector = lister[order], collector[order]
        used, first = np.unique(np.stack([lister, collector], axis=1).ravel(),
                                return_index=True)
        by_first = used[np.argsort(first)]
        code = np.zeros(len(user_ids), dtype=np.int32)
        code[by_first] = np.arange(len(by_first), dtype=np.int32)
        return cls(user_ids=tuple(user_ids[c] for c in by_first.tolist()),
                   item_ids=item_ids[order], lister=code[lister], collector=code[collector],
                   listed_at=listed_at[order], collected_at=collected_at[order])

    @classmethod
    def from_transactions(cls, transactions: Iterable[Transaction]) -> "TransactionLog":
        rows = list(transactions)
        code: dict[str, int] = {}
        lister = [code.setdefault(t.lister_id, len(code)) for t in rows]
        collector = [code.setdefault(t.collector_id, len(code)) for t in rows]
        return cls.from_columns(
            list(code), np.array([t.item_id for t in rows], dtype=object),
            np.array(lister, dtype=np.int32), np.array(collector, dtype=np.int32),
            np.array([to_micros(t.listed_at) for t in rows], dtype=np.int64),
            np.array([to_micros(t.collected_at) for t in rows], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.collected_at)

    def __eq__(self, other):
        if not isinstance(other, TransactionLog):
            return NotImplemented
        return self.user_ids == other.user_ids and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in _ROW_COLUMNS)

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The rows as :class:`Transaction` values, built on every access.
        For tests and hand inspection; no stage reads it."""
        names = self.user_ids
        return tuple(
            Transaction(item, names[a], names[b], from_micros(listed), from_micros(collected))
            for item, a, b, listed, collected in zip(*(getattr(self, c).tolist()
                                                      for c in _ROW_COLUMNS)))

    @cached_property
    def users(self) -> frozenset[str]:
        return frozenset(self.user_ids)

    @cached_property
    def code_of(self) -> dict[str, int]:
        """Each user id's code."""
        return {u: c for c, u in enumerate(self.user_ids)}

    @cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, rows)``: ``rows[offsets[c]:offsets[c + 1]]`` are the
        indices of user ``c``'s rows, in either role, in log order."""
        ends = np.stack([self.lister, self.collector], axis=1).ravel()
        offsets = np.zeros(len(self.user_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=len(self.user_ids)), out=offsets[1:])
        return offsets, (np.argsort(ends, kind="stable") // 2).astype(np.int32)

    def rows_of(self, u: str) -> np.ndarray:
        """Indices of ``u``'s rows in log order (empty for an unknown user)."""
        c = self.code_of.get(u)
        if c is None:
            return np.zeros(0, dtype=np.int32)
        offsets, rows = self.by_user
        return rows[offsets[c]:offsets[c + 1]]

    @cached_property
    def first_activity(self) -> dict[str, datetime]:
        """Each user's first ``collected_at``, in either role."""
        offsets, rows = self.by_user
        firsts = self.collected_at[rows[offsets[:-1]]].tolist()
        return {u: from_micros(us) for u, us in zip(self.user_ids, firsts)}

    def count_until(self, until: datetime) -> int:
        """Number of leading transactions with ``collected_at <= until``."""
        return int(np.searchsorted(self.collected_at, to_micros(until), side="right"))


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


def _iter_rows(path: str, fmt: str, columns: tuple[str, ...]):
    """Yield (line_number, values | None, reason) triples for each data row;
    ``values`` holds the row's fields in ``columns`` order."""
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ParseError(path, (RowError(1, f"expected header {','.join(columns)}"),))
            for line, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != len(columns):
                    yield line, None, f"expected {len(columns)} columns, got {len(row)}"
                    continue
                yield line, row, ""
    elif fmt == "jsonl":
        keys = set(columns)
        with open(path, encoding="utf-8") as fh:
            for line, raw in enumerate(fh, 1):
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    if raw.strip():  # a blank line is skipped, not reported
                        yield line, None, f"invalid JSON: {exc.msg}"
                    continue
                if not isinstance(obj, dict) or obj.keys() != keys:
                    yield line, None, f"expected keys {','.join(columns)}"
                    continue
                yield line, ["" if v is None else str(v) for v in map(obj.__getitem__, columns)], ""
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _without_bad_rows(parsed, report: ParseReport):
    if report.bad_rows:
        raise ParseError(report.path, report.bad_rows)
    return parsed


def parse_transactions_with_report(path: str, fmt: str = "csv") -> tuple[TransactionLog, ParseReport]:
    """Parse a transaction file, collecting malformed rows instead of failing.

    Each row's fields go straight into column buffers; each distinct
    timestamp string is parsed once per call (a malformed one, which raises
    and so is never cached, raises again on every row that holds it).  The
    parsed columns are then validated at once, and each rejected row keeps
    the reason and precedence of :class:`Transaction`'s own checks."""
    stamp = cache(lambda text: to_micros(parse_timestamp(text)))
    code: dict[str, int] = {}
    items: list[str] = []
    lines, listed_buf, collected_buf = array("q"), array("q"), array("q")
    lister_buf, collector_buf = array("i"), array("i")
    bad: list[RowError] = []
    total = 0
    for line, values, reason in _iter_rows(path, fmt, TRANSACTION_COLUMNS):
        total += 1
        if values is None:
            bad.append(RowError(line, reason))
            continue
        item, a, b, listed_text, collected_text = values
        try:
            listed_us, collected_us = stamp(listed_text), stamp(collected_text)
        except ValueError as exc:
            bad.append(RowError(line, str(exc)))
            continue
        lines.append(line)
        items.append(item)
        lister_buf.append(code.setdefault(a, len(code)))
        collector_buf.append(code.setdefault(b, len(code)))
        listed_buf.append(listed_us)
        collected_buf.append(collected_us)

    names = list(code)
    item_ids = np.array(items, dtype=object)
    lister, collector = np.frombuffer(lister_buf, np.int32), np.frombuffer(collector_buf, np.int32)
    listed, collected = np.frombuffer(listed_buf, np.int64), np.frombuffer(collected_buf, np.int64)
    empty_user = np.array([not u for u in names], dtype=bool)
    empty = (item_ids == "") | empty_user[lister] | empty_user[collector]
    self_tx = lister == collector
    invalid = empty | self_tx | (collected < listed)
    for i in np.flatnonzero(invalid).tolist():
        if empty[i]:
            reason = "transaction ids must be non-empty"
        elif self_tx[i]:
            reason = f"self-transaction for user {names[lister[i]]!r}"
        else:
            reason = f"item {items[i]!r} collected before it was listed"
        bad.append(RowError(lines[i], reason))
    bad.sort(key=lambda r: r.line)
    keep = ~invalid
    parsed = TransactionLog.from_columns(names, item_ids[keep], lister[keep], collector[keep],
                                         listed[keep], collected[keep])
    return parsed, ParseReport(path, total, tuple(bad))


def parse_transactions(path: str, fmt: str = "csv") -> TransactionLog:
    """Parse transactions; any malformed row raises :class:`ParseError`.

    Use :func:`parse_transactions_with_report` to keep the good rows and
    inspect the bad ones.
    """
    return _without_bad_rows(*parse_transactions_with_report(path, fmt))


def parse_events_with_report(path: str, fmt: str = "csv") -> tuple[EventLog, ParseReport]:
    """Parse an activity-event file, collecting malformed rows instead of failing.

    User ids are interned, and each distinct timestamp string is parsed
    once per call, as for transactions."""
    stamp = cache(parse_timestamp)
    good: list[ActivityEvent] = []
    bad: list[RowError] = []
    total = 0
    for line, values, reason in _iter_rows(path, fmt, EVENT_COLUMNS):
        total += 1
        if values is None:
            bad.append(RowError(line, reason))
            continue
        user_id, kind, at, raw_value = values
        try:
            good.append(ActivityEvent(user_id=sys.intern(user_id), kind=kind, at=stamp(at),
                                      value=float(raw_value) if raw_value else None))
        except ValueError as exc:
            bad.append(RowError(line, str(exc)))
    return EventLog.from_events(good), ParseReport(path, total, tuple(bad))


def parse_events(path: str, fmt: str = "csv") -> EventLog:
    """Parse activity events; mirrors :func:`parse_transactions` semantics."""
    return _without_bad_rows(*parse_events_with_report(path, fmt))


def _write_rows(path: str, fmt: str, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Write value tuples under ``columns`` (``None`` as an empty CSV field);
    the mirror of the parsers."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            encode = json.JSONEncoder(separators=(",", ":")).encode
            for values in rows:
                fh.write(encode(dict(zip(columns, values))) + "\n")


def write_transactions(log_: TransactionLog, path: str, fmt: str = "csv") -> None:
    """Serialize a log in the canonical on-disk form (round-trips exactly).

    Each distinct timestamp is formatted once."""
    n = len(log_)
    stamps, inverse = np.unique(np.concatenate([log_.listed_at, log_.collected_at]),
                                return_inverse=True)
    text = np.array([format_timestamp(from_micros(us)) for us in stamps.tolist()],
                    dtype=object)[inverse]
    names = np.array(log_.user_ids, dtype=object)
    _write_rows(path, fmt, TRANSACTION_COLUMNS, zip(
        log_.item_ids.tolist(), names[log_.lister].tolist(), names[log_.collector].tolist(),
        text[:n].tolist(), text[n:].tolist()))


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
    counts = np.bincount(np.concatenate([log_.lister, log_.collector]),
                         minlength=len(log_.user_ids))
    retained = counts >= min_count
    keep = retained[log_.lister] & retained[log_.collector]
    return TransactionLog.from_columns(log_.user_ids, *(getattr(log_, c)[keep]
                                                        for c in _ROW_COLUMNS))


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
    are attributed to weeks by ``collected_at``; ISO weeks start on Monday,
    so week ``(days since 1970-01-01, a Thursday, + 3) // 7`` is one ISO week.
    """
    offsets, rows = log_.by_user
    at = log_.collected_at
    span = at[rows[offsets[1:] - 1]] - at[rows[offsets[:-1]]]
    week = (at // _DAY_US + 3) // 7
    weeks = np.zeros(len(log_.user_ids), dtype=np.int64)
    if len(week):
        week -= week.min()
        n_weeks = int(week.max()) + 1
        listed = np.unique(log_.lister.astype(np.int64) * n_weeks + week)
        weeks = np.bincount(listed // n_weeks, minlength=len(log_.user_ids))
    active = (span >= min_span // MICROSECOND) & (weeks >= min_listing_weeks)
    retained = frozenset(u for u in key.ids
                         if (c := log_.code_of.get(u)) is not None and active[c])
    if not retained:
        log.warning("no key users passed the activity criteria")
    return KeyUserSet(ids=retained, origin=key.origin)
