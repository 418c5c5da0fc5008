"""Transaction/event log parsing, filtering, and key-user selection.

Input files are plain CSV or JSONL.  Transactions carry the exact columns
``item_id,lister_id,collector_id,listed_at,collected_at`` and activity events
``user_id,kind,at,value`` (``value`` empty unless ``kind`` is ``rating``).
Timestamps are RFC 3339, normalized to UTC at parse time.

Both logs are columnar, with one design: a table of user ids, ``int32``
user codes into it numbered by first appearance, ``int64``
epoch-microsecond stamps and the other fields as arrays, rows stably
sorted by one stamp (:class:`TransactionLog` by ``collected_at``,
:class:`EventLog` by ``at``).  No row is ever an object: the parsers
build one list per column and check whole columns at once, and a log
built by hand goes through the same checks
(:meth:`TransactionLog.pack`, :meth:`EventLog.pack`), so each log's row
rules live in one place.  Every stage reads the arrays:
:attr:`TransactionLog.by_user` is the one per-user index, offsets into a
row-index array, and first activity, the activity filters and the
donors-ratio series slice it instead of scanning the log.

A JSONL file is read column-first: ``_CHUNK_LINES`` lines at a time are
decoded by one ``json.loads`` of a JSON array, and each column is built
and converted as a whole.  A file with any line that is not one object of
the log's keys and field types, or whose fields do not convert, is read
again line by line, the way a CSV file is read, so that every rejected
row gets its own line number and reason.

This module owns the on-disk format of every table and JSON file the
package writes: tables go through :func:`write_rows` and JSON files through
:func:`write_json`; the other modules choose only columns and value text.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import cache, cached_property
from itertools import count, islice
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
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # e.g. 0001-01-01T00:00:00+01:00 falls before year 1 in UTC
        raise ValueError(f"timestamp out of range in UTC: {text!r}") from None


def format_timestamp(dt: datetime) -> str:
    """Canonical second-precision UTC rendering used by every writer."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def to_micros(dt: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (dt - _EPOCH) // MICROSECOND


def from_micros(us: int) -> datetime:
    """The aware UTC datetime ``us`` epoch microseconds after 1970-01-01."""
    return _EPOCH + timedelta(microseconds=int(us))


class _Columns:
    """The design both logs share: after ``user_ids``, every field is a row
    column of equal length, in the order of the file's columns; the
    ``_USERS`` columns hold ``int32`` codes into ``user_ids``, numbered by
    first appearance in row order, and the rows are stably sorted by the
    ``_ORDER`` column."""

    @classmethod
    def from_columns(cls, user_ids, **columns):
        """Sort the rows stably by the order column and renumber the users
        they name by first appearance (within a row, in ``_USERS`` order);
        users no row names are dropped."""
        order = np.argsort(columns[cls._ORDER], kind="stable")
        columns = {name: col[order] for name, col in columns.items()}
        used, first = np.unique(np.stack([columns[c] for c in cls._USERS], axis=1).ravel(),
                                return_index=True)
        by_first = used[np.argsort(first)]
        code = np.zeros(len(user_ids), dtype=np.int32)
        code[by_first] = np.arange(len(by_first), dtype=np.int32)
        columns.update((c, code[columns[c]]) for c in cls._USERS)
        return cls(user_ids=tuple(user_ids[c] for c in by_first.tolist()), **columns)

    @classmethod
    def pack(cls, *columns):
        """The log of rows given column by column, in the file's column
        order: ids and kinds as strings, stamps as epoch microseconds,
        event values as floats or ``None``.  An invalid row raises
        ValueError with the reason the parser gives it."""
        code = defaultdict(count().__next__)  # a new user id gets the next code
        columns = [np.fromiter(map(code.__getitem__, col), np.int32, len(col))
                   if f.name in cls._USERS else col for f, col in zip(fields(cls)[1:], columns)]
        log_, errors = cls._checked(list(code), *columns)
        if errors:
            raise ValueError(errors[0][1])
        return log_

    def __len__(self) -> int:
        return len(getattr(self, self._ORDER))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.user_ids == other.user_ids and all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            for a, b in ((getattr(self, f.name), getattr(other, f.name))
                         for f in fields(self)[1:]))


@dataclass(frozen=True, eq=False)
class TransactionLog(_Columns):
    """Immutable columnar transaction table, rows sorted by ``collected_at``.

    Each row is one listing-pickup exchange: the lister gave, the collector
    took.  ``lister`` and ``collector`` are ``int32`` codes into
    ``user_ids``, numbered by first appearance in log order (lister before
    collector); ``listed_at`` and ``collected_at`` are ``int64`` epoch
    microseconds; ``item_ids`` is an object array of strings.  Logs holding
    the same rows hold equal columns.
    """

    user_ids: tuple[str, ...]
    item_ids: np.ndarray
    lister: np.ndarray
    collector: np.ndarray
    listed_at: np.ndarray
    collected_at: np.ndarray

    _USERS = ("lister", "collector")
    _ORDER = "collected_at"

    @classmethod
    def _checked(cls, names, item_id, lister, collector, listed_at, collected_at):
        """The log of the valid rows, and ``(row, reason)`` for each invalid
        one in row order; user fields are codes into ``names``.  A row's ids
        must be non-empty, its two users distinct, and its item collected no
        earlier than listed, checked in that order."""
        lister = np.asarray(lister, dtype=np.int32)
        collector = np.asarray(collector, dtype=np.int32)
        items = np.asarray(item_id, dtype=object)
        listed = np.asarray(listed_at, dtype=np.int64)
        collected = np.asarray(collected_at, dtype=np.int64)
        empty_user = np.array([not u for u in names], dtype=bool)
        empty = (items == "") | empty_user[lister] | empty_user[collector]
        self_tx = lister == collector
        invalid = empty | self_tx | (collected < listed)
        errors = [(i, "transaction ids must be non-empty" if empty[i]
                   else f"self-transaction for user {names[lister[i]]!r}" if self_tx[i]
                   else f"item {items[i]!r} collected before it was listed")
                  for i in np.flatnonzero(invalid).tolist()]
        keep = ~invalid
        return cls.from_columns(
            names, item_ids=items[keep], lister=lister[keep], collector=collector[keep],
            listed_at=listed[keep], collected_at=collected[keep]), errors

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


@dataclass(frozen=True, eq=False)
class EventLog(_Columns):
    """Immutable columnar table of non-transactional user actions (message,
    rating, like, ...), rows stably sorted by ``at``.

    ``user`` holds ``int32`` codes into ``user_ids``, numbered by first
    appearance in log order; ``kind`` ``int8`` codes into
    :data:`EVENT_KINDS`; ``at`` ``int64`` epoch microseconds; ``value`` the
    rating of a rating event and NaN for every other kind.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray
    kind: np.ndarray
    at: np.ndarray
    value: np.ndarray

    _USERS = ("user",)
    _ORDER = "at"

    @classmethod
    def _checked(cls, names, user, kind, at, value):
        """The log of the valid rows, and ``(row, reason)`` for each invalid
        one in row order; user fields are codes into ``names``.  A row's user
        must be non-empty and its kind known; a rating needs a value in
        [0, 10] and no other kind may carry one, checked in that order."""
        user = np.asarray(user, dtype=np.int32)
        kind_code = {k: c for c, k in enumerate(EVENT_KINDS)}  # unknown kinds are coded after these
        kinds = np.array([kind_code.setdefault(k, len(kind_code)) for k in kind], dtype=np.int64)
        has_value = np.array([v is not None for v in value], dtype=bool)
        values = np.array([np.nan if v is None else v for v in value], dtype=float)
        empty = np.array([not u for u in names], dtype=bool)[user]
        unknown = kinds >= len(EVENT_KINDS)
        rating = kinds == EVENT_KINDS.index("rating")
        out_of_range = ~((values >= 0) & (values <= 10))  # NaN too
        invalid = empty | unknown | (rating != has_value) | (rating & out_of_range)
        errors = [(i, "event user_id must be non-empty" if empty[i]
                   else f"unknown event kind {kind[i]!r}" if unknown[i]
                   else f"{kind[i]} event must not carry a value" if not rating[i]
                   else "rating event without a value" if not has_value[i]
                   else f"rating {value[i]} outside [0, 10]")
                  for i in np.flatnonzero(invalid).tolist()]
        keep = ~invalid
        return cls.from_columns(
            names, user=user[keep], kind=kinds[keep].astype(np.int8),
            at=np.asarray(at, dtype=np.int64)[keep], value=values[keep]), errors


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


# The field text of each JSON value a JSONL row may hold: a string as it is,
# null as an empty field, and a number (not a boolean) only in ``value``.
_JSON_TEXT = {str: str, type(None): lambda v: ""}
_JSON_NUMBER = {**_JSON_TEXT, int: str, float: str}


def _iter_rows(path: str, fmt: str, columns: tuple[str, ...]):
    """Yield (line_number, values | None, reason) triples for each data row;
    ``values`` holds the row's fields in ``columns`` order.  A JSONL value of
    any other type than :data:`_JSON_TEXT` and :data:`_JSON_NUMBER` allow
    rejects its row, and the reason spells it as JSON."""
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
        texts = [_JSON_NUMBER if c == "value" else _JSON_TEXT for c in columns]
        with open(path, encoding="utf-8") as fh:
            for line, raw in enumerate(fh, 1):
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:  # too long a number, too deep
                    if raw.strip():  # a blank line is skipped, not reported
                        yield line, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"
                    continue
                if not isinstance(obj, dict) or obj.keys() != keys:
                    yield line, None, f"expected keys {','.join(columns)}"
                    continue
                values = list(map(obj.__getitem__, columns))
                try:
                    fields = [text[type(v)](v) for text, v in zip(texts, values)]
                except KeyError:
                    name, v = next((c, v) for c, text, v in zip(columns, texts, values)
                                   if type(v) not in text)
                    kinds = "number, string or null" if name == "value" else "string or null"
                    yield line, None, f"{name} must be a JSON {kinds}, got {json.dumps(v)}"
                    continue
                yield line, fields, ""
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or jsonl)")


def _without_bad_rows(parsed, report: ParseReport):
    if report.bad_rows:
        raise ParseError(report.path, report.bad_rows)
    return parsed


def _number(text: str) -> float | None:
    return float(text) if text else None


# Lines decoded at once by the column-first JSONL reader: enough to amortize
# the decoder's call, few enough that a chunk's row dicts stay small.
_CHUNK_LINES = 1024


def _jsonl_columns(path: str, columns: tuple[str, ...], convert, helpers):
    """The columns of a JSONL file, as ``convert`` turns them given the
    column-wise form of each of ``helpers``; None if any line is not one
    object of ``columns`` with fields :data:`_JSON_TEXT` and
    :data:`_JSON_NUMBER` allow, or if a field does not convert."""
    texts = [_JSON_NUMBER if c == "value" else _JSON_TEXT for c in columns]
    helpers = [lambda col, f=f: list(map(f, col)) for f in helpers]
    buffers = tuple([] for _ in columns)
    with open(path, encoding="utf-8") as fh:
        while pieces := list(islice(fh, _CHUNK_LINES)):
            # a piece holds one "\n", at its end (the file's last may hold
            # none), so no string spans two pieces and "}\n,{" occurs only
            # where two join: the check passes iff every line is "{...}"
            text = "[" + ",".join(pieces) + "]"
            if not (text.startswith("[{") and text.endswith(("}]", "}\n]"))
                    and text.count("}\n,{") == len(pieces) - 1):
                return None
            try:
                objs = json.loads(text)
                if (len(objs) != len(pieces) or set(map(type, objs)) != {dict}
                        or set(map(len, objs)) != {len(columns)}):
                    return None
                cols = [[o[c] for o in objs] for c in columns]  # KeyError: a wrong key
                for i, (col, to_text) in enumerate(zip(cols, texts)):
                    if set(map(type, col)) != {str}:  # KeyError: a type the field may not hold
                        cols[i] = [to_text[type(v)](v) for v in col]
                any(map(list.extend, buffers, convert(cols, *helpers)))
            except (ValueError, KeyError, RecursionError):
                return None
    return buffers


def _parse_with_report(path: str, fmt: str, columns: tuple[str, ...], convert, checked):
    """Build one list per column, as ``convert(fields, stamp, user, number)``
    turns a row's fields (or, given column-wise helpers, a JSONL chunk's
    columns); ``checked`` (a log's row rules) then checks the columns at
    once.  ``user`` gives each user id its code.

    Each distinct timestamp string is parsed once per call, through one
    cache shared by all chunks of a file (a malformed one, which raises and
    so is never cached, raises again on every row that holds it).  A JSONL
    file the column-first reader declines is read line by line, and a row
    that ``convert`` rejects there is reported with its reason, before any
    of the row rules."""
    stamp = cache(lambda text: to_micros(parse_timestamp(text)))
    user = defaultdict(count().__next__)  # a new user id gets the next code
    buffers = (_jsonl_columns(path, columns, convert, (stamp, user.__getitem__, _number))
               if fmt == "jsonl" else None)
    if buffers is not None:
        total = len(buffers[0])
        lines, bad = range(1, total + 1), []
    else:
        user = defaultdict(count().__next__)  # forget the declined chunks' users
        buffers = tuple([] for _ in columns)
        lines = array("q")
        bad: list[RowError] = []
        total = 0
        for line, values, reason in _iter_rows(path, fmt, columns):
            total += 1
            if values is not None:
                try:
                    values = convert(values, stamp, user.__getitem__, _number)
                except ValueError as exc:
                    values, reason = None, str(exc)
            if values is None:
                bad.append(RowError(line, reason))
                continue
            lines.append(line)
            any(map(list.append, buffers, values))  # each field onto its column
    parsed, invalid = checked(list(user), *buffers)
    bad.extend(RowError(lines[i], reason) for i, reason in invalid)
    bad.sort(key=lambda r: r.line)
    return parsed, ParseReport(path, total, tuple(bad))


def parse_transactions_with_report(path: str, fmt: str = "csv") -> tuple[TransactionLog, ParseReport]:
    """Parse a transaction file, collecting malformed rows instead of failing."""
    return _parse_with_report(
        path, fmt, TRANSACTION_COLUMNS,
        lambda f, stamp, user, number: (f[0], user(f[1]), user(f[2]), stamp(f[3]), stamp(f[4])),
        TransactionLog._checked)


def parse_transactions(path: str, fmt: str = "csv") -> TransactionLog:
    """Parse transactions; any malformed row raises :class:`ParseError`.

    Use :func:`parse_transactions_with_report` to keep the good rows and
    inspect the bad ones.
    """
    return _without_bad_rows(*parse_transactions_with_report(path, fmt))


def parse_events_with_report(path: str, fmt: str = "csv") -> tuple[EventLog, ParseReport]:
    """Parse an activity-event file, collecting malformed rows instead of failing."""
    return _parse_with_report(
        path, fmt, EVENT_COLUMNS,
        lambda f, stamp, user, number: (user(f[0]), f[1], stamp(f[2]), number(f[3])),
        EventLog._checked)


def parse_events(path: str, fmt: str = "csv") -> EventLog:
    """Parse activity events; mirrors :func:`parse_transactions` semantics."""
    return _without_bad_rows(*parse_events_with_report(path, fmt))


def write_rows(path: str, fmt: str, columns: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Write value tuples under ``columns`` (``None`` as an empty CSV field);
    the mirror of the parsers, and the one writer of every table."""
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


def write_json(payload, path: str) -> None:
    """Write ``payload`` as JSON: sorted keys, a two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stamp_texts(*stamps: np.ndarray) -> list[list[str]]:
    """Each epoch-microsecond column in the canonical text form; each
    distinct stamp is formatted once."""
    distinct, inverse = np.unique(np.concatenate(stamps), return_inverse=True)
    text = np.array([format_timestamp(from_micros(us)) for us in distinct.tolist()],
                    dtype=object)[inverse]
    return [part.tolist() for part in np.split(text, np.cumsum([len(s) for s in stamps[:-1]]))]


def write_transactions(log_: TransactionLog, path: str, fmt: str = "csv") -> None:
    """Serialize a log in the canonical on-disk form (round-trips exactly)."""
    names = np.array(log_.user_ids, dtype=object)
    write_rows(path, fmt, TRANSACTION_COLUMNS, zip(
        log_.item_ids.tolist(), names[log_.lister].tolist(), names[log_.collector].tolist(),
        *_stamp_texts(log_.listed_at, log_.collected_at)))


def write_events(events: EventLog, path: str, fmt: str = "csv") -> None:
    """Serialize an event log in the canonical on-disk form (round-trips exactly)."""
    names, kinds = np.array(events.user_ids, dtype=object), np.array(EVENT_KINDS, dtype=object)
    write_rows(path, fmt, EVENT_COLUMNS, zip(
        names[events.user].tolist(), kinds[events.kind].tolist(), *_stamp_texts(events.at),
        [None if v != v else v for v in events.value.tolist()]))


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
    return TransactionLog.from_columns(log_.user_ids, **{f.name: getattr(log_, f.name)[keep]
                                                         for f in fields(log_)[1:]})


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
