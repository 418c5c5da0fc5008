"""Transaction/event log parsing, filtering, and key-user selection.

Input files are plain CSV or JSONL.  Transactions carry the exact columns
``item_id,lister_id,collector_id,listed_at,collected_at`` and activity events
``user_id,kind,at,value`` (``value`` empty unless ``kind`` is ``rating``).
Timestamps are RFC 3339, read by one grammar on every Python
(:func:`parse_timestamp`) and normalized to UTC at parse time.

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

Both formats are read in one pass, ``_CHUNK_LINES`` rows at a time and
column-first: a CSV chunk by one ``csv.reader`` over the file, a JSONL
chunk by one ``json.loads`` of a JSON array.  A chunk's distinct stamps are
converted at once: those in the writers' canonical form
``YYYY-MM-DDTHH:MM:SSZ`` by NumPy's ISO 8601 codec (the writers render
stamps by it too), every other one by :func:`parse_timestamp`, the one
grammar and the source of every stamp's error.  A bad row costs only
itself: it is dropped from its chunk and reported with its reason and the
file line it starts on, and only a JSONL chunk with a line that is not one
object of the log's keys and field types is read line by line.

This module owns the on-disk format of every table and JSON file the
package writes: tables go through :func:`write_rows` and JSON files through
:func:`write_json`; the other modules choose only columns and value text.
"""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import cache, cached_property
from itertools import chain, count, islice
from typing import Iterable

import numpy as np

EVENT_KINDS = ("article", "message", "rating", "like", "story", "comment")

TRANSACTION_COLUMNS = ("item_id", "lister_id", "collector_id", "listed_at", "collected_at")
EVENT_COLUMNS = ("user_id", "kind", "at", "value")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
_DAY_US = timedelta(days=1) // MICROSECOND
_RFC3339 = re.compile(r"(\d{4})-(\d{2})-(\d{2})[Tt ](\d{2}):(\d{2}):(\d{2})(?:\.(\d+))?"
                      r"(?:([Zz])|([+-])([01]\d|2[0-3]):([0-5]\d))?", re.ASCII)


class ParseError(ValueError):
    """Raised when a file contains malformed rows."""

    def __init__(self, path: str, bad_rows: tuple["RowError", ...]):
        lines = ", ".join(str(r.line) for r in bad_rows[:20])
        more = "" if len(bad_rows) <= 20 else f" (+{len(bad_rows) - 20} more)"
        super().__init__(f"{path}: {len(bad_rows)} malformed row(s) at line(s) {lines}{more}")
        self.path = path
        self.bad_rows = bad_rows


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 (section 5.6) timestamp into an aware UTC datetime.

    The grammar is the same on every Python: a date, ``T``, ``t`` or a
    space, a time with seconds and an optional fraction (truncated to
    microseconds past 6 digits), then ``Z``, ``z`` or ``+HH:MM``/``-HH:MM``.
    Surrounding whitespace is ignored."""
    match = _RFC3339.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an RFC 3339 timestamp: {text!r}")
    *fields, fraction, utc, sign, hours, minutes = match.groups()
    if not (utc or sign):
        raise ValueError(f"timestamp without offset: {text!r}")
    offset = timedelta(hours=int(hours), minutes=int(minutes)) if sign else timedelta(0)
    try:
        return datetime(*map(int, fields), int((fraction or "0")[:6].ljust(6, "0")),
                        tzinfo=timezone(-offset if sign == "-" else offset)).astimezone(timezone.utc)
    except ValueError as exc:  # e.g. a day past the month's end, or second 60
        raise ValueError(f"not an RFC 3339 timestamp: {text!r} ({exc})") from None
    except OverflowError:  # e.g. 0001-01-01T00:00:00+01:00 falls before year 1 in UTC
        raise ValueError(f"timestamp out of range in UTC: {text!r}") from None


def format_timestamp(dt: datetime) -> str:
    """Canonical second-precision UTC rendering, ``YYYY-MM-DDTHH:MM:SSZ``
    with a 4-digit year; the scalar reference of every writer."""
    return dt.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None).isoformat() + "Z"


def to_micros(dt: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (dt - _EPOCH) // MICROSECOND


def from_micros(us: int) -> datetime:
    """The aware UTC datetime ``us`` epoch microseconds after 1970-01-01."""
    return _EPOCH + timedelta(microseconds=int(us))


# The canonical stamp ``YYYY-MM-DDTHH:MM:SSZ``: the lowest and the highest
# byte of each place.  Its first 19 bytes are the ISO 8601 text that NumPy's
# ``datetime64`` parser reads and ``np.datetime_as_string`` writes.
_CANON_LOW, _CANON_HIGH = (np.frombuffer(s, dtype=np.uint8)
                           for s in (b"0000-00-00T00:00:00Z", b"9999-99-99T99:99:99Z"))
_MIN_US, _MAX_US = (to_micros(d.replace(tzinfo=timezone.utc)) for d in (datetime.min, datetime.max))


def _cast_isos(isos: np.ndarray) -> np.ndarray:
    # in the unit of the text (seconds): NumPy 2.4 crashes where a field
    # out of range fails the cast of some 500 or more texts to another unit
    return isos.astype("datetime64")


def _decode_isos(isos: np.ndarray) -> np.ndarray:
    """NumPy's ``datetime64`` of each ISO 8601 text, NaT where a field is
    out of range: as one such text fails the cast of its whole batch, a
    failed batch is split in halves until the bad texts stand alone."""
    try:
        return _cast_isos(isos)
    except ValueError:
        if len(isos) == 1:
            return np.array(["NaT"], dtype="datetime64[s]")
        half = len(isos) // 2
        return np.concatenate([_decode_isos(isos[:half]), _decode_isos(isos[half:])])


def _stamp_micros(texts: list[str], scalar) -> list[int]:
    """Epoch microseconds of each of ``texts``, a chunk's distinct stamps.

    The texts in the canonical form (20 ASCII bytes with digits and marks
    in their places) are decoded in batches by NumPy's ISO 8601 parser,
    which checks the range of each field, the day within its month
    included (:func:`_decode_isos`).  Every other text, and every one out
    of range, goes through ``scalar``, which parses it by
    :func:`parse_timestamp` and so raises its error."""
    at = [i for i, t in enumerate(texts) if len(t) == 20 and t.isascii()]
    raw = np.frombuffer("".join([texts[i] for i in at]).encode("ascii"),
                        dtype=np.uint8).reshape(-1, 20)
    shaped = (((raw >= _CANON_LOW) & (raw <= _CANON_HIGH)).all(axis=1)
              & (raw[:, :4] != ord("0")).any(axis=1))  # NumPy reads year 0000, datetime does not
    rows = np.asarray(at, dtype=np.intp)[shaped]
    isos = raw[shaped, :19].view("S19").ravel()
    micros = np.full(len(texts), np.datetime64("NaT", "us"))  # NaT: not decoded
    micros[rows] = _decode_isos(isos)
    for i in np.flatnonzero(np.isnat(micros)).tolist():
        micros[i] = scalar(texts[i])
    return micros.view(np.int64).tolist()


def _format_micros(micros: np.ndarray) -> np.ndarray:
    """The canonical text of each epoch-microsecond stamp, floored to the
    second as :func:`format_timestamp` renders it, by
    ``np.datetime_as_string``."""
    outside = (micros < _MIN_US) | (micros > _MAX_US)
    if outside.any():  # outside years 1-9999: the scalar writer's error
        format_timestamp(from_micros(micros[outside][0]))
    return np.datetime_as_string(micros.astype("datetime64[us]"), unit="s").astype("U19") + "Z"


def _unique_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(codes, return_index=True, return_counts=True)`` of
    non-negative integer codes, by one sort of ``code * n + row``: NumPy
    hashes integers for a plain unique and merge-sorts them for the first
    rows, both several times slower.  Codes whose key could pass ``2**63``
    go through ``np.unique``."""
    n = len(codes)
    if n == 0 or (int(codes.max()) + 1) * n > 2**63:
        return np.unique(codes, return_index=True, return_counts=True)
    values, rows = np.divmod(np.sort(codes.astype(np.int64) * n + np.arange(n)), n)
    new = np.ones(n, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return values[starts], rows[starts], np.diff(starts, append=n)


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
        used, first, _ = _unique_codes(np.stack([columns[c] for c in cls._USERS], axis=1).ravel())
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
        # codes in the smallest type that holds them: a stable radix sort up to 16 bits
        order = np.argsort(ends.astype(np.min_scalar_type(len(self.user_ids))), kind="stable")
        return offsets, (order // 2).astype(np.int32)

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


def _without_bad_rows(parsed, report: ParseReport):
    if report.bad_rows:
        raise ParseError(report.path, report.bad_rows)
    return parsed


# Rows read at once: enough to amortize the decoder's call and the stamp
# kernel's, few enough that a chunk's rows and stamp texts stay small.
_CHUNK_LINES = 1024


def _csv_records(reader):
    """The rows of ``reader``, and in place of each row it cannot read (a
    field longer than ``csv.field_size_limit()``) ``(reason, line)``: its
    error and the file line the reader stopped on.  The reader goes on at
    the next line, which may lie inside the row's quoted field."""
    while True:
        try:
            yield from reader
            return
        except csv.Error as exc:
            yield str(exc), reader.line_num


def _csv_chunks(path: str, columns: tuple[str, ...]):
    """Yield ``(lines, fields, bad)`` for each chunk of a CSV file's data
    rows: the file line each row of ``len(columns)`` fields starts on, those
    rows' fields column by column, and a :class:`RowError` for each row of
    another width or that the reader cannot read; a blank row is skipped.  A
    header other than ``columns`` raises :class:`ParseError` at line 1."""
    width = len(columns)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = _csv_records(reader)
        header = next(records, None)
        if not isinstance(header, list) or tuple(h.strip() for h in header) != columns:
            raise ParseError(path, (RowError(1, f"expected header {','.join(columns)}"),))
        end = reader.line_num
        while rows := list(islice(records, _CHUNK_LINES)):
            lines = range(end + 1, end + 1 + len(rows))
            if reader.line_num - end != len(rows):
                # a row spans lines: each line break a read row holds ("\n",
                # "\r" or "\r\n", as the file's lines end) ends a line of it,
                # and an unread row ends on the line the reader stopped on
                lines = [end + 1]
                for row in rows[:-1]:
                    if isinstance(row, tuple):
                        lines.append(row[1] + 1)
                    else:
                        text = "".join(row)
                        lines.append(lines[-1] + 1 + text.count("\n") + text.count("\r")
                                     - text.count("\r\n"))
            end = reader.line_num
            bad = []
            if set(map(len, rows)) != {width}:  # an unread row's pair is never a row's width
                bad = [RowError(line, row[0] if isinstance(row, tuple)
                                else f"expected {width} columns, got {len(row)}")
                       for row, line in zip(rows, lines) if row and len(row) != width]
                lines = [line for row, line in zip(rows, lines) if len(row) == width]
                rows = [row for row in rows if len(row) == width]
            yield lines, list(zip(*rows)) or [()] * width, bad


def _jsonl_chunks(path: str, columns: tuple[str, ...]):
    """Yield ``(lines, fields, bad)`` for each chunk of a JSONL file's
    lines, as :func:`_csv_chunks` does: by :func:`_jsonl_columns`, or by
    :func:`_jsonl_lines` if that declines the chunk."""
    with open(path, encoding="utf-8") as fh:
        first = 1
        while pieces := list(islice(fh, _CHUNK_LINES)):
            lines = range(first, first + len(pieces))
            first += len(pieces)
            cols = _jsonl_columns(pieces, columns)
            yield _jsonl_lines(pieces, lines, columns) if cols is None else (lines, cols, [])


def _jsonl_columns(pieces: list[str], columns: tuple[str, ...]) -> list[list[str]] | None:
    """The field texts of a chunk of JSONL lines, column by column, decoded
    by one ``json.loads`` of a JSON array; None if a line is not one object
    of ``columns`` with fields :data:`_JSON_TEXT` and :data:`_JSON_NUMBER`
    allow."""
    # a piece holds one "\n", at its end (the file's last may hold none), so
    # no string spans two pieces and "}\n,{" occurs only where two join: the
    # check passes iff every line is "{...}"
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
        texts = [_JSON_NUMBER if c == "value" else _JSON_TEXT for c in columns]
        for i, (col, to_text) in enumerate(zip(cols, texts)):
            if set(map(type, col)) != {str}:  # KeyError: a type the field may not hold
                cols[i] = [to_text[type(v)](v) for v in col]
    except (ValueError, RecursionError, KeyError):  # too long a number, too deep
        return None
    return cols


def _jsonl_lines(pieces: list[str], lines: range, columns: tuple[str, ...]):
    """``(lines, fields, bad)`` of a chunk of JSONL lines read one at a time,
    ``pieces[i]`` being file line ``lines[i]``: a line that is one object of
    ``columns`` with fields :data:`_JSON_TEXT` and :data:`_JSON_NUMBER` allow
    is a row, a blank line is skipped, and any other line is a
    :class:`RowError`, whose reason spells a value of a wrong type as JSON."""
    keys, texts = set(columns), [_JSON_NUMBER if c == "value" else _JSON_TEXT for c in columns]
    good, rows, bad = [], [], []
    for line, raw in zip(lines, pieces):
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # too long a number, too deep
            if raw.strip():  # a blank line is skipped, not reported
                bad.append(RowError(line, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        if not isinstance(obj, dict) or obj.keys() != keys:
            bad.append(RowError(line, f"expected keys {','.join(columns)}"))
            continue
        values = list(map(obj.__getitem__, columns))
        try:
            rows.append([text[type(v)](v) for text, v in zip(texts, values)])
        except KeyError:  # a type the field may not hold
            name, v = next((c, v) for c, text, v in zip(columns, texts, values)
                           if type(v) not in text)
            kinds = "number, string or null" if name == "value" else "string or null"
            bad.append(RowError(line, f"{name} must be a JSON {kinds}, got {json.dumps(v)}"))
        else:
            good.append(line)
    return good, list(zip(*rows)) or [()] * len(columns), bad


def _parse_with_report(path: str, fmt: str, columns: tuple[str, ...], convert, checked):
    """Parse a log file in one pass, chunk by chunk: ``convert(fields, stamp,
    user, number)`` turns a chunk's columns of field text into one list per
    log column (``stamp`` takes all its stamp columns at once, ``user`` codes
    user ids and ``number`` reads event values), and ``checked``, a log's
    row rules, then checks all of them at once.

    A stamp that is not canonical is parsed once per file, through one cache
    that also keeps the grammar's error for each stamp it rejects.  A row
    the reader rejects, or with a field that does not convert, is dropped
    from its chunk and reported before any of the row rules, with the reason
    of its first such field in column order."""
    chunks = {"csv": _csv_chunks, "jsonl": _jsonl_chunks}.get(fmt)
    if chunks is None:
        raise ValueError(f"unknown format {fmt!r} (expected csv or jsonl)")
    reasons: dict[str, str] = {}  # the grammar's error of each stamp it rejects
    faults: dict[int, str] = {}  # a chunk's row: the reason of its first field that fails

    @cache
    def scalar(text):
        try:
            return to_micros(parse_timestamp(text))
        except ValueError as exc:
            reasons[text] = str(exc)
            return 0

    def column(col, value_of, reason_of):
        # the value of each text; a row whose text has a reason is a fault,
        # unless a field before it was
        if reason_of:
            for i, text in enumerate(col):
                if text in reason_of:
                    faults.setdefault(i, reason_of[text])
        return list(map(value_of.__getitem__, col))

    def stamps(*cols):
        texts = list(dict.fromkeys(chain.from_iterable(cols)))
        micros = dict(zip(texts, _stamp_micros(texts, scalar)))
        failed = {t: reasons[t] for t in reasons.keys() & micros.keys()}
        return [column(col, micros, failed) for col in cols]

    def numbers(col):
        value_of, failed = {}, {}
        for text in dict.fromkeys(col):
            try:
                value_of[text] = float(text) if text else None
            except ValueError as exc:
                value_of[text], failed[text] = None, str(exc)
        return column(col, value_of, failed)

    user = defaultdict(count().__next__)  # a new user id gets the next code
    buffers = tuple([] for _ in columns)
    lines, bad, total = [], [], 0  # the lines of each chunk's kept rows
    for chunk_lines, texts, rejected in chunks(path, columns):
        total += len(chunk_lines) + len(rejected)
        bad += rejected
        faults.clear()
        cols = convert(texts, stamps, lambda col: list(map(user.__getitem__, col)),
                       numbers)
        if faults:
            bad += [RowError(chunk_lines[i], reason) for i, reason in faults.items()]
            keep = [i for i in range(len(chunk_lines)) if i not in faults]
            chunk_lines = [chunk_lines[i] for i in keep]
            cols = [[col[i] for i in keep] for col in cols]
        lines.append(chunk_lines)
        any(map(list.extend, buffers, cols))  # each column onto its buffer
    parsed, invalid = checked(list(user), *buffers)
    if invalid:
        line_of = list(chain.from_iterable(lines))
        bad += [RowError(line_of[i], reason) for i, reason in invalid]
    bad.sort(key=lambda r: r.line)
    return parsed, ParseReport(path, total, tuple(bad))


def parse_transactions_with_report(path: str, fmt: str) -> tuple[TransactionLog, ParseReport]:
    """Parse a transaction file, collecting malformed rows instead of failing."""
    return _parse_with_report(
        path, fmt, TRANSACTION_COLUMNS,
        lambda f, stamp, user, number: (f[0], user(f[1]), user(f[2]), *stamp(f[3], f[4])),
        TransactionLog._checked)


def parse_transactions(path: str, fmt: str) -> TransactionLog:
    """Parse transactions; any malformed row raises :class:`ParseError`.

    Use :func:`parse_transactions_with_report` to keep the good rows and
    inspect the bad ones.
    """
    return _without_bad_rows(*parse_transactions_with_report(path, fmt))


def parse_events_with_report(path: str, fmt: str) -> tuple[EventLog, ParseReport]:
    """Parse an activity-event file, collecting malformed rows instead of failing."""
    return _parse_with_report(
        path, fmt, EVENT_COLUMNS,
        lambda f, stamp, user, number: (user(f[0]), f[1], *stamp(f[2]), number(f[3])),
        EventLog._checked)


def parse_events(path: str, fmt: str) -> EventLog:
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
    distinct stamp is formatted once, into one str its rows share."""
    distinct, inverse = np.unique(np.concatenate(stamps), return_inverse=True)
    text = _format_micros(distinct).astype(object)[inverse]  # equal stamps share one str
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
    key: frozenset[str],
    min_span: timedelta,
    min_listing_weeks: int,
) -> frozenset[str]:
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
        listed = _unique_codes(log_.lister.astype(np.int64) * n_weeks + week)[0]
        weeks = np.bincount(listed // n_weeks, minlength=len(log_.user_ids))
    active = (span >= min_span // MICROSECOND) & (weeks >= min_listing_weeks)
    return frozenset(u for u in key if (c := log_.code_of.get(u)) is not None and active[c])
