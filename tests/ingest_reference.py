"""Per-row transaction parser for the differential tests.

This is the parser ``volnet.ingest`` used before the columnar log: every
row becomes a field dict and then a validated :class:`Transaction`, and
the rows are sorted by ``collected_at``.  The tests require the columnar
parser to yield the same rows and the same :class:`ParseReport`.
"""

from __future__ import annotations

import csv
import json
import sys
from functools import cache

from volnet.ingest import (
    TRANSACTION_COLUMNS,
    ParseError,
    ParseReport,
    RowError,
    Transaction,
    parse_timestamp,
)


def _transaction_from_fields(fields: dict[str, str], stamp) -> Transaction:
    return Transaction(
        item_id=fields["item_id"],
        lister_id=sys.intern(fields["lister_id"]),
        collector_id=sys.intern(fields["collector_id"]),
        listed_at=stamp(fields["listed_at"]),
        collected_at=stamp(fields["collected_at"]),
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


def parse_transactions_with_report(path: str, fmt: str = "csv"
                                   ) -> tuple[tuple[Transaction, ...], ParseReport]:
    """The good rows sorted by ``collected_at``, and the parse report."""
    stamp = cache(parse_timestamp)
    good = []
    bad: list[RowError] = []
    total = 0
    for line, fields, reason in _iter_rows(path, fmt, TRANSACTION_COLUMNS):
        total += 1
        if fields is None:
            bad.append(RowError(line, reason))
            continue
        try:
            good.append(_transaction_from_fields(fields, stamp))
        except ValueError as exc:
            bad.append(RowError(line, str(exc)))
    rows = tuple(sorted(good, key=lambda t: t.collected_at))
    return rows, ParseReport(path, total, tuple(bad))
