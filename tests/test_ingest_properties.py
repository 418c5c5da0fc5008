"""Write → parse round-trip properties of the CSV and JSONL formats, the
columnar parser against the per-row reference parser on random mixes of
good and bad rows, and the NumPy stamp kernel and formatter against the
scalar grammar and writer (skipped without Hypothesis)."""

from __future__ import annotations

import csv
import json
import re
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet import ingest  # noqa: E402
from volnet.ingest import EVENT_KINDS  # noqa: E402

import ingest_reference  # noqa: E402
from ingest_reference import (  # noqa: E402
    ActivityEvent,
    Transaction,
    event_log,
    event_rows,
    transaction_log,
    transaction_rows,
)

FORMATS = ("csv", "jsonl")

# ids with the characters CSV must quote (comma, quote, spaces) and non-ASCII
ids = st.text(alphabet='abcXYZ019_-., "é', min_size=1, max_size=6)
# second-precision UTC instants of years 1-9999 (the writers render whole
# seconds), early enough that a transaction's wait stays within year 9999
instants = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 9, 1),
                        timezones=st.just(timezone.utc)).map(lambda at: at.replace(microsecond=0))


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
    log = transaction_log(rows)
    path = str(scratch / f"transactions.{fmt}")
    ingest.write_transactions(log, path, fmt=fmt)
    assert ingest.parse_transactions(path, fmt=fmt) == log


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(events(), max_size=12))
def test_events_round_trip(scratch, fmt, rows):
    log = event_log(rows)
    path = str(scratch / f"events.{fmt}")
    ingest.write_events(log, path, fmt=fmt)
    back = ingest.parse_events(path, fmt=fmt)
    assert back == log
    # rating values come back bit for bit, not just equal as numbers
    assert [repr(e.value) for e in event_rows(back)] == [repr(e.value) for e in event_rows(log)]


# --- the columnar parser against the per-row reference parser ---------------

# ids that collide (self-transactions), are empty, or need CSV quoting
mixed_ids = st.sampled_from(["a", "b", "c", "d", "é x", 'q"r', "a,b", ""])
offsets = st.sampled_from([0, 90, -300, 13 * 60])


def stamp_at(us: int, minutes: int) -> str:
    """RFC 3339 text of 2022-01-01 UTC plus ``us`` microseconds, at a UTC offset."""
    at = datetime(2022, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)
    return at.astimezone(timezone(timedelta(minutes=minutes))).isoformat()


# offset, lower-case "z", padded and fractional-second stamps, drawn ones
# and drawn canonical ones ...
good_stamps = st.one_of(
    st.sampled_from(["2022-01-01T00:00:00Z", "2022-01-01T00:00:00z", "2022-01-01T01:00:00+02:00",
                     "2021-12-31T23:59:59.5Z", "2022-01-01T00:00:00.123456-05:30",
                     " 2022-01-02T00:00:00Z "]),
    st.builds(stamp_at, st.integers(-10**11, 10**11), offsets),
    st.integers(-10**5, 10**5).map(lambda s: ingest.format_timestamp(
        datetime(2022, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=s))))
# ... and naive or malformed ones
stamps = st.one_of(good_stamps, good_stamps,
                   st.sampled_from(["2022-01-01T00:00:00", "not-a-time", "", "7"]))
fields_of_a_row = st.tuples(mixed_ids, mixed_ids, mixed_ids, stamps, stamps)
# rows that pass every check: distinct non-empty ids, collected no earlier than listed
valid_rows = st.builds(
    lambda item, pair, us, wait, tz1, tz2: (item, *pair, stamp_at(us, tz1),
                                            stamp_at(us + wait, tz2)),
    mixed_ids.filter(bool), st.lists(mixed_ids.filter(bool), min_size=2, max_size=2, unique=True),
    st.integers(-10**11, 10**11), st.integers(0, 10**10), offsets, offsets)

# event fields: unknown or empty kinds; ratings that are not numbers, not
# finite or out of range; values on kinds that take none
kinds = st.sampled_from(EVENT_KINDS + ("poke", "", "Rating", " like"))
raw_values = st.one_of(
    st.sampled_from(["", "", "5", "0", "10", "-0", "-0.5", "10.5", "nan", "NaN", "inf", "-inf",
                     "1e400", "abc", " 7 ", "  ", "0x1"]),
    st.floats(min_value=0.0, max_value=10.0).map(repr))
event_fields = st.tuples(mixed_ids, kinds, stamps, raw_values)
valid_events = st.builds(
    lambda user, kind, us, tz, rating: (user, kind, stamp_at(us, tz),
                                        repr(rating) if kind == "rating" else ""),
    mixed_ids.filter(bool), st.sampled_from(EVENT_KINDS), st.integers(-10**11, 10**11), offsets,
    st.floats(min_value=0.0, max_value=10.0))
# JSON values that are not strings: numbers, which only ``value`` accepts,
# and booleans, arrays and objects, which no field accepts
non_strings = st.one_of(
    st.sampled_from([7, 7.5, 11, -1, 0, -0.0, float("nan"), float("inf"), 1e400, 10**30]),
    st.sampled_from([True, False, [], [1, "a"], {}, {"value": 5}]),
    st.floats(allow_nan=False), st.integers())


def entries(valid, fields_of_a_row, width):
    """File entries of ``width`` columns: data rows, rows whose first field
    holds a line break (a CSV row over several lines), empty or blank lines,
    rows of the wrong width or keys, non-object or broken JSON, null and
    non-string values."""
    return st.one_of(
        valid.map(lambda f: ("row", f)), valid.map(lambda f: ("row", f)),
        fields_of_a_row.map(lambda f: ("row", f)),
        st.tuples(st.one_of(valid, fields_of_a_row), st.sampled_from(["\n", "\r\n", "\r", "\n\r"])
                  ).map(lambda fb: ("row", (fb[0][0] + fb[1] + "x", *fb[0][1:]))),
        st.sampled_from(["\n", " \t\n"]).map(lambda text: ("blank", text)),
        st.integers(1, width + 1).map(lambda k: ("width", k)),
        st.sampled_from(["[1, 2]", "3", '"text"', "{nope", '{"item_id": "x"}']).map(
            lambda text: ("json", text)),
        st.tuples(fields_of_a_row, st.sets(st.integers(0, width - 1), min_size=1)).map(
            lambda fn: ("nulls", fn)),
        st.tuples(fields_of_a_row, st.integers(0, width - 1), non_strings).map(
            lambda fkv: ("non-string", fkv)))


def write_mix(path: str, fmt: str, cols: tuple[str, ...], drawn) -> None:
    """One file of ``drawn`` entries under the columns ``cols``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fmt == "csv":
            writer.writerow(cols)
        for kind, spec in drawn:
            if kind == "blank":
                fh.write(spec)
            elif fmt == "csv":
                if kind == "width":
                    writer.writerow(["x"] * spec)
                elif kind == "row":
                    writer.writerow(spec)
                elif kind == "nulls":
                    fields, gone = spec
                    writer.writerow(["" if i in gone else v for i, v in enumerate(fields)])
            else:
                if kind == "width":
                    obj = {c: "x" for c in (cols + ("extra",))[:spec]}
                elif kind == "json":
                    fh.write(spec + "\n")
                    continue
                elif kind == "nulls":
                    fields, gone = spec
                    obj = {c: (None if i in gone else v) for i, (c, v) in enumerate(zip(cols, fields))}
                elif kind == "non-string":
                    fields, at, value = spec
                    obj = dict(zip(cols, fields))
                    obj[cols[at]] = value
                else:
                    obj = dict(zip(cols, spec))
                fh.write(json.dumps(obj) + "\n")


# each format in chunks of ``_CHUNK_LINES`` rows, and in chunks of three,
# so that bad rows also fall in a middle chunk
CHUNKINGS = pytest.mark.parametrize("fmt, chunk_lines", [
    (fmt, chunk_lines) for chunk_lines in (ingest._CHUNK_LINES, 3) for fmt in FORMATS],
    ids=[*FORMATS, *(f"{fmt}-chunks-of-3" for fmt in FORMATS)])


def in_chunks(chunk_lines, parse, path, fmt):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_LINES", chunk_lines)
        return parse(path, fmt)


@CHUNKINGS
@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(entries(valid_rows, fields_of_a_row, 5), max_size=25))
def test_columnar_parse_matches_per_row_reference(scratch, fmt, chunk_lines, drawn):
    path = str(scratch / f"mix.{fmt}")
    write_mix(path, fmt, ingest.TRANSACTION_COLUMNS, drawn)
    rows, expected = ingest_reference.parse_transactions_with_report(path, fmt)
    log, report = in_chunks(chunk_lines, ingest.parse_transactions_with_report, path, fmt)
    assert transaction_rows(log) == rows
    assert report == expected
    assert log == transaction_log(rows)


@CHUNKINGS
@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(entries(valid_events, event_fields, 4), max_size=25))
def test_columnar_event_parse_matches_per_row_reference(scratch, fmt, chunk_lines, drawn):
    path = str(scratch / f"events_mix.{fmt}")
    write_mix(path, fmt, ingest.EVENT_COLUMNS, drawn)
    rows, expected = ingest_reference.parse_events_with_report(path, fmt)
    events, report = in_chunks(chunk_lines, ingest.parse_events_with_report, path, fmt)
    assert event_rows(events) == rows
    # rating values come back bit for bit, not just equal as numbers
    assert [repr(e.value) for e in event_rows(events)] == [repr(e.value) for e in rows]
    assert report == expected
    assert events == event_log(rows)


# --- the JSONL reader on files it must decode chunk by chunk -----------------

# ids that collide (self-transactions) or are empty, as "" or null
rule_ids = st.sampled_from(["a", "b", "é x", 'q"r', "a,b", "", None])
# rows that break at most the row rules, here also by collecting before listing
rule_rows = st.tuples(rule_ids, rule_ids, rule_ids, good_stamps, good_stamps)
# events that break at most the row rules, with values of every JSON type
# that converts: numbers (10**400 reads as inf), numeric strings and null
rule_values = st.one_of(
    st.none(), st.floats(), st.integers(-5, 15), st.just(10**400),
    st.sampled_from(["", "5", " 7 ", "-0.5", "10.5", "nan", "1e400", "1_0"]))
rule_events = st.tuples(rule_ids, kinds, good_stamps, rule_values)


def parse_whole(parse, path, fmt):
    """``parse(path, fmt)`` in chunks of three rows; it fails if a chunk is
    read line by line."""
    def per_line(*args):
        raise AssertionError("the JSONL reader declined a chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_LINES", 3)
        mp.setattr(ingest, "_jsonl_lines", per_line)
        return parse(path, fmt)


def check_whole_transactions(path, fmt, drawn):
    write_mix(path, fmt, ingest.TRANSACTION_COLUMNS, [("row", f) for f in drawn])
    rows, expected = ingest_reference.parse_transactions_with_report(path, fmt)
    log, report = parse_whole(ingest.parse_transactions_with_report, path, fmt)
    assert transaction_rows(log) == rows
    assert report == expected
    assert log == transaction_log(rows)


def check_whole_events(path, fmt, drawn):
    write_mix(path, fmt, ingest.EVENT_COLUMNS, [("row", f) for f in drawn])
    rows, expected = ingest_reference.parse_events_with_report(path, fmt)
    events, report = parse_whole(ingest.parse_events_with_report, path, fmt)
    assert event_rows(events) == rows
    assert [repr(e.value) for e in event_rows(events)] == [repr(e.value) for e in rows]
    assert report == expected
    assert events == event_log(rows)


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(st.one_of(valid_rows, rule_rows), max_size=25))
def test_jsonl_chunks_match_per_row_reference(scratch, drawn):
    check_whole_transactions(str(scratch / "whole.jsonl"), "jsonl", drawn)


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(st.one_of(valid_events, rule_events), max_size=25))
def test_jsonl_event_chunks_match_per_row_reference(scratch, drawn):
    check_whole_events(str(scratch / "events_whole.jsonl"), "jsonl", drawn)


# --- the CSV reader in chunks of three, on rows that pass the reader ---------

@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(st.one_of(valid_rows, rule_rows), max_size=25))
def test_csv_chunks_match_per_row_reference(scratch, drawn):
    check_whole_transactions(str(scratch / "whole.csv"), "csv", drawn)


@settings(max_examples=150, deadline=None)
@given(drawn=st.lists(st.one_of(valid_events, rule_events), max_size=25))
def test_csv_event_chunks_match_per_row_reference(scratch, drawn):
    check_whole_events(str(scratch / "events_whole.csv"), "csv", drawn)


# --- the stamp kernel against the scalar grammar ----------------------------

def two_digits(top: int):
    return st.integers(0, top).map("{:02d}".format)


# canonical-shaped stamps, each field drawn across its range and past it
# (year 0000, Feb 29 of every kind of year, hour 24, minute and second 60)
canonical_shaped = st.one_of(
    st.builds("{}-{}-{}T{}:{}:{}Z".format, st.integers(0, 9999).map("{:04d}".format),
              two_digits(13), two_digits(32), two_digits(25), two_digits(61), two_digits(61)),
    st.builds("{}-02-29T{}:00:00Z".format, st.sampled_from(
        ["0000", "0004", "0100", "0400", "1900", "2000", "2023", "2024", "9996", "9999"]),
        two_digits(25)))
# ... and near-canonical ones: another separator, offset or suffix, a
# fraction, padding, one character changed (to a non-ASCII digit too), any text
near_canonical = st.one_of(
    st.tuples(canonical_shaped, st.sampled_from("t _/")).map(lambda p: p[0][:10] + p[1] + p[0][11:]),
    st.tuples(canonical_shaped, st.sampled_from(
        ["z", "+00:00", "-00:00", "+05:30", "-23:59", "+24:00", ".5Z", ".1234567Z", ".Z", ""])).map(
        lambda p: p[0][:-1] + p[1]),
    st.tuples(canonical_shaped, st.sampled_from([" ", "\t", "\n", "\u00a0"]), st.booleans()).map(
        lambda p: p[1] + p[0] if p[2] else p[0] + p[1]),
    st.tuples(canonical_shaped, st.integers(0, 19), st.sampled_from(
        "0\u0662\uff12\U0001d7d0a-:TZ +")).map(lambda p: p[0][:p[1]] + p[2] + p[0][p[1] + 1:]),
    st.text(max_size=22))
CANONICAL = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
REJECTED = -(2**63)  # no stamp of years 1-9999 lies there


@settings(max_examples=400, deadline=None)
@given(texts=st.lists(st.one_of(canonical_shaped, near_canonical), unique=True, max_size=20))
# one field out of range fails NumPy's whole batch: only that text may reach the scalar
@example(texts=["2021-01-05T00:00:00Z", "2023-02-29T00:00:00Z", "2000-02-29T23:59:59Z"])
# NumPy reads year 0000, which datetime rejects
@example(texts=["0000-01-01T00:00:00Z"])
# a chunk's 2,048 distinct stamps, one out of range: NumPy 2.4 crashes where
# one field fails a cast of some 500 or more texts to a set unit
@example(texts=[ingest.format_timestamp(ingest.from_micros(s * 1_000_000)) for s in range(2047)]
         + ["2023-02-29T00:00:00Z"])
def test_stamp_kernel_matches_the_scalar_grammar(texts):
    expected, sent = {}, []
    for text in texts:
        try:
            expected[text] = ingest.to_micros(ingest.parse_timestamp(text))
        except ValueError:
            expected[text] = REJECTED

    def scalar(text):
        sent.append(text)
        return expected[text]

    assert ingest._stamp_micros(texts, scalar) == [expected[t] for t in texts]
    # the kernel decodes every valid canonical stamp itself, and sends every
    # other text, in order, to the scalar grammar and its error
    assert sent == [t for t in texts if not (CANONICAL.fullmatch(t) and expected[t] != REJECTED)]


# instants in the days around March 1 (the leap day too) and around a new year
edge_micros = st.builds(
    lambda year, day, us: ((date(year, 3, 1) - date(1970, 1, 1)).days + day) * 86_400_000_000 + us,
    st.integers(2, 9998), st.sampled_from([-61, -60, -59, -2, -1, 0, 305, 306]),
    st.integers(0, 86_400_000_000 - 1))


@settings(max_examples=200, deadline=None)
@given(micros=st.lists(st.one_of(st.integers(ingest._MIN_US, ingest._MAX_US), edge_micros),
                       max_size=20))
def test_stamp_formatter_matches_the_scalar_writer(micros):
    # fractions of a second are floored, before 1970 too
    assert ingest._format_micros(np.array(micros, dtype=np.int64)).tolist() == [
        ingest.format_timestamp(ingest.from_micros(us)) for us in micros]
