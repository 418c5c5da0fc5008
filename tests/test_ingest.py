"""Parsing, validation, canonical round-trips, and population filters."""

import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import at_day, make_log, tx
from volnet import ingest
from volnet.ingest import (
    EventLog,
    ParseError,
    TransactionLog,
    filter_min_transactions,
    format_timestamp,
    parse_timestamp,
    select_active_key_users,
    to_micros,
)
import ingest_reference
from ingest_reference import (
    ActivityEvent,
    Transaction,
    event_log,
    event_rows,
    transaction_log,
    transaction_rows,
)


def pack_transaction(item="i", lister="a", collector="b", listed=1.0, collected=1.0):
    """A one-row transaction log, through the packer (stamps in days)."""
    return TransactionLog.pack([item], [lister], [collector], [to_micros(at_day(listed))],
                               [to_micros(at_day(collected))])


def pack_event(user="u", kind="message", value=None):
    """A one-row event log, through the packer."""
    return EventLog.pack([user], [kind], [to_micros(at_day(1))], [value])


class TestTimestamps:
    def test_parses_z_suffix_as_utc(self):
        dt = parse_timestamp("2022-03-01T12:30:00Z")
        assert dt == datetime(2022, 3, 1, 12, 30, tzinfo=timezone.utc)

    def test_parses_explicit_offset_and_normalizes_to_utc(self):
        dt = parse_timestamp("2022-03-01T14:30:00+02:00")
        assert dt == datetime(2022, 3, 1, 12, 30, tzinfo=timezone.utc)

    def test_rejects_naive_timestamp(self):
        with pytest.raises(ValueError):
            parse_timestamp("2022-03-01T12:30:00")

    def test_round_trip_is_canonical(self):
        text = "2022-03-01T12:30:05Z"
        assert format_timestamp(parse_timestamp(text)) == text


# RFC 3339 section 5.6, checked against literal values so that it means the
# same on every Python (3.10's datetime.fromisoformat rejects a 1-digit
# fraction; 3.11's accepts week dates and the basic format)
UTC = timezone.utc
ACCEPTED = {
    "2021-12-31T23:59:59.5+00:00": datetime(2021, 12, 31, 23, 59, 59, 500000, UTC),
    "2022-01-01T00:00:00.12Z": datetime(2022, 1, 1, 0, 0, 0, 120000, UTC),
    "2022-01-01T00:00:00.123456z": datetime(2022, 1, 1, 0, 0, 0, 123456, UTC),
    # past 6 digits a fraction is truncated to the microsecond, never rounded
    "2022-01-01T00:00:00.1234569Z": datetime(2022, 1, 1, 0, 0, 0, 123456, UTC),
    "2022-01-01T00:00:00.999999999Z": datetime(2022, 1, 1, 0, 0, 0, 999999, UTC),
    "2022-01-01t01:00:00+02:00": datetime(2021, 12, 31, 23, 0, 0, 0, UTC),
    "2022-01-01 01:00:00-05:30": datetime(2022, 1, 1, 6, 30, 0, 0, UTC),
    "2022-01-01T00:00:00-00:00": datetime(2022, 1, 1, 0, 0, 0, 0, UTC),
    "2024-02-29T23:59:59+23:59": datetime(2024, 2, 29, 0, 0, 59, 0, UTC),
    " 2022-01-02T00:00:00Z\t": datetime(2022, 1, 2, 0, 0, 0, 0, UTC),
}
REJECTED = {
    "2021-01-05T00:00+00:00": "not an RFC 3339",  # no seconds
    "2021-W01-1T00:00:00+00:00": "not an RFC 3339",  # ISO week date
    "20210105T000000+0000": "not an RFC 3339",  # ISO basic format
    "2021-01-05T00:00:00+0000": "not an RFC 3339",  # offset without a colon
    "2021-01-05T00:00:00+01": "not an RFC 3339",
    "2021-01-05T00:00:00,5Z": "not an RFC 3339",  # comma fraction
    "2021-01-05T00:00:00.Z": "not an RFC 3339",
    "2021-01-05_00:00:00Z": "not an RFC 3339",
    "2021-01-05T00:00:00+24:00": "not an RFC 3339",
    "2021-01-05T00:00:00+01:60": "not an RFC 3339",
    "2021-1-05T00:00:00Z": "not an RFC 3339",
    "\u0662\u0660\u0662\u0661-01-05T00:00:00Z": "not an RFC 3339",  # non-ASCII digits
    "2021-01-05": "not an RFC 3339",
    "2021-02-29T00:00:00Z": r"not an RFC 3339 .*\(day is out of range for month\)",
    "2021-01-05T24:00:00Z": r"\(hour must be in 0\.\.23\)",
    "2021-12-31T23:59:60Z": r"\(second must be in 0\.\.59\)",  # a leap second
    "2021-01-05T00:00:00": "timestamp without offset",
    "0001-01-01T00:00:00+01:00": "timestamp out of range in UTC",
    "": "not an RFC 3339",
}


class TestTimestampGrammar:
    @pytest.mark.parametrize("text", ACCEPTED)
    def test_accepted(self, text):
        got = parse_timestamp(text)
        assert got == ACCEPTED[text] and got.tzinfo == UTC

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, text):
        with pytest.raises(ValueError, match=REJECTED[text]):
            parse_timestamp(text)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_lenient_and_strict_parses_report_the_rejected_rows(self, tmp_path, fmt):
        good = "2030-01-01T00:00:00Z"
        stamps = [*ACCEPTED, *(t for t in REJECTED if t)]
        path = str(tmp_path / f"t.{fmt}")
        ingest.write_rows(path, fmt, ingest.TRANSACTION_COLUMNS,
                          [(f"i{i}", "a", "b", at, good) for i, at in enumerate(stamps)])
        first = 2 if fmt == "csv" else 1
        log, report = ingest.parse_transactions_with_report(path, fmt)
        rejected = range(len(ACCEPTED), len(stamps))
        assert [bad.line - first for bad in report.bad_rows] == list(rejected)
        assert all(bad.reason.startswith(("not an RFC 3339", "timestamp")) for bad in report.bad_rows)
        assert sorted(t.listed_at for t in transaction_rows(log)) == sorted(ACCEPTED.values())
        lines = ", ".join(str(first + i) for i in rejected)
        with pytest.raises(ParseError, match=rf"{len(rejected)} malformed row\(s\) at line\(s\) {lines}$"):
            ingest.parse_transactions(path, fmt)

    def test_a_bad_stamp_costs_a_rejected_batch_one_halving_per_level(self, monkeypatch):
        # 2,048 distinct canonical stamps, one on a day February 2023 lacks:
        # the failed batch is halved 11 times, two casts a level, 23 in all
        start = to_micros(datetime(2023, 1, 1, tzinfo=UTC))
        texts = [format_timestamp(ingest.from_micros(start + 60_000_000 * i)) for i in range(2048)]
        bad = 1234
        texts[bad] = "2023-02-29T00:00:00Z"
        casts = []

        def counted(isos):
            casts.append(len(isos))
            return cast(isos)

        cast = ingest._cast_isos
        monkeypatch.setattr(ingest, "_cast_isos", counted)
        sent = []

        def scalar(text):
            sent.append(text)
            return -1

        got = ingest._stamp_micros(texts, scalar)
        assert len(casts) <= 23
        assert sent == [texts[bad]]
        assert got == [-1 if i == bad else start + 60_000_000 * i for i in range(2048)]


class TestTransactionValidation:
    def test_self_transaction_rejected(self):
        with pytest.raises(ValueError, match="self-transaction for user 'a'"):
            pack_transaction(lister="a", collector="a")

    def test_collection_before_listing_rejected(self):
        with pytest.raises(ValueError, match="collected before"):
            pack_transaction(listed=1.0, collected=1.0 - 2 / 24)

    def test_empty_ids_rejected(self):
        for ids in ({"item": ""}, {"lister": ""}, {"collector": ""}):
            with pytest.raises(ValueError, match="ids must be non-empty"):
                pack_transaction(**ids)

    def test_first_invalid_row_is_reported(self):
        with pytest.raises(ValueError, match="self-transaction for user 'c'"):
            TransactionLog.pack(["i1", "i2", "i3"], ["a", "c", "a"], ["b", "c", "a"],
                                [0, 0, 0], [0, 0, 0])

    def test_log_sorted_by_collection_time(self):
        log = make_log(tx("a", "b", 5), tx("a", "b", 1), tx("b", "c", 3))
        days = [t.collected_at for t in transaction_rows(log)]
        assert days == sorted(days)
        assert frozenset(log.user_ids) == frozenset({"a", "b", "c"})

    def test_count_until_is_inclusive_prefix(self):
        log = make_log(tx("a", "b", 1), tx("a", "b", 2), tx("a", "b", 3))
        assert log.count_until(at_day(2)) == 2
        assert log.count_until(at_day(1.5)) == 1
        assert log.count_until(at_day(0)) == 0


class TestEventValidation:
    def test_rating_requires_value_in_range(self):
        with pytest.raises(ValueError, match="rating event without a value"):
            pack_event(kind="rating")
        with pytest.raises(ValueError, match=r"rating 11.0 outside \[0, 10\]"):
            pack_event(kind="rating", value=11.0)
        with pytest.raises(ValueError, match=r"rating nan outside \[0, 10\]"):
            pack_event(kind="rating", value=float("nan"))
        ok = pack_event(kind="rating", value=9.5)
        assert ok.value.tolist() == [9.5]

    def test_non_rating_must_not_carry_value(self):
        with pytest.raises(ValueError, match="message event must not carry a value"):
            pack_event(kind="message", value=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            pack_event(kind="poke")

    def test_empty_user_rejected(self):
        with pytest.raises(ValueError, match="user_id must be non-empty"):
            pack_event(user="")

    def test_columns(self):
        events = EventLog.pack(["v", "u", "v"], ["like", "rating", "message"],
                               [30, 10, 20], [None, 8.0, None])
        assert events.user_ids == ("u", "v")
        assert events.user.tolist() == [0, 1, 1]
        assert events.kind.tolist() == [2, 1, 3]
        assert events.at.tolist() == [10, 20, 30]
        assert np.array_equal(events.value, [8.0, np.nan, np.nan], equal_nan=True)
        assert len(events) == 3


class TestFileRoundTrips:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_transactions_round_trip(self, tmp_path, fmt):
        log = make_log(tx("a", "b", 1), tx("b", "c", 2), tx("c", "a", 3))
        path = str(tmp_path / f"t.{fmt}")
        ingest.write_transactions(log, path, fmt=fmt)
        back = ingest.parse_transactions(path, fmt=fmt)
        assert transaction_rows(back) == transaction_rows(log)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_events_round_trip(self, tmp_path, fmt):
        events = event_log([
            ActivityEvent(user_id="u", kind="message", at=at_day(1)),
            ActivityEvent(user_id="u", kind="rating", at=at_day(2), value=8.0),
            ActivityEvent(user_id="v", kind="like", at=at_day(3)),
        ])
        path = str(tmp_path / f"e.{fmt}")
        ingest.write_events(events, path, fmt=fmt)
        back = ingest.parse_events(path, fmt=fmt)
        assert event_rows(back) == event_rows(events)

    def test_equal_stamps_share_one_str(self):
        listed, collected = ingest._stamp_texts(np.array([0, 5_000_000, 0]), np.array([0]))
        assert listed == ["1970-01-01T00:00:00Z", "1970-01-01T00:00:05Z", "1970-01-01T00:00:00Z"]
        assert listed[0] is listed[2] is collected[0]

    def test_canonical_write_is_byte_stable(self, tmp_path):
        log = make_log(tx("a", "b", 1), tx("b", "c", 2))
        p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
        ingest.write_transactions(log, p1)
        ingest.write_transactions(log, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestParseErrors:
    def test_strict_parse_reports_bad_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "item_id,lister_id,collector_id,listed_at,collected_at\n"
            "i1,a,b,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n"
            "i2,a,a,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n"
            "i3,a,b,not-a-time,2022-01-01T01:00:00Z\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_transactions(str(path))
        lines = {bad.line for bad in err.value.bad_rows}
        assert lines == {3, 4}

    def test_lenient_parse_drops_bad_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "item_id,lister_id,collector_id,listed_at,collected_at\n"
            "i1,a,b,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n"
            "i2,a,a,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n")
        log, report = ingest.parse_transactions_with_report(str(path))
        assert len(log) == 1
        assert [bad.line for bad in report.bad_rows] == [3]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_repeated_timestamps_parse_alike_and_fail_on_every_row(self, tmp_path, fmt):
        # Each distinct timestamp is parsed once per file; a malformed one
        # is never remembered, so each row holding it is reported again.
        good, naive = "2022-01-01T00:00:00Z", "2022-01-01T00:00:00"
        rows = [("i1", "a", "b", good, "2022-01-01T01:00:00Z"),
                ("i2", "a", "b", "bad", "2022-01-01T01:00:00Z"),
                ("i3", "b", "a", good, "2022-01-01T01:00:00Z"),
                ("i4", "b", "a", "bad", "2022-01-01T02:00:00Z"),
                ("i5", "a", "b", naive, "2022-01-01T02:00:00Z"),
                ("i6", "b", "a", naive, "2022-01-01T02:00:00Z")]
        path = tmp_path / f"t.{fmt}"
        ingest.write_rows(str(path), fmt, ingest.TRANSACTION_COLUMNS, rows)
        log, report = ingest.parse_transactions_with_report(str(path), fmt)
        first = 2 if fmt == "csv" else 1
        assert [(bad.line - first, bad.reason) for bad in report.bad_rows] == [
            (1, "not an RFC 3339 timestamp: 'bad'"), (3, "not an RFC 3339 timestamp: 'bad'"),
            (4, f"timestamp without offset: {naive!r}"),
            (5, f"timestamp without offset: {naive!r}")]
        assert [t.item_id for t in transaction_rows(log)] == ["i1", "i3"]
        assert {t.listed_at for t in transaction_rows(log)} == {parse_timestamp(good)}

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_out_of_range_timestamp_rejects_just_its_row(self, tmp_path, fmt):
        # each stamp is a valid local time that falls outside years 1-9999 in UTC
        early, late, good = "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", LATER
        first = 2 if fmt == "csv" else 1
        files = {
            "transactions": (ingest.TRANSACTION_COLUMNS, [
                ("i1", "a", "b", good, good), ("i2", "a", "b", early, good),
                ("i3", "b", "a", good, late)]),
            "events": (ingest.EVENT_COLUMNS, [
                ("u", "like", good, None), ("u", "like", early, None),
                ("v", "like", late, None)]),
        }
        for kind, (columns, rows) in files.items():
            path = str(tmp_path / f"{kind}.{fmt}")
            ingest.write_rows(path, fmt, columns, rows)
            parsed, report = getattr(ingest, f"parse_{kind}_with_report")(path, fmt)
            assert [(bad.line, bad.reason) for bad in report.bad_rows] == [
                (first + 1, f"timestamp out of range in UTC: {early!r}"),
                (first + 2, f"timestamp out of range in UTC: {late!r}")]
            assert len(parsed) == 1
            ref_rows, ref_report = getattr(ingest_reference, f"parse_{kind}_with_report")(path, fmt)
            to_log = transaction_log if kind == "transactions" else event_log
            assert (parsed, report) == (to_log(ref_rows), ref_report)
            with pytest.raises(ParseError, match=rf"at line\(s\) {first + 1}, {first + 2}$"):
                getattr(ingest, f"parse_{kind}")(path, fmt)

    def test_jsonl_values_keep_their_json_types(self, tmp_path):
        # ids, kinds and stamps must be JSON strings; a value may also be a
        # number, but not a boolean; a rejected value is spelled as in the file
        stamp = '"at": "2021-01-05T00:00:00Z"'
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join([
            '{"user_id": "u", "kind": "rating", %s, "value": 4}' % stamp,
            '{"user_id": "u", "kind": "rating", %s, "value": "4.5"}' % stamp,
            '{"user_id": "u", "kind": "rating", %s, "value": true}' % stamp,
            '{"user_id": 7.0, "kind": "like", %s, "value": null}' % stamp,
            '{"user_id": "u", "kind": ["like"], %s, "value": null}' % stamp,
            '{"user_id": "u", "kind": "like", "at": 1609804800, "value": null}',
            '{"user_id": null, "kind": "like", %s, "value": null}' % stamp]) + "\n")
        events, report = ingest.parse_events_with_report(str(path), "jsonl")
        assert [e.value for e in event_rows(events)] == [4.0, 4.5]
        assert [(bad.line, bad.reason) for bad in report.bad_rows] == [
            (3, "value must be a JSON number, string or null, got true"),
            (4, "user_id must be a JSON string or null, got 7.0"),
            (5, 'kind must be a JSON string or null, got ["like"]'),
            (6, "at must be a JSON string or null, got 1609804800"),
            (7, "event user_id must be non-empty")]

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item_id,lister_id,collector_id,listed_at\n")
        with pytest.raises(ParseError):
            ingest.parse_transactions(str(path))

    def test_empty_file_yields_empty_log(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item_id,lister_id,collector_id,listed_at,collected_at\n")
        log = ingest.parse_transactions(str(path))
        assert len(log) == 0
        assert frozenset(log.user_ids) == frozenset()


ROW = ('{"item_id": "%s", "lister_id": "a", "collector_id": "b", '
       '"listed_at": "2022-01-01T00:00:00Z", "collected_at": "%s"}')
LATER = "2022-01-02T00:00:00Z"


def parse_both(monkeypatch, parse, path, fmt="jsonl"):
    """``parse(path, fmt)``, whether no chunk of the file was read line by
    line, and ``parse(path, fmt)`` with every JSONL chunk read line by line."""
    entered, per_line = [], ingest._jsonl_lines
    monkeypatch.setattr(ingest, "_jsonl_lines", lambda *a: entered.append(a) or per_line(*a))
    got = parse(str(path), fmt)
    monkeypatch.setattr(ingest, "_jsonl_columns", lambda *a: None)
    return got, not entered, parse(str(path), fmt)


class TestJsonlReader:
    """The JSONL reader decodes a chunk whole or reads it line by line, and
    either way the log and the report are those of reading every chunk line
    by line, and of the reference parser."""

    @pytest.mark.parametrize("text, whole, bad_lines", [
        # two objects on one line and one over two: as many objects as lines
        (ROW % ("i1", LATER) + "," + ROW % ("i2", LATER) + "\n"
         + (ROW % ("i3", LATER)).replace(", ", "\n", 1) + "\n", False, [1, 2, 3]),
        (ROW % ("i1", LATER) + "\r\n" + ROW % ("i2", LATER) + "\r\n", True, []),
        # line separators that str.splitlines would split on, inside a value
        (ROW % ("i\u2028x", LATER) + "\n" + ROW % ("i\x85y", LATER) + "\n", True, []),
        (ROW % ("i1", LATER) + "\n\n" + ROW % ("i2", LATER), False, []),
        ("\ufeff" + ROW % ("i1", LATER) + "\n" + ROW % ("i2", LATER) + "\n", False, [1]),
        # a malformed stamp in the second chunk of four lines drops just its row
        ("\n".join(ROW % (f"i{k}", "bad" if k == 4 else LATER) for k in range(6)), True, [5]),
        # a broken line in the second of three chunks: only that chunk is
        # read line by line, and the users and lines of the third count on
        ("\n".join("{nope" if k == 5 else (ROW % (f"i{k}", LATER)).replace('"a"', f'"u{k}"')
                   for k in range(10)), False, [6]),
        (ROW % ("i1", LATER) + "\n" + ROW.replace("}", ', "note": "x"}') % ("i2", LATER) + "\n",
         False, [2]),
        # four lines that each start with "{" and end with "}" hold four values,
        # a number among them, and the last three lines hold one object
        (ROW % ("i1", LATER) + ", 5, " + ROW % ("i2", LATER) + '\n{"a": [{}\n{}, {}\n{}]}\n',
         False, [1, 2, 3, 4]),
        # rows that break only the row rules
        (ROW.replace('"b"', '"a"') % ("i1", LATER) + "\n" + ROW % ("", LATER) + "\n"
         + ROW % ("i3", "2021-12-31T00:00:00Z") + "\n", True, [1, 2, 3]),
    ], ids=["merged-lines", "crlf", "unicode-line-separators", "blank-line", "bom",
            "bad-stamp-in-second-chunk", "broken-line-in-second-chunk", "extra-key",
            "non-objects", "row-rules"])
    def test_transactions(self, tmp_path, monkeypatch, text, whole, bad_lines):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 4)
        path = tmp_path / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got, took_whole, per_line = parse_both(
            monkeypatch, ingest.parse_transactions_with_report, path)
        assert took_whole == whole
        assert got == per_line
        assert [bad.line for bad in got[1].bad_rows] == bad_lines
        assert got == ingest_reference_log(path)

    def test_event_values_of_every_json_type(self, tmp_path, monkeypatch):
        # a number is read through its text, so 10**400 is inf, as a string
        # "1e400" would be; null is no value
        values = ["4", "4.5", '"4.5"', "null", str(10**400), '" 7 "']
        path = tmp_path / "e.jsonl"
        path.write_text("".join('{"user_id": "u", "kind": "rating", "at": "2021-01-05T00:00:00Z", '
                                '"value": %s}\n' % v for v in values))
        (events, report), took_whole, per_line = parse_both(
            monkeypatch, ingest.parse_events_with_report, path)
        assert took_whole
        assert (events, report) == per_line
        assert [e.value for e in event_rows(events)] == [4.0, 4.5, 4.5, 7.0]
        assert [(bad.line, bad.reason) for bad in report.bad_rows] == [
            (4, "rating event without a value"), (5, "rating inf outside [0, 10]")]

    def test_too_long_a_number_or_too_deep_a_nesting_rejects_just_its_row(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([ROW % ("i1", LATER), '{"item_id": %s}' % ("9" * 5000),
                                    "[" * 100_000, ROW % ("i4", LATER)]) + "\n")
        log, report = ingest.parse_transactions_with_report(str(path), "jsonl")
        assert [t.item_id for t in transaction_rows(log)] == ["i1", "i4"]
        assert [bad.line for bad in report.bad_rows] == [2, 3]
        reasons = [bad.reason for bad in report.bad_rows]
        assert reasons[0].startswith("invalid JSON: Exceeds the limit (4300 digits)")
        assert reasons[1].startswith("invalid JSON: maximum recursion depth exceeded")
        assert (log, report) == ingest_reference_log(path)


def ingest_reference_log(path, fmt="jsonl"):
    """The reference parser's log and report of a transaction file."""
    rows, report = ingest_reference.parse_transactions_with_report(str(path), fmt)
    return transaction_log(rows), report


HEADER = ",".join(ingest.TRANSACTION_COLUMNS) + "\n"
CSV_ROW = "%s,a,b,2022-01-01T00:00:00Z,%s\n"
EARLIER = "2021-12-31T00:00:00Z"  # collected before listed: a row rule, not a field, fails


class TestCsvReader:
    """The CSV reader never reads a chunk line by line: it drops a bad row
    from its chunk and numbers each row by the file line it starts on, and
    its log and report are the reference parser's."""

    @pytest.mark.parametrize("text, bad_lines", [
        (HEADER.replace(",", " , ") + CSV_ROW % ("i1", LATER) + CSV_ROW % ("i2", LATER), []),
        ((HEADER + CSV_ROW % ("i1", LATER) + CSV_ROW % ("i2", LATER)).replace("\n", "\r\n"), []),
        # offsets, "t", "z", fractions and padding, in the second chunk of four rows
        (HEADER + "".join(CSV_ROW % (f"i{k}", at) for k, at in enumerate(
            [LATER, LATER, LATER, LATER, "2022-01-02T02:00:00+02:00", "2022-01-02t00:00:00z",
             "2022-01-02T00:00:00.5Z", " 2022-01-02T00:00:00Z"])), []),
        # a quoted field over two lines: the next row starts on line 4
        (HEADER + CSV_ROW % ('"i\n1"', LATER) + CSV_ROW % ("i2", EARLIER), [4]),
        (HEADER + CSV_ROW % ("i1", LATER) + "\n" + CSV_ROW % ("i2", EARLIER), [4]),
        (HEADER + "i1,a,b\n" + CSV_ROW % ("i2", LATER), [2]),
        (HEADER + "".join(CSV_ROW % (f"i{k}", "bad" if k == 4 else LATER) for k in range(6)), [6]),
        # rows that break only the row rules
        (HEADER + "i1,a,a,2022-01-01T00:00:00Z,2022-01-02T00:00:00Z\n" + CSV_ROW % ("", LATER)
         + CSV_ROW % ("i3", EARLIER), [2, 3, 4]),
    ], ids=["padded-header", "crlf", "non-canonical-stamps", "multi-line-row", "blank-row",
            "wrong-width", "bad-stamp-in-second-chunk", "row-rules"])
    def test_transactions(self, tmp_path, monkeypatch, text, bad_lines):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 4)
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        got, took_whole, _ = parse_both(
            monkeypatch, ingest.parse_transactions_with_report, path, "csv")
        assert took_whole
        assert [bad.line for bad in got[1].bad_rows] == bad_lines
        assert got == ingest_reference_log(path, "csv")

    def test_too_long_a_field_rejects_just_its_row(self, tmp_path, monkeypatch):
        # a field longer than csv.field_size_limit() fails the row that holds
        # it; the reader goes on at the next line, so where the field is
        # quoted and its row spans lines the reader either stops on the
        # row's last line (line 7) or reads the tail as a row of its own,
        # which the width rule rejects (line 10: 'x",b,...' has 4 fields)
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 4)
        long = "x" * 200_000
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "".join(CSV_ROW % (f"i{k}", LATER) for k in (2, 3, 4))
                        + CSV_ROW % (long, LATER) + CSV_ROW % (f'"i6\n{long}"', LATER)
                        + CSV_ROW % ("i8", LATER) + f'i9,"{long}\nx",b,{LATER},{LATER}\n'
                        + CSV_ROW % ("i11", LATER))
        log, report = ingest.parse_transactions_with_report(str(path))
        assert [t.item_id for t in transaction_rows(log)] == ["i2", "i3", "i4", "i8", "i11"]
        too_long = f"field larger than field limit ({csv.field_size_limit()})"
        assert [(bad.line, bad.reason) for bad in report.bad_rows] == [
            (5, too_long), (6, too_long), (9, too_long), (10, "expected 5 columns, got 4")]
        assert report.total_rows == 9
        with pytest.raises(ParseError, match=r"at line\(s\) 5, 6, 9, 10$"):
            ingest.parse_transactions(str(path))


class TestFilterMinTransactions:
    def test_user_below_threshold_removed_with_their_transactions(self):
        # b and c interact repeatedly; a appears only once
        log = make_log(tx("a", "b", 1), tx("b", "c", 2), tx("c", "b", 3),
                       tx("b", "c", 4))
        kept = filter_min_transactions(log, min_count=2)
        assert "a" not in kept.user_ids
        assert len(kept) == 3

    def test_counting_is_joint_over_both_roles(self):
        # u lists once and collects once -> count 2
        log = make_log(tx("u", "b", 1), tx("b", "u", 2), tx("b", "c", 3),
                       tx("c", "b", 4))
        kept = filter_min_transactions(log, min_count=2)
        assert "u" in kept.user_ids

    def test_single_pass_does_not_cascade(self):
        # c only meets threshold thanks to transactions with the removed a;
        # the retained set is decided once, so c survives the drop.
        log = make_log(tx("a", "c", 1), tx("c", "b", 2), tx("b", "d", 3),
                       tx("d", "b", 4), tx("b", "d", 5))
        kept = filter_min_transactions(log, min_count=2)
        assert "a" not in kept.user_ids
        assert "c" in kept.user_ids
        assert len(kept) == 4

    def test_min_count_one_keeps_everything(self):
        log = make_log(tx("a", "b", 1))
        assert transaction_rows(filter_min_transactions(log, 1)) == transaction_rows(log)

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            filter_min_transactions(make_log(tx("a", "b", 1)), 0)


class TestActiveKeyUsers:
    def _year_log(self, user: str, weeks: int):
        txs = [tx(user, "p", 7 * w, item=f"{user}-{w}") for w in range(weeks)]
        txs.append(tx("p", user, 370, item=f"{user}-tail"))
        return txs

    def test_span_and_listing_weeks_both_required(self):
        log = make_log(*self._year_log("hero", weeks=8))
        key = frozenset({"hero"})
        assert select_active_key_users(log, key) == frozenset({"hero"})

    def test_short_span_user_dropped(self):
        txs = [tx("u", "p", 7 * w, item=f"u-{w}") for w in range(10)]  # ~63 days
        log = make_log(*txs)
        key = frozenset({"u"})
        assert select_active_key_users(log, key) == frozenset()

    def test_too_few_listing_weeks_dropped(self):
        # long span but the user only ever collects
        txs = [tx("p", "u", 0, item="x0"), tx("p", "u", 370, item="x1")]
        log = make_log(*txs)
        key = frozenset({"u"})
        assert select_active_key_users(log, key) == frozenset()

    def test_listing_weeks_are_iso_weeks_across_a_year_end(self):
        # 2020-12-31 (Thursday) and 2021-01-03 (Sunday) are both in ISO
        # week 2020-W53; 2021-01-04 (Monday) opens 2021-W01
        days = [datetime(2020, 12, 31, 23, tzinfo=timezone.utc),
                datetime(2021, 1, 3, 23, 59, 59, 999999, tzinfo=timezone.utc),
                datetime(2021, 1, 4, tzinfo=timezone.utc)]
        assert [d.isocalendar()[:2] for d in days] == [(2020, 53), (2020, 53), (2021, 1)]
        log = make_log(*(Transaction(f"i{k}", "u", "p", d, d) for k, d in enumerate(days)))
        key = frozenset({"u"})
        for weeks, expected in ((2, {"u"}), (3, set())):
            active = select_active_key_users(log, key, min_span=timedelta(0),
                                             min_listing_weeks=weeks)
            assert active == expected
        first_two = make_log(*(Transaction(f"i{k}", "u", "p", d, d)
                               for k, d in enumerate(days[:2])))
        assert select_active_key_users(first_two, key, min_span=timedelta(0),
                                       min_listing_weeks=2) == frozenset()

    def test_empty_result_warns_but_does_not_raise(self, caplog):
        log = make_log(tx("a", "b", 1))
        key = frozenset({"a"})
        with caplog.at_level("WARNING"):
            active = select_active_key_users(log, key)
        assert active == frozenset()
        assert any("no key users" in rec.message for rec in caplog.records)
