"""Parsing, validation, canonical round-trips, and population filters."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import at_day, make_log, tx
from volnet import ingest
from volnet.ingest import (
    EventLog,
    KeyUserSet,
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
        assert log.users == frozenset({"a", "b", "c"})

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
            (1, "Invalid isoformat string: 'bad'"), (3, "Invalid isoformat string: 'bad'"),
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
        assert log.users == frozenset()


ROW = ('{"item_id": "%s", "lister_id": "a", "collector_id": "b", '
       '"listed_at": "2022-01-01T00:00:00Z", "collected_at": "%s"}')
LATER = "2022-01-02T00:00:00Z"


class TestJsonlReader:
    """The column-first JSONL reader takes a file whole or declines it, and
    either way the log and the report are those of the per-line loop."""

    @staticmethod
    def parse_both(monkeypatch, parse, path):
        """``parse(path)``, whether the column-first reader took the file, and
        ``parse(path)`` with that reader declining every file."""
        entered, iter_rows = [], ingest._iter_rows
        monkeypatch.setattr(ingest, "_iter_rows", lambda *a: entered.append(a) or iter_rows(*a))
        got = parse(str(path), "jsonl")
        monkeypatch.setattr(ingest, "_jsonl_columns", lambda *a: None)
        return got, not entered, parse(str(path), "jsonl")

    @pytest.mark.parametrize("text, whole, bad_lines", [
        # two objects on one line and one over two: as many objects as lines
        (ROW % ("i1", LATER) + "," + ROW % ("i2", LATER) + "\n"
         + (ROW % ("i3", LATER)).replace(", ", "\n", 1) + "\n", False, [1, 2, 3]),
        (ROW % ("i1", LATER) + "\r\n" + ROW % ("i2", LATER) + "\r\n", True, []),
        # line separators that str.splitlines would split on, inside a value
        (ROW % ("i\u2028x", LATER) + "\n" + ROW % ("i\x85y", LATER) + "\n", True, []),
        (ROW % ("i1", LATER) + "\n\n" + ROW % ("i2", LATER), False, []),
        ("\ufeff" + ROW % ("i1", LATER) + "\n" + ROW % ("i2", LATER) + "\n", False, [1]),
        # a malformed stamp in the second chunk of four lines
        ("\n".join(ROW % (f"i{k}", "bad" if k == 4 else LATER) for k in range(6)), False, [5]),
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
            "bad-stamp-in-second-chunk", "extra-key", "non-objects", "row-rules"])
    def test_transactions(self, tmp_path, monkeypatch, text, whole, bad_lines):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 4)
        path = tmp_path / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got, took_whole, per_line = self.parse_both(
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
        (events, report), took_whole, per_line = self.parse_both(
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


def ingest_reference_log(path):
    """The reference parser's log and report of a JSONL transaction file."""
    rows, report = ingest_reference.parse_transactions_with_report(str(path), "jsonl")
    return transaction_log(rows), report


class TestFilterMinTransactions:
    def test_user_below_threshold_removed_with_their_transactions(self):
        # b and c interact repeatedly; a appears only once
        log = make_log(tx("a", "b", 1), tx("b", "c", 2), tx("c", "b", 3),
                       tx("b", "c", 4))
        kept = filter_min_transactions(log, min_count=2)
        assert "a" not in kept.users
        assert len(kept) == 3

    def test_counting_is_joint_over_both_roles(self):
        # u lists once and collects once -> count 2
        log = make_log(tx("u", "b", 1), tx("b", "u", 2), tx("b", "c", 3),
                       tx("c", "b", 4))
        kept = filter_min_transactions(log, min_count=2)
        assert "u" in kept.users

    def test_single_pass_does_not_cascade(self):
        # c only meets threshold thanks to transactions with the removed a;
        # the retained set is decided once, so c survives the drop.
        log = make_log(tx("a", "c", 1), tx("c", "b", 2), tx("b", "d", 3),
                       tx("d", "b", 4), tx("b", "d", 5))
        kept = filter_min_transactions(log, min_count=2)
        assert "a" not in kept.users
        assert "c" in kept.users
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
        key = KeyUserSet(ids=frozenset({"hero"}), origin="predefined")
        active = select_active_key_users(log, key)
        assert active.ids == frozenset({"hero"})

    def test_short_span_user_dropped(self):
        txs = [tx("u", "p", 7 * w, item=f"u-{w}") for w in range(10)]  # ~63 days
        log = make_log(*txs)
        key = KeyUserSet(ids=frozenset({"u"}), origin="predefined")
        assert select_active_key_users(log, key).ids == frozenset()

    def test_too_few_listing_weeks_dropped(self):
        # long span but the user only ever collects
        txs = [tx("p", "u", 0, item="x0"), tx("p", "u", 370, item="x1")]
        log = make_log(*txs)
        key = KeyUserSet(ids=frozenset({"u"}), origin="predefined")
        assert select_active_key_users(log, key).ids == frozenset()

    def test_listing_weeks_are_iso_weeks_across_a_year_end(self):
        # 2020-12-31 (Thursday) and 2021-01-03 (Sunday) are both in ISO
        # week 2020-W53; 2021-01-04 (Monday) opens 2021-W01
        days = [datetime(2020, 12, 31, 23, tzinfo=timezone.utc),
                datetime(2021, 1, 3, 23, 59, 59, 999999, tzinfo=timezone.utc),
                datetime(2021, 1, 4, tzinfo=timezone.utc)]
        assert [d.isocalendar()[:2] for d in days] == [(2020, 53), (2020, 53), (2021, 1)]
        log = make_log(*(Transaction(f"i{k}", "u", "p", d, d) for k, d in enumerate(days)))
        key = KeyUserSet(ids=frozenset({"u"}), origin="predefined")
        for weeks, expected in ((2, {"u"}), (3, set())):
            active = select_active_key_users(log, key, min_span=timedelta(0),
                                             min_listing_weeks=weeks)
            assert active.ids == expected
        first_two = make_log(*(Transaction(f"i{k}", "u", "p", d, d)
                               for k, d in enumerate(days[:2])))
        assert select_active_key_users(first_two, key, min_span=timedelta(0),
                                       min_listing_weeks=2).ids == frozenset()

    def test_empty_result_warns_but_does_not_raise(self, caplog):
        log = make_log(tx("a", "b", 1))
        key = KeyUserSet(ids=frozenset({"a"}), origin="predefined")
        with caplog.at_level("WARNING"):
            active = select_active_key_users(log, key)
        assert active.ids == frozenset()
        assert any("no key users" in rec.message for rec in caplog.records)

    def test_origin_is_preserved(self):
        log = make_log(*self._year_log("hero", weeks=8))
        key = KeyUserSet(ids=frozenset({"hero"}), origin="predefined")
        assert select_active_key_users(log, key).origin == "predefined"
