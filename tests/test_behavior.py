"""Tests for donors-ratio series, interpolation, and the hub rule."""

from __future__ import annotations

from datetime import timedelta

import pytest

from volnet import behavior
from volnet.behavior import (
    DRSeries,
    SeriesError,
    detect_hubs,
    dr_series,
    write_series_csv,
)
from volnet.graph import TransactionGraph

from conftest import at_day, graph_of, make_log, tx
from ingest_reference import Transaction


class TestDonorsRatio:
    """The ratio of one window, read from ``dr_series``: ``u`` trades on
    the given days and lists once more on day 30, which is window 4 with
    weekly windows from ``u``'s first transaction."""

    @staticmethod
    def first_window(*transactions) -> tuple[float, bool]:
        s = dr_series("u", make_log(*transactions, tx("u", "z", 30)))
        return s.values[0], s.imputed_mask[0]

    def test_pure_donor_is_one(self):
        assert self.first_window(tx("u", "a", 1), tx("u", "b", 2)) == (1.0, False)

    def test_pure_recipient_is_zero(self):
        assert self.first_window(tx("a", "u", 1), tx("b", "u", 2)) == (0.0, False)

    def test_mixed_activity(self):
        value, _ = self.first_window(tx("u", "a", 1), tx("u", "b", 2), tx("u", "c", 3),
                                     tx("d", "u", 4))
        assert value == pytest.approx(0.75)

    def test_window_is_half_open(self):
        # monthly windows from day 1: the day-31 pickup opens window 1
        log = make_log(tx("u", "a", 1), tx("b", "u", 31))
        s = dr_series("u", log, interval="monthly")
        assert s.values[:2] == (1.0, 0.0)

    def test_no_activity_is_none(self):
        # an empty window has no ratio of its own: it is imputed and flagged
        s = dr_series("u", make_log(tx("u", "a", 0), tx("b", "u", 14)))
        assert s.values[:3] == pytest.approx((1.0, 0.5, 0.0))
        assert s.imputed_mask[:3] == (False, True, False)

    def test_third_party_transactions_ignored(self):
        assert self.first_window(tx("u", "c", 2), tx("a", "b", 3), tx("b", "a", 4)) == (1.0, False)

    def test_invalid_window_raises(self):
        log = make_log(tx("u", "a", 1), tx("u", "b", 9))
        with pytest.raises(ValueError):
            dr_series("u", log, horizon=timedelta(days=6))


class TestInterpolation:
    def test_internal_gap_is_linear(self):
        values, mask = behavior._interpolate([1.0, None, None, None, 0.0])
        assert values == pytest.approx([1.0, 0.75, 0.5, 0.25, 0.0])
        assert mask == [False, True, True, True, False]

    def test_boundary_gaps_copy_nearest(self):
        values, mask = behavior._interpolate([None, 0.4, 0.8, None, None])
        assert values == pytest.approx([0.4, 0.4, 0.8, 0.8, 0.8])
        assert mask == [True, False, False, True, True]

    def test_fewer_than_two_defined_points_raises(self):
        with pytest.raises(SeriesError):
            behavior._interpolate([None, 0.5, None])
        with pytest.raises(SeriesError):
            behavior._interpolate([None, None])


class TestDRSeries:
    def test_weekly_series_has_52_points(self):
        log = make_log(tx("u", "a", 0), tx("v", "u", 28))
        s = dr_series("u", log)
        assert len(s) == 52
        assert s.interval == "weekly"
        assert s.t0 == at_day(0)

    def test_values_and_imputation(self):
        log = make_log(tx("u", "a", 0), tx("v", "u", 28))
        s = dr_series("u", log)
        assert s.values[:5] == pytest.approx((1.0, 0.75, 0.5, 0.25, 0.0))
        assert s.values[5:] == pytest.approx(tuple([0.0] * 47))
        assert s.imputed_mask[0] is False and s.imputed_mask[4] is False
        assert all(s.imputed_mask[5:])

    def test_week_attribution_by_collected_at(self):
        # Collected exactly at t0 + 7d lands in window 1, not window 0.
        log = make_log(tx("u", "a", 0), tx("v", "u", 7))
        s = dr_series("u", log)
        assert s.values[0] == 1.0
        assert s.values[1] == 0.0

    def test_window_edges_open_their_window_and_the_end_is_excluded(self):
        # rows exactly at t0 + k * step open window k; one a microsecond
        # before t0 + 2 * step stays in window 1; a listing and a pickup at
        # t0 + 4 * step, the end of a four-window horizon, are left out
        before_edge = at_day(14) - timedelta(microseconds=1)
        log = make_log(tx("u", "a", 0), tx("v", "u", 7),
                       Transaction("edge", "u", "b", before_edge, before_edge),
                       tx("u", "a", 21), tx("v", "u", 28), tx("u", "b", 28))
        s = dr_series("u", log, horizon=timedelta(days=28))
        assert s.values == (1.0, 0.5, 0.75, 1.0)
        assert s.imputed_mask == (False, False, True, False)

    def test_mixed_week_ratio(self):
        log = make_log(tx("u", "a", 0), tx("u", "b", 0, hour=5),
                       tx("c", "u", 0, hour=9), tx("u", "a", 7))
        s = dr_series("u", log)
        assert s.values[0] == pytest.approx(2 / 3)

    def test_monthly_series_has_12_points(self):
        log = make_log(tx("u", "a", 0), tx("v", "u", 45))
        s = dr_series("u", log, interval="monthly")
        assert len(s) == 12
        assert s.values[0] == 1.0
        assert s.values[1] == 0.0

    def test_custom_horizon(self):
        log = make_log(tx("u", "a", 0), tx("v", "u", 8))
        s = dr_series("u", log, horizon=timedelta(days=21))
        assert len(s) == 3

    def test_activity_beyond_horizon_ignored(self):
        log = make_log(tx("u", "a", 0), tx("u", "b", 8), tx("v", "u", 400))
        s = dr_series("u", log)
        assert set(s.values) == {1.0}

    def test_single_active_window_raises(self):
        log = make_log(tx("u", "a", 0), tx("u", "b", 0, hour=3))
        with pytest.raises(SeriesError):
            dr_series("u", log)

    def test_unknown_user_raises(self):
        log = make_log(tx("a", "b", 1))
        with pytest.raises(SeriesError):
            dr_series("nobody", log)

    def test_unknown_interval_raises(self):
        log = make_log(tx("u", "a", 0), tx("u", "b", 8))
        with pytest.raises(ValueError):
            dr_series("u", log, interval="daily")

    def test_validation_of_fields(self):
        with pytest.raises(ValueError):
            DRSeries(user="u", interval="weekly", t0=at_day(0),
                     values=(0.5,), imputed_mask=())
        with pytest.raises(ValueError):
            DRSeries(user="u", interval="weekly", t0=at_day(0),
                     values=(1.5,), imputed_mask=(False,))


class TestHubRule:
    @staticmethod
    def star(weight: int = 1) -> TransactionGraph:
        edges = {("hub", s): weight for s in ("a", "b", "c", "d")}
        nodes = frozenset({"hub", "a", "b", "c", "d"})
        return graph_of(edges, nodes)

    def test_star_center_detected(self):
        assert detect_hubs(self.star()) == frozenset({"hub"})

    def test_weight_scaling_is_irrelevant(self):
        assert detect_hubs(self.star(1)) == detect_hubs(self.star(7))

    def test_multiplier_tightens_threshold(self):
        # avg distinct degree is 8/5; the center (4) fails 3 * avg.
        assert detect_hubs(self.star(), multiplier=3.0) == frozenset()

    def test_strict_inequality(self):
        # Symmetric pair: both degrees equal the average, so no hubs.
        g = graph_of({("a", "b"): 1}, frozenset({"a", "b"}))
        assert detect_hubs(g) == frozenset()

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            detect_hubs(self.star(), multiplier=0.5)

    @pytest.mark.parametrize("multiplier", [float("inf"), float("nan")])
    def test_non_finite_multiplier_rejected(self, multiplier):
        # nan passes ">= 1" and selects no hubs; inf selects none either
        with pytest.raises(ValueError, match="multiplier must be finite and >= 1"):
            detect_hubs(self.star(), multiplier=multiplier)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            detect_hubs(graph_of({}, frozenset()))

    def test_counts_distinct_not_weighted_degree(self):
        # "v" trades heavily with one partner; "w" lightly with three.
        edges = {("v", "x"): 30, ("w", "x"): 1, ("w", "y"): 1, ("w", "z"): 1}
        g = graph_of(edges, frozenset({"v", "w", "x", "y", "z"}))
        found = detect_hubs(g)
        assert "w" in found and "v" not in found


class TestSeriesWriter:
    def test_csv_format_and_order(self, tmp_path):
        s_b = DRSeries(user="b", interval="weekly", t0=at_day(0),
                       values=(0.5, 1.0), imputed_mask=(False, True))
        s_a = DRSeries(user="a", interval="weekly", t0=at_day(0),
                       values=(0.25,), imputed_mask=(False,))
        path = tmp_path / "series.csv"
        write_series_csv([s_b, s_a], str(path))
        assert path.read_bytes() == (
            b"user_id,index,value,imputed\r\n"
            b"a,0,0.250000,0\r\n"
            b"b,0,0.500000,0\r\n"
            b"b,1,1.000000,1\r\n")
