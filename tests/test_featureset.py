"""Tests for feature extraction at the activity cutoff."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from volnet import featureset, graph
from volnet.featureset import (
    CASES,
    FEATURE_NAMES,
    LABELS,
    NETWORK_FEATURES,
    RAW_FEATURES,
    ScopeFeatures,
    assemble_all,
    extract_network_features,
    label_scope,
    write_features_csv,
)
from volnet.ingest import EventLog
from volnet.graph import TransactionGraph, build_graph, ego_network
from volnet.tscluster import ArchetypeLabel, ClusterModel

from conftest import at_day, make_log, tx
from featureset_reference import assemble
from ingest_reference import ActivityEvent, event_log, event_rows, transaction_rows


def hand_cluster(assignment: dict[str, int], archetype_by_cluster: dict[int, str]) -> tuple[ClusterModel, dict[int, ArchetypeLabel]]:
    k = max(archetype_by_cluster) + 1
    model = ClusterModel(k=k, metric="euclidean", centroids=np.zeros((k, 1)),
                         assignment=assignment, inertia=0.0, seed=0)
    levels = {"FPD": (0.9, 0.2), "SAD": (0.85, 0.85),
              "FAD": (0.15, 0.8), "SPD": (0.15, 0.15)}
    labels = {
        c: ArchetypeLabel(name, *levels[name])
        for c, name in archetype_by_cluster.items()
    }
    return model, labels


def events_from(*events: ActivityEvent) -> EventLog:
    return event_log(events)


def assemble_one(u, log, events, model, labels, t_months=3) -> SimpleNamespace:
    """One user's assembled row, labelled by ``model``: ``user``, ``features``
    (name -> value), ``label`` and ``case``."""
    table = label_scope([u], assemble_all([u], log, events, t_months=t_months), model, labels)
    return SimpleNamespace(user=table.users[0],
                           features=dict(zip(FEATURE_NAMES, table.X[0].tolist())),
                           label=LABELS[table.y[0]], case=table.cases[0])


def raw_features(events: EventLog) -> dict[str, float]:
    """Raw features of "u", first active on day 0, at a one-month cutoff (day 30)."""
    model, labels = hand_cluster({"u": 0}, {0: "SPD"})
    v = assemble_one("u", make_log(tx("u", "a", 0)), events, model, labels, t_months=1)
    return {name: v.features[name] for name in RAW_FEATURES}


class TestCutoff:
    def test_first_activity_in_either_role(self):
        log = make_log(tx("a", "u", 5), tx("u", "b", 9))
        assert log.first_activity == {"a": at_day(5), "u": at_day(5), "b": at_day(9)}

    def test_cutoff_is_thirty_day_months(self):
        log = make_log(tx("u", "a", 2), tx("u", "b", 40))
        events = events_from(ActivityEvent("u", "message", at_day(2 + 30)),
                             ActivityEvent("u", "message", at_day(2 + 30, hour=1)),
                             ActivityEvent("u", "message", at_day(2 + 90)),
                             ActivityEvent("u", "message", at_day(2 + 90, hour=1)))
        model, labels = hand_cluster({"u": 0}, {0: "SPD"})
        one = assemble_one("u", log, events, model, labels, t_months=1).features
        three = assemble_one("u", log, events, model, labels, t_months=3).features
        assert (one["messages_count"], one["nodes_number"]) == (1.0, 2.0)
        assert (three["messages_count"], three["nodes_number"]) == (3.0, 3.0)

    def test_nonpositive_months_rejected(self):
        log = make_log(tx("u", "a", 2))
        model, labels = hand_cluster({"u": 0}, {0: "SPD"})
        with pytest.raises(ValueError):
            assemble_one("u", log, events_from(), model, labels, t_months=0)

    def test_unknown_user_raises(self):
        log = make_log(tx("a", "b", 1))
        model, labels = hand_cluster({"zz": 0}, {0: "SPD"})
        with pytest.raises(KeyError):
            assemble_one("zz", log, events_from(), model, labels)


class TestNetworkFeatures:
    def test_pure_donor_star(self):
        log = make_log(*(tx("u", p, d) for d, p in enumerate("abcd", start=1)))
        g = build_graph(log, until=at_day(100))
        got = extract_network_features(ego_network(g, "u"), "u")
        assert got["nodes_number"] == 5.0
        assert got["edges_number"] == 4.0
        assert got["density"] == pytest.approx(4 / 20)
        assert got["pickups_count"] == 0.0
        assert got["percent_of_listing_items"] == 1.0
        assert got["clustering_coefficient"] == 0.0

    def test_triangle_clustering_is_one(self):
        log = make_log(tx("u", "a", 1), tx("b", "u", 2), tx("a", "b", 3))
        g = build_graph(log, until=at_day(100))
        got = extract_network_features(ego_network(g, "u"), "u")
        assert got["clustering_coefficient"] == pytest.approx(1.0)
        assert got["percent_of_listing_items"] == pytest.approx(0.5)
        assert got["pickups_count"] == 1.0

    def test_mixed_roles(self):
        log = make_log(tx("u", "a", 1), tx("u", "b", 2), tx("u", "a", 3),
                       tx("c", "u", 4))
        g = build_graph(log, until=at_day(100))
        got = extract_network_features(ego_network(g, "u"), "u")
        assert got["pickups_count"] == 1.0
        assert got["percent_of_listing_items"] == pytest.approx(0.75)

    def test_pagerank_is_within_ego_network(self):
        log = make_log(tx("u", "a", 1), tx("a", "b", 2), tx("b", "z", 3),
                       tx("z", "q", 4))
        g = build_graph(log, until=at_day(100))
        ego = ego_network(g, "u")
        got = extract_network_features(ego, "u")
        assert got["pagerank"] == pytest.approx(graph.pagerank(ego)["u"])
        assert got["nodes_number"] == 2.0

    def test_isolated_user_rejected(self):
        g = TransactionGraph(nodes=frozenset({"u", "a", "b"}),
                             edges={("a", "b"): 1})
        with pytest.raises(ValueError):
            extract_network_features(ego_network(g, "u"), "u")


class TestRawFeatures:
    def test_counts_by_kind_and_mean_rating(self):
        events = events_from(
            ActivityEvent("u", "message", at_day(1)),
            ActivityEvent("u", "message", at_day(2)),
            ActivityEvent("u", "article", at_day(3)),
            ActivityEvent("u", "rating", at_day(4), value=6.0),
            ActivityEvent("u", "rating", at_day(5), value=10.0),
            ActivityEvent("u", "like", at_day(6)),
            ActivityEvent("u", "story", at_day(7)),
            ActivityEvent("u", "comment", at_day(8)),
        )
        got = raw_features(events)
        assert got == {
            "articles_count": 1.0, "messages_count": 2.0,
            "rating_current": 8.0, "rating_count": 2.0,
            "likes_count": 1.0, "stories_count": 1.0, "comments_count": 1.0,
        }

    def test_cutoff_is_inclusive(self):
        events = events_from(
            ActivityEvent("u", "like", at_day(30)),
            ActivityEvent("u", "like", at_day(30, hour=1)),
        )
        got = raw_features(events)
        assert got["likes_count"] == 1.0

    def test_events_after_cutoff_excluded(self):
        events = events_from(
            ActivityEvent("u", "message", at_day(1)),
            ActivityEvent("u", "message", at_day(99)),
            ActivityEvent("u", "rating", at_day(98), value=2.0),
        )
        got = raw_features(events)
        assert got["messages_count"] == 1.0
        assert got["rating_count"] == 0.0

    def test_unrated_user_defaults_to_zero(self):
        events = events_from(ActivityEvent("u", "message", at_day(1)))
        got = raw_features(events)
        assert got["rating_current"] == 0.0

    def test_other_users_ignored(self):
        events = events_from(
            ActivityEvent("v", "message", at_day(1)),
            ActivityEvent("u", "message", at_day(2)),
        )
        got = raw_features(events)
        assert got["messages_count"] == 1.0


def hand_scene():
    log = make_log(
        tx("u", "a", 0),
        tx("x", "y", 5),       # unrelated pair, outside the ego net
        tx("u", "b", 10),
        tx("c", "u", 20),
        tx("a", "b", 50),      # neighbor-neighbor edge
        tx("u", "d", 95),      # beyond the 90-day cutoff
    )
    events = events_from(
        ActivityEvent("u", "message", at_day(1)),
        ActivityEvent("u", "message", at_day(2)),
        ActivityEvent("u", "rating", at_day(5), value=8.0),
        ActivityEvent("u", "article", at_day(89)),
        ActivityEvent("u", "like", at_day(100)),   # beyond the cutoff
        ActivityEvent("v", "comment", at_day(3)),  # someone else
    )
    return log, events


class TestAssemble:
    def test_hand_checked_vector(self):
        log, events = hand_scene()
        model, labels = hand_cluster({"u": 0}, {0: "FPD"})
        v = assemble_one("u", log, events, model, labels, t_months=3)
        assert v.user == "u"
        assert v.label == "changes"
        assert v.case == "starting_high"
        f = v.features
        assert f["nodes_number"] == 4.0           # u, a, b, c
        assert f["edges_number"] == 4.0           # u->a, u->b, c->u, a->b
        assert f["density"] == pytest.approx(4 / 12)
        assert f["pickups_count"] == 1.0
        assert f["percent_of_listing_items"] == pytest.approx(2 / 3)
        assert f["clustering_coefficient"] == pytest.approx(1 / 3)
        assert f["closeness_centrality"] == pytest.approx(1.0)
        assert f["messages_count"] == 2.0
        assert f["rating_current"] == 8.0
        assert f["rating_count"] == 1.0
        assert f["articles_count"] == 1.0
        assert f["likes_count"] == 0.0

    @pytest.mark.parametrize("archetype, label, case", [
        ("FPD", "changes", "starting_high"),
        ("SAD", "stable", "starting_high"),
        ("FAD", "changes", "starting_low"),
        ("SPD", "stable", "starting_low"),
    ])
    def test_label_and_case_mapping(self, archetype, label, case):
        log, events = hand_scene()
        model, labels = hand_cluster({"u": 0}, {0: archetype})
        v = assemble_one("u", log, events, model, labels)
        assert (v.label, v.case) == (label, case)

    def test_future_data_cannot_leak(self):
        log, events = hand_scene()
        model, labels = hand_cluster({"u": 0}, {0: "FPD"})
        baseline = assemble_one("u", log, events, model, labels)

        extended_log = make_log(*transaction_rows(log),
                                tx("u", "q", 200), tx("q", "u", 300))
        extended_events = events_from(*event_rows(events),
                                      ActivityEvent("u", "message", at_day(250)))
        extended = assemble_one("u", extended_log, extended_events, model, labels)
        assert extended.features == baseline.features

    def test_unclustered_user_raises(self):
        log, events = hand_scene()
        model, labels = hand_cluster({"other": 0}, {0: "FPD"})
        with pytest.raises(KeyError):
            assemble_one("u", log, events, model, labels)

    def test_batch_matches_single_user_path(self, small_synth):
        log, events, truth = small_synth
        users = sorted(truth)[:10]
        model, labels = hand_cluster({u: 0 for u in users}, {0: "FAD"})
        X = assemble_all(users, log, events)
        table = label_scope(users, X, model, labels)
        assert X.shape == (len(users), len(FEATURE_NAMES))
        for i, u in enumerate(users):
            row, (case, label) = assemble(u, log, events, model, labels)
            assert table.users[i] == u
            assert np.array_equal(X[i], row)
            assert (LABELS[table.y[i]], table.cases[i]) == (label, case)

    def test_pagerank_blocks_do_not_change_the_rows(self, small_synth, monkeypatch):
        log, events, truth = small_synth
        users = sorted(truth)
        whole = assemble_all(users, log, events)
        monkeypatch.setattr(featureset, "_PAGERANK_BLOCK", 3)  # 40 users: a short last block
        assert np.array_equal(assemble_all(users, log, events), whole)

    def test_no_users_gives_empty_matrix(self):
        log, events = hand_scene()
        assert assemble_all([], log, events).shape == (0, len(FEATURE_NAMES))

    def test_repeated_user_gets_a_row_at_each_position(self):
        log = make_log(tx("u", "a", 0), tx("b", "u", 3), tx("a", "b", 5))
        X = assemble_all(["u", "a", "u"], log, events_from())
        assert X.shape == (3, len(FEATURE_NAMES))
        assert np.array_equal(X[0], X[2])
        assert np.array_equal(X[1], assemble_all(["a"], log, events_from())[0])


class TestFeatureMatrix:
    @staticmethod
    def table():
        X = np.array([[float(i + seed) for i in range(len(FEATURE_NAMES))]
                      for seed in (1, 2, 3)])
        return ScopeFeatures(users=("u1", "u2", "u3"), X=X, y=np.array([1, 0, 1]),
                             cases=("starting_high", "starting_high", "starting_low"))

    def test_encoding_and_order(self):
        X, y, users = self.table().rows()
        assert X.shape == (3, len(FEATURE_NAMES))
        assert list(y) == [1, 0, 1]
        assert users == ["u1", "u2", "u3"]
        assert X[0, 0] == 1.0  # first feature of u1

    def test_case_filter(self):
        X, y, users = self.table().rows(case="starting_high")
        assert users == ["u1", "u2"]
        assert list(y) == [1, 0]

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            self.table().rows(case="sideways")

    def test_empty_selection_rejected(self):
        t = self.table()
        high = ScopeFeatures(users=t.users[:2], X=t.X[:2], y=t.y[:2], cases=t.cases[:2])
        with pytest.raises(ValueError):
            high.rows(case="starting_low")


class TestValidationAndCsv:
    def test_column_layout(self):
        assert FEATURE_NAMES == NETWORK_FEATURES + RAW_FEATURES
        assert len(FEATURE_NAMES) == 15
        assert CASES == ("starting_high", "starting_low")
        assert LABELS == ("stable", "changes")

    def test_csv_header_and_int_formatting(self, tmp_path):
        row = np.zeros((1, len(FEATURE_NAMES)))
        row[0, FEATURE_NAMES.index("nodes_number")] = 7.0
        row[0, FEATURE_NAMES.index("density")] = 0.125
        table = ScopeFeatures(users=("u",), X=row, y=np.array([0]), cases=("starting_low",))
        path = tmp_path / "features.csv"
        write_features_csv(table, str(path))
        cells = ["0"] * len(FEATURE_NAMES)
        cells[FEATURE_NAMES.index("nodes_number")] = "7"
        cells[FEATURE_NAMES.index("density")] = "0.125000"
        assert path.read_bytes() == (
            f"user_id,{','.join(FEATURE_NAMES)},label,case\r\n"
            f"u,{','.join(cells)},stable,starting_low\r\n").encode()
