"""Brute-force oracles for the log aggregates and their one owner each:
per-user rows (``ingest``), edges and ego cuts (``graph``) and the Louvain
objective (``community``), on small random logs (skipped without
Hypothesis)."""

from __future__ import annotations

from collections import Counter
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet import community, graph, ingest  # noqa: E402
from volnet.behavior import INTERVAL_DAYS, SeriesError, dr_series  # noqa: E402
from volnet.ingest import KeyUserSet  # noqa: E402

from conftest import at_day, make_log, tx  # noqa: E402

USERS = "abcdefg"
PAIRS = [(a, b) for a in USERS for b in USERS if a != b]


def logs(max_size=40, max_day=800):
    """Up to ``max_size`` transactions among a few users over ~2 years;
    same-instant rows are kept, so ties in ``collected_at`` occur."""
    rows = st.tuples(st.sampled_from(PAIRS), st.integers(0, max_day), st.sampled_from((0, 12)))
    sized = st.integers(0, max_size).flatmap(lambda n: st.lists(rows, min_size=n, max_size=n))
    return sized.map(lambda drawn: make_log(*(
        tx(a, b, day, hour=hour, item=f"i{i}") for i, ((a, b), day, hour) in enumerate(drawn))))


def rows_of(log, u):
    return [t for t in log.transactions if u in (t.lister_id, t.collector_id)]


@settings(max_examples=100, deadline=None)
@given(log=logs())
def test_by_user_holds_each_users_rows_in_log_order(log):
    assert set(log.by_user) == log.users
    for u in log.users:
        assert log.by_user[u] == rows_of(log, u)
        assert log.first_activity[u] == min(t.collected_at for t in rows_of(log, u))


@settings(max_examples=100, deadline=None)
@given(log=logs(), min_count=st.integers(1, 6))
def test_filter_min_transactions_matches_oracle(log, min_count):
    counts = Counter(u for t in log.transactions for u in (t.lister_id, t.collector_id))
    kept = [t for t in log.transactions
            if counts[t.lister_id] >= min_count and counts[t.collector_id] >= min_count]
    assert ingest.filter_min_transactions(log, min_count).transactions == tuple(kept)


@settings(max_examples=100, deadline=None)
@given(log=logs(), key=st.sets(st.sampled_from(USERS + "xy")),
       span_days=st.integers(0, 500), min_weeks=st.integers(1, 5))
def test_select_active_key_users_matches_oracle(log, key, span_days, min_weeks):
    expected = set()
    for u in key:
        mine = rows_of(log, u)
        if not mine:
            continue
        span = max(t.collected_at for t in mine) - min(t.collected_at for t in mine)
        weeks = {t.collected_at.isocalendar()[:2] for t in mine if t.lister_id == u}
        if span >= timedelta(days=span_days) and len(weeks) >= min_weeks:
            expected.add(u)
    got = ingest.select_active_key_users(log, KeyUserSet(frozenset(key), "predefined"),
                                         min_span=timedelta(days=span_days),
                                         min_listing_weeks=min_weeks)
    assert got.ids == expected
    assert got.origin == "predefined"


@settings(max_examples=100, deadline=None)
@given(log=logs(max_day=120), interval=st.sampled_from(sorted(INTERVAL_DAYS)),
       windows=st.integers(1, 16), user=st.sampled_from(USERS))
def test_dr_series_matches_window_count_over_the_whole_log(log, interval, windows, user):
    step = timedelta(days=INTERVAL_DAYS[interval])
    mine = rows_of(log, user)
    if not mine:
        with pytest.raises(SeriesError):
            dr_series(user, log, interval=interval, horizon=windows * step)
        return
    t0 = min(t.collected_at for t in mine)
    raw = []
    for i in range(windows):
        inside = [t for t in log.transactions if t0 + i * step <= t.collected_at < t0 + (i + 1) * step]
        listed = sum(t.lister_id == user for t in inside)
        picked = sum(t.collector_id == user for t in inside)
        raw.append(listed / (listed + picked) if listed + picked else None)
    if sum(r is not None for r in raw) < 2:
        with pytest.raises(SeriesError):
            dr_series(user, log, interval=interval, horizon=windows * step)
        return
    s = dr_series(user, log, interval=interval, horizon=windows * step)
    assert s.t0 == t0
    assert s.imputed_mask == tuple(r is None for r in raw)
    assert all(0.0 <= v <= 1.0 for v in s.values)
    assert [v for v, r in zip(s.values, raw) if r is not None] == [r for r in raw if r is not None]


@settings(max_examples=100, deadline=None)
@given(log=logs(), cut_days=st.dictionaries(st.sampled_from(USERS), st.integers(0, 800)))
def test_ego_networks_match_per_cutoff_graphs_and_oracle(log, cut_days):
    cutoffs = {u: at_day(d) for u, d in cut_days.items()}
    egos = dict(graph.ego_networks(log, cutoffs))
    assert set(egos) == set(cutoffs)
    for u, cutoff in cutoffs.items():
        seen = [t for t in log.transactions if t.collected_at <= cutoff]
        members = {u} | {v for t in seen if u in (t.lister_id, t.collector_id)
                         for v in (t.lister_id, t.collector_id)}
        weights = Counter((t.lister_id, t.collector_id) for t in seen
                          if t.lister_id in members and t.collector_id in members)
        ego = egos[u]
        assert ego.ego == u
        assert ego.graph.nodes == frozenset(members)
        assert ego.graph.edges == dict(weights)
        g = graph.build_graph(log, cutoff)
        if u in g.nodes:
            single = graph.ego_network(g, u)
            assert single.graph.nodes == ego.graph.nodes
            assert single.graph.edges == ego.graph.edges


@settings(max_examples=100, deadline=None)
@given(log=logs(max_size=60), seed=st.integers(0, 50))
def test_louvain_is_seeded_and_reports_its_own_modularity(log, seed):
    g = graph.build_graph(log, at_day(10_000))
    p = community.louvain(g, seed=seed)
    assert community.louvain(g, seed=seed) == p
    assert p.modularity == community.modularity(g, p)
    assert sorted(set(p.assignment.values())) == list(range(p.count))
    # no community falls apart (Louvain can leave one disconnected in general)
    for c in range(p.count):
        members = {v for v, cc in p.assignment.items() if cc == c}
        start = next(iter(members))
        reached, stack = {start}, [start]
        while stack:
            for w in g.undirected_adj[stack.pop()]:
                if w in members and w not in reached:
                    reached.add(w)
                    stack.append(w)
        assert reached == members
