"""Brute-force oracles for the log aggregates and their one owner each:
per-user row offsets (``ingest``), edges and ego cuts (``graph``) and the Louvain
objective (``community``), plus the scope independence of the feature rows
built on them (``featureset``), on small random logs (skipped without
Hypothesis)."""

from __future__ import annotations

from collections import Counter
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from volnet import community, featureset, graph, ingest  # noqa: E402
from volnet.behavior import INTERVAL_DAYS, SeriesError, dr_series  # noqa: E402

import community_reference  # noqa: E402
import graph_reference  # noqa: E402
from conftest import at_day, edges_of, make_log, tx  # noqa: E402
from ingest_reference import (ActivityEvent, event_log, transaction_log,  # noqa: E402
                              transaction_rows)

USERS = "abcdefg"
PAIRS = [(a, b) for a in USERS for b in USERS if a != b]
KINDS = ("article", "message", "like", "story", "comment", "rating")


def logs(max_size=40, max_day=800):
    """Up to ``max_size`` transactions among a few users over ~2 years;
    same-instant rows are kept, so ties in ``collected_at`` occur."""
    rows = st.tuples(st.sampled_from(PAIRS), st.integers(0, max_day), st.sampled_from((0, 12)))
    sized = st.integers(0, max_size).flatmap(lambda n: st.lists(rows, min_size=n, max_size=n))
    return sized.map(lambda drawn: make_log(*(
        tx(a, b, day, hour=hour, item=f"i{i}") for i, ((a, b), day, hour) in enumerate(drawn))))


def rows_of(log, u):
    return [t for t in transaction_rows(log) if u in (t.lister_id, t.collector_id)]


@settings(max_examples=100, deadline=None)
@given(log=logs())
def test_by_user_holds_each_users_rows_in_log_order(log):
    offsets, rows = log.by_user
    view = transaction_rows(log)
    assert len(offsets) == len(log.user_ids) + 1
    assert set(log.user_ids) == {u for t in view for u in (t.lister_id, t.collector_id)}
    for c, u in enumerate(log.user_ids):
        assert [view[i] for i in rows[offsets[c]:offsets[c + 1]]] == rows_of(log, u)
        assert [view[i] for i in log.rows_of(u)] == rows_of(log, u)
        assert log.first_activity[u] == min(t.collected_at for t in rows_of(log, u))


@settings(max_examples=100, deadline=None)
@given(log=logs(), min_count=st.integers(1, 6))
def test_filter_min_transactions_matches_oracle(log, min_count):
    counts = Counter(u for t in transaction_rows(log) for u in (t.lister_id, t.collector_id))
    kept = [t for t in transaction_rows(log)
            if counts[t.lister_id] >= min_count and counts[t.collector_id] >= min_count]
    assert transaction_rows(ingest.filter_min_transactions(log, min_count)) == tuple(kept)


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
    got = ingest.select_active_key_users(log, frozenset(key), min_span=timedelta(days=span_days),
                                         min_listing_weeks=min_weeks)
    assert got == expected


def interpolate_reference(raw: list[float | None]) -> tuple[list[float], list[bool]]:
    """``behavior._interpolate`` as it was before it became one loop over the
    gaps, kept verbatim as the reference for every imputed value."""
    defined = [i for i, v in enumerate(raw) if v is not None]
    if len(defined) < 2:
        raise SeriesError(f"only {len(defined)} defined point(s); need >= 2 to impute")
    values: list[float] = []
    mask: list[bool] = []
    first, last = defined[0], defined[-1]
    nxt = 0
    for i, v in enumerate(raw):
        if v is not None:
            values.append(v)
            mask.append(False)
            continue
        mask.append(True)
        if i < first:
            values.append(raw[first])
        elif i > last:
            values.append(raw[last])
        else:
            while defined[nxt] < i:
                nxt += 1
            lo, hi = defined[nxt - 1], defined[nxt]
            frac = (i - lo) / (hi - lo)
            values.append(raw[lo] + frac * (raw[hi] - raw[lo]))
    return values, mask


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
        inside = [t for t in transaction_rows(log) if t0 + i * step <= t.collected_at < t0 + (i + 1) * step]
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
    # every value, the imputed ones too, bit for bit
    assert list(s.values) == interpolate_reference(raw)[0]


@settings(max_examples=100, deadline=None)
@given(log=logs(), cut_days=st.dictionaries(st.sampled_from(USERS), st.integers(0, 800)))
def test_ego_networks_match_per_cutoff_graphs_and_oracle(log, cut_days):
    cutoffs = {u: at_day(d) for u, d in cut_days.items()}
    egos = dict(graph.ego_networks(log, cutoffs))
    assert set(egos) == set(cutoffs)
    for u, cutoff in cutoffs.items():
        seen = [t for t in transaction_rows(log) if t.collected_at <= cutoff]
        members = {u} | {v for t in seen if u in (t.lister_id, t.collector_id)
                         for v in (t.lister_id, t.collector_id)}
        weights = Counter((t.lister_id, t.collector_id) for t in seen
                          if t.lister_id in members and t.collector_id in members)
        ego = egos[u]
        assert ego.names == tuple(sorted(members))
        assert edges_of(ego) == dict(weights)
        g = graph.build_graph(transaction_log(seen))
        if u in g.names:
            single = graph.ego_network(g, u)
            assert single.names == ego.names
            for got, want in zip((single.src, single.dst, single.weight),
                                 (ego.src, ego.dst, ego.weight)):
                assert got.tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(log=logs(max_size=60), seed=st.integers(0, 50))
def test_louvain_is_seeded_and_reports_its_own_modularity(log, seed):
    g = graph.build_graph(log)
    p = community.louvain(g, seed=seed)
    assert community.louvain(g, seed=seed) == p
    assert p.modularity == community.modularity(g, p)
    assert sorted(set(p.assignment.values())) == list(range(p.count))
    # no community falls apart (Louvain can leave one disconnected in general)
    both: dict[str, set[str]] = {v: set() for v in g.names}
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        both[g.names[a]].add(g.names[b])
        both[g.names[b]].add(g.names[a])
    for c in range(p.count):
        members = {v for v, cc in p.assignment.items() if cc == c}
        start = next(iter(members))
        reached, stack = {start}, [start]
        while stack:
            for w in both[stack.pop()]:
                if w in members and w not in reached:
                    reached.add(w)
                    stack.append(w)
        assert reached == members


@settings(max_examples=100, deadline=None)
@given(log=logs(max_size=60), seed=st.integers(0, 50), data=st.data())
def test_louvain_equals_the_dict_reference_bit_for_bit(log, seed, data):
    g = graph.build_graph(log)
    edges = edges_of(g)
    assert community.louvain(g, seed) == community_reference.louvain(g.names, edges, seed)
    labels = data.draw(st.lists(st.integers(-3, 3), min_size=len(g.names),
                                max_size=len(g.names)))
    p = community.Partition(dict(zip(g.names, labels)), len(set(labels)), 0.0)
    assert community.modularity(g, p) == community_reference.modularity(
        g.names, edges, p.assignment)


@settings(max_examples=100, deadline=None)
@given(log=logs(), cut_days=st.dictionaries(st.sampled_from(USERS), st.integers(0, 800)))
def test_ego_metrics_equal_the_dict_reference(log, cut_days):
    cutoffs = {u: at_day(d) for u, d in cut_days.items()}
    for (u, ego), (v, members, edges) in zip(graph.ego_networks(log, cutoffs),
                                             graph_reference.ego_networks(log, cutoffs),
                                             strict=True):
        assert u == v and ego.names == tuple(sorted(members)) and edges_of(ego) == edges
        assert graph.node_metrics(ego, u) == graph_reference.node_metrics(members, edges, u)


def event_logs(max_size=30, max_day=200):
    """Up to ``max_size`` activity events of the same users; ratings carry a value."""
    rows = st.tuples(st.sampled_from(USERS), st.sampled_from(KINDS), st.integers(0, max_day))
    return st.lists(rows, max_size=max_size).map(lambda drawn: event_log(
        ActivityEvent(u, kind, at_day(day), value=float(day % 10) if kind == "rating" else None)
        for u, kind, day in drawn))


@settings(max_examples=100, deadline=None)
@given(log=logs(max_day=200), events=event_logs(), t_months=st.integers(1, 3), data=st.data())
def test_feature_rows_do_not_depend_on_who_else_is_assembled(log, events, t_months, data):
    users = sorted(log.user_ids)
    subset = data.draw(st.lists(st.sampled_from(users), unique=True) if users else st.just([]))
    everyone = featureset.assemble_all(users, log, events, t_months=t_months)
    some = featureset.assemble_all(subset, log, events, t_months=t_months)
    assert np.array_equal(some, everyone[[users.index(u) for u in subset]])
