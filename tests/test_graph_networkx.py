"""Differential tests of the graph metrics and modularity against networkx
on seeded random directed multigraphs (skipped without networkx/scipy)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("scipy")  # networkx's pagerank runs on scipy

import numpy as np  # noqa: E402

from volnet import behavior, community, graph  # noqa: E402
from volnet.graph import DegreeRecord, build_graph  # noqa: E402

from conftest import edges_of, make_log, tx  # noqa: E402

SEEDS = range(12)


def random_rows(seed: int) -> list:
    """2-30 users; repeated pairs become edge weights, and the last fifth
    of the users never list, so PageRank meets dangling nodes."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(rng.randint(2, 30))]
    listers = users[: len(users) - max(1, len(users) // 5)]
    rows = []
    for day in range(rng.randint(1, 4 * len(users))):
        lister = rng.choice(listers)
        collector = rng.choice([u for u in users if u != lister])
        rows.append(tx(lister, collector, day))
    return rows


def random_graph(seed: int) -> graph.TransactionGraph:
    return build_graph(make_log(*random_rows(seed)))


def directed(g: graph.TransactionGraph):
    G = nx.DiGraph()
    G.add_nodes_from(g.names)
    G.add_weighted_edges_from((a, b, w) for (a, b), w in edges_of(g).items())
    return G


def undirected(g: graph.TransactionGraph):
    """Weighted undirected projection: weights of both directions summed."""
    G = nx.Graph()
    G.add_nodes_from(g.names)
    for (a, b), w in edges_of(g).items():
        previous = G.get_edge_data(a, b, {"weight": 0})["weight"]
        G.add_edge(a, b, weight=previous + w)
    return G


@pytest.mark.parametrize("seed", SEEDS)
def test_adjacency_views(seed):
    # networkx counts the transactions themselves; the arrays must hold the
    # same out- and in-neighbours, and Louvain's first level the same
    # undirected projection
    rows = random_rows(seed)
    G = nx.DiGraph()
    for t in rows:
        weight = G.get_edge_data(t.lister_id, t.collector_id, {"weight": 0})["weight"]
        G.add_edge(t.lister_id, t.collector_id, weight=weight + 1)
    g = build_graph(make_log(*rows))
    assert g.names == tuple(sorted(G))
    assert edges_of(g) == {(a, b): d["weight"] for a, b, d in G.edges(data=True)}
    for v in G:
        assert graph.degrees(g, v) == DegreeRecord(
            in_weighted=G.in_degree(v, weight="weight"), out_weighted=G.out_degree(v, weight="weight"),
            in_distinct=G.in_degree(v), out_distinct=G.out_degree(v))
    n = len(g.names)
    lo, hi, w, _ = community._collapse(g.src, g.dst, g.weight, np.zeros(n), np.arange(n), n)
    both = Counter()
    for a, b, d in G.edges(data=True):
        both[min(a, b), max(a, b)] += d["weight"]
    assert dict(zip(zip(np.array(g.names)[lo], np.array(g.names)[hi]), w.tolist())) == both


@pytest.mark.parametrize("seed", SEEDS)
def test_hubs_exceed_mean_total_degree(seed):
    g = random_graph(seed)
    G = directed(g)
    degree = {v: G.in_degree(v) + G.out_degree(v) for v in G}
    mean = sum(degree.values()) / len(degree)
    want = frozenset(v for v, d in degree.items() if d > mean)
    assert behavior.detect_hubs(g) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_pagerank(seed):
    g = random_graph(seed)
    want = nx.pagerank(directed(g), alpha=0.85, weight="weight", tol=1e-13, max_iter=10_000)
    got = graph.pagerank(g)
    assert got.keys() == want.keys()
    for v in got:
        assert got[v] == pytest.approx(want[v], abs=1e-8)


@pytest.mark.parametrize("seed", SEEDS)
def test_closeness_on_undirected_projection(seed):
    g = random_graph(seed)
    G = nx.Graph(undirected(g).edges())  # unweighted
    G.add_nodes_from(g.names)
    for v in g.names:
        want = nx.closeness_centrality(G, u=v, wf_improved=True)
        assert graph.closeness_centrality(g, v) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_clustering_on_undirected_projection(seed):
    g = random_graph(seed)
    G = nx.Graph(undirected(g).edges())  # unweighted
    G.add_nodes_from(g.names)
    want = nx.clustering(G)
    for v in g.names:
        assert graph.clustering_coefficient(g, v) == pytest.approx(want[v], abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_modularity_on_weighted_projection(seed):
    g = random_graph(seed)
    rng = random.Random(1000 + seed)
    nodes = list(g.names)
    k = rng.randint(1, min(5, len(nodes)))
    assignment = {v: rng.randrange(k) for v in nodes}
    part = community.Partition(assignment=assignment, count=k, modularity=0.0)
    groups = [{v for v in nodes if assignment[v] == c} for c in range(k)]
    want = nx.community.modularity(undirected(g), [s for s in groups if s], weight="weight")
    assert community.modularity(g, part) == pytest.approx(want, abs=1e-12)
    # and for the partition Louvain itself returns
    found = community.louvain(g, seed=seed)
    blocks = [{v for v, c in found.assignment.items() if c == i} for i in range(found.count)]
    assert found.modularity == pytest.approx(
        nx.community.modularity(undirected(g), blocks, weight="weight"), abs=1e-9)
