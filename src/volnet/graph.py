"""Directed transaction multigraph, ego networks, and per-node metrics.

Edges point lister -> collector, so out-degree counts listings and
in-degree counts pickups.  Edge weight is the transaction count for the
pair.  Closeness and the clustering coefficient are computed on the
undirected, unweighted projection.

This module owns the edge aggregate of a log: :func:`build_graph` is the
one place that sums transactions into weighted edges and adjacencies, and
one ego cut, shared by :func:`ego_network` and :func:`ego_networks`,
reads them.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Iterator, Mapping

from .ingest import TransactionLog


class PageRankError(RuntimeError):
    """Power iteration did not converge; ``last`` holds the final iterate."""

    def __init__(self, iterations: int, delta: float, last: dict[str, float]):
        super().__init__(
            f"pagerank did not converge in {iterations} iterations (L1 delta {delta:.3e})"
        )
        self.iterations = iterations
        self.delta = delta
        self.last = last


@dataclass(frozen=True)
class TransactionGraph:
    """Immutable snapshot of the network: users and weighted directed edges."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]

    def __post_init__(self):
        for (a, b), w in self.edges.items():
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if w < 1:
                raise ValueError(f"edge ({a!r}, {b!r}) with weight {w}")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) endpoint outside node set")

    @cached_property
    def out_adj(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {v: {} for v in self.nodes}
        for (a, b), w in self.edges.items():
            adj[a][b] = w
        return adj

    @cached_property
    def in_adj(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {v: {} for v in self.nodes}
        for (a, b), w in self.edges.items():
            adj[b][a] = w
        return adj

    @cached_property
    def undirected_adj(self) -> dict[str, dict[str, int]]:
        """Undirected projection; weights sum both directions."""
        adj: dict[str, dict[str, int]] = {v: {} for v in self.nodes}
        for (a, b), w in self.edges.items():
            adj[a][b] = adj[a].get(b, 0) + w
            adj[b][a] = adj[b].get(a, 0) + w
        return adj

    def _require(self, v: str) -> None:
        if v not in self.nodes:
            raise KeyError(f"unknown user {v!r}")


@dataclass(frozen=True)
class EgoNetwork:
    """``ego`` plus its direct neighbors, with all incident and
    neighbor-neighbor edges."""

    ego: str
    graph: TransactionGraph


@dataclass(frozen=True)
class DegreeRecord:
    in_weighted: int
    out_weighted: int
    in_distinct: int
    out_distinct: int


def build_graph(log: TransactionLog, until: datetime) -> TransactionGraph:
    """Aggregate transactions with ``collected_at <= until`` into a graph."""
    n = log.count_until(until)
    weights: Counter[tuple[str, str]] = Counter()
    nodes: set[str] = set()
    for t in log.transactions[:n]:
        weights[(t.lister_id, t.collector_id)] += 1
        nodes.add(t.lister_id)
        nodes.add(t.collector_id)
    return TransactionGraph(nodes=frozenset(nodes), edges=dict(weights))


def _ego_cut(u: str, out_adj: Mapping[str, Mapping[str, int]],
             in_adj: Mapping[str, Mapping[str, int]]) -> EgoNetwork:
    """Members are ``u`` and its out- and in-neighbors; edges are the
    members' out-edges that stay inside the members."""
    members = {u, *out_adj.get(u, ()), *in_adj.get(u, ())}
    edges = {(a, b): w for a in members for b, w in out_adj.get(a, {}).items()
             if b in members}
    return EgoNetwork(ego=u, graph=TransactionGraph(nodes=frozenset(members), edges=edges))


def ego_network(g: TransactionGraph, u: str) -> EgoNetwork:
    """Ego network of ``u``: nodes are {u} plus direct neighbors; edges are
    every edge incident to ``u`` plus every edge between two neighbors."""
    g._require(u)
    return _ego_cut(u, g.out_adj, g.in_adj)


def ego_networks(log: TransactionLog,
                 cutoffs: Mapping[str, datetime]) -> Iterator[tuple[str, EgoNetwork]]:
    """Yield ``(user, ego network)`` for each user in ``cutoffs``, in cutoff
    order, over the transactions with ``collected_at`` up to that user's
    cutoff.

    The adjacency grows in one pass over the log, instead of a graph
    rebuilt per user, and each ego network is built only when its turn
    comes, so a caller holds one at a time.  A user with no transaction
    by their cutoff gets an ego network of just themselves.
    """
    out_adj: dict[str, Counter[str]] = defaultdict(Counter)
    in_adj: dict[str, Counter[str]] = defaultdict(Counter)
    ptr = 0
    for u in sorted(cutoffs, key=lambda u: (cutoffs[u], u)):
        n = log.count_until(cutoffs[u])
        for t in log.transactions[ptr:n]:
            out_adj[t.lister_id][t.collector_id] += 1
            in_adj[t.collector_id][t.lister_id] += 1
        ptr = n
        yield u, _ego_cut(u, out_adj, in_adj)


def density(g: TransactionGraph) -> float:
    """Distinct directed edges over n*(n-1); 0 for graphs with <= 1 node."""
    n = len(g.nodes)
    if n <= 1:
        return 0.0
    return len(g.edges) / (n * (n - 1))


def degrees(g: TransactionGraph, v: str) -> DegreeRecord:
    g._require(v)
    return DegreeRecord(
        in_weighted=sum(g.in_adj[v].values()),
        out_weighted=sum(g.out_adj[v].values()),
        in_distinct=len(g.in_adj[v]),
        out_distinct=len(g.out_adj[v]),
    )


def pagerank(
    g: TransactionGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 500,
) -> dict[str, float]:
    """Weighted PageRank by power iteration.

    The walk follows out-edges with probability proportional to edge
    weight; dangling mass is redistributed uniformly.  Converged when the
    L1 change between iterates drops below ``tol``.

    Raises
    ------
    PageRankError
        If ``max_iter`` iterations pass without convergence; the exception
        carries the last iterate.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    order = sorted(g.nodes)
    n = len(order)
    if n == 0:
        return {}
    out_weight = {v: sum(g.out_adj[v].values()) for v in order}
    dangling = [v for v in order if out_weight[v] == 0]
    rank = {v: 1.0 / n for v in order}
    delta = float("inf")
    for _ in range(max_iter):
        dangling_mass = sum(rank[v] for v in dangling)
        nxt = {v: (1.0 - damping) / n + damping * dangling_mass / n for v in order}
        for v in order:
            if out_weight[v] == 0:
                continue
            share = damping * rank[v] / out_weight[v]
            for w, weight in g.out_adj[v].items():
                nxt[w] += share * weight
        delta = sum(abs(nxt[v] - rank[v]) for v in order)
        rank = nxt
        if delta < tol:
            return rank
    raise PageRankError(max_iter, delta, rank)


def _bfs_distances(adj: Mapping[str, Mapping[str, int]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def closeness_centrality(g: TransactionGraph, v: str) -> float:
    """Closeness on the undirected unweighted projection, with the
    reachable-fraction correction for disconnected graphs."""
    g._require(v)
    n = len(g.nodes)
    if n <= 1:
        return 0.0
    dist = _bfs_distances(g.undirected_adj, v)
    r = len(dist)  # reachable nodes, v included
    total = sum(dist.values())
    if r <= 1 or total == 0:
        return 0.0
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def clustering_coefficient(g: TransactionGraph, v: str) -> float:
    """Fraction of neighbor pairs (undirected projection) that are linked."""
    g._require(v)
    neighbors = sorted(g.undirected_adj[v])
    k = len(neighbors)
    if k < 2:
        return 0.0
    adj = g.undirected_adj
    links = 0
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1:]:
            if b in adj[a]:
                links += 1
    return 2.0 * links / (k * (k - 1))


def write_edges_csv(g: TransactionGraph, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        for (a, b), w in sorted(g.edges.items()):
            writer.writerow([a, b, w])
