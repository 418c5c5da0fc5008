"""The dict forms of the graph that ``graph.TransactionGraph``'s arrays
replaced, kept as references: the neighbour dicts of the old
``graph.adjacency``, the incremental ego cut over them, the per-node
metrics read from them, and the dict power iteration that
``graph.pagerank_lanes`` replaced.  The array code must return the same
values, and the same bits, for every graph."""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from datetime import datetime
from typing import Iterable, Iterator, Mapping

from volnet.graph import DegreeRecord, PageRankError
from volnet.ingest import TransactionLog

Edges = Mapping[tuple[str, str], int]


def adjacency(nodes: Iterable[str], edges: Edges,
              direction: str = "out") -> dict[str, dict[str, int]]:
    """Every node's weighted neighbours, filled in edge order: ``"out"``
    follows the edges, ``"in"`` reverses them, and ``"both"`` is the
    undirected projection with the two directions' weights summed."""
    adj: dict[str, dict[str, int]] = {v: {} for v in nodes}
    for (a, b), w in edges.items():
        if direction != "in":
            adj[a][b] = adj[a].get(b, 0) + w
        if direction != "out":
            adj[b][a] = adj[b].get(a, 0) + w
    return adj


def ego_cut(u: str, succ: Mapping[str, Mapping[str, int]],
            pred: Mapping[str, Mapping[str, int]]) -> tuple[frozenset[str], dict]:
    """``(members, edges)``: members are ``u`` and its out- and
    in-neighbours; edges are the members' out-edges that stay inside."""
    members = {u, *succ.get(u, ()), *pred.get(u, ())}
    edges = {(a, b): w for a in members for b, w in succ.get(a, {}).items() if b in members}
    return frozenset(members), edges


def ego_networks(log: TransactionLog, cutoffs: Mapping[str, datetime]) -> Iterator[tuple]:
    """``(user, members, edges)`` per user of ``cutoffs`` in cutoff order,
    from name-keyed counters grown in one pass over the log."""
    names = log.user_ids
    succ: dict[str, Counter[str]] = defaultdict(Counter)
    pred: dict[str, Counter[str]] = defaultdict(Counter)
    ptr = 0
    for u in sorted(cutoffs, key=lambda u: (cutoffs[u], u)):
        n = log.count_until(cutoffs[u])
        for a, b in zip(log.lister[ptr:n].tolist(), log.collector[ptr:n].tolist()):
            succ[names[a]][names[b]] += 1
            pred[names[b]][names[a]] += 1
        ptr = n
        yield (u, *ego_cut(u, succ, pred))


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


def closeness(both: Mapping[str, Mapping[str, int]], v: str) -> float:
    n = len(both)
    if n <= 1:
        return 0.0
    dist = _bfs_distances(both, v)
    r = len(dist)  # reachable nodes, v included
    total = sum(dist.values())
    if r <= 1 or total == 0:
        return 0.0
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def clustering(both: Mapping[str, Mapping[str, int]], v: str) -> float:
    neighbors = sorted(both[v])
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1:]:
            if b in both[a]:
                links += 1
    return 2.0 * links / (k * (k - 1))


def node_metrics(nodes: Iterable[str], edges: Edges, v: str) -> tuple:
    """``(degree record, pagerank, closeness, clustering)`` of ``v``, from
    one build each of the three adjacency views; PageRank is :func:`pagerank`
    over the out-adjacency, which keeps ``edges``' order within a source."""
    succ, pred, both = (adjacency(nodes, edges, d) for d in ("out", "in", "both"))
    deg = DegreeRecord(in_weighted=sum(pred[v].values()), out_weighted=sum(succ[v].values()),
                       in_distinct=len(pred[v]), out_distinct=len(succ[v]))
    return deg, pagerank(succ)[v], closeness(both, v), clustering(both, v)


def pagerank(succ: Mapping[str, Mapping[str, int]], damping: float = 0.85,
             tol: float = 1e-9, max_iter: int = 500) -> dict[str, float]:
    """PageRank of the graph whose out-adjacency is ``succ`` (every node a
    key), visiting nodes in sorted order and each node's edges in ``succ``'s."""
    order = sorted(succ)
    n = len(order)
    if n == 0:
        return {}
    out_weight = {v: sum(succ[v].values()) for v in order}
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
            for w, weight in succ[v].items():
                nxt[w] += share * weight
        delta = sum(abs(nxt[v] - rank[v]) for v in order)
        rank = nxt
        if delta < tol:
            return rank
    raise PageRankError(max_iter, delta, rank)
