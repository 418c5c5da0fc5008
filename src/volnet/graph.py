"""Directed transaction multigraph, ego networks, and per-node metrics.

Edges point lister -> collector, so out-degree counts listings and
in-degree counts pickups.  Edge weight is the transaction count for the
pair.  Closeness and the clustering coefficient are computed on the
undirected, unweighted projection.

A graph is a plain value of nodes and weighted edges.  :func:`adjacency`
is the one place that turns edges into neighbour dicts, built when an
algorithm reads them and never cached on the graph; :func:`node_metrics`
builds each of the three views once for all of a node's metrics.
:func:`build_graph`
counts a log's (lister, collector) code pairs into edges with one
``np.unique``; :func:`ego_networks` sums them incrementally, one cutoff at
a time, and shares one ego cut with :func:`ego_network`.

PageRank has one kernel, :func:`pagerank_lanes`: one power iteration over
a block of graphs, each a lane (:class:`RankLane`) whose ranks do not depend
on the block.  :func:`pagerank` and :func:`node_metrics` are one-lane calls;
feature assembly ranks its ego networks in blocks (:func:`node_metrics_lane`).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .ingest import TransactionLog, write_rows


class PageRankError(RuntimeError):
    """Power iteration did not converge; ``last`` holds the final iterate."""

    def __init__(self, iterations: int, delta: float, last: dict[str, float]):
        super().__init__(
            f"pagerank did not converge in {iterations} iterations (L1 delta {delta:.3e})"
        )
        self.iterations = iterations
        self.delta = delta
        self.last = last


@dataclass(frozen=True, slots=True)
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

    def _require(self, v: str) -> None:
        if v not in self.nodes:
            raise KeyError(f"unknown user {v!r}")


@dataclass(frozen=True)
class DegreeRecord:
    in_weighted: int
    out_weighted: int
    in_distinct: int
    out_distinct: int


def adjacency(g: TransactionGraph, direction: str = "out") -> dict[str, dict[str, int]]:
    """Every node's weighted neighbours, filled in edge order: ``"out"``
    follows the edges, ``"in"`` reverses them, and ``"both"`` is the
    undirected projection with the two directions' weights summed."""
    if direction not in ("out", "in", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    adj: dict[str, dict[str, int]] = {v: {} for v in g.nodes}
    for (a, b), w in g.edges.items():
        if direction != "in":
            adj[a][b] = adj[a].get(b, 0) + w
        if direction != "out":
            adj[b][a] = adj[b].get(a, 0) + w
    return adj


def build_graph(log: TransactionLog, until: datetime | None = None) -> TransactionGraph:
    """Aggregate transactions with ``collected_at <= until`` (all of them
    by default) into a graph; edges follow their pair's first transaction."""
    n = len(log) if until is None else log.count_until(until)
    lister, collector = log.lister[:n], log.collector[:n]
    names = np.array(log.user_ids, dtype=object)
    pairs, first, counts = np.unique(lister.astype(np.int64) * len(names) + collector,
                                     return_index=True, return_counts=True)
    order = np.argsort(first)
    a, b = np.divmod(pairs[order], len(names))
    edges = dict(zip(zip(names[a].tolist(), names[b].tolist()), counts[order].tolist()))
    nodes = frozenset(names[np.unique(np.concatenate([lister, collector]))].tolist())
    return TransactionGraph(nodes=nodes, edges=edges)


def _ego_cut(u: str, succ: Mapping[str, Mapping[str, int]],
             pred: Mapping[str, Mapping[str, int]]) -> TransactionGraph:
    """Members are ``u`` and its out- and in-neighbors; edges are the
    members' out-edges that stay inside the members."""
    members = {u, *succ.get(u, ()), *pred.get(u, ())}
    edges = {(a, b): w for a in members for b, w in succ.get(a, {}).items()
             if b in members}
    return TransactionGraph(nodes=frozenset(members), edges=edges)


def ego_network(g: TransactionGraph, u: str) -> TransactionGraph:
    """Ego network of ``u``: nodes are {u} plus direct neighbors; edges are
    every edge incident to ``u`` plus every edge between two neighbors."""
    g._require(u)
    return _ego_cut(u, adjacency(g, "out"), adjacency(g, "in"))


def ego_networks(log: TransactionLog,
                 cutoffs: Mapping[str, datetime]) -> Iterator[tuple[str, TransactionGraph]]:
    """Yield ``(user, ego network)`` for each user in ``cutoffs``, in cutoff
    order, over the transactions with ``collected_at`` up to that user's
    cutoff.

    The adjacency grows in one pass over the log, instead of a graph
    rebuilt per user, and each ego network is built only when its turn
    comes, so a caller holds one at a time.  A user with no transaction
    by their cutoff gets an ego network of just themselves.
    """
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
        yield u, _ego_cut(u, succ, pred)


def density(g: TransactionGraph) -> float:
    """Distinct directed edges over n*(n-1); 0 for graphs with <= 1 node."""
    n = len(g.nodes)
    if n <= 1:
        return 0.0
    return len(g.edges) / (n * (n - 1))


def _degrees(succ: Mapping[str, Mapping[str, int]], pred: Mapping[str, Mapping[str, int]],
             v: str) -> DegreeRecord:
    ins, outs = pred[v], succ[v]
    return DegreeRecord(
        in_weighted=sum(ins.values()),
        out_weighted=sum(outs.values()),
        in_distinct=len(ins),
        out_distinct=len(outs),
    )


def degrees(g: TransactionGraph, v: str) -> DegreeRecord:
    g._require(v)
    return _degrees(adjacency(g, "out"), adjacency(g, "in"), v)


class RankLane(NamedTuple):
    """One graph coded for :func:`pagerank_lanes`: its nodes in sorted
    order, and its out-edges as ``(source, target, weight)`` rows of node
    codes, grouped by source in node order and in adjacency order within a
    source, the order in which the power iteration visits them. Weights are
    positive, as in a :class:`TransactionGraph`."""

    members: list[str]
    edges: np.ndarray

    @classmethod
    def of(cls, succ: Mapping[str, Mapping[str, int]]) -> RankLane:
        members = sorted(succ)
        code = {v: i for i, v in enumerate(members)}
        edges = [(i, code[w], weight) for i, v in enumerate(members)
                 for w, weight in succ[v].items()]
        return cls(members, np.array(edges, dtype=np.int64).reshape(-1, 3))

    def rank_of(self, v: str, ranks: np.ndarray) -> float:
        """``v``'s entry of this lane's :func:`pagerank_lanes` result."""
        return ranks.item(self.members.index(v))


def pagerank_lanes(lanes: Sequence[RankLane], damping: float = 0.85, tol: float = 1e-9,
                   max_iter: int = 500) -> list[np.ndarray]:
    """Weighted PageRank of every lane (each with at least one node), in
    sorted node order, from one power iteration over the block.

    Lanes are the rows of arrays padded to the largest lane with zeros, and
    each row sees the float operations of a one-graph loop in its order:
    ``nxt`` starts from the teleport plus dangling term, ``np.add.at``
    over the edges replays ``nxt[w] += share * weight`` edge by edge, and
    the dangling mass and the L1 delta are left-to-right sums (``cumsum``
    along the padded rows). A lane leaves the block once its delta drops
    below ``tol``; if one is still in it after ``max_iter`` iterations, the
    first such lane raises :class:`PageRankError` with its own last iterate."""
    if not lanes:
        return []
    sizes = np.array([len(lane.members) for lane in lanes])
    width = int(sizes.max())
    live = np.arange(len(lanes))  # the lane of each row
    edge_lane = np.repeat(live, [lane.edges.shape[0] for lane in lanes])
    src, dst, weight = np.concatenate([lane.edges for lane in lanes]).T
    weight = weight.astype(float)
    at = edge_lane * width  # each edge's row start in the flattened block
    out_weight = np.bincount(at + src, weight, len(lanes) * width).reshape(-1, width)
    valid = np.arange(width) < sizes[:, None]
    dangling = valid & (out_weight == 0)
    rank = np.where(valid, 1.0 / sizes[:, None], 0.0)
    delta = np.full(len(lanes), np.inf)
    ranks: list = [None] * len(lanes)
    for _ in range(max_iter):
        dangling_mass = np.cumsum(np.where(dangling, rank, 0.0), axis=1)[:, -1]
        base = (1.0 - damping) / sizes + damping * dangling_mass / sizes
        nxt = np.where(valid, base[:, None], 0.0)
        share = damping * rank.take(at + src) / out_weight.take(at + src)
        np.add.at(nxt.reshape(-1), at + dst, share * weight)
        delta = np.cumsum(np.abs(nxt - rank), axis=1)[:, -1]
        rank = nxt
        done = delta < tol
        if done.any():
            for row in np.flatnonzero(done).tolist():
                ranks[live[row]] = rank[row, :sizes[row]].copy()
            keep = ~done
            if not keep.any():
                return ranks
            on = keep[edge_lane]
            edge_lane = (np.cumsum(keep) - 1)[edge_lane[on]]
            src, dst, weight, at = src[on], dst[on], weight[on], edge_lane * width
            live, sizes, valid, dangling, out_weight, rank, delta = (
                a[keep] for a in (live, sizes, valid, dangling, out_weight, rank, delta))
    members = lanes[live[0]].members
    raise PageRankError(max_iter, float(delta[0]),
                        dict(zip(members, rank[0, :len(members)].tolist())))


def pagerank(
    g: TransactionGraph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 500,
) -> dict[str, float]:
    """Weighted PageRank by power iteration: :func:`pagerank_lanes` of one lane.

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
    if not g.nodes:
        return {}
    lane = RankLane.of(adjacency(g, "out"))
    return dict(zip(lane.members, pagerank_lanes([lane], damping, tol, max_iter)[0].tolist()))


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


def _closeness(both: Mapping[str, Mapping[str, int]], v: str) -> float:
    n = len(both)
    if n <= 1:
        return 0.0
    dist = _bfs_distances(both, v)
    r = len(dist)  # reachable nodes, v included
    total = sum(dist.values())
    if r <= 1 or total == 0:
        return 0.0
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def closeness_centrality(g: TransactionGraph, v: str) -> float:
    """Closeness on the undirected unweighted projection, with the
    reachable-fraction correction for disconnected graphs."""
    g._require(v)
    return _closeness(adjacency(g, "both"), v)


def _clustering(both: Mapping[str, Mapping[str, int]], v: str) -> float:
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


def clustering_coefficient(g: TransactionGraph, v: str) -> float:
    """Fraction of neighbor pairs (undirected projection) that are linked."""
    g._require(v)
    return _clustering(adjacency(g, "both"), v)


def node_metrics_lane(g: TransactionGraph,
                      v: str) -> tuple[DegreeRecord, RankLane, float, float]:
    """:func:`node_metrics` with PageRank left as ``g``'s lane, so that a
    caller can rank many graphs in one :func:`pagerank_lanes` block."""
    g._require(v)
    succ, pred, both = (adjacency(g, d) for d in ("out", "in", "both"))
    return _degrees(succ, pred, v), RankLane.of(succ), _closeness(both, v), _clustering(both, v)


def node_metrics(g: TransactionGraph, v: str) -> tuple[DegreeRecord, float, float, float]:
    """:func:`degrees`, :func:`pagerank` (at its defaults),
    :func:`closeness_centrality` and :func:`clustering_coefficient` of
    ``v``, from one build each of the three adjacency views."""
    deg, lane, closeness, clustering = node_metrics_lane(g, v)
    return deg, lane.rank_of(v, pagerank_lanes([lane])[0]), closeness, clustering


def write_edges_csv(g: TransactionGraph, path: str) -> None:
    write_rows(path, "csv", ("src", "dst", "weight"), sorted((*e, w) for e, w in g.edges.items()))
