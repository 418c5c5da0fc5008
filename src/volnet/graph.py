"""Directed transaction multigraph, ego networks, and per-node metrics.

Edges point lister -> collector, so out-degree counts listings and
in-degree counts pickups.  Edge weight is the transaction count for the
pair.  Closeness and the clustering coefficient are computed on the
undirected, unweighted projection.

A graph has one form, :class:`TransactionGraph`: the sorted node names,
whose indices are the node codes, and three integer arrays that list the
edges as (source, target, weight) codes.  Every algorithm reads those
arrays: degrees and the hub rule are bincounts or masks, closeness is a
frontier BFS, and Louvain (``community``) and :class:`RankLane` sort them.
:func:`build_graph` keeps the pair codes of one ``np.unique`` over a log,
in first-transaction order; :func:`ego_networks` sums them incrementally,
one cutoff at a time, and shares one ego cut with :func:`ego_network`.

PageRank has one kernel, :func:`pagerank_lanes`: one power iteration over
a block of graphs, each a lane (:class:`RankLane`) whose ranks do not depend
on the block.  :func:`pagerank` and :func:`node_metrics` are one-lane calls;
feature assembly ranks its ego networks in blocks (:func:`node_metrics_lane`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
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


@dataclass(frozen=True, eq=False)
class TransactionGraph:
    """Immutable snapshot of the network.  ``names`` holds the users in
    sorted order, and a user's code is its index there; edge ``e`` runs
    from ``src[e]`` to ``dst[e]`` with integer ``weight[e] >= 1``, and no
    ordered pair repeats."""

    names: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        names, n, src, dst, weight = self.names, len(self.names), self.src, self.dst, self.weight
        if any(a >= b for a, b in zip(names, names[1:])):
            raise ValueError("node names must be sorted and distinct")
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"
                   for a in (src, dst, weight)):
            raise ValueError("src, dst and weight must be one-dimensional integer arrays")
        if not len(src) == len(dst) == len(weight):
            raise ValueError("src, dst and weight differ in length")
        if len(src) and not (min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < n):
            raise ValueError(f"an edge endpoint code is outside [0, {n})")
        if (src == dst).any():
            raise ValueError("an edge is a self-loop")
        if (weight < 1).any():
            raise ValueError("an edge weight is below 1")
        if len(np.unique(src.astype(np.int64) * n + dst)) < len(src):
            raise ValueError("an edge repeats")

    def code(self, v: str) -> int:
        """``v``'s index in ``names``."""
        i = bisect_left(self.names, v)
        if i == len(self.names) or self.names[i] != v:
            raise KeyError(f"unknown user {v!r}")
        return i


@dataclass(frozen=True)
class DegreeRecord:
    in_weighted: int
    out_weighted: int
    in_distinct: int
    out_distinct: int


def build_graph(log: TransactionLog, until: datetime | None = None) -> TransactionGraph:
    """Aggregate transactions with ``collected_at <= until`` (all of them
    by default) into a graph; edges follow their pair's first transaction."""
    n = len(log) if until is None else log.count_until(until)
    width = len(log.user_ids)
    pairs, first, counts = np.unique(log.lister[:n].astype(np.int64) * width + log.collector[:n],
                                     return_index=True, return_counts=True)
    order = np.argsort(first)
    a, b = np.divmod(pairs[order], width)
    by_name = sorted(np.unique(np.concatenate([a, b])).tolist(), key=log.user_ids.__getitem__)
    code = np.zeros(width, dtype=np.int64)
    code[by_name] = np.arange(len(by_name))
    return TransactionGraph(tuple(log.user_ids[c] for c in by_name), code[a], code[b],
                            counts[order])


def _ego_cut(u: int, names: Sequence[str], succ: Mapping[int, Mapping[int, int]],
             pred: Mapping[int, Mapping[int, int]]) -> TransactionGraph:
    """The ego network of node ``u`` of the graph whose out- and
    in-neighbours ``succ`` and ``pred`` hold, in codes of ``names`` (sorted):
    its members are ``u`` and its neighbours, and its edges the members'
    out-edges that stay inside the members, grouped by source and in
    ``succ`` order within a source."""
    members = sorted({u, *succ.get(u, ()), *pred.get(u, ())})
    local = {c: i for i, c in enumerate(members)}
    rows = [(i, j, w) for i, a in enumerate(members) for b, w in succ.get(a, {}).items()
            if (j := local.get(b)) is not None]
    src, dst, weight = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return TransactionGraph(tuple(names[c] for c in members), src, dst, weight)


def ego_network(g: TransactionGraph, u: str) -> TransactionGraph:
    """Ego network of ``u``: nodes are {u} plus direct neighbors; edges are
    every edge incident to ``u`` plus every edge between two neighbors."""
    i, succ, pred = g.code(u), defaultdict(dict), defaultdict(dict)
    for a, b, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
        succ[a][b] = pred[b][a] = w
    return _ego_cut(i, g.names, succ, pred)


def ego_networks(log: TransactionLog,
                 cutoffs: Mapping[str, datetime]) -> Iterator[tuple[str, TransactionGraph]]:
    """Yield ``(user, ego network)`` for each user in ``cutoffs``, in cutoff
    order, over the transactions with ``collected_at`` up to that user's
    cutoff.

    The adjacency grows in one pass over the log, keyed by each user's rank
    among the log's sorted names, instead of a graph rebuilt per user, and
    each ego network is cut only when its turn comes, so a caller holds one
    at a time.  A user with no transaction by their cutoff gets an ego
    network of just themselves.
    """
    names = sorted(log.user_ids)
    rank = {u: i for i, u in enumerate(names)}
    code = np.array([rank[u] for u in log.user_ids], dtype=np.int64)
    lister, collector = code[log.lister], code[log.collector]
    succ: dict[int, Counter[int]] = defaultdict(Counter)
    pred: dict[int, Counter[int]] = defaultdict(Counter)
    ptr = 0
    for u in sorted(cutoffs, key=lambda u: (cutoffs[u], u)):
        n = log.count_until(cutoffs[u])
        for a, b in zip(lister[ptr:n].tolist(), collector[ptr:n].tolist()):
            succ[a][b] += 1
            pred[b][a] += 1
        ptr = n
        yield u, (_ego_cut(rank[u], names, succ, pred) if u in rank
                  else TransactionGraph((u,), *np.zeros((3, 0), dtype=np.int64)))


def density(g: TransactionGraph) -> float:
    """Distinct directed edges over n*(n-1); 0 for graphs with <= 1 node."""
    n = len(g.names)
    if n <= 1:
        return 0.0
    return len(g.src) / (n * (n - 1))


def degrees(g: TransactionGraph, v: str) -> DegreeRecord:
    i = g.code(v)
    ins, outs = g.dst == i, g.src == i
    return DegreeRecord(
        in_weighted=int(g.weight[ins].sum()),
        out_weighted=int(g.weight[outs].sum()),
        in_distinct=int(ins.sum()),
        out_distinct=int(outs.sum()),
    )


class RankLane(NamedTuple):
    """One graph coded for :func:`pagerank_lanes`: its nodes in sorted
    order, and its edges as ``(source, target, weight)`` rows of node
    codes, grouped by source in node order and in the graph's edge order
    within a source, the order in which the power iteration visits them."""

    members: list[str]
    edges: np.ndarray

    @classmethod
    def of(cls, g: TransactionGraph) -> RankLane:
        order = np.argsort(g.src, kind="stable")
        return cls(list(g.names), np.stack([g.src, g.dst, g.weight], axis=1)[order].astype(np.int64))

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
    if not g.names:
        return {}
    lane = RankLane.of(g)
    return dict(zip(lane.members, pagerank_lanes([lane], damping, tol, max_iter)[0].tolist()))


def closeness_centrality(g: TransactionGraph, v: str) -> float:
    """Closeness on the undirected unweighted projection, with the
    reachable-fraction correction for disconnected graphs; hops come from a
    BFS that visits one frontier at a time."""
    n = len(g.names)
    dist = np.full(n, -1)
    dist[g.code(v)] = 0
    frontier = dist == 0
    while frontier.any():
        reached = np.zeros_like(frontier)
        reached[g.dst[frontier[g.src]]] = reached[g.src[frontier[g.dst]]] = True
        frontier = reached & (dist < 0)
        dist[frontier] = dist.max() + 1
    r, total = int((dist >= 0).sum()), int(dist[dist > 0].sum())  # r counts v too
    if total == 0:  # nothing reachable, so r == 1
        return 0.0
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def clustering_coefficient(g: TransactionGraph, v: str) -> float:
    """Fraction of neighbor pairs (undirected projection) that are linked."""
    i, near = g.code(v), np.zeros(len(g.names), dtype=bool)
    near[g.dst[g.src == i]] = near[g.src[g.dst == i]] = True
    k = int(near.sum())
    if k < 2:
        return 0.0
    inside = near[g.src] & near[g.dst]
    lo, hi = np.minimum(g.src, g.dst)[inside], np.maximum(g.src, g.dst)[inside]
    links = len(np.unique(lo * len(g.names) + hi))  # each linked pair once
    return 2.0 * links / (k * (k - 1))


def node_metrics_lane(g: TransactionGraph,
                      v: str) -> tuple[DegreeRecord, RankLane, float, float]:
    """:func:`node_metrics` with PageRank left as ``g``'s lane, so that a
    caller can rank many graphs in one :func:`pagerank_lanes` block."""
    return (degrees(g, v), RankLane.of(g), closeness_centrality(g, v),
            clustering_coefficient(g, v))


def node_metrics(g: TransactionGraph, v: str) -> tuple[DegreeRecord, float, float, float]:
    """:func:`degrees`, :func:`pagerank` (at its defaults),
    :func:`closeness_centrality` and :func:`clustering_coefficient` of ``v``."""
    deg, lane, closeness, clustering = node_metrics_lane(g, v)
    return deg, lane.rank_of(v, pagerank_lanes([lane])[0]), closeness, clustering


def write_edges_csv(g: TransactionGraph, path: str) -> None:
    """One row per edge, sorted by source and then target name."""
    order = np.lexsort((g.dst, g.src))
    names = np.array(g.names, dtype=object)
    write_rows(path, "csv", ("src", "dst", "weight"), zip(
        names[g.src[order]].tolist(), names[g.dst[order]].tolist(), g.weight[order].tolist()))
