"""Directed transaction multigraph, ego networks, and per-node metrics.

Edges point lister -> collector, so out-degree counts listings and
in-degree counts pickups.  Edge weight is the transaction count for the
pair.  Closeness and the clustering coefficient are computed on the
undirected, unweighted projection.

A graph has one form, :class:`TransactionGraph`: the sorted node names,
whose indices are the node codes, and three integer arrays that list the
edges as (source, target, weight) codes.  Every algorithm reads those
arrays: degrees, ego cuts and the hub rule are bincounts or masks,
closeness is a frontier BFS, and Louvain (``community``) and PageRank sort
them.  One builder aggregates log rows into a graph, in first-transaction
order: :func:`build_graph` over the rows up to a cutoff, and
:func:`ego_networks` over each user's ego rows.

PageRank has one kernel, :func:`pagerank_lanes`: one power iteration over
a block of graphs, each a lane whose ranks do not depend on the block.
:func:`pagerank` and :func:`node_metrics` are one-graph calls; feature
assembly ranks its ego networks in blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Mapping, Sequence

import numpy as np

from .ingest import TransactionLog, _unique_codes, write_rows

_DAMPING = 0.85  # Brin & Page (1998)
_TOL = 1e-9
_MAX_ITER = 500


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
        if len(_unique_codes(src.astype(np.int64) * n + dst)[0]) < len(src):
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


def _graph_of_rows(log: TransactionLog, rows: slice | np.ndarray) -> TransactionGraph:
    """The graph of the log's ``rows`` (in log order): one edge per ordered
    pair, weighted by its row count, in the order of each pair's first row."""
    width = len(log.user_ids)
    pairs, first, counts = _unique_codes(log.lister[rows].astype(np.int64) * width
                                         + log.collector[rows])
    order = np.argsort(first)
    a, b = np.divmod(pairs[order], width)
    by_name = sorted(_unique_codes(np.concatenate([a, b]))[0].tolist(), key=log.user_ids.__getitem__)
    code = np.zeros(width, dtype=np.int64)
    code[by_name] = np.arange(len(by_name))
    return TransactionGraph(tuple(log.user_ids[c] for c in by_name), code[a], code[b],
                            counts[order])


def build_graph(log: TransactionLog) -> TransactionGraph:
    """Aggregate every transaction into a graph; edges follow their pair's
    first transaction."""
    return _graph_of_rows(log, slice(len(log)))


def ego_network(g: TransactionGraph, u: str) -> TransactionGraph:
    """Ego network of ``u``: nodes are {u} plus direct neighbors; edges are
    every edge incident to ``u`` plus every edge between two neighbors, in
    ``g``'s edge order."""
    i, near = g.code(u), np.zeros(len(g.names), dtype=bool)
    near[g.dst[g.src == i]] = near[g.src[g.dst == i]] = near[i] = True
    keep, code = near[g.src] & near[g.dst], np.cumsum(near) - 1
    return TransactionGraph(tuple(g.names[c] for c in np.flatnonzero(near).tolist()),
                            code[g.src[keep]], code[g.dst[keep]], g.weight[keep])


def ego_networks(log: TransactionLog,
                 cutoffs: Mapping[str, datetime]) -> Iterator[tuple[str, TransactionGraph]]:
    """Yield ``(user, ego network)`` for each user in ``cutoffs``, in cutoff
    order, over the transactions with ``collected_at`` up to that user's
    cutoff.

    Each ego network is the graph of the user's ego rows: the rows up to
    the cutoff of the user and their neighbours (:attr:`TransactionLog.by_user`)
    whose two users are both in the ego, so no graph of the whole log is
    built, and a caller holds one ego network at a time.  A user with no
    transaction by their cutoff gets an ego network of just themselves.
    """
    offsets, rows = log.by_user
    for u in sorted(cutoffs, key=lambda u: (cutoffs[u], u)):
        n = log.count_until(cutoffs[u])
        own = log.rows_of(u)
        own = own[:np.searchsorted(own, n)]
        if not len(own):
            yield u, TransactionGraph((u,), *np.zeros((3, 0), dtype=np.int64))
            continue
        members = np.zeros(len(log.user_ids), dtype=bool)
        members[log.lister[own]] = members[log.collector[own]] = True
        near = np.concatenate([rows[offsets[c]:offsets[c + 1]]
                               for c in np.flatnonzero(members).tolist()])
        near = near[near < n]
        inside = np.zeros(n, dtype=bool)  # a row inside the ego is near both its users
        inside[near[members[log.lister[near]] & members[log.collector[near]]]] = True
        yield u, _graph_of_rows(log, np.flatnonzero(inside))


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


def pagerank_lanes(graphs: Sequence[TransactionGraph]) -> list[np.ndarray]:
    """Weighted PageRank of every graph (each with at least one node), in
    its node order, from one power iteration over the block.

    Each graph is a lane: a row of arrays padded to the largest graph with
    zeros, and each row sees the float operations of a one-graph loop in
    its order: ``nxt`` starts from the teleport plus dangling term,
    ``np.add.at`` over the edges, sorted stably by source, replays
    ``nxt[w] += share * weight`` edge by edge, and the dangling mass and
    the L1 delta are left-to-right sums (``cumsum`` along the padded rows).
    A lane leaves the block once its delta drops below ``_TOL``; if one is
    still in it after ``_MAX_ITER`` iterations, the first such lane raises
    :class:`PageRankError` with its own last iterate."""
    if not graphs:
        return []
    sizes = np.array([len(g.names) for g in graphs])
    width = int(sizes.max())
    live = np.arange(len(graphs))  # the lane of each row
    edge_lane = np.repeat(live, [len(g.src) for g in graphs])
    src, dst, weight = (np.concatenate([getattr(g, f) for g in graphs]).astype(np.int64)
                        for f in ("src", "dst", "weight"))
    at = edge_lane * width  # each edge's row start in the flattened block
    order = np.argsort(at + src, kind="stable")
    src, dst, weight = src[order], dst[order], weight[order].astype(float)
    out_weight = np.bincount(at + src, weight, len(graphs) * width).reshape(-1, width)
    valid = np.arange(width) < sizes[:, None]
    dangling = valid & (out_weight == 0)
    rank = np.where(valid, 1.0 / sizes[:, None], 0.0)
    delta = np.full(len(graphs), np.inf)
    ranks: list = [None] * len(graphs)
    for _ in range(_MAX_ITER):
        dangling_mass = np.cumsum(np.where(dangling, rank, 0.0), axis=1)[:, -1]
        base = (1.0 - _DAMPING) / sizes + _DAMPING * dangling_mass / sizes
        nxt = np.where(valid, base[:, None], 0.0)
        share = _DAMPING * rank.take(at + src) / out_weight.take(at + src)
        np.add.at(nxt.reshape(-1), at + dst, share * weight)
        delta = np.cumsum(np.abs(nxt - rank), axis=1)[:, -1]
        rank = nxt
        done = delta < _TOL
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
    names = graphs[live[0]].names
    raise PageRankError(_MAX_ITER, float(delta[0]), dict(zip(names, rank[0, :len(names)].tolist())))


def pagerank(g: TransactionGraph) -> dict[str, float]:
    """Weighted PageRank by power iteration: :func:`pagerank_lanes` of one graph.

    The walk follows out-edges with probability proportional to edge
    weight; dangling mass is redistributed uniformly.  Converged when the
    L1 change between iterates drops below ``_TOL``.

    Raises
    ------
    PageRankError
        If ``_MAX_ITER`` iterations pass without convergence; the exception
        carries the last iterate.
    """
    if not g.names:
        return {}
    return dict(zip(g.names, pagerank_lanes([g])[0].tolist()))


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
    links = len(_unique_codes(lo * len(g.names) + hi)[0])  # each linked pair once
    return 2.0 * links / (k * (k - 1))


def node_metrics(g: TransactionGraph, v: str) -> tuple[DegreeRecord, float, float, float]:
    """:func:`degrees`, :func:`pagerank`, :func:`closeness_centrality` and
    :func:`clustering_coefficient` of ``v``."""
    return (degrees(g, v), pagerank_lanes([g])[0].item(g.code(v)), closeness_centrality(g, v),
            clustering_coefficient(g, v))


def write_edges_csv(g: TransactionGraph, path: str) -> None:
    """One row per edge, sorted by source and then target name."""
    order = np.lexsort((g.dst, g.src))
    names = np.array(g.names, dtype=object)
    write_rows(path, "csv", ("src", "dst", "weight"), zip(
        names[g.src[order]].tolist(), names[g.dst[order]].tolist(), g.weight[order].tolist()))
