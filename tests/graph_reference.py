"""The dict power iteration that ``graph.pagerank_lanes`` replaced, kept as
a reference: the lane kernel must return the same bits for every graph."""

from __future__ import annotations

from typing import Mapping

from volnet.graph import PageRankError


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
