"""Louvain community detection on the weighted undirected projection.

Every level of the optimizer is one weighted undirected graph in arrays:
node pairs ``lo < hi`` with their summed weights, and each node's self
weight.  :func:`_collapse` builds one level from the one below with an
``np.unique`` over community-pair codes; the first level collapses the
directed :class:`~volnet.graph.TransactionGraph` itself, each node its own
community, so both edge directions' weights are summed.  The optimizer is
the classic two-phase scheme of seeded local moves, which read per-node
neighbour lists, followed by aggregation, and one objective
(:func:`_phase_q`) scores every level and the final partition.  Weights
are integers, so every sum of them is exact in any order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import TransactionGraph
from .ingest import write_rows

# Stop once a full local-move + aggregation phase improves the objective
# by less than this.
_MIN_PHASE_GAIN = 1e-7


@dataclass(frozen=True)
class Partition:
    """Community assignment with ids dense in [0, count)."""

    assignment: dict[str, int]
    count: int
    modularity: float
    phase_modularity: tuple[float, ...] = field(default=())


def _collapse(a, b, w, selfw, com, count):
    """The level whose ``count`` nodes are the communities ``com`` of the
    nodes of edges ``(a, b, w)`` (in either direction) and self weights
    ``selfw``: ``(lo, hi, w, selfw)``, pairs sorted by code."""
    ca, cb = com[a], com[b]
    inside = ca == cb
    selfw = np.bincount(com, selfw, count) + np.bincount(ca[inside], w[inside], count)
    lo, hi = np.minimum(ca, cb)[~inside], np.maximum(ca, cb)[~inside]
    pairs, at = np.unique(lo * count + hi, return_inverse=True)
    return pairs // count, pairs % count, np.bincount(at, w[~inside], len(pairs)), selfw


def _first_seen(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """``labels`` renumbered densely in order of first appearance, and their count."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse], len(first)


def _phase_q(lo, hi, w, selfw, node2com, m) -> float:
    """Modularity on the current (possibly aggregated) level: one term per
    community, added left to right in order of first appearance."""
    com, count = _first_seen(node2com)
    k = np.bincount(lo, w, len(com)) + np.bincount(hi, w, len(com)) + 2.0 * selfw
    inside = com[lo] == com[hi]
    intra = np.bincount(com, selfw, count) + np.bincount(com[lo[inside]], w[inside], count)
    # Python's float ** (libm pow) can differ from NumPy's square in the last bit
    spread = np.array([x ** 2 for x in (np.bincount(com, k, count) / (2.0 * m)).tolist()])
    return float(np.cumsum(intra / m - spread)[-1])


def _first_level(g: TransactionGraph):
    """``g``'s undirected projection as Louvain's first level, and its total weight."""
    n = len(g.names)
    level = _collapse(g.src, g.dst, g.weight, np.zeros(n), np.arange(n), n)
    return level, float(level[2].sum())


def modularity(g: TransactionGraph, p: Partition) -> float:
    """Newman modularity Q = sum_c (e_c/m - (d_c/2m)^2) of ``p`` on ``g``."""
    missing = [v for v in g.names if v not in p.assignment]
    if missing:
        raise ValueError(f"partition does not cover {len(missing)} node(s)")
    level, m = _first_level(g)
    if m == 0.0:
        return 0.0
    return _phase_q(*level, np.array([p.assignment[v] for v in g.names]), m)


def _local_moves(lo, hi, weight, selfw, m, rng) -> np.ndarray:
    """One local-move phase over the level's per-node neighbour lists;
    returns the final node -> community map."""
    ends = np.concatenate([lo, hi])
    by_end = np.argsort(ends, kind="stable")
    bounds = np.cumsum(np.bincount(ends, minlength=len(selfw)))[:-1]
    nbrs = [a.tolist() for a in np.split(np.concatenate([hi, lo])[by_end], bounds)]
    # integer counts as ints: a small one is CPython's shared int, not a new float
    wts = [a.tolist() for a in np.split(np.tile(weight, 2).astype(np.int64)[by_end], bounds)]
    node2com = list(range(len(selfw)))
    k = [sum(ws) + 2.0 * s for ws, s in zip(wts, selfw.tolist())]
    sigma_tot = k.copy()
    order = node2com.copy()
    moved = True
    while moved:
        moved = False
        rng.shuffle(order)
        for i in order:
            old = node2com[i]
            # weight from i to each adjacent community
            links: dict[int, float] = {}
            for j, w in zip(nbrs[i], wts[i]):
                links[node2com[j]] = links.get(node2com[j], 0.0) + w
            sigma_tot[old] -= k[i]
            best_com, best_gain = old, links.get(old, 0.0) - sigma_tot[old] * k[i] / (2.0 * m)
            for c in sorted(links):
                if c == old:
                    continue
                gain = links[c] - sigma_tot[c] * k[i] / (2.0 * m)
                if gain > best_gain + 1e-12 or (abs(gain - best_gain) <= 1e-12 and c < best_com):
                    best_com, best_gain = c, gain
            node2com[i] = best_com
            sigma_tot[best_com] += k[i]
            if best_com != old:
                moved = True
    return np.array(node2com)


def louvain(g: TransactionGraph, seed: int = 0) -> Partition:
    """Two-phase Louvain maximizing standard modularity; deterministic for a
    fixed (graph, seed).

    Node visit order is shuffled with the seeded RNG once per sweep;
    equal-gain moves break toward the lowest community id.  Phases repeat
    until the modularity gain drops below 1e-7.
    """
    n = len(g.names)
    if n == 0:
        return Partition(assignment={}, count=0, modularity=0.0)
    base, m = _first_level(g)  # the original graph's level scores the final partition
    if m == 0.0:
        return Partition(assignment=dict(zip(g.names, range(n))), count=n, modularity=0.0)

    rng = random.Random(seed)
    level = base
    # node index on the original graph -> community on the current level
    level_com = np.arange(n)
    history: list[float] = []
    prev_q = -1.0
    while True:
        node2com = _local_moves(*level, m, rng)
        q = _phase_q(*level, node2com, m)
        history.append(q)
        coms, remap = np.unique(node2com, return_inverse=True)  # dense by id
        level = _collapse(*level, remap, len(coms))
        level_com = remap[level_com]
        if q - prev_q < _MIN_PHASE_GAIN:
            break
        prev_q = q

    # dense final ids by first appearance over sorted node names
    com, count = _first_seen(level_com)
    return Partition(
        assignment=dict(zip(g.names, com.tolist())),
        count=count,
        modularity=_phase_q(*base, com, m),
        phase_modularity=tuple(history),
    )


def community_sizes(p: Partition) -> dict[int, int]:
    return dict(Counter(p.assignment.values()))


def write_partition_csv(p: Partition, path: str) -> None:
    write_rows(path, "csv", ("user_id", "community_id"), sorted(p.assignment.items()))
