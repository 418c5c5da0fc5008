"""Louvain community detection on the weighted undirected projection.

Partitioning reads the graph's undirected projection
(``graph.adjacency(g, "both")``, weights from both directions summed);
the optimizer is the classic two-phase scheme of seeded local moves
followed by graph aggregation, and one objective (``_phase_q``) scores
every level and the final partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import TransactionGraph, adjacency
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


def _undirected_weights(g: TransactionGraph) -> tuple[list[str], dict[int, dict[int, float]], float]:
    """Index the undirected projection's nodes; returns (nodes, adj, m)."""
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    both = adjacency(g, "both")
    # integer weights, so every float sum over them is exact
    adj = {index[v]: {index[w]: float(x) for w, x in both[v].items()} for v in nodes}
    m = sum((w for i, row in adj.items() for j, w in row.items() if i < j), 0.0)
    return nodes, adj, m


def modularity(g: TransactionGraph, p: Partition) -> float:
    """Newman modularity Q = sum_c (e_c/m - (d_c/2m)^2) of ``p`` on ``g``."""
    missing = g.nodes - p.assignment.keys()
    if missing:
        raise ValueError(f"partition does not cover {len(missing)} node(s)")
    nodes, adj, m = _undirected_weights(g)
    if m == 0.0:
        return 0.0
    com = {i: p.assignment[v] for i, v in enumerate(nodes)}
    return _phase_q(adj, dict.fromkeys(adj, 0.0), com, m, 1.0)


def _phase_q(adj, selfw, node2com, m, resolution) -> float:
    """Objective on the current (possibly aggregated) graph."""
    intra: dict[int, float] = {}
    degree: dict[int, float] = {}
    for i in adj:
        ci = node2com[i]
        degree[ci] = degree.get(ci, 0.0) + sum(adj[i].values()) + 2.0 * selfw[i]
        intra[ci] = intra.get(ci, 0.0) + selfw[i]
        for j, w in adj[i].items():
            if i < j and node2com[j] == ci:
                intra[ci] = intra.get(ci, 0.0) + w
    q = 0.0
    for c in degree:
        q += intra.get(c, 0.0) / m - resolution * (degree[c] / (2.0 * m)) ** 2
    return q


def _local_moves(adj, selfw, m, resolution, rng) -> dict[int, int]:
    """One local-move phase; returns the final node -> community map."""
    node2com = {i: i for i in adj}
    k = {i: sum(adj[i].values()) + 2.0 * selfw[i] for i in adj}
    sigma_tot = {i: k[i] for i in adj}
    order = sorted(adj)
    moved = True
    while moved:
        moved = False
        rng.shuffle(order)
        for i in order:
            old = node2com[i]
            # weight from i to each adjacent community
            links: dict[int, float] = {}
            for j, w in adj[i].items():
                links[node2com[j]] = links.get(node2com[j], 0.0) + w
            sigma_tot[old] -= k[i]
            node2com[i] = -1
            best_com, best_gain = old, links.get(old, 0.0) - resolution * sigma_tot[old] * k[i] / (2.0 * m)
            for c in sorted(links):
                if c == old:
                    continue
                gain = links[c] - resolution * sigma_tot[c] * k[i] / (2.0 * m)
                if gain > best_gain + 1e-12 or (abs(gain - best_gain) <= 1e-12 and c < best_com):
                    best_com, best_gain = c, gain
            node2com[i] = best_com
            sigma_tot[best_com] += k[i]
            if best_com != old:
                moved = True
    return node2com


def _aggregate(adj, selfw, node2com):
    """Collapse communities into super-nodes (dense re-indexing by id)."""
    coms = sorted(set(node2com.values()))
    remap = {c: i for i, c in enumerate(coms)}
    new_adj: dict[int, dict[int, float]] = {i: {} for i in range(len(coms))}
    new_self = {i: 0.0 for i in range(len(coms))}
    for i in adj:
        ci = remap[node2com[i]]
        new_self[ci] += selfw[i]
        for j, w in adj[i].items():
            cj = remap[node2com[j]]
            if i < j:
                if ci == cj:
                    new_self[ci] += w
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                    new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_self, remap


def louvain(g: TransactionGraph, seed: int = 0, resolution: float = 1.0) -> Partition:
    """Two-phase Louvain; deterministic for a fixed (graph, seed, resolution).

    Node visit order is shuffled with the seeded RNG once per sweep;
    equal-gain moves break toward the lowest community id.  Phases repeat
    until the objective gain drops below 1e-7.  For ``resolution`` != 1 the
    optimizer targets the scaled objective but the reported ``modularity``
    field is always standard Q.  ``resolution`` must be finite and > 0.
    """
    if not 0 < resolution < float("inf"):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    nodes, adj, m = _undirected_weights(g)
    n = len(nodes)
    if n == 0:
        return Partition(assignment={}, count=0, modularity=0.0)
    if m == 0.0:
        assignment = {v: i for i, v in enumerate(nodes)}
        return Partition(assignment=assignment, count=n, modularity=0.0)

    rng = random.Random(seed)
    base = adj  # the original graph's level scores the final partition
    selfw = {i: 0.0 for i in adj}
    # node index on the original graph -> community on the current level
    level_com = {i: i for i in range(n)}
    history: list[float] = []
    prev_q = -1.0
    while True:
        node2com = _local_moves(adj, selfw, m, resolution, rng)
        q = _phase_q(adj, selfw, node2com, m, resolution)
        history.append(q)
        adj, selfw, remap = _aggregate(adj, selfw, node2com)
        level_com = {i: remap[node2com[level_com[i]]] for i in level_com}
        if q - prev_q < _MIN_PHASE_GAIN:
            break
        prev_q = q

    # dense final ids by first appearance over sorted node names
    relabel: dict[int, int] = {}
    com = {i: relabel.setdefault(level_com[i], len(relabel)) for i in range(n)}
    return Partition(
        assignment={v: com[i] for i, v in enumerate(nodes)},
        count=len(relabel),
        modularity=_phase_q(base, dict.fromkeys(base, 0.0), com, m, 1.0),
        phase_modularity=tuple(history),
    )


def community_sizes(p: Partition) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for c in p.assignment.values():
        sizes[c] = sizes.get(c, 0) + 1
    return sizes


def write_partition_csv(p: Partition, path: str) -> None:
    write_rows(path, "csv", ("user_id", "community_id"), sorted(p.assignment.items()))
