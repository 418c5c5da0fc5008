"""The dict Louvain that ``community``'s array levels replaced, kept as a
reference: the int-indexed dict projection of the undirected graph, the
local moves over it, its aggregation and its objective.  ``community.louvain``
must return an equal :class:`Partition`, ``modularity`` and
``phase_modularity`` included, bit for bit."""

from __future__ import annotations

import random

from volnet.community import _MIN_PHASE_GAIN, Partition

from graph_reference import Edges, adjacency


def undirected_weights(nodes, edges: Edges) -> tuple[list[str], dict[int, dict[int, float]], float]:
    """Index the undirected projection's nodes; returns (nodes, adj, m)."""
    nodes = sorted(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    both = adjacency(nodes, edges, "both")
    adj = {index[v]: {index[w]: float(x) for w, x in both[v].items()} for v in nodes}
    m = sum((w for i, row in adj.items() for j, w in row.items() if i < j), 0.0)
    return nodes, adj, m


def phase_q(adj, selfw, node2com, m, resolution) -> float:
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


def local_moves(adj, selfw, m, resolution, rng) -> dict[int, int]:
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


def aggregate(adj, selfw, node2com):
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


def modularity(nodes, edges: Edges, assignment) -> float:
    nodes, adj, m = undirected_weights(nodes, edges)
    if m == 0.0:
        return 0.0
    return phase_q(adj, dict.fromkeys(adj, 0.0),
                   {i: assignment[v] for i, v in enumerate(nodes)}, m, 1.0)


def louvain(nodes, edges: Edges, seed: int = 0, resolution: float = 1.0) -> Partition:
    nodes, adj, m = undirected_weights(nodes, edges)
    n = len(nodes)
    if n == 0:
        return Partition(assignment={}, count=0, modularity=0.0)
    if m == 0.0:
        return Partition(assignment={v: i for i, v in enumerate(nodes)}, count=n, modularity=0.0)
    rng = random.Random(seed)
    base = adj
    selfw = {i: 0.0 for i in adj}
    level_com = {i: i for i in range(n)}
    history: list[float] = []
    prev_q = -1.0
    while True:
        node2com = local_moves(adj, selfw, m, resolution, rng)
        q = phase_q(adj, selfw, node2com, m, resolution)
        history.append(q)
        adj, selfw, remap = aggregate(adj, selfw, node2com)
        level_com = {i: remap[node2com[level_com[i]]] for i in level_com}
        if q - prev_q < _MIN_PHASE_GAIN:
            break
        prev_q = q
    relabel: dict[int, int] = {}
    com = {i: relabel.setdefault(level_com[i], len(relabel)) for i in range(n)}
    return Partition(assignment={v: com[i] for i, v in enumerate(nodes)}, count=len(relabel),
                     modularity=phase_q(base, dict.fromkeys(base, 0.0), com, m, 1.0),
                     phase_modularity=tuple(history))
