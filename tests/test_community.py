"""Tests for Louvain community detection and the modularity objective."""

from __future__ import annotations

import itertools

import pytest

from volnet import community
from volnet.community import (
    Partition,
    community_sizes,
    louvain,
    modularity,
    write_partition_csv,
)
from volnet.graph import TransactionGraph


def g_from(edges: dict[tuple[str, str], int]) -> TransactionGraph:
    nodes = {a for a, _ in edges} | {b for _, b in edges}
    return TransactionGraph(nodes=frozenset(nodes), edges=edges)


def clique(names: list[str]) -> dict[tuple[str, str], int]:
    return {(a, b): 1 for a, b in itertools.combinations(names, 2)}


def partition_of(groups: list[list[str]]) -> Partition:
    assignment = {v: i for i, grp in enumerate(groups) for v in grp}
    return Partition(assignment=assignment, count=len(groups), modularity=0.0)


def two_cliques_with_bridge() -> TransactionGraph:
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(5)]
    edges = clique(a) | clique(b)
    edges[("a0", "b0")] = 1
    return g_from(edges)


def all_partitions(items: list[str]):
    """Every set partition of ``items`` (restricted-growth recursion)."""
    def rec(i: int, groups: list[list[str]]):
        if i == len(items):
            yield [list(grp) for grp in groups]
            return
        for grp in groups:
            grp.append(items[i])
            yield from rec(i + 1, groups)
            grp.pop()
        groups.append([items[i]])
        yield from rec(i + 1, groups)
        groups.pop()
    yield from rec(0, [])


class TestModularity:
    def test_two_disjoint_four_cliques(self):
        g = g_from(clique(["a", "b", "c", "d"]) | clique(["e", "f", "g", "h"]))
        p = partition_of([["a", "b", "c", "d"], ["e", "f", "g", "h"]])
        assert modularity(g, p) == pytest.approx(0.5)

    def test_k6_halved_is_negative(self):
        g = g_from(clique(["a", "b", "c", "d", "e", "f"]))
        p = partition_of([["a", "b", "c"], ["d", "e", "f"]])
        assert modularity(g, p) == pytest.approx(-0.1)

    def test_two_five_cliques_with_bridge(self):
        g = two_cliques_with_bridge()
        p = partition_of([[f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]])
        assert modularity(g, p) == pytest.approx(19 / 42)

    def test_everything_in_one_community_is_zero(self):
        g = g_from(clique(["a", "b", "c", "d"]))
        p = partition_of([["a", "b", "c", "d"]])
        assert modularity(g, p) == pytest.approx(0.0)

    def test_weighted_edges(self):
        g = g_from({("a", "b"): 3, ("c", "d"): 1})
        p = partition_of([["a", "b"], ["c", "d"]])
        # m=4; Q = 3/4 - (6/8)^2 + 1/4 - (2/8)^2
        assert modularity(g, p) == pytest.approx(0.375)

    def test_reciprocal_directed_edges_symmetrize(self):
        one_way = g_from({("a", "b"): 2, ("c", "d"): 2})
        two_way = g_from({("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 1})
        p = partition_of([["a", "b"], ["c", "d"]])
        assert modularity(one_way, p) == pytest.approx(modularity(two_way, p))

    def test_uncovered_node_raises(self):
        g = g_from({("a", "b"): 1})
        with pytest.raises(ValueError):
            modularity(g, partition_of([["a"]]))


class TestLouvain:
    def test_recovers_planted_cliques(self):
        g = two_cliques_with_bridge()
        p = louvain(g, seed=3)
        assert p.count == 2
        a_ids = {p.assignment[f"a{i}"] for i in range(5)}
        b_ids = {p.assignment[f"b{i}"] for i in range(5)}
        assert len(a_ids) == 1 and len(b_ids) == 1 and a_ids != b_ids
        assert p.modularity == pytest.approx(19 / 42)

    def test_matches_exhaustive_optimum_on_small_graph(self):
        # Two triangles joined by one edge: 203 possible partitions.
        edges = clique(["a", "b", "c"]) | clique(["d", "e", "f"])
        edges[("c", "d")] = 1
        g = g_from(edges)
        best = max(
            modularity(g, partition_of(groups))
            for groups in all_partitions(sorted(g.nodes))
        )
        p = louvain(g, seed=0)
        assert best == pytest.approx(5 / 14)
        assert p.modularity == pytest.approx(best)

    def test_deterministic_for_fixed_seed(self):
        g = two_cliques_with_bridge()
        p1, p2 = louvain(g, seed=42), louvain(g, seed=42)
        assert p1.assignment == p2.assignment
        assert p1.modularity == p2.modularity
        assert p1.phase_modularity == p2.phase_modularity

    def test_community_ids_are_dense(self):
        g = two_cliques_with_bridge()
        p = louvain(g, seed=1)
        assert set(p.assignment.values()) == set(range(p.count))

    def test_phase_history_is_monotone(self):
        g = two_cliques_with_bridge()
        p = louvain(g, seed=5)
        assert len(p.phase_modularity) >= 1
        for earlier, later in zip(p.phase_modularity, p.phase_modularity[1:]):
            assert later >= earlier - 1e-9

    def test_empty_graph(self):
        p = louvain(TransactionGraph(nodes=frozenset(), edges={}))
        assert p.count == 0
        assert p.assignment == {}

    def test_edgeless_graph_gives_singletons(self):
        g = TransactionGraph(nodes=frozenset({"a", "b", "c"}), edges={})
        p = louvain(g)
        assert p.count == 3
        assert p.modularity == 0.0

    def test_reported_modularity_is_standard_even_with_resolution(self):
        g = g_from(clique(["a", "b", "c", "d", "e", "f"]))
        p = louvain(g, seed=0, resolution=4.0)
        # Whatever the scaled objective chose, the report is plain Q.
        assert p.modularity == pytest.approx(modularity(g, p))

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_resolution_is_rejected_before_any_phase(self, monkeypatch, resolution):
        # nan never stopped the phase loop (every Q was nan) and -1 returned
        # one community without a word
        def no_phase(*args):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(community, "_local_moves", no_phase)
        path = g_from({("a", "b"): 1, ("b", "c"): 1})
        with pytest.raises(ValueError, match="resolution must be finite and > 0"):
            louvain(path, resolution=resolution)


class TestPartitionHelpers:
    def test_community_sizes(self):
        p = partition_of([["a", "b", "c"], ["d"]])
        assert community_sizes(p) == {0: 3, 1: 1}

    def test_write_partition_csv(self, tmp_path):
        p = partition_of([["b", "a"], ["c"]])
        path = tmp_path / "partition.csv"
        write_partition_csv(p, str(path))
        assert path.read_bytes() == b"user_id,community_id\r\na,0\r\nb,0\r\nc,1\r\n"
