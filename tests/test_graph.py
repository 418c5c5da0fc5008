"""Tests for the directed transaction graph and its per-node metrics."""

from __future__ import annotations

import numpy as np
import pytest

from volnet import graph
from volnet.graph import (
    DegreeRecord,
    PageRankError,
    TransactionGraph,
    build_graph,
    closeness_centrality,
    clustering_coefficient,
    degrees,
    density,
    ego_network,
    node_metrics,
    pagerank,
    write_edges_csv,
)

import graph_reference
from conftest import at_day, make_log, tx


def g_from(edges: dict[tuple[str, str], int], extra_nodes: tuple[str, ...] = ()) -> TransactionGraph:
    nodes = {a for a, _ in edges} | {b for _, b in edges} | set(extra_nodes)
    return TransactionGraph(nodes=frozenset(nodes), edges=edges)


class TestConstruction:
    def test_build_graph_aggregates_pair_weights(self):
        log = make_log(tx("a", "b", 1), tx("a", "b", 2), tx("b", "a", 3))
        g = build_graph(log, until=at_day(10))
        assert g.edges == {("a", "b"): 2, ("b", "a"): 1}
        assert g.nodes == frozenset({"a", "b"})

    def test_build_graph_horizon_is_inclusive(self):
        log = make_log(tx("a", "b", 1), tx("a", "c", 5), tx("a", "d", 9))
        g = build_graph(log, until=at_day(5))
        assert g.nodes == frozenset({"a", "b", "c"})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TransactionGraph(nodes=frozenset({"a"}), edges={("a", "a"): 1})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            g_from({("a", "b"): 0})

    def test_rejects_dangling_endpoint(self):
        with pytest.raises(ValueError):
            TransactionGraph(nodes=frozenset({"a"}), edges={("a", "b"): 1})

    def test_adjacency_views_are_consistent(self):
        g = g_from({("a", "b"): 2, ("b", "a"): 1, ("b", "c"): 3})
        out, into, both = (graph.adjacency(g, d) for d in ("out", "in", "both"))
        assert out["a"] == {"b": 2}
        assert into["a"] == {"b": 1}
        assert both["a"] == {"b": 3}
        assert both["b"] == {"a": 3, "c": 3}
        assert set(out["b"]) | set(into["b"]) == {"a", "c"}

    def test_adjacency_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown direction 'undirected'"):
            graph.adjacency(g_from({("a", "b"): 1}), "undirected")


class TestEgoNetwork:
    def test_members_are_ego_plus_neighbors(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1})
        ego = ego_network(g, "b")
        assert ego.nodes == frozenset({"a", "b", "c"})

    def test_includes_neighbor_neighbor_edges(self):
        g = g_from({("u", "x"): 1, ("u", "y"): 1, ("x", "y"): 4, ("y", "z"): 1})
        ego = ego_network(g, "u")
        assert ego.nodes == frozenset({"u", "x", "y"})
        assert ego.edges == {("u", "x"): 1, ("u", "y"): 1, ("x", "y"): 4}

    def test_direction_does_not_matter_for_membership(self):
        g = g_from({("x", "u"): 2})
        ego = ego_network(g, "u")
        assert ego.nodes == frozenset({"u", "x"})

    def test_unknown_user_raises(self):
        g = g_from({("a", "b"): 1})
        with pytest.raises(KeyError):
            ego_network(g, "nope")


class TestDensityAndDegrees:
    def test_density_counts_distinct_directed_edges(self):
        assert density(g_from({("a", "b"): 5})) == pytest.approx(0.5)
        both = g_from({("a", "b"): 1, ("b", "a"): 1})
        assert density(both) == pytest.approx(1.0)

    def test_density_star(self):
        g = g_from({("c", x): 1 for x in "abde"})
        assert density(g) == pytest.approx(4 / 20)

    def test_density_degenerate(self):
        assert density(TransactionGraph(nodes=frozenset(), edges={})) == 0.0
        assert density(TransactionGraph(nodes=frozenset({"a"}), edges={})) == 0.0

    def test_degree_record(self):
        g = g_from({("a", "b"): 3, ("c", "a"): 2, ("d", "a"): 1})
        assert degrees(g, "a") == DegreeRecord(
            in_weighted=3, out_weighted=3, in_distinct=2, out_distinct=1
        )
        with pytest.raises(KeyError):
            degrees(g, "zz")


def dense_pagerank(g: TransactionGraph, damping: float = 0.85) -> dict[str, float]:
    """Independent linear-algebra solution of the same walk."""
    order = sorted(g.nodes)
    n = len(order)
    idx = {v: i for i, v in enumerate(order)}
    m = np.zeros((n, n))
    succ = graph.adjacency(g)
    for v in order:
        out = succ[v]
        total = sum(out.values())
        if total == 0:
            m[idx[v], :] = 1.0 / n
        else:
            for w, weight in out.items():
                m[idx[v], idx[w]] = weight / total
    a = np.eye(n) - damping * m.T
    r = np.linalg.solve(a, np.full(n, (1.0 - damping) / n))
    r = r / r.sum()
    return {v: r[idx[v]] for v in order}


class TestPageRank:
    def test_sums_to_one(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 2, ("c", "a"): 1, ("a", "c"): 5})
        ranks = pagerank(g)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_on_symmetric_cycle(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
        ranks = pagerank(g)
        for v in "abc":
            assert ranks[v] == pytest.approx(1 / 3, abs=1e-9)

    def test_matches_dense_solution_on_random_graphs(self):
        rng = np.random.default_rng(1234)
        for trial in range(5):
            n = int(rng.integers(5, 51))
            names = [f"n{i}" for i in range(n)]
            edges = {}
            for _ in range(3 * n):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edges[(names[a], names[b])] = int(rng.integers(1, 9))
            g = TransactionGraph(nodes=frozenset(names), edges=edges)
            got = pagerank(g, tol=1e-12, max_iter=5000)
            want = dense_pagerank(g)
            gap = max(abs(got[v] - want[v]) for v in names)
            assert gap <= 1e-8, f"trial {trial}: L-inf gap {gap}"

    def test_weight_shifts_mass(self):
        heavy = pagerank(g_from({("a", "b"): 9, ("a", "c"): 1}))
        assert heavy["b"] > heavy["c"]

    def test_dangling_mass_redistributed(self):
        # b has no out-edges; its mass must not vanish.
        g = g_from({("a", "b"): 1})
        ranks = pagerank(g)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
        assert ranks["b"] > ranks["a"]

    def test_empty_graph(self):
        assert pagerank(TransactionGraph(nodes=frozenset(), edges={})) == {}

    def test_damping_validation(self):
        g = g_from({("a", "b"): 1})
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                pagerank(g, damping=bad)

    def test_non_convergence_carries_last_iterate(self):
        # Uniform start is not the fixed point here, so three sweeps cannot
        # push the L1 delta below an impossible tolerance.
        g = g_from({("a", "b"): 1, ("b", "c"): 1})
        with pytest.raises(PageRankError) as info:
            pagerank(g, tol=1e-300, max_iter=3)
        err = info.value
        assert err.iterations == 3
        assert set(err.last) == {"a", "b", "c"}
        assert sum(err.last.values()) == pytest.approx(1.0, abs=1e-6)

    def test_a_block_raises_for_its_first_unconverged_lane(self):
        # the one-node lane converges at once (delta 0) and leaves the block;
        # the path a -> b -> c cannot reach the tolerance in four iterations,
        # and the error carries its own last iterate, not the star's after it
        solo, path, star = ({"u": {}}, {"a": {"b": 1}, "b": {"c": 1}, "c": {}},
                            {"c": {"a": 1, "b": 2}, "a": {}, "b": {}})
        lanes = [graph.RankLane.of(succ) for succ in (solo, path, star)]
        with pytest.raises(PageRankError) as got:
            graph.pagerank_lanes(lanes, tol=1e-300, max_iter=4)
        with pytest.raises(PageRankError) as want:
            graph_reference.pagerank(path, tol=1e-300, max_iter=4)
        assert got.value.iterations == 4
        assert got.value.last == want.value.last and got.value.delta == want.value.delta

    def test_an_empty_block_ranks_nothing(self):
        assert graph.pagerank_lanes([]) == []


class TestClosenessCentrality:
    def test_path_graph_values(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 1})
        assert closeness_centrality(g, "b") == pytest.approx(1.0)
        assert closeness_centrality(g, "a") == pytest.approx(2 / 3)

    def test_disconnected_component_correction(self):
        g = g_from({("a", "b"): 1, ("c", "d"): 1})
        # From a: one reachable node at distance 1 of three possible peers.
        assert closeness_centrality(g, "a") == pytest.approx((1 / 1) * (1 / 3))

    def test_isolated_node_is_zero(self):
        g = g_from({("a", "b"): 1}, extra_nodes=("lonely",))
        assert closeness_centrality(g, "lonely") == 0.0

    def test_singleton_graph_is_zero(self):
        g = TransactionGraph(nodes=frozenset({"a"}), edges={})
        assert closeness_centrality(g, "a") == 0.0

    def test_direction_is_ignored(self):
        one_way = g_from({("a", "b"): 1, ("b", "c"): 1})
        other_way = g_from({("b", "a"): 1, ("c", "b"): 1})
        for v in "abc":
            assert closeness_centrality(one_way, v) == pytest.approx(
                closeness_centrality(other_way, v)
            )


class TestClusteringCoefficient:
    def test_triangle_is_one(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
        for v in "abc":
            assert clustering_coefficient(g, v) == pytest.approx(1.0)

    def test_star_center_is_zero(self):
        g = g_from({("c", x): 1 for x in "abde"})
        assert clustering_coefficient(g, "c") == 0.0

    def test_fewer_than_two_neighbors_is_zero(self):
        g = g_from({("a", "b"): 1})
        assert clustering_coefficient(g, "a") == 0.0

    def test_square_with_one_diagonal(self):
        g = g_from({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "a"): 1,
                    ("a", "c"): 1})
        assert clustering_coefficient(g, "a") == pytest.approx(2 / 3)
        assert clustering_coefficient(g, "b") == pytest.approx(1.0)

    def test_reciprocal_edges_count_once(self):
        g = g_from({("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("a", "c"): 1})
        assert clustering_coefficient(g, "c") == pytest.approx(1.0)


class TestNodeMetrics:
    GRAPHS = {
        "path": {("a", "b"): 1, ("b", "c"): 2},
        "star": {("c", x): i + 1 for i, x in enumerate("abde")},
        "reciprocal triangle": {("a", "b"): 2, ("b", "a"): 1, ("b", "c"): 3, ("c", "a"): 1},
        "two components": {("a", "b"): 1, ("c", "d"): 4, ("d", "e"): 1, ("e", "c"): 2},
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_the_single_metric_functions(self, name):
        g = g_from(self.GRAPHS[name], extra_nodes=("lonely",))
        rank = pagerank(g)
        for v in sorted(g.nodes):
            assert node_metrics(g, v) == (degrees(g, v), rank[v], closeness_centrality(g, v),
                                          clustering_coefficient(g, v))

    def test_unknown_node_raises_like_degrees(self):
        g = g_from({("a", "b"): 1})
        with pytest.raises(KeyError) as expected:
            degrees(g, "z")
        with pytest.raises(KeyError) as got:
            node_metrics(g, "z")
        assert str(got.value) == str(expected.value)


class TestEdgeListWriter:
    def test_sorted_csv(self, tmp_path):
        g = g_from({("b", "a"): 2, ("a", "b"): 1})
        path = tmp_path / "edges.csv"
        write_edges_csv(g, str(path))
        assert path.read_bytes() == b"src,dst,weight\r\na,b,1\r\nb,a,2\r\n"
