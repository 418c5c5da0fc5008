"""Property tests of the PageRank lanes against the dict power iteration
of ``graph_reference`` (skipped without Hypothesis)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet import graph  # noqa: E402
from volnet.graph import PageRankError, pagerank_lanes  # noqa: E402

import graph_reference as ref  # noqa: E402
from conftest import graph_of  # noqa: E402


@st.composite
def out_adjacency(draw):
    """A weighted digraph as ``{node: {target: weight}}``: 1 to 12 nodes
    (so some graphs are one node), self-loop free, with edges inserted in
    drawn order, so a source's targets are not sorted, and nodes without
    out-edges (dangling) in most graphs."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    succ: dict[str, dict[str, int]] = {v: {} for v in names}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9))
    for a, b, w in draw(st.lists(pairs, max_size=3 * n)):
        if a != b:
            succ[names[a]][names[b]] = w
    return succ


def grouped(succ):
    """``succ``'s graph, its edges grouped by source in ``succ``'s order."""
    return graph_of({(v, w): x for v in succ for w, x in succ[v].items()}, succ)


def interleaved(succ, data):
    """``succ``'s graph, its sources' edges interleaved in a drawn order
    that keeps each source's own order (as first-transaction order does)."""
    turns = data.draw(st.permutations([v for v in succ for _ in succ[v]]))
    targets = {v: iter(succ[v]) for v in succ}
    return graph_of({(v, w): succ[v][w] for v in turns for w in [next(targets[v])]}, succ)


damping = st.sampled_from([0.5, 0.85, 0.95])
tol = st.sampled_from([1e-6, 1e-9, 1e-12])


@settings(max_examples=300, deadline=None)
@given(st.lists(out_adjacency(), min_size=1, max_size=6), damping, tol, st.data())
def test_every_lane_equals_its_dict_loop_bit_for_bit(graphs, d, t, data):
    # lanes of a block converge at different iterations and leave it then;
    # interleaving sources' edges changes no bit, as long as each source
    # keeps its own order
    block = [grouped(succ) for succ in graphs]
    mixed = [interleaved(succ, data) for succ in graphs]
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("_DAMPING", d), ("_TOL", t), ("_MAX_ITER", 5000)):
            patch.setattr(graph, name, value)
        ranked = zip(pagerank_lanes(block), pagerank_lanes(mixed))
    for g, succ, (got, again) in zip(block, graphs, ranked):
        want = ref.pagerank(succ, d, t, max_iter=5000)
        assert g.names == tuple(want)
        assert got.tolist() == list(want.values()) == again.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(out_adjacency(), min_size=2, max_size=5), st.integers(1, 6))
def test_non_convergence_raises_the_first_unconverged_lanes_iterate(graphs, max_iter):
    # a one-node lane converges at once (delta 0), and so can a graph that
    # starts at its fixed point; the error belongs to the first lane that
    # is still iterating, as in one dict loop per graph run in order
    lanes = [grouped({"only": {}})] + [grouped(succ) for succ in graphs]
    want = None
    for succ in graphs:
        try:
            ref.pagerank(succ, tol=1e-300, max_iter=max_iter)
        except PageRankError as exc:
            want = exc
            break
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_TOL", 1e-300)
        patch.setattr(graph, "_MAX_ITER", max_iter)
        if want is None:
            pagerank_lanes(lanes)
            return
        with pytest.raises(PageRankError) as got:
            pagerank_lanes(lanes)
    assert (got.value.iterations, got.value.delta) == (want.iterations, want.delta)
    assert list(got.value.last.items()) == list(want.last.items())
