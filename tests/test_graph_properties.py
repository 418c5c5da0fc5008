"""Property tests of the PageRank lanes against the dict power iteration
of ``graph_reference`` (skipped without Hypothesis)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet.graph import PageRankError, RankLane, pagerank_lanes  # noqa: E402

import graph_reference as ref  # noqa: E402


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


damping = st.sampled_from([0.5, 0.85, 0.95])
tol = st.sampled_from([1e-6, 1e-9, 1e-12])


@settings(max_examples=300, deadline=None)
@given(st.lists(out_adjacency(), min_size=1, max_size=6), damping, tol)
def test_every_lane_equals_its_dict_loop_bit_for_bit(graphs, d, t):
    # lanes of a block converge at different iterations and leave it then
    lanes = [RankLane.of(succ) for succ in graphs]
    for lane, succ, got in zip(lanes, graphs, pagerank_lanes(lanes, d, t, max_iter=5000)):
        want = ref.pagerank(succ, d, t, max_iter=5000)
        assert lane.members == list(want)
        assert got.tolist() == list(want.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(out_adjacency(), min_size=2, max_size=5), st.integers(1, 6))
def test_non_convergence_raises_the_first_unconverged_lanes_iterate(graphs, max_iter):
    # a one-node lane converges at once (delta 0), and so can a graph that
    # starts at its fixed point; the error belongs to the first lane that
    # is still iterating, as in one dict loop per graph run in order
    lanes = [RankLane.of({"only": {}})] + [RankLane.of(succ) for succ in graphs]
    want = None
    for succ in graphs:
        try:
            ref.pagerank(succ, tol=1e-300, max_iter=max_iter)
        except PageRankError as exc:
            want = exc
            break
    if want is None:
        pagerank_lanes(lanes, tol=1e-300, max_iter=max_iter)
        return
    with pytest.raises(PageRankError) as got:
        pagerank_lanes(lanes, tol=1e-300, max_iter=max_iter)
    assert (got.value.iterations, got.value.delta) == (want.iterations, want.delta)
    assert list(got.value.last.items()) == list(want.last.items())
