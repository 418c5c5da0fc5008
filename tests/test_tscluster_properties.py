"""Property tests of the warping distances (skipped without Hypothesis)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet.tscluster import dtw, dtw_path, euclidean_sq  # noqa: E402

from dtw_reference import dtw_brute  # noqa: E402

values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
series = st.lists(values, min_size=1, max_size=12)
small_ints = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)


@st.composite
def equal_length_pairs(draw):
    length = draw(st.integers(min_value=1, max_value=12))
    pair = st.lists(values, min_size=length, max_size=length)
    return draw(pair), draw(pair)


@settings(max_examples=200, deadline=None)
@given(series, series)
def test_dtw_is_symmetric(a, b):
    assert dtw(a, b) == dtw(b, a)


@settings(max_examples=100, deadline=None)
@given(series)
def test_dtw_is_zero_on_self(a):
    assert dtw(a, a) == 0.0


@settings(max_examples=200, deadline=None)
@given(equal_length_pairs())
def test_dtw_at_most_euclidean(pair):
    a, b = pair
    assert dtw(a, b) <= euclidean_sq(a, b) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(small_ints, small_ints)
def test_dtw_matches_exhaustive_minimum(a, b):
    assert dtw(a, b) == dtw_brute(a, b)


@settings(max_examples=200, deadline=None)
@given(series, series)
def test_path_is_monotone_and_priced_at_dtw(a, b):
    cost, path = dtw_path(a, b)
    assert path[0] == (0, 0)
    assert path[-1] == (len(a) - 1, len(b) - 1)
    for (i1, j1), (i2, j2) in zip(path, path[1:]):
        assert (i2 - i1, j2 - j1) in {(1, 1), (1, 0), (0, 1)}
    assert cost == dtw(a, b)
    assert sum((a[i] - b[j]) ** 2 for i, j in path) == pytest.approx(cost, rel=1e-12, abs=1e-12)

