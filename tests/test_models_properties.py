"""Property tests of the stratified folds (skipped without Hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet.models import stratified_folds  # noqa: E402

import models_reference  # noqa: E402


@st.composite
def labels_and_k(draw):
    y = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=60))
    k = draw(st.integers(min_value=2, max_value=len(y)))
    return np.array(y), k


@settings(max_examples=200, deadline=None)
@given(labels_and_k(), st.integers(min_value=0, max_value=2**32 - 1))
def test_every_index_is_tested_exactly_once(case, seed):
    y, k = case
    folds = stratified_folds(y, k, seed)
    assert len(folds) == k
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(y.size))


@settings(max_examples=200, deadline=None)
@given(labels_and_k(), st.integers(min_value=0, max_value=2**32 - 1))
def test_class_counts_within_one_of_an_even_split(case, seed):
    y, k = case
    folds = stratified_folds(y, k, seed)
    for c in np.unique(y):
        total = int(np.sum(y == c))
        for fold in folds:
            assert total // k <= int(np.sum(y[fold] == c)) <= -(-total // k)


@settings(max_examples=300, deadline=None)
@given(labels_and_k(), st.integers(min_value=0, max_value=2**32 - 1))
def test_folds_equal_the_per_index_dealing(case, seed):
    y, k = case
    got = stratified_folds(y, k, seed)
    want = models_reference.stratified_folds(y, k, seed)
    assert len(got) == len(want) == k
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
