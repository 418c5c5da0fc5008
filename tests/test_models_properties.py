"""Property tests of the stratified folds, the tree growers and the linear
families' solver (skipped without Hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from volnet.models import (  # noqa: E402
    _NEWTON_TOL, _eval_tree, _sigmoid, stratified_folds, train)

import models_reference  # noqa: E402
from conftest import set_hyperparams  # noqa: E402


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


@st.composite
def small_tables(draw):
    """A small table with repeated values and both labels."""
    n = draw(st.integers(min_value=2, max_value=30))
    d = draw(st.integers(min_value=1, max_value=4))
    values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                       st.floats(min_value=-3, max_value=3, allow_nan=False))
    X = draw(arrays(np.float64, (n, d), elements=values))
    y = draw(arrays(np.int64, n, elements=st.integers(min_value=0, max_value=1)))
    y[:2] = (0, 1)
    return X, y


def leaf_sizes(tree, X):
    """Each leaf's ``n``, and the rows of ``X`` that ``_eval_tree`` routes
    to it: the tree is scored with each leaf's value set to its number."""
    leaves = []

    def numbered(node):
        if "leaf" in node:
            leaves.append(node["n"])
            return {"leaf": float(len(leaves) - 1)}
        return dict(node, left=numbered(node["left"]), right=numbered(node["right"]))

    routed = np.bincount(_eval_tree(numbered(tree), X).astype(int), minlength=len(leaves))
    return leaves, routed.tolist()


@settings(max_examples=60, deadline=None)
@given(small_tables(), st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3))
def test_decision_tree_leaves_hold_the_rows_routed_to_them(table, depth, min_leaf):
    X, y = table
    with pytest.MonkeyPatch.context() as mp:
        set_hyperparams(mp, "decision_tree", max_depth=depth, min_samples_leaf=min_leaf)
        model = train("decision_tree", X, y)
    n, routed = leaf_sizes(model.parameters["tree"], X)
    assert n == routed


@settings(max_examples=60, deadline=None)
@given(small_tables(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_forest_leaves_hold_the_bootstrap_draws_routed_to_them(table, n_trees, min_leaf, seed):
    # each tree's bootstrap is the first draw of the split's generator;
    # a row drawn twice counts twice
    X, y = table
    with pytest.MonkeyPatch.context() as mp:
        set_hyperparams(mp, "random_forest", n_trees=n_trees, max_depth=4, min_samples_leaf=min_leaf)
        model = train("random_forest", X, y, seed=seed)
    samples = np.random.default_rng(seed).integers(0, y.size, size=(n_trees, y.size))
    for tree, sample in zip(model.parameters["trees"], samples, strict=True):
        n, routed = leaf_sizes(tree, X[sample])
        assert n == routed


@settings(max_examples=60, deadline=None)
@given(small_tables(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4),
       st.sampled_from([0.0, 1.0]))
def test_gbdt_rounds_update_by_the_scores_of_their_trees(table, rounds, depth, l2):
    # every round adds to each row the leaf value its new tree routes it to,
    # so its loss follows from scoring the trees, bit for bit
    X, y = table
    with pytest.MonkeyPatch.context() as mp:
        set_hyperparams(mp, "gbdt", n_rounds=rounds, max_depth=depth, l2=l2)
        params = train("gbdt", X, y).parameters
    raw = np.full(y.size, params["f0"])
    for tree, loss in zip(params["trees"], params["loss_history"], strict=True):
        n, routed = leaf_sizes(tree, X)
        assert n == routed
        raw = raw + params["learning_rate"] * _eval_tree(tree, X)
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        assert loss == float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


@settings(max_examples=60, deadline=None)
@given(small_tables(), st.sampled_from(["logistic_regression", "linear_svm"]),
       st.sampled_from([1e-3, 1.0]))
def test_linear_fits_stop_below_the_gradient_tolerance(table, algorithm, l2):
    # tiny tables are separable: the penalty alone bounds the weights
    X, y = table
    with pytest.MonkeyPatch.context() as mp:
        set_hyperparams(mp, algorithm, l2=l2)
        params = train(algorithm, X, y).parameters
    w = np.array(params["weights"] + ([params["bias"]] if "bias" in params else []))
    _, grad = models_reference.linear_objective(algorithm, X, y, l2)(w)
    assert np.abs(grad).max() < _NEWTON_TOL
