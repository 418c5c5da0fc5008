"""Tests for the from-scratch classifiers and cross-validation."""

from __future__ import annotations

import json
import warnings
from functools import partial

import numpy as np
import pytest

from volnet._lanes import lockstep
from volnet.models import (
    _TreeRule,
    _eval_tree,
    _fit_linear_svm,
    _gini_gain,
    _grow,
    _ranks,
    _second_order_gain,
    _split_lanes,
    ALGORITHMS,
    DEFAULT_HYPERPARAMS,
    TrainedClassifier,
    kfold_cv,
    load_model,
    metrics,
    predict,
    predict_labels,
    save_model,
    stratified_folds,
    train,
    write_eval_csv,
)

import models_reference as ref


def separable(n_per: int = 20, d: int = 3, seed: int = 0, gap: float = 3.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 0.5, size=(n_per, d))
    X1 = rng.normal(gap, 0.5, size=(n_per, d))
    X = np.vstack([X0, X1])
    y = np.array([0] * n_per + [1] * n_per)
    perm = rng.permutation(2 * n_per)
    return X[perm], y[perm]


def xor_data(copies: int = 1):
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.vstack([base] * copies)
    y = np.array([0, 1, 1, 0] * copies)
    return X, y


FAST = {
    "naive_bayes": {},
    "decision_tree": {},
    "logistic_regression": {"epochs": 300},
    "random_forest": {"n_trees": 30},
    "linear_svm": {"epochs": 100},
    "gbdt": {"n_rounds": 30},
}


class TestTrainValidation:
    def test_unknown_algorithm(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train("perceptron", X, y)

    def test_unknown_hyperparameter(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train("decision_tree", X, y, hyperparams={"depth": 3})

    @pytest.mark.parametrize("algorithm, key, value", [
        ("random_forest", "n_trees", 0),
        ("gbdt", "n_rounds", -3),
        ("linear_svm", "epochs", 2.0),
        ("decision_tree", "max_depth", True),
        ("random_forest", "min_samples_leaf", 0),
        ("linear_svm", "l2", 0),
        ("gbdt", "l2", -1),
        ("logistic_regression", "learning_rate", 0.0),
        ("naive_bayes", "var_floor", -1e-9),
        ("gbdt", "learning_rate", float("inf")),
    ])
    def test_out_of_range_hyperparameter_names_family_and_key(self, algorithm, key, value):
        # one case per rule: counts are ints >= 1 and not bools; linear_svm's
        # l2 > 0, other l2 >= 0; learning_rate and var_floor > 0; all finite
        X, y = separable(n_per=10)
        with pytest.raises(ValueError, match=f"{algorithm} hyperparameter {key} "):
            train(algorithm, X, y, hyperparams={key: value})
        with pytest.raises(ValueError, match=f"{algorithm} hyperparameter {key} "):
            kfold_cv(algorithm, [(X, y)], hyperparams={key: value})

    def test_in_range_hyperparameter_edges_are_accepted(self):
        X, y = separable(n_per=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algorithm, hp in [("gbdt", {"l2": 0.0, "n_rounds": 1, "max_depth": 1}),
                                  ("logistic_regression", {"l2": 0, "epochs": np.int64(2)}),
                                  ("random_forest", {"n_trees": 1, "min_samples_leaf": 1})]:
                kfold_cv(algorithm, [(X, y)], k=2, hyperparams=hp)

    def test_shape_and_label_checks(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train("decision_tree", X, y[:-1])
        with pytest.raises(ValueError):
            train("decision_tree", X, np.full(y.shape, 2))
        with pytest.raises(ValueError):
            train("decision_tree", X[:1], y[:1])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fractional_labels_are_rejected_not_truncated(self, algorithm):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="labels"):
            train(algorithm, X, [0.5, 0.7, 1.0, 1.2])
        X, y = separable(n_per=10)
        with pytest.raises(ValueError, match="labels"):
            kfold_cv(algorithm, [(X, y + 0.25)], k=2, hyperparams=FAST[algorithm])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, algorithm, bad):
        X, y = separable(n_per=10)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            train(algorithm, X, y, hyperparams=FAST[algorithm])
        with pytest.raises(ValueError, match="finite"):
            kfold_cv(algorithm, [(X, y)], k=2, hyperparams=FAST[algorithm])

    def test_float_and_bool_labels_of_zero_and_one_are_accepted(self):
        X, y = separable(n_per=10)
        as_int = train("naive_bayes", X, y)
        assert train("naive_bayes", X, y.astype(float)).parameters == as_int.parameters
        assert train("naive_bayes", X, y.astype(bool)).parameters == as_int.parameters

    def test_feature_names(self):
        X, y = separable(d=3)
        named = train("decision_tree", X, y, feature_names=("a", "b", "c"))
        assert named.feature_names == ("a", "b", "c")
        default = train("decision_tree", X, y)
        assert default.feature_names == ("f0", "f1", "f2")
        with pytest.raises(ValueError):
            train("decision_tree", X, y, feature_names=("a",))

    def test_scoring_rejects_wrong_arity(self):
        X, y = separable(d=3)
        model = train("naive_bayes", X, y)
        with pytest.raises(ValueError):
            model.scores(np.zeros((2, 5)))

    def test_single_class_degenerates_with_warning(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        with pytest.warns(UserWarning):
            model = train("gbdt", X, y)
        assert list(model.scores(X)) == [1.0, 1.0, 1.0]
        assert predict(model, [5.0]) == (1, 1.0)


class TestAllFamilies:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fits_separable_data(self, algorithm):
        X, y = separable(seed=3)
        model = train(algorithm, X, y, hyperparams=FAST[algorithm], seed=0)
        acc = metrics(y, predict_labels(model, X))["accuracy"]
        assert acc >= 0.95, f"{algorithm}: training accuracy {acc}"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scores_are_probabilities(self, algorithm):
        X, y = separable(seed=5)
        model = train(algorithm, X, y, hyperparams=FAST[algorithm], seed=0)
        s = model.scores(X)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_deterministic_for_fixed_seed(self, algorithm):
        X, y = separable(seed=7)
        probe = np.random.default_rng(1).normal(1.5, 1.0, size=(10, X.shape[1]))
        s1 = train(algorithm, X, y, hyperparams=FAST[algorithm], seed=4).scores(probe)
        s2 = train(algorithm, X, y, hyperparams=FAST[algorithm], seed=4).scores(probe)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_rows_score_does_not_depend_on_its_batch(self, algorithm):
        # BLAS ``@`` and a pairwise mean over one row gave other bits for a
        # row scored alone than inside a batch, and by its position in it
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 15))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0.0, 0.5, 200) > 0).astype(int)
        hp = {"random_forest": {"n_trees": 40}, "gbdt": {"n_rounds": 20}}.get(algorithm)
        model = train(algorithm, X, y, hyperparams=hp, seed=1)
        B = rng.normal(0.0, 1.5, size=(4800, 15))
        batch = model.scores(B)
        for i in (0, 1, 7, 2399, 4798, 4799):
            assert model.scores(B[i:i + 1])[0] == batch[i]
        assert np.array_equal(model.scores(B[::7]), batch[::7])
        assert np.array_equal(model.scores(B[::-1]), batch[::-1])
        assert np.array_equal(model.scores(B[13:613]), batch[13:613])


class TestDecisionTree:
    def test_solves_xor_at_depth_two(self):
        X, y = xor_data()
        model = train("decision_tree", X, y,
                      hyperparams={"max_depth": 2, "min_samples_leaf": 1})
        assert list(predict_labels(model, X)) == list(y)

    def test_stump_cannot_solve_xor(self):
        X, y = xor_data()
        model = train("decision_tree", X, y,
                      hyperparams={"max_depth": 1, "min_samples_leaf": 1})
        acc = metrics(y, predict_labels(model, X))["accuracy"]
        assert acc == 0.5

    def test_min_leaf_blocks_all_splits(self):
        X, y = separable(n_per=5)
        model = train("decision_tree", X, y,
                      hyperparams={"max_depth": 6, "min_samples_leaf": 6})
        # No admissible cut: the root is a leaf at the class-1 prior.
        assert np.allclose(model.scores(X), y.mean())


class TestAdjacentFloatThreshold:
    # (a + b) / 2 rounds up to b for these two neighbouring floats.
    LO, HI = 0.324332134658142, 0.32433213465814204

    @pytest.mark.parametrize("algorithm", ["decision_tree", "gbdt"])
    def test_cut_separates_neighbouring_values(self, algorithm):
        assert (self.LO + self.HI) / 2 == self.HI
        X = np.array([[self.LO], [self.HI]])
        y = np.array([0, 1])
        hp = {"min_samples_leaf": 1} if algorithm == "decision_tree" else {"n_rounds": 10}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(algorithm, X, y, hyperparams=hp)
        assert list(predict_labels(model, X)) == [0, 1]


def brute_force_split(X, rows, features, gain_of, min_leaf, min_gain):
    """Exhaustive search: every feature, every cut between distinct values."""
    best = None
    for j in features:
        values = sorted(set(X[rows, j].tolist()))
        top = None  # first maximum over this feature's cuts, lowest threshold first
        for lo, hi in zip(values, values[1:]):
            left = [r for r in rows if X[r, j] <= lo]
            right = [r for r in rows if X[r, j] > lo]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = gain_of(left, right)
            if top is None or gain > top[0]:
                top = (gain, int(j), lo, hi)
        if top is None or not top[0] > min_gain:
            continue
        if best is None or top[0] > best[0] + 1e-12:
            best = top
    if best is None:
        return None
    gain, j, lo, hi = best
    mid = (lo + hi) / 2
    return gain, j, mid if mid < hi else lo


def table(X, g, h):
    """A tree table: the features' ranks and values, then ``g`` and ``h``."""
    return np.column_stack((_ranks(X), X, g, h))


def gini_of(labels):
    p = sum(labels) / len(labels)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class TestSplitSearchOracle:
    """The lane split search against an exhaustive loop, every lane of a
    batch checked on its own. Statistics are small dyadic numbers, so every
    sum is exact and ties in gain are real."""

    def random_lane(self, rng, d):
        n = int(rng.integers(2, 14))
        pool = rng.random(3)
        pool = np.concatenate([pool, np.nextafter(pool, 1.0)])  # adjacent floats too
        X = rng.choice(pool, size=(n, d))  # few distinct values: repeats
        rows = np.flatnonzero(rng.random(n) < 0.8)
        if rows.size == 0:
            rows = np.arange(n)
        return X, rows

    def check(self, rng, stats, gain, gain_of, min_leaf, min_gain):
        d = int(rng.integers(1, 5))
        n_features = int(rng.integers(1, d + 1))
        lanes = []
        for _ in range(int(rng.integers(1, 6))):  # lanes of different sizes
            X, rows = self.random_lane(rng, d)
            g, h = stats(X.shape[0])
            features = np.sort(rng.choice(d, size=n_features, replace=False))
            lanes.append((X, rows, features, g, h))
        rule = _TreeRule(gain, 6, min_leaf, min_gain)
        got = _split_lanes([(table(X, g, h), rows, np.append(features, (2 * d, 2 * d + 1)),
                             g[rows].sum(), h[rows].sum())
                            for X, rows, features, g, h in lanes], rule)
        for (X, rows, features, g, h), best in zip(lanes, got):
            want = brute_force_split(X, rows.tolist(), features,
                                     partial(gain_of, g, h), min_leaf, min_gain)
            assert (best and best[:3]) == want
            if best is not None:
                left = rows[X[rows, best[1]] <= best[2]]
                assert best[3:] == (g[left].sum(), h[left].sum())

    def test_gini_gain(self):
        rng = np.random.default_rng(1)

        def stats(n):
            return rng.integers(0, 2, size=n).astype(float), np.ones(n)

        def gain_of(g, h, left, right):
            n = len(left) + len(right)
            child = (len(left) * gini_of(g[left]) + len(right) * gini_of(g[right])) / n
            return gini_of(g[left + right]) - child

        for _ in range(200):
            self.check(rng, stats, _gini_gain, gain_of, int(rng.integers(1, 4)), -np.inf)

    def test_second_order_gain(self):
        rng = np.random.default_rng(2)
        lam = 1.0

        def stats(n):
            return rng.integers(-4, 5, size=n) / 8.0, rng.integers(1, 5, size=n) / 8.0

        def gain_of(g, h, left, right):
            gl, hl = sum(g[left]), sum(h[left])
            gr, hr = sum(g[right]), sum(h[right])
            G, H = gl + gr, hl + hr
            return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam))

        for _ in range(200):
            self.check(rng, stats, partial(_second_order_gain, lam=lam), gain_of, 1, 1e-12)

    def test_prefix_sums_add_tied_rows_in_row_order(self):
        # With inexact statistics the order of addition shows in the last
        # bits: tied values must be added in ascending row order, as a
        # stable sort of all rows sliced to the node adds them.
        rng = np.random.default_rng(3)
        rule = _TreeRule(partial(_second_order_gain, lam=1.0), 6, 1, -np.inf)
        for _ in range(50):
            lanes = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(20, 60))
                X = rng.integers(0, 3, size=(n, 2)).astype(float)  # many ties
                g, h = rng.normal(size=n), rng.random(n) + 0.5
                rows = np.flatnonzero(rng.random(n) < 0.9)
                lanes.append((table(X, g, h), rows, np.array([0, 1, 4, 5]),
                              g[rows].sum(), h[rows].sum()))
            for (W, rows, _, _, _), best in zip(lanes, _split_lanes(lanes, rule)):
                x, thr = W[:, 2 + best[1]], best[2]
                ranked = rows[np.lexsort((rows, x[rows]))]  # by value, then row
                n_left = int((x[rows] <= thr).sum())
                assert best[3:] == (np.cumsum(W[ranked, 4])[n_left - 1],
                                    np.cumsum(W[ranked, 5])[n_left - 1])


class TestNaiveBayes:
    def test_midpoint_scores_half(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train("naive_bayes", X, y)
        assert model.scores(np.array([[0.0]]))[0] == pytest.approx(0.5)
        assert model.scores(np.array([[0.9]]))[0] > 0.99
        assert model.scores(np.array([[-0.9]]))[0] < 0.01


class TestLogisticRegression:
    def test_monotone_in_the_informative_feature(self):
        X, y = separable(d=1, seed=2)
        model = train("logistic_regression", X, y)
        grid = np.linspace(-1, 4, 20).reshape(-1, 1)
        s = model.scores(grid)
        assert np.all(np.diff(s) > 0)


class TestRandomForest:
    def test_not_much_worse_than_single_tree(self):
        rng = np.random.default_rng(11)
        X, y = separable(n_per=60, d=4, seed=11, gap=1.2)
        X += rng.normal(0, 0.6, size=X.shape)  # extra noise
        X_tr, y_tr, X_te, y_te = X[:80], y[:80], X[80:], y[80:]
        tree = train("decision_tree", X_tr, y_tr)
        forest = train("random_forest", X_tr, y_tr, hyperparams={"n_trees": 50}, seed=0)
        acc_tree = metrics(y_te, predict_labels(tree, X_te))["accuracy"]
        acc_forest = metrics(y_te, predict_labels(forest, X_te))["accuracy"]
        assert acc_forest >= acc_tree - 0.05


class TestLinearSVM:
    def test_score_monotone_in_margin(self):
        X, y = separable(d=1, seed=9)
        model = train("linear_svm", X, y, hyperparams={"epochs": 200})
        s = model.scores(np.array([[-1.0], [1.5], [4.0]]))
        assert s[0] < s[1] < s[2]
        assert s[0] < 0.5 < s[2]


class TestGBDT:
    def test_loss_history_never_increases(self):
        X, y = separable(seed=6)
        model = train("gbdt", X, y, hyperparams={"n_rounds": 40})
        losses = model.parameters["loss_history"]
        assert len(losses) == 40
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_cv_on_separable_data(self):
        X, y = separable(n_per=25, seed=8)
        report = kfold_cv("gbdt", [(X, y)], k=5, seed=0,
                          hyperparams={"n_rounds": 30})[0]
        assert report.mean_accuracy >= 0.95

    def test_round_update_matches_scoring_the_new_tree(self):
        # The per-round update reads each training row's leaf from the grower;
        # scoring the finished tree must send every row to the same leaf.
        rng = np.random.default_rng(2)
        X = rng.integers(0, 4, size=(60, 3)).astype(float) / 3.0  # repeated values
        y = (X[:, 0] + rng.normal(0.0, 0.3, 60) > 0.5).astype(int)
        p = np.full(60, 0.5)
        for depth in (1, 3, 6):
            rule = _TreeRule(partial(_second_order_gain, lam=1.0), depth, 1, 1e-12, 1.0)
            values = np.empty(60)
            tree, = lockstep([_grow(table(X, p - y, p * (1.0 - p)), rule, values=values)],
                             lambda nodes: enumerate(_split_lanes(nodes, rule)))
            assert np.array_equal(values, _eval_tree(tree, X))
            want, want_values = ref._fit_boost_tree(
                X, p - y, p * (1.0 - p), np.argsort(X, axis=0, kind="stable").T, depth, 1.0)
            assert tree == want and np.array_equal(values, want_values)


def lockstep_data(k: int, seed: int, degenerate: bool):
    """Rows not divisible by ``k``, repeated values and a constant column;
    with ``degenerate`` a single positive, so one fold trains on one class."""
    rng = np.random.default_rng(seed)
    n = 4 * k + 1 + k % 3
    X = np.round(rng.normal(size=(n, 4)), 1)
    X[:, 2] = 1.5
    y = (X[:, 0] + rng.normal(0.0, 0.7, n) > 0).astype(int)
    y[:2] = (0, 1)
    if degenerate:
        y[:] = 0
        y[n // 2] = 1
    return X, y


def assert_same_parameters(got: dict, want: dict):
    assert got == want  # weights, bias and scaler lists, compared with ==
    for key in ("weights", "bias"):
        if key in want:
            assert np.array_equal(np.signbit(got[key]), np.signbit(want[key]))


class TestFoldFittersMatchReference:
    """The fold-batched Pegasos and gradient-descent fitters against the
    one-split loops in ``models_reference``, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_cv_folds(self, algorithm, k):
        for degenerate in (False, True):
            X, y = lockstep_data(k, seed=k, degenerate=degenerate)
            for epochs in (1, 3, 17):
                hp = {"epochs": epochs}
                got = ref.cv_fold_parameters(algorithm, X, y, k, seed=k, hyperparams=hp)
                want = ref.fold_parameters(algorithm, X, y, k, seed=k, hyperparams=hp)
                assert len(got) == len(want) == k
                for g, w in zip(got, want):
                    assert_same_parameters(g, w)
            if degenerate:
                assert sum("constant" in w for w in want) == 1

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    def test_default_epochs(self, algorithm):
        X, y = separable(n_per=23, d=5, seed=31)
        got = ref.cv_fold_parameters(algorithm, X, y, 10, seed=4)
        want = ref.fold_parameters(algorithm, X, y, 10, seed=4)
        for g, w in zip(got, want):
            assert_same_parameters(g, w)

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    def test_train_is_the_one_split_fit(self, algorithm):
        X, y = lockstep_data(5, seed=8, degenerate=False)
        for epochs in (1, 4, 40):
            hp = dict(DEFAULT_HYPERPARAMS[algorithm], epochs=epochs)
            got = train(algorithm, X, y, hyperparams={"epochs": epochs}, seed=3)
            assert_same_parameters(got.parameters, ref.TRAINERS[algorithm](X, y, hp, 3))

    def test_signed_zero_survives_a_step_off_the_margin(self):
        # In the first split, step 1 writes a subnormal weight that step 2's
        # shrink rounds to -0.0; at step 2 the first split's positive row
        # stays outside the margin while the second split hits, and the
        # first split must not get that row's +0.0 feature value added.
        X = np.zeros((10, 2))
        X[0] = (5e-324, -10.0)
        X[9, 1] = 10.0
        first = np.array([0] * 9 + [1])
        second = np.array([0] * 5 + [1] + [0] * 4)
        hp = dict(DEFAULT_HYPERPARAMS["linear_svm"], l2=1.0, epochs=1)
        want = [ref.train_linear_svm(X, y, hp, 252) for y in (first, second)]
        assert want[0]["weights"][0] == 0.0 and np.signbit(want[0]["weights"][0])
        got = _fit_linear_svm([(X, first), (X, second)], hp, 252)
        for g, w in zip(got, want):
            assert_same_parameters(g, w)

    @pytest.mark.parametrize("rows", [
        [(5.0, 4.315894611749433), (1.8715500397864788, 0.1), (-0.54, 0.36), (1.3, 0.95),
         (-0.7, -1.27), (-0.62, 0.04), (-2.33, -0.22), (-1.25, -0.73)],
        [(5.0, 3.765249949328382), (1.6360217441586447, 0.64), (0.75, -0.96), (0.56, -0.29),
         (0.3, -1.26), (0.83, 1.2), (0.64, 0.56), (-3.77, 0.26)],
    ])
    def test_margin_exactly_on_the_boundary(self, rows):
        # Seed 220 visits rows 0 and 1 first, and the second step's margin
        # ``Z[1] @ (Z[0] * 0.5)`` is exactly 1.0 as the 1-D dot product of
        # NumPy's bundled OpenBLAS on x86-64 computes it, so it does not hit;
        # ``einsum`` or ``(z * w).sum()`` land an ulp below, and hit.
        X = np.array(rows)
        y = np.array([0, 0, 1, 1, 1, 1, 0, 0])
        hp = dict(DEFAULT_HYPERPARAMS["linear_svm"], l2=1.0, epochs=1)
        got = train("linear_svm", X, y, hyperparams={"l2": 1.0, "epochs": 1}, seed=220)
        assert_same_parameters(got.parameters, ref.train_linear_svm(X, y, hp, 220))

    def test_scaler_stats_match_the_fold_models(self):
        X, y = lockstep_data(7, seed=1, degenerate=False)
        report = kfold_cv("linear_svm", [(X, y)], k=7, seed=2, hyperparams={"epochs": 2})[0]
        want = ref.fold_parameters("linear_svm", X, y, 7, seed=2, hyperparams={"epochs": 2})
        assert list(report.fold_scaler_stats) == [w["scaler"] for w in want]


def same_json(got, want) -> bool:
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


TREE_CASES = [
    ("decision_tree", {}),
    ("decision_tree", {"max_depth": 2, "min_samples_leaf": 1}),
    ("random_forest", {"n_trees": 1}),
    ("random_forest", {"n_trees": 7, "min_samples_leaf": 1}),
    ("gbdt", {"n_rounds": 12}),
    ("gbdt", {"n_rounds": 5, "max_depth": 5, "l2": 0.0}),
]


class TestTreeLanesMatchReference:
    """The lane-batched tree grower against the recursive per-fit growers in
    ``models_reference`` (presorted columns, one fit at a time): the same
    parameters down to the last bit, as their JSON text."""

    @pytest.mark.parametrize("algorithm, hp", TREE_CASES)
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_cv_folds(self, algorithm, hp, k):
        for degenerate in (False, True):
            X, y = lockstep_data(k, seed=k + 20, degenerate=degenerate)
            got = ref.cv_fold_parameters(algorithm, X, y, k, seed=k, hyperparams=hp)
            want = ref.fold_parameters(algorithm, X, y, k, seed=k, hyperparams=hp)
            assert len(got) == len(want) == k
            assert same_json(got, want)
            if degenerate:
                assert sum("constant" in w for w in want) == 1

    @pytest.mark.parametrize("algorithm", ["decision_tree", "random_forest", "gbdt"])
    def test_default_hyperparameters(self, algorithm):
        X, y = separable(n_per=23, d=5, seed=31, gap=1.0)
        X[:, 3] = np.round(X[:, 3])  # repeated values
        got = ref.cv_fold_parameters(algorithm, X, y, 10, seed=4)
        assert same_json(got, ref.fold_parameters(algorithm, X, y, 10, seed=4))

    @pytest.mark.parametrize("algorithm, hp", [("decision_tree", {}), ("gbdt", {"n_rounds": 3}),
                                               ("random_forest", {"n_trees": 2})])
    def test_ranks_wider_than_a_byte(self, algorithm, hp):
        # over 255 distinct values the sort keys are 16-bit
        rng = np.random.default_rng(8)
        X = np.column_stack((rng.normal(size=600), rng.integers(0, 3, 600)))
        y = (X[:, 0] + rng.normal(0.0, 0.5, 600) > 0).astype(int)
        got = ref.cv_fold_parameters(algorithm, X, y, 2, seed=1, hyperparams=hp)
        assert same_json(got, ref.fold_parameters(algorithm, X, y, 2, seed=1, hyperparams=hp))

    @pytest.mark.parametrize("algorithm, hp", TREE_CASES)
    def test_train_is_the_one_lane_fit(self, algorithm, hp):
        X, y = lockstep_data(4, seed=9, degenerate=False)
        full = dict(DEFAULT_HYPERPARAMS[algorithm], **hp)
        for seed in (0, 5):
            got = train(algorithm, X, y, hyperparams=hp, seed=seed)
            assert same_json(got.parameters, ref.TRAINERS[algorithm](X, y, full, seed))


class TestMetrics:
    def test_frozen_example(self):
        got = metrics([1, 1, 0, 0], [1, 0, 0, 0])
        assert got["accuracy"] == pytest.approx(0.75)
        assert got["f1"] == pytest.approx(2 / 3)

    def test_perfect_and_zero(self):
        assert metrics([1, 0], [1, 0]) == {"accuracy": 1.0, "f1": 1.0}
        assert metrics([1, 1], [0, 0])["f1"] == 0.0
        assert metrics([0, 0], [0, 0])["f1"] == 0.0  # no positives anywhere

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics([], [])
        with pytest.raises(ValueError):
            metrics([1, 0], [1])


class TestStratifiedFolds:
    def test_folds_partition_the_samples(self):
        y = np.array([0] * 13 + [1] * 7)
        folds = stratified_folds(y, k=5, seed=0)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(20))
        assert len(folds) == 5

    def test_class_counts_within_one(self):
        y = np.array([0] * 13 + [1] * 7)
        folds = stratified_folds(y, k=5, seed=3)
        for c in (0, 1):
            counts = [int(np.sum(y[f] == c)) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        y = np.array([0, 1] * 10)
        f1 = stratified_folds(y, k=4, seed=2)
        f2 = stratified_folds(y, k=4, seed=2)
        assert all(np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_leave_one_out_allowed(self):
        y = np.array([0, 0, 1, 1])
        folds = stratified_folds(y, k=4, seed=0)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 1]

    def test_k_bounds(self):
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            stratified_folds(y, k=1)
        with pytest.raises(ValueError):
            stratified_folds(y, k=5)


class TestKFoldCV:
    def test_every_sample_tested_once(self):
        X, y = separable(n_per=15, seed=4)
        report = kfold_cv("decision_tree", [(X, y)], k=6, seed=1)[0]
        assert sum(report.confusion.values()) == 30
        assert report.k == 6
        assert len(report.fold_accuracy) == 6

    def test_permuted_labels_score_near_chance(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 4))
        y = np.array([0, 1] * 20)  # labels carry no signal about X
        report = kfold_cv("decision_tree", [(X, y)], k=5, seed=0)[0]
        assert 0.3 <= report.mean_accuracy <= 0.7

    def test_degenerate_fold_flagged_not_fatal(self):
        X = np.arange(18, dtype=float).reshape(9, 2)
        y = np.array([0] * 8 + [1])
        report = kfold_cv("naive_bayes", [(X, y)], k=3, seed=0)[0]
        assert len(report.degenerate_folds) == 1
        assert len(report.fold_accuracy) == 3

    def test_scalers_fitted_per_training_fold(self):
        # Row 0 carries a huge outlier in feature 0. The scaler of the fold
        # that *tests* row 0 must never have seen it.
        n = 12
        X = np.zeros((n, 2))
        X[:, 1] = np.arange(n)
        X[0, 0] = 1000.0
        y = np.array([0, 1] * (n // 2))
        k, seed = 3, 5
        report = kfold_cv("logistic_regression", [(X, y)], k=k, seed=seed,
                          hyperparams={"epochs": 10})[0]
        folds = stratified_folds(y, k, seed)
        holdout = next(i for i, f in enumerate(folds) if 0 in f)
        for fold_no, scaler in enumerate(report.fold_scaler_stats):
            mean0 = scaler["mean"][0]
            if fold_no == holdout:
                assert abs(mean0) < 1e-9
            else:
                assert mean0 > 50.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_many_jobs_equal_one_call_per_job(self, algorithm):
        # different lengths, two of one length (stacked together by
        # logistic regression), and a job with a degenerate fold
        jobs = [separable(n_per=9, d=4, seed=1), lockstep_data(3, seed=2, degenerate=True),
                separable(n_per=12, d=4, seed=3), separable(n_per=9, d=4, seed=4)]
        hp = FAST[algorithm]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            together = kfold_cv(algorithm, jobs, k=3, seed=5, hyperparams=hp)
            alone = [kfold_cv(algorithm, [job], k=3, seed=5, hyperparams=hp)[0]
                     for job in jobs]
        assert together == alone
        assert [len(r.degenerate_folds) for r in together] == [0, 1, 0, 0]
        assert kfold_cv(algorithm, [], k=3, hyperparams=hp) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_jobs_of_different_widths_are_rejected(self, algorithm):
        # the linear fitters stack every job's splits into shared arrays
        jobs = [separable(n_per=9, d=4, seed=1), separable(n_per=9, d=3, seed=2)]
        with pytest.raises(ValueError, match="same number of features"):
            kfold_cv(algorithm, jobs, k=3, hyperparams=FAST[algorithm])

    def test_mean_matches_folds(self):
        X, y = separable(n_per=10, seed=12)
        report = kfold_cv("naive_bayes", [(X, y)], k=4, seed=2)[0]
        assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracy))
        assert report.std_f1 == pytest.approx(np.std(report.fold_f1))


class TestPersistence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_preserves_scores(self, algorithm, tmp_path):
        X, y = separable(seed=13)
        model = train(algorithm, X, y, hyperparams=FAST[algorithm], seed=3,
                      feature_names=("alpha", "beta", "gamma"))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.algorithm == algorithm
        assert back.feature_names == ("alpha", "beta", "gamma")
        assert np.allclose(back.scores(X), model.scores(X))

    def test_file_bytes(self, tmp_path):
        # sorted keys at every depth, a two-space indent and a final newline
        model = TrainedClassifier("naive_bayes", {"prior": [0.5, 0.5], "constant": 0.25},
                                  {}, 3, ("b", "a"))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert path.read_bytes() == (
            b'{\n'
            b'  "algorithm": "naive_bayes",\n'
            b'  "feature_names": [\n'
            b'    "b",\n'
            b'    "a"\n'
            b'  ],\n'
            b'  "hyperparams": {},\n'
            b'  "parameters": {\n'
            b'    "constant": 0.25,\n'
            b'    "prior": [\n'
            b'      0.5,\n'
            b'      0.5\n'
            b'    ]\n'
            b'  },\n'
            b'  "seed": 3,\n'
            b'  "version": 1\n'
            b'}\n')

    def test_unsupported_version_rejected(self, tmp_path):
        X, y = separable()
        path = tmp_path / "model.json"
        save_model(train("naive_bayes", X, y), str(path))
        import json
        payload = json.loads(path.read_text())
        payload["version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_hyperparameter_defaults_are_recorded(self):
        X, y = separable()
        model = train("gbdt", X, y, hyperparams={"n_rounds": 5})
        assert model.hyperparams["n_rounds"] == 5
        assert model.hyperparams["max_depth"] == DEFAULT_HYPERPARAMS["gbdt"]["max_depth"]


class TestEvalCsv:
    def test_format(self, tmp_path):
        X, y = separable(n_per=10)
        report = kfold_cv("naive_bayes", [(X, y)], k=4, seed=0)[0]
        path = tmp_path / "eval.csv"
        write_eval_csv([("naive_bayes", "starting_high", report)], str(path))
        assert path.read_bytes() == (
            "model,case,accuracy,f1\r\n"
            f"naive_bayes,starting_high,{report.mean_accuracy:.6f},{report.mean_f1:.6f}\r\n"
        ).encode()
