"""Tests for the from-scratch classifiers and cross-validation."""

from __future__ import annotations

import gc
import json
import warnings
from functools import partial

import numpy as np
import pytest

from volnet import models
from volnet.models import (
    _TreeRule,
    _eval_tree,
    _NEWTON_TOL,
    _gini_gain,
    _grow,
    _grown_rows,
    _log_loss,
    _newton,
    _second_order_gain,
    _squared_hinge,
    ALGORITHMS,
    HYPERPARAMS,
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
from conftest import set_hyperparams


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


@pytest.fixture
def fast(monkeypatch):
    """Fewer forest trees and boosting rounds."""
    set_hyperparams(monkeypatch, "random_forest", n_trees=30)
    set_hyperparams(monkeypatch, "gbdt", n_rounds=30)


class TestTrainValidation:
    def test_unknown_algorithm(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train("perceptron", X, y)

    def test_in_range_hyperparameter_edges_are_accepted(self, monkeypatch):
        X, y = separable(n_per=10)
        set_hyperparams(monkeypatch, "gbdt", l2=0.0, n_rounds=1, max_depth=1)
        set_hyperparams(monkeypatch, "random_forest", n_trees=1, min_samples_leaf=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algorithm in ("gbdt", "random_forest"):
                kfold_cv(algorithm, X, y, k=2)

    def test_shape_and_label_checks(self):
        X, y = separable()
        with pytest.raises(ValueError):
            train("decision_tree", X, y[:-1])
        with pytest.raises(ValueError):
            train("decision_tree", X, np.full(y.shape, 2))
        with pytest.raises(ValueError):
            train("decision_tree", X[:1], y[:1])

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fractional_labels_are_rejected_not_truncated(self, algorithm):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="labels"):
            train(algorithm, X, [0.5, 0.7, 1.0, 1.2])
        X, y = separable(n_per=10)
        with pytest.raises(ValueError, match="labels"):
            kfold_cv(algorithm, X, y + 0.25, k=2)

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, algorithm, bad):
        X, y = separable(n_per=10)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            train(algorithm, X, y)
        with pytest.raises(ValueError, match="finite"):
            kfold_cv(algorithm, X, y, k=2)

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
    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fits_separable_data(self, algorithm):
        X, y = separable(seed=3)
        model = train(algorithm, X, y, seed=0)
        acc = metrics(y, predict_labels(model, X))["accuracy"]
        assert acc >= 0.95, f"{algorithm}: training accuracy {acc}"

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scores_are_probabilities(self, algorithm):
        X, y = separable(seed=5)
        model = train(algorithm, X, y, seed=0)
        s = model.scores(X)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_deterministic_for_fixed_seed(self, algorithm):
        X, y = separable(seed=7)
        probe = np.random.default_rng(1).normal(1.5, 1.0, size=(10, X.shape[1]))
        s1 = train(algorithm, X, y, seed=4).scores(probe)
        s2 = train(algorithm, X, y, seed=4).scores(probe)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_rows_score_does_not_depend_on_its_batch(self, algorithm, monkeypatch):
        # BLAS ``@`` and a pairwise mean over one row gave other bits for a
        # row scored alone than inside a batch, and by its position in it
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 15))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0.0, 0.5, 200) > 0).astype(int)
        set_hyperparams(monkeypatch, "random_forest", n_trees=40)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=20)
        model = train(algorithm, X, y, seed=1)
        B = rng.normal(0.0, 1.5, size=(4800, 15))
        batch = model.scores(B)
        for i in (0, 1, 7, 2399, 4798, 4799):
            assert model.scores(B[i:i + 1])[0] == batch[i]
        assert np.array_equal(model.scores(B[::7]), batch[::7])
        assert np.array_equal(model.scores(B[::-1]), batch[::-1])
        assert np.array_equal(model.scores(B[13:613]), batch[13:613])


class TestDecisionTree:
    def test_solves_xor_at_depth_two(self, monkeypatch):
        X, y = xor_data()
        set_hyperparams(monkeypatch, "decision_tree", max_depth=2, min_samples_leaf=1)
        model = train("decision_tree", X, y)
        assert list(predict_labels(model, X)) == list(y)

    def test_stump_cannot_solve_xor(self, monkeypatch):
        X, y = xor_data()
        set_hyperparams(monkeypatch, "decision_tree", max_depth=1, min_samples_leaf=1)
        model = train("decision_tree", X, y)
        acc = metrics(y, predict_labels(model, X))["accuracy"]
        assert acc == 0.5

    def test_min_leaf_blocks_all_splits(self, monkeypatch):
        X, y = separable(n_per=5)
        set_hyperparams(monkeypatch, "decision_tree", max_depth=6, min_samples_leaf=6)
        model = train("decision_tree", X, y)
        # No admissible cut: the root is a leaf at the class-1 prior.
        assert np.allclose(model.scores(X), y.mean())

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ["decision_tree", "random_forest", "gbdt"])
    def test_constant_features_leave_one_leaf(self, algorithm):
        X, y = np.ones((6, 2)), np.array([0, 1] * 3)
        trees = train(algorithm, X, y).parameters
        for tree in trees.get("trees", [trees.get("tree")]):
            assert set(tree) == {"leaf", "n"}


class TestAdjacentFloatThreshold:
    # (a + b) / 2 rounds up to b for these two neighbouring floats.
    LO, HI = 0.324332134658142, 0.32433213465814204

    @pytest.mark.parametrize("algorithm", ["decision_tree", "gbdt"])
    def test_cut_separates_neighbouring_values(self, algorithm, monkeypatch):
        assert (self.LO + self.HI) / 2 == self.HI
        X = np.array([[self.LO], [self.HI]])
        y = np.array([0, 1])
        set_hyperparams(monkeypatch, "decision_tree", min_samples_leaf=1)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(algorithm, X, y)
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


def gini_of(labels):
    p = sum(labels) / len(labels)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def grow_lanes(lanes, rule, draw=None):
    """:func:`_grow` over ``lanes`` of ``(X, g, h)``, one tree each, grown
    together; returns the trees and each lane's leaf values."""
    bins, levels, edges, sizes, tree_lanes, _, _ = _grown_rows(
        [(X, np.zeros(len(g))) for X, g, _ in lanes])
    g, h = (np.concatenate([lane[i] for lane in lanes]) for i in (1, 2))
    trees, values = _grow(bins, levels, edges, sizes, tree_lanes, g, h, rule, draw)
    return trees, np.split(values, np.cumsum(sizes)[:-1])


class TestSplitSearchOracle:
    """Every node of trees grown together, lanes of different sizes, against
    an exhaustive search of its own rows: an internal node holds the best
    cut, and a leaf that could split has none. Every depth is checked, with
    every feature searched and with a drawn subset per node. Statistics are
    small dyadic numbers, so every sum is exact and ties in gain are real."""

    def random_lane(self, rng, d):
        n = int(rng.integers(2, 14))
        pool = rng.random(3)
        pool = np.concatenate([pool, np.nextafter(pool, 1.0)])  # adjacent floats too
        return rng.choice(pool, size=(n, d))  # few distinct values: repeats

    def check(self, rng, stats, rule, gain_of, weighted=False):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, d + 1))
        lanes = []
        for _ in range(int(rng.integers(1, 6))):
            X = self.random_lane(rng, d)
            lanes.append((X, *stats(X.shape[0])))
        for drawing in (False, True):
            draws = []

            def draw(m):
                draws.append(np.sort([rng.choice(d, size=k, replace=False) for _ in range(m)],
                                     axis=1))
                return draws[-1]

            trees, _ = grow_lanes(lanes, rule, draw if drawing else None)
            if weighted:  # a Gini row of weight w stands for w rows: the repeated rows' trees
                copies = [np.repeat(np.arange(len(h)), h.astype(int)) for _, _, h in lanes]
                repeated = [(X[c], (g[c] > 0).astype(float), np.ones(c.size))
                            for (X, g, _), c in zip(lanes, copies)]
                replay = iter(draws)
                assert grow_lanes(repeated, rule, (lambda m: next(replay)) if drawing else None
                                  )[0] == trees
                lanes_searched = repeated
            else:
                lanes_searched = lanes
            self.check_nodes(trees, lanes_searched, rule, gain_of, iter(draws) if drawing else None)

    def check_nodes(self, trees, lanes, rule, gain_of, draws):
        level = [(tree, lane, np.arange(len(lane[1]))) for tree, lane in zip(trees, lanes)]
        depth = 0
        while level:
            may_split = []
            for node, (X, g, h), rows in level:
                G, H = sum(g[rows]), sum(h[rows])
                n = H if rule.lam is None else rows.size
                pure = rule.lam is None and G in (0.0, H)
                may_split.append(not pure and n >= 2 * rule.min_leaf and depth < rule.max_depth)
            drawn = iter(next(draws)) if draws is not None and any(may_split) else None
            children = []
            for (node, (X, g, h), rows), searched in zip(level, may_split):
                features = next(drawn) if drawn is not None and searched else range(X.shape[1])
                want = (brute_force_split(X, rows.tolist(), features, partial(gain_of, g, h),
                                          rule.min_leaf, rule.min_gain) if searched else None)
                if want is None:
                    assert "leaf" in node
                    continue
                assert (node["feature"], node["threshold"]) == want[1:]
                left = X[rows, node["feature"]] <= node["threshold"]
                children += [(node["left"], (X, g, h), rows[left]),
                             (node["right"], (X, g, h), rows[~left])]
            level, depth = children, depth + 1

    def test_gini_gain(self):
        rng = np.random.default_rng(1)

        def stats(n):
            return rng.integers(0, 2, size=n).astype(float), np.ones(n)

        def gain_of(g, h, left, right):
            n = len(left) + len(right)
            child = (len(left) * gini_of(g[left]) + len(right) * gini_of(g[right])) / n
            return gini_of(g[left + right]) - child

        for _ in range(200):
            rule = _TreeRule(_gini_gain, int(rng.integers(1, 5)), int(rng.integers(1, 4)), -np.inf)
            self.check(rng, stats, rule, gain_of)

    def test_weighted_gini_gain_equals_repeated_rows(self):
        # a bootstrap draws a row w times: the forest grows it once with
        # g = w * y and h = w, and must cut as if it held w copies
        rng = np.random.default_rng(4)

        def stats(n):
            w = rng.integers(1, 4, size=n).astype(float)
            return rng.integers(0, 2, size=n) * w, w

        def gain_of(g, h, left, right):
            n = len(left) + len(right)
            child = (len(left) * gini_of(g[left]) + len(right) * gini_of(g[right])) / n
            return gini_of(g[left + right]) - child

        for _ in range(200):
            rule = _TreeRule(_gini_gain, int(rng.integers(1, 5)), int(rng.integers(1, 5)), -np.inf)
            self.check(rng, stats, rule, gain_of, weighted=True)

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
            rule = _TreeRule(partial(_second_order_gain, lam=lam), int(rng.integers(1, 5)), 1,
                             1e-12, lam)
            self.check(rng, stats, rule, gain_of)

    def test_sums_follow_the_sum_rule_lane_by_lane(self, monkeypatch):
        # With inexact statistics the order of addition shows in the last
        # bits of each cut's gain. A node's totals and each of its values'
        # sums add its rows in row order; a cut's left sums are a running
        # sum per lane over the depth's (node, feature, value) sums, less
        # its value before the (node, feature). The sum restarts in each
        # lane, so a lane's tree and gains do not depend on the lanes grown
        # with it. A key space with mostly absent keys is sorted, not
        # counted, and must give the same sums.
        gains, search = [], models._best_cuts

        def spy(keys, gh, starts, size, *rest):
            found = pos, pick, tops, slot = search(keys, gh, starts, size, *rest)
            sorted_keys = search(keys, gh, starts, 4 * keys.size + 1, *rest)
            assert all(np.array_equal(a, b) for a, b in zip(found, sorted_keys))
            gains.extend(tops[slot >= 0, slot[slot >= 0]].tolist())
            return found

        monkeypatch.setattr(models, "_best_cuts", spy)
        rng = np.random.default_rng(3)
        rule = _TreeRule(partial(_second_order_gain, lam=1.0), 6, 1, -np.inf, 1.0)
        for _ in range(50):
            lanes = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(20, 60))
                X = rng.integers(0, 3, size=(n, 2)).astype(float)  # many ties
                lanes.append((X, rng.normal(size=n), rng.random(n) + 0.5))
            gains.clear()
            trees, values = grow_lanes(lanes, rule)
            together, every_lane = sorted(gains), []
            for lane, tree, lane_values in zip(lanes, trees, values):
                gains.clear()
                [alone], [alone_values] = grow_lanes([lane], rule)
                assert same_json(alone, tree) and np.array_equal(alone_values, lane_values)
                want_gains = []
                [want], [want_values] = ref.grow_level_wise([lane], rule.gain, 6, 1, -np.inf, 1.0,
                                                            gains=want_gains)
                assert same_json(want, tree) and np.array_equal(want_values, lane_values)
                assert gains == want_gains
                every_lane += gains
            assert together == sorted(every_lane)


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
    def test_not_much_worse_than_single_tree(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = separable(n_per=60, d=4, seed=11, gap=1.2)
        X += rng.normal(0, 0.6, size=X.shape)  # extra noise
        X_tr, y_tr, X_te, y_te = X[:80], y[:80], X[80:], y[80:]
        tree = train("decision_tree", X_tr, y_tr)
        set_hyperparams(monkeypatch, "random_forest", n_trees=50)
        forest = train("random_forest", X_tr, y_tr, seed=0)
        acc_tree = metrics(y_te, predict_labels(tree, X_te))["accuracy"]
        acc_forest = metrics(y_te, predict_labels(forest, X_te))["accuracy"]
        assert acc_forest >= acc_tree - 0.05


class TestLinearSVM:
    def test_score_monotone_in_margin(self):
        X, y = separable(d=1, seed=9)
        model = train("linear_svm", X, y)
        s = model.scores(np.array([[-1.0], [1.5], [4.0]]))
        assert s[0] < s[1] < s[2]
        assert s[0] < 0.5 < s[2]


class TestGBDT:
    def test_loss_history_never_increases(self, monkeypatch):
        X, y = separable(seed=6)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=40)
        model = train("gbdt", X, y)
        losses = model.parameters["loss_history"]
        assert len(losses) == 40
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_cv_on_separable_data(self, monkeypatch):
        X, y = separable(n_per=25, seed=8)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=30)
        report = kfold_cv("gbdt", X, y, k=5, seed=0)
        assert report.mean_accuracy >= 0.95

    def test_round_update_matches_scoring_the_new_tree(self):
        # The per-round update reads each training row's leaf from the grower;
        # scoring the finished tree must send every row to the same leaf.
        rng = np.random.default_rng(2)
        X = rng.integers(0, 4, size=(60, 3)).astype(float) / 3.0  # repeated values
        y = (X[:, 0] + rng.normal(0.0, 0.3, 60) > 0.5).astype(int)
        p = np.full(60, 0.5)
        bins, levels, edges, sizes, lanes, _, _ = _grown_rows([(X, y)])
        gain = partial(_second_order_gain, lam=1.0)
        for depth in (1, 3, 6):
            rule = _TreeRule(gain, depth, 1, 1e-12, 1.0)
            [tree], values = _grow(bins, levels, edges, sizes, lanes, p - y, p * (1.0 - p), rule)
            assert np.array_equal(values, _eval_tree(tree, X))
            [want], [want_values] = ref.grow_level_wise([(X, p - y, p * (1.0 - p))], gain,
                                                        depth, 1, 1e-12, 1.0)
            assert tree == want and np.array_equal(values, want_values)


def fold_data(k: int, seed: int, degenerate: bool):
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
    """``kfold_cv``'s fold fits of the linear families against one-split
    ``train`` fits of each fold's training split, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    @pytest.mark.parametrize("k", range(2, 11))
    def test_cv_folds(self, algorithm, k):
        for degenerate in (False, True):
            X, y = fold_data(k, seed=k, degenerate=degenerate)
            got = ref.cv_fold_parameters(algorithm, X, y, k, seed=k)
            want = ref.fold_parameters(algorithm, X, y, k, seed=k)
            assert len(got) == len(want) == k
            for g, w in zip(got, want):
                assert_same_parameters(g, w)
            if degenerate:
                assert sum("constant" in w for w in want) == 1

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    def test_train_is_the_one_split_fit(self, algorithm):
        # the solver on the split's z-scored rows and a constant 1, whose
        # weight is the bias (penalized for the SVM only); no seed enters
        loss, bias_penalized = {"linear_svm": (_squared_hinge, True),
                                "logistic_regression": (_log_loss, False)}[algorithm]
        X, y = fold_data(5, seed=8, degenerate=False)
        got = [train(algorithm, X, y, seed=seed).parameters for seed in (0, 3)]
        assert_same_parameters(got[0], got[1])
        Z = np.hstack([(X - got[0]["scaler"]["mean"]) / got[0]["scaler"]["std"],
                       np.ones((y.size, 1))])
        penalized = np.append(np.ones(X.shape[1]), float(bias_penalized))
        w, steps = _newton(Z, y, HYPERPARAMS[algorithm]["l2"], loss, penalized)
        assert steps is not None
        want = {"weights": w.tolist(), "scaler": got[0]["scaler"]}
        if algorithm == "logistic_regression":
            want.update(weights=w[:-1].tolist(), bias=float(w[-1]))
        assert_same_parameters(got[0], want)

    def test_scaler_stats_match_the_fold_models(self):
        X, y = fold_data(7, seed=1, degenerate=False)
        report = kfold_cv("linear_svm", X, y, k=7, seed=2)
        want = ref.fold_parameters("linear_svm", X, y, 7, seed=2)
        assert list(report.fold_scaler_stats) == [w["scaler"] for w in want]


def linear_problem(seed: int):
    """Rows of mixed scales with a constant column and repeated rows, labels
    from a noisy (sometimes noiseless, so separable) linear rule."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 120)), int(rng.integers(2, 16))
    X = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=d)
    X[:, int(rng.integers(d))] = 2.5
    X = np.vstack([X, X[: n // 3]])
    noise = rng.choice([0.0, 0.3, 2.0])
    y = (X @ rng.normal(size=d) + noise * rng.normal(size=X.shape[0]) > 0).astype(int)
    y[:2] = (0, 1)
    return X, y


def fitted_vector(params: dict) -> np.ndarray:
    return np.array(params["weights"] + ([params["bias"]] if "bias" in params else []))


class TestLinearObjectives:
    """Each linear family's fit is the minimizer of its objective: as low as
    scipy's L-BFGS-B reaches, and with every gradient entry below the
    solver's tolerance."""

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    @pytest.mark.parametrize("l2", [1e-4, 1e-3, 1.0])
    def test_objective_matches_scipy(self, algorithm, l2, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        set_hyperparams(monkeypatch, algorithm, l2=l2)
        for seed in range(12):
            X, y = linear_problem(seed)
            f = ref.linear_objective(algorithm, X, y, l2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ours = f(fitted_vector(train(algorithm, X, y).parameters))
            theirs = optimize.minimize(f, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                                       options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 50000})
            assert ours[0] <= theirs.fun * (1.0 + 1e-10)
            assert ours[0] == pytest.approx(theirs.fun, rel=1e-8)
            assert np.abs(ours[1]).max() < _NEWTON_TOL

    @pytest.mark.parametrize("algorithm", ["linear_svm", "logistic_regression"])
    def test_a_fit_at_the_step_cap_warns(self, algorithm, monkeypatch):
        monkeypatch.setattr(models, "_NEWTON_STEPS", 1)
        X, y = linear_problem(3)
        with pytest.warns(UserWarning, match=f"^{algorithm} stopped at the Newton step cap "
                                             r"\(1 steps\)$"):
            train(algorithm, X, y)


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
    """The histogram tree grower, every split of a job at once, against the
    per-fit growers in ``models_reference`` (CART depth first from its own
    prefix sums over presorted columns; the forest and boosting level by
    level, one node at a time, under the grower's sum rule): the same
    parameters down to the last bit, as their JSON text."""

    @pytest.mark.parametrize("algorithm, hp", TREE_CASES)
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_cv_folds(self, algorithm, hp, k, monkeypatch):
        set_hyperparams(monkeypatch, algorithm, **hp)
        for degenerate in (False, True):
            X, y = fold_data(k, seed=k + 20, degenerate=degenerate)
            got = ref.cv_fold_parameters(algorithm, X, y, k, seed=k)
            want = ref.fold_parameters(algorithm, X, y, k, seed=k)
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
    def test_ranks_wider_than_a_byte(self, algorithm, hp, monkeypatch):
        # over 255 distinct values a feature's bins are wider than a byte
        rng = np.random.default_rng(8)
        X = np.column_stack((rng.normal(size=600), rng.integers(0, 3, 600)))
        y = (X[:, 0] + rng.normal(0.0, 0.5, 600) > 0).astype(int)
        set_hyperparams(monkeypatch, algorithm, **hp)
        got = ref.cv_fold_parameters(algorithm, X, y, 2, seed=1)
        assert same_json(got, ref.fold_parameters(algorithm, X, y, 2, seed=1))

    @pytest.mark.parametrize("algorithm, hp", TREE_CASES)
    def test_train_is_the_one_lane_fit(self, algorithm, hp, monkeypatch):
        X, y = fold_data(4, seed=9, degenerate=False)
        set_hyperparams(monkeypatch, algorithm, **hp)
        for seed in (0, 5):
            got = train(algorithm, X, y, seed=seed)
            assert got.hyperparams == HYPERPARAMS[algorithm]
            assert same_json(got.parameters, ref.TRAINERS[algorithm](X, y, got.hyperparams, seed))


class TestTreeFitsLeaveNoCycles:
    """Growing a tree makes no reference cycle, so each tree's table is
    freed when its fit returns, not at the next garbage collection."""

    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ["decision_tree", "random_forest", "gbdt"])
    def test_no_cyclic_garbage(self, algorithm):
        X, y = separable(n_per=15, d=4, seed=3, gap=1.0)

        def fit():
            kfold_cv(algorithm, X, y, k=3, seed=1)
            train(algorithm, X, y, seed=1)

        fit()  # first calls leave one-off objects behind
        gc.collect()
        gc.disable()
        try:
            fit()
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        report = kfold_cv("decision_tree", X, y, k=6, seed=1)
        assert sum(report.confusion.values()) == 30
        assert report.k == 6
        assert len(report.fold_accuracy) == 6

    def test_permuted_labels_score_near_chance(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 4))
        y = np.array([0, 1] * 20)  # labels carry no signal about X
        report = kfold_cv("decision_tree", X, y, k=5, seed=0)
        assert 0.3 <= report.mean_accuracy <= 0.7

    @pytest.mark.usefixtures("fast")
    def test_degenerate_fold_flagged_not_fatal(self):
        X = np.arange(18, dtype=float).reshape(9, 2)
        y = np.array([0] * 8 + [1])
        report = kfold_cv("naive_bayes", X, y, k=3, seed=0)
        assert len(report.degenerate_folds) == 1
        assert len(report.fold_accuracy) == 3
        X, y = fold_data(3, seed=2, degenerate=True)  # a single positive
        for algorithm in ALGORITHMS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = kfold_cv(algorithm, X, y, k=3, seed=5)
            assert len(report.degenerate_folds) == 1

    def test_scalers_fitted_per_training_fold(self):
        # Row 0 carries a huge outlier in feature 0. The scaler of the fold
        # that *tests* row 0 must never have seen it.
        n = 12
        X = np.zeros((n, 2))
        X[:, 1] = np.arange(n)
        X[0, 0] = 1000.0
        y = np.array([0, 1] * (n // 2))
        k, seed = 3, 5
        report = kfold_cv("logistic_regression", X, y, k=k, seed=seed)
        folds = stratified_folds(y, k, seed)
        holdout = next(i for i, f in enumerate(folds) if 0 in f)
        for fold_no, scaler in enumerate(report.fold_scaler_stats):
            mean0 = scaler["mean"][0]
            if fold_no == holdout:
                assert abs(mean0) < 1e-9
            else:
                assert mean0 > 50.0

    def test_mean_matches_folds(self):
        X, y = separable(n_per=10, seed=12)
        report = kfold_cv("naive_bayes", X, y, k=4, seed=2)
        assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracy))
        assert report.std_f1 == pytest.approx(np.std(report.fold_f1))


class TestPersistence:
    @pytest.mark.usefixtures("fast")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_preserves_scores(self, algorithm, tmp_path):
        X, y = separable(seed=13)
        model = train(algorithm, X, y, seed=3,
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

    def test_hyperparameter_defaults_are_recorded(self, monkeypatch):
        X, y = separable()
        set_hyperparams(monkeypatch, "gbdt", n_rounds=5)
        model = train("gbdt", X, y)
        assert model.hyperparams == dict(HYPERPARAMS["gbdt"]) and model.hyperparams["n_rounds"] == 5
        assert model.hyperparams is not HYPERPARAMS["gbdt"]


class TestEvalCsv:
    def test_format(self, tmp_path):
        X, y = separable(n_per=10)
        report = kfold_cv("naive_bayes", X, y, k=4, seed=0)
        path = tmp_path / "eval.csv"
        write_eval_csv([("naive_bayes", "starting_high", report)], str(path))
        assert path.read_bytes() == (
            "model,case,accuracy,f1\r\n"
            f"naive_bayes,starting_high,{report.mean_accuracy:.6f},{report.mean_f1:.6f}\r\n"
        ).encode()
