"""Tests for Shapley attributions: the Monte-Carlo estimator, checked
against the exact enumeration of ``explain_reference``."""

from __future__ import annotations

import numpy as np
import pytest

from volnet import explain
from volnet.explain import (
    Attribution,
    attribute_rows,
    background_sample,
    importance_from_attributions,
    shapley_mc,
    write_attribution_csv,
    write_importance_csv,
)
from volnet.models import ALGORITHMS, train

import models_reference as ref
from conftest import set_hyperparams
from explain_reference import shapley_exact


class LinearStub:
    """Duck-typed model with a known closed-form attribution."""

    def __init__(self, w, b: float = 0.0, names=None):
        self.w = np.asarray(w, dtype=float)
        self.b = b
        self.feature_names = tuple(names) if names else tuple(
            f"f{i}" for i in range(self.w.size))

    def scores(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.w + self.b


def separable(n_per: int = 20, d: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 0.5, size=(n_per, d)),
                   rng.normal(3.0, 0.5, size=(n_per, d))])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


class TestExact:
    def test_linear_closed_form(self):
        # For an additive model the Shapley value of feature i is
        # w_i * (x_i - mean background_i), independent of the others.
        rng = np.random.default_rng(3)
        w = np.array([2.0, -1.0, 0.5])
        model = LinearStub(w, b=0.3)
        x = rng.normal(size=3)
        background = rng.normal(size=(6, 3))
        att = shapley_exact(model, x, background, user="u")
        want = w * (x - background.mean(axis=0))
        for i, name in enumerate(model.feature_names):
            assert att.per_feature[name] == pytest.approx(want[i], abs=1e-9)
        assert att.user == "u"

    def test_efficiency(self, monkeypatch):
        X, y = separable()
        set_hyperparams(monkeypatch, "gbdt", n_rounds=20)
        model = train("gbdt", X, y)
        att = shapley_exact(model, X[5], X[:15])
        total = sum(att.per_feature.values())
        assert att.base_value + total == pytest.approx(att.prediction, abs=1e-9)

    def test_explaining_the_background_itself_is_null(self):
        X, y = separable()
        model = train("decision_tree", X, y)
        x = X[2]
        att = shapley_exact(model, x, x.reshape(1, -1))
        assert all(v == pytest.approx(0.0, abs=1e-12)
                   for v in att.per_feature.values())
        assert att.base_value == pytest.approx(att.prediction)

    def test_constant_model_attributes_nothing(self):
        X = np.arange(12, dtype=float).reshape(4, 3)
        with pytest.warns(UserWarning):
            model = train("naive_bayes", X, np.ones(4, dtype=int))
        att = shapley_exact(model, X[0], X)
        assert set(att.per_feature.values()) == {0.0}

    def test_symmetry(self):
        # Features 0 and 1 are interchangeable everywhere, so their
        # attributions must coincide.
        model = LinearStub([2.0, 2.0, -1.0])
        x = np.array([1.5, 1.5, 0.2])
        background = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        att = shapley_exact(model, x, background)
        assert att.per_feature["f0"] == pytest.approx(att.per_feature["f1"])

    def test_null_player(self):
        model = LinearStub([3.0, 0.0])
        att = shapley_exact(model, [1.0, 9.0], [[0.0, 0.0], [2.0, -4.0]])
        assert att.per_feature["f1"] == 0.0

    def test_refuses_wide_models(self):
        d = 13
        model = LinearStub(np.ones(d))
        with pytest.raises(ValueError):
            shapley_exact(model, np.zeros(d), np.zeros((2, d)))

    def test_input_validation(self):
        model = LinearStub([1.0, 1.0])
        with pytest.raises(ValueError):
            shapley_exact(model, [1.0], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            shapley_exact(model, [1.0, 2.0], np.zeros((0, 2)))
        with pytest.raises(ValueError):
            shapley_exact(model, [1.0, 2.0], [[0.0, 0.0, 0.0]])


class TestMonteCarlo:
    def test_close_to_exact_on_a_real_model(self, monkeypatch):
        X, y = separable(seed=5)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=20)
        model = train("gbdt", X, y)
        x, background = X[3], X
        exact = shapley_exact(model, x, background)
        mc = shapley_mc(model, x, background, n_permutations=2000, seed=0)
        gap = max(abs(exact.per_feature[n] - mc.per_feature[n])
                  for n in model.feature_names)
        assert gap <= 0.05

    def test_efficiency_holds_by_telescoping(self):
        X, y = separable(seed=6)
        model = train("decision_tree", X, y)
        att = shapley_mc(model, X[1], X[:10], n_permutations=150, seed=2)
        total = sum(att.per_feature.values())
        assert att.base_value + total == pytest.approx(att.prediction, abs=1e-9)

    def test_deterministic_per_seed(self):
        model = LinearStub([1.0, -2.0, 0.5])
        x = np.array([0.3, 0.6, -0.1])
        background = np.random.default_rng(0).normal(size=(8, 3))
        a1 = shapley_mc(model, x, background, n_permutations=200, seed=9)
        a2 = shapley_mc(model, x, background, n_permutations=200, seed=9)
        assert a1.per_feature == a2.per_feature
        assert a1.std_err == a2.std_err

    def test_standard_errors_shrink_with_more_permutations(self, monkeypatch):
        X, y = separable(seed=7)
        set_hyperparams(monkeypatch, "random_forest", n_trees=20)
        model = train("random_forest", X, y)
        x, background = X[4], X
        few = shapley_mc(model, x, background, n_permutations=100, seed=1)
        many = shapley_mc(model, x, background, n_permutations=1600, seed=1)
        assert all(e >= 0.0 for e in few.std_err.values())
        mean_few = np.mean(list(few.std_err.values()))
        mean_many = np.mean(list(many.std_err.values()))
        assert mean_many < mean_few

    def test_too_few_permutations_rejected(self):
        model = LinearStub([1.0])
        with pytest.raises(ValueError):
            shapley_mc(model, [0.0], [[1.0]], n_permutations=99)


class TestMonteCarloMatchesReference:
    """The rank-mask row builder against the flip-by-flip loop, exactly."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_every_family(self, algorithm, d, monkeypatch):
        X, y = separable(n_per=12, d=d, seed=d)
        set_hyperparams(monkeypatch, "random_forest", n_trees=5)
        set_hyperparams(monkeypatch, "gbdt", n_rounds=5)
        model = train(algorithm, X, y, seed=1)
        att = shapley_mc(model, X[3], X[::2], n_permutations=120, seed=d)
        phi, std_err, base_value, prediction = ref.shapley_mc(
            model, X[3], X[::2], n_permutations=120, seed=d)
        assert list(att.per_feature.values()) == phi.tolist()
        assert list(att.std_err.values()) == std_err.tolist()
        assert att.base_value == base_value
        assert att.prediction == prediction

    def test_constant_model(self):
        X = np.arange(12, dtype=float).reshape(4, 3)
        with pytest.warns(UserWarning):
            model = train("naive_bayes", X, np.ones(4, dtype=int))
        att = shapley_mc(model, X[0], X, n_permutations=100, seed=3)
        phi, std_err, base_value, prediction = ref.shapley_mc(
            model, X[0], X, n_permutations=100, seed=3)
        assert list(att.per_feature.values()) == phi.tolist()
        assert (att.base_value, att.prediction) == (base_value, prediction)


class TestImportance:
    def test_aggregates_mean_absolute_phi(self):
        atts = [
            Attribution("u1", {"a": 1.0, "b": -3.0}, 0.0, 0.0),
            Attribution("u2", {"a": -2.0, "b": 1.0}, 0.0, 0.0),
        ]
        ranked = importance_from_attributions(atts, ("a", "b"))
        assert ranked == [("b", 2.0), ("a", 1.5)]

    def test_ties_order_alphabetically(self):
        atts = [Attribution("u", {"z": 1.0, "a": -1.0, "m": 1.0}, 0.0, 0.0)]
        ranked = importance_from_attributions(atts, ("z", "a", "m"))
        assert [name for name, _ in ranked] == ["a", "m", "z"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            importance_from_attributions([], ("a",))

    def test_dominant_feature_ranks_first(self):
        model = LinearStub([4.0, 0.2, -0.1])
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 3))
        atts, ranked = attribute_rows(model, X, list("abcdef"), seed=0, n_permutations=200,
                                      max_rows=6)
        assert [att.user for att in atts] == list("abcdef")
        assert ranked[0][0] == "f0"
        assert len(ranked) == 3

    def test_row_subsampling_is_deterministic(self):
        model = LinearStub([1.0, -1.0])
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 2))
        users = [f"u{i}" for i in range(9)]
        a1, r1 = attribute_rows(model, X, users, seed=3, n_permutations=120, max_rows=4)
        a2, r2 = attribute_rows(model, X, users, seed=3, n_permutations=120, max_rows=4)
        assert a1 == a2 and r1 == r2
        picked = np.sort(np.random.default_rng(3).choice(9, size=4, replace=False))
        assert [att.user for att in a1] == [users[i] for i in picked]
        # row i is explained with seed 3 + 1 + i, against the seed-3 background
        background = background_sample(X, seed=3)
        for att, i in zip(a1, picked):
            assert att == shapley_mc(model, X[i], background, n_permutations=120,
                                     seed=4 + int(i), user=users[i])

    @pytest.mark.parametrize("max_rows", [0, -1])
    def test_max_rows_below_one_is_named(self, max_rows):
        # -1 used to fail inside NumPy with "negative dimensions are not allowed"
        X = np.random.default_rng(1).normal(size=(5, 2))
        with pytest.raises(ValueError, match=f"max_rows must be >= 1, got {max_rows}"):
            attribute_rows(LinearStub([1.0, -1.0]), X, list("abcde"), n_permutations=100,
                           max_rows=max_rows)

    @pytest.mark.parametrize("n_users", [19, 21])
    def test_one_user_per_row_is_required(self, n_users):
        # 19 users for 20 rows used to end in an IndexError
        X = np.random.default_rng(1).normal(size=(20, 2))
        users = [f"u{i}" for i in range(n_users)]
        with pytest.raises(ValueError, match=f"{n_users} users for 20 rows"):
            attribute_rows(LinearStub([1.0, -1.0]), X, users, n_permutations=10, max_rows=20)


class TestBackgroundSample:
    def test_small_input_copied_whole(self, monkeypatch):
        monkeypatch.setattr(explain, "_BACKGROUND_ROWS", 10)
        X = np.arange(6, dtype=float).reshape(3, 2)
        out = background_sample(X)
        assert np.array_equal(out, X)
        out[0, 0] = 99.0
        assert X[0, 0] == 0.0  # original untouched

    def test_subsample_size_and_membership(self, monkeypatch):
        monkeypatch.setattr(explain, "_BACKGROUND_ROWS", 8)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        out = background_sample(X, seed=4)
        assert out.shape == (8, 2)
        rows = {tuple(r) for r in X}
        assert all(tuple(r) in rows for r in out)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(explain, "_BACKGROUND_ROWS", 5)
        X = np.random.default_rng(1).normal(size=(30, 3))
        a = background_sample(X, seed=7)
        b = background_sample(X, seed=7)
        assert np.array_equal(a, b)


class TestWriters:
    def test_attribution_csv(self, tmp_path):
        att = Attribution("u9", {"a": 0.125, "b": -0.5}, 0.2, 0.4,
                          std_err={"a": 0.01, "b": 0.02})
        path = tmp_path / "attr.csv"
        write_attribution_csv([att], str(path))
        assert path.read_bytes() == (
            b"user_id,feature,phi,std_err\r\n"
            b"u9,a,0.125000,0.010000\r\n"
            b"u9,b,-0.500000,0.020000\r\n")

    def test_attribution_csv_without_errors(self, tmp_path):
        att = Attribution("u", {"a": 1.0}, 0.0, 1.0)
        path = tmp_path / "attr.csv"
        write_attribution_csv([att], str(path))
        assert path.read_bytes() == b"user_id,feature,phi,std_err\r\nu,a,1.000000,0.000000\r\n"

    def test_importance_csv(self, tmp_path):
        path = tmp_path / "imp.csv"
        write_importance_csv([("b", 2.0), ("a", 1.5)], str(path))
        assert path.read_bytes() == b"feature,mean_abs_phi,rank\r\nb,2.000000,1\r\na,1.500000,2\r\n"
