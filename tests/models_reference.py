"""Per-fit references for the differential tests of the fold-batched fitters.

These are the one-split Pegasos and logistic-regression loops that
``volnet.models`` ran once per fold before its fitters advanced all folds
together, the old per-fold ``kfold_cv`` loop that called them, and the
loop that built ``shapley_mc``'s coalition rows one flip at a time.  The
tests require the library to reproduce them exactly.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from volnet import models
from volnet.explain import _check_inputs


def train_logistic_regression(X, y, hp, seed):
    scaler = models._fit_scaler(X)
    Z = models._apply_scaler(scaler, X)
    n, d = Z.shape
    w = np.zeros(d)
    b = 0.0
    lr, lam = hp["learning_rate"], hp["l2"]
    for _ in range(hp["epochs"]):
        p = models._sigmoid(Z @ w + b)
        grad_w = Z.T @ (p - y) / n + lam * w
        grad_b = float((p - y).mean())
        w -= lr * grad_w
        b -= lr * grad_b
    return {"weights": w.tolist(), "bias": b, "scaler": scaler}


def train_linear_svm(X, y, hp, seed):
    scaler = models._fit_scaler(X)
    Z = np.hstack([models._apply_scaler(scaler, X), np.ones((X.shape[0], 1))])
    target = np.where(y == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    n, d = Z.shape
    lam = hp["l2"]
    w = np.zeros(d)
    t = 0
    for _ in range(hp["epochs"]):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if target[i] * (Z[i] @ w) < 1.0:
                w += eta * target[i] * Z[i]
    return {"weights": w.tolist(), "scaler": scaler}


TRAINERS = {
    "logistic_regression": train_logistic_regression,
    "linear_svm": train_linear_svm,
}


def fold_parameters(algorithm, X, y, k, seed, hyperparams=None):
    """Each fold's parameters as the per-fold loop fitted them: the
    reference trainer on the fold's training split, or the constant
    predictor when that split lost a class."""
    hp = dict(models.DEFAULT_HYPERPARAMS[algorithm], **(hyperparams or {}))
    out = []
    for test_idx in models.stratified_folds(y, k, seed):
        mask = np.ones(y.size, dtype=bool)
        mask[test_idx] = False
        X_tr, y_tr = X[mask], y[mask]
        if np.unique(y_tr).size < 2:
            out.append(models._constant_params(y_tr))
        else:
            out.append(TRAINERS[algorithm](X_tr, y_tr, hp, seed))
    return out


def cv_fold_parameters(algorithm, X, y, k, seed, hyperparams=None):
    """The fold models' parameters as ``models.kfold_cv`` fits them (the
    fitted models are captured from its calls to ``models.train``)."""
    fitted = []
    real_train = models.train

    def capture(*args, **kwargs):
        model = real_train(*args, **kwargs)
        fitted.append(model.parameters)
        return model

    models.train = capture
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            models.kfold_cv(algorithm, X, y, k=k, seed=seed, hyperparams=hyperparams)
    finally:
        models.train = real_train
    return fitted


def shapley_mc(model, x, background, n_permutations=1000, seed=0):
    """(phi, std_err, base_value, prediction) from the flip-by-flip row loop."""
    x, background = _check_inputs(model, x, background)
    d = x.shape[0]
    rng = np.random.default_rng(seed)
    rows = np.empty((n_permutations * (d + 1), d))
    orders = np.empty((n_permutations, d), dtype=int)
    for t in range(n_permutations):
        base_row = background[int(rng.integers(background.shape[0]))]
        order = rng.permutation(d)
        orders[t] = order
        z = base_row.copy()
        block = t * (d + 1)
        rows[block] = z
        for step, j in enumerate(order):
            z[j] = x[j]
            rows[block + step + 1] = z
    scores = model.scores(rows).reshape(n_permutations, d + 1)
    deltas = np.diff(scores, axis=1)
    contrib = np.empty((n_permutations, d))
    for t in range(n_permutations):
        contrib[t, orders[t]] = deltas[t]
    phi = contrib.mean(axis=0)
    std_err = contrib.std(axis=0, ddof=1) / math.sqrt(n_permutations)
    return (phi, std_err, float(scores[:, 0].mean()),
            float(model.scores(x.reshape(1, -1))[0]))
