"""Per-fit references for the differential tests of the fold-batched fitters.

These are the one-split Pegasos and logistic-regression loops that
``volnet.models`` ran once per fold before its fitters advanced all folds
together; the recursive tree growers that fitted one decision tree, forest
or boosted ensemble at a time from columns presorted once per fit; the old
per-fold ``kfold_cv`` loop that called them; and the loop that built
``shapley_mc``'s coalition rows one flip at a time.  The tests require the
library to reproduce them exactly.
"""

from __future__ import annotations

import math
from functools import partial

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


def _best_split(X, ords, features, g, h, G, H, gain, min_leaf, min_gain):
    """Best cut of one node as (gain, feature, threshold), or None.

    ``ords[j]`` holds the node's rows sorted by column ``j``, so prefix sums
    of ``g`` and ``h`` along it are the left-child sums of every cut; ``G``
    and ``H`` are the node totals."""
    rows = ords[features]
    m = rows.shape[1]
    if m < 2:
        return None
    sv = X[rows, features[:, None]]
    left_n = np.arange(1, m)
    ok = (sv[:, :-1] < sv[:, 1:]) & (left_n >= min_leaf) & (m - left_n >= min_leaf)
    scores = np.where(ok, gain(np.cumsum(g[rows], axis=1)[:, :-1],
                               np.cumsum(h[rows], axis=1)[:, :-1], G, H), -np.inf)
    best = None
    for f, pick in enumerate(np.argmax(scores, axis=1)):  # first max = lowest threshold
        top = scores[f, pick]
        if top > min_gain and (best is None or top > best[0] + 1e-12):
            best = (top, f, pick)
    if best is None:
        return None
    top, f, pick = best
    lo, hi = sv[f, pick], sv[f, pick + 1]
    mid = (lo + hi) / 2.0
    return float(top), int(features[f]), float(mid if mid < hi else lo)


def _branch(X, idx, ords, j, thr, grow, depth):
    """Internal node cutting at X[:, j] <= thr, children built by ``grow``
    from their rows (ascending) and their slices of the sorted orders."""
    mask = X[idx, j] <= thr
    go_left = np.zeros(X.shape[0], dtype=bool)
    go_left[idx[mask]] = True
    keep = go_left[ords]
    d = ords.shape[0]
    return {"feature": j, "threshold": thr,
            "left": grow(idx[mask], ords[keep].reshape(d, -1), depth + 1),
            "right": grow(idx[~mask], ords[~keep].reshape(d, -1), depth + 1)}


def _fit_tree(X, y, max_depth, min_leaf, rng=None, n_subsample=0):
    """CART over all rows of ``(X, y)``; with ``rng``, every node searches a
    fresh subsample of ``n_subsample`` features (the random forest)."""
    d = X.shape[1]
    g, h = y.astype(float), np.ones(y.size)
    all_features = np.arange(d)

    def grow(idx, ords, depth):
        p1 = float(y[idx].mean())
        if depth >= max_depth or idx.size < 2 * min_leaf or p1 in (0.0, 1.0):
            return {"leaf": p1, "n": int(idx.size)}
        features = all_features
        if rng is not None and n_subsample < d:
            features = np.sort(rng.choice(d, size=n_subsample, replace=False))
        best = _best_split(X, ords, features, g, h, g[idx].sum(), h[idx].sum(),
                           models._gini_gain, min_leaf, -np.inf)
        if best is None:
            return {"leaf": p1, "n": int(idx.size)}
        return _branch(X, idx, ords, best[1], best[2], grow, depth)

    return grow(np.arange(y.size), np.argsort(X, axis=0, kind="stable").T, 0)


def _fit_boost_tree(X, g, h, ords, max_depth, lam):
    """Second-order regression tree; returns the tree and each training
    row's leaf weight."""
    features = np.arange(X.shape[1])
    gain = partial(models._second_order_gain, lam=lam)
    values = np.empty(X.shape[0])

    def grow(idx, ords, depth):
        G, H = g[idx].sum(), h[idx].sum()
        best = None if depth >= max_depth else _best_split(
            X, ords, features, g, h, G, H, gain, 1, 1e-12)
        if best is None:
            values[idx] = leaf = float(-G / (H + lam))
            return {"leaf": leaf, "n": int(idx.size)}
        return _branch(X, idx, ords, best[1], best[2], grow, depth)

    return grow(np.arange(X.shape[0]), ords, 0), values


def train_decision_tree(X, y, hp, seed):
    return {"tree": _fit_tree(X, y, hp["max_depth"], hp["min_samples_leaf"])}


def _train_random_forest(X, y, hp, seed):
    rng = np.random.default_rng(seed)
    n, d = X.shape
    n_subsample = max(1, int(np.sqrt(d)))
    trees = []
    for _ in range(hp["n_trees"]):
        sample = rng.integers(0, n, size=n)
        trees.append(_fit_tree(X[sample], y[sample], hp["max_depth"],
                               hp["min_samples_leaf"], rng, n_subsample))
    return {"trees": trees}


def _train_gbdt(X, y, hp, seed):
    n = X.shape[0]
    p_base = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = float(np.log(p_base / (1.0 - p_base)))
    raw = np.full(n, f0)
    lam, lr = hp["l2"], hp["learning_rate"]
    ords = np.argsort(X, axis=0, kind="stable").T  # sorted once for all rounds
    trees = []
    loss_history = []
    for _ in range(hp["n_rounds"]):
        p = np.clip(models._sigmoid(raw), 1e-12, 1 - 1e-12)
        tree, values = _fit_boost_tree(X, p - y, p * (1.0 - p), ords, hp["max_depth"], lam)
        trees.append(tree)
        raw = raw + lr * values
        p = np.clip(models._sigmoid(raw), 1e-12, 1 - 1e-12)
        loss_history.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    return {"f0": f0, "learning_rate": lr, "trees": trees, "loss_history": loss_history}


TRAINERS = {
    "logistic_regression": train_logistic_regression,
    "linear_svm": train_linear_svm,
    "decision_tree": train_decision_tree,
    "random_forest": _train_random_forest,
    "gbdt": _train_gbdt,
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
    fold models are captured from its calls to ``models.predict_labels``,
    one per fold in fold order)."""
    fitted = []
    real_predict = models.predict_labels

    def capture(model, X_test):
        fitted.append(model.parameters)
        return real_predict(model, X_test)

    models.predict_labels = capture
    try:
        models.kfold_cv(algorithm, [(X, y)], k=k, seed=seed, hyperparams=hyperparams)
    finally:
        models.predict_labels = real_predict
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
