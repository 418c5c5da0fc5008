"""Per-fit references for the differential tests of the fold-batched fitters.

These are the depth-first CART grower that fitted one decision tree at a
time from columns presorted once per fit, each node from its own prefix
sums; a level-wise grower that fits one forest or boosted ensemble at a
time, node by node, adding each node's sums in the order the histogram
search adds them (rows in row order, one running sum per depth over its
nodes' features' values); the old per-fold ``kfold_cv`` loop that called
them (and one-split ``models.train`` for the linear families); the
objectives the linear families minimize, with their gradients; the
per-index loop that dealt ``stratified_folds``; and the loop that built
``shapley_mc``'s coalition rows one flip at a time.  The tests require the
library to reproduce them exactly.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from volnet import models
from volnet.explain import _check_inputs


def linear_objective(algorithm, X, y, l2):
    """The objective a linear family minimizes, as a function of its
    parameter vector (weights, then bias), with its gradient; the scaler is
    the one ``train`` fits."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    Z = np.hstack([(X - mean) / np.where(std < 1e-12, 1.0, std), np.ones((y.size, 1))])
    penalized = np.ones(Z.shape[1])
    if algorithm == "logistic_regression":
        penalized[-1] = 0.0

    def f(w):
        m = Z @ w
        if algorithm == "logistic_regression":
            value, d1 = np.logaddexp(0.0, m) - y * m, np.exp(-np.logaddexp(0.0, -m)) - y
        else:
            t = 2.0 * y - 1.0
            slack = np.maximum(0.0, 1.0 - t * m)
            value, d1 = slack ** 2, -2.0 * t * slack
        reg = l2 * penalized * w
        return value.mean() + 0.5 * reg @ w, Z.T @ d1 / y.size + reg

    return f


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


def _fit_tree(X, y, max_depth, min_leaf):
    """CART over all rows of ``(X, y)``, grown depth first, each node from
    its own prefix sums."""
    g, h = y.astype(float), np.ones(y.size)
    features = np.arange(X.shape[1])

    def grow(idx, ords, depth):
        p1 = float(y[idx].mean())
        if depth >= max_depth or idx.size < 2 * min_leaf or p1 in (0.0, 1.0):
            return {"leaf": p1, "n": int(idx.size)}
        best = _best_split(X, ords, features, g, h, g[idx].sum(), h[idx].sum(),
                           models._gini_gain, min_leaf, -np.inf)
        if best is None:
            return {"leaf": p1, "n": int(idx.size)}
        _, j, thr = best
        mask = X[idx, j] <= thr
        go_left = np.zeros(X.shape[0], dtype=bool)
        go_left[idx[mask]] = True
        keep = go_left[ords]
        d = ords.shape[0]
        return {"feature": j, "threshold": thr,
                "left": grow(idx[mask], ords[keep].reshape(d, -1), depth + 1),
                "right": grow(idx[~mask], ords[~keep].reshape(d, -1), depth + 1)}

    return grow(np.arange(y.size), np.argsort(X, axis=0, kind="stable").T, 0)


def grow_level_wise(tables, gain, max_depth, min_leaf, min_gain, lam=None, draw=None, gains=None):
    """Trees grown depth by depth, one node at a time, from ``tables`` of
    ``(X, g, h)``, one per tree; returns the trees and each tree's
    per-row leaf values.

    A node's totals add its rows' ``g`` and ``h`` left to right in row
    order. With ``lam`` (boosting) its leaf is -G/(H+lam) and a side's size
    counts rows; without it ``g`` and ``h`` are class-1 and row counts, the
    size is ``h``, its leaf is G/H and a pure node does not split. The nodes
    of a depth that may split, tree after tree, are searched together: with
    ``draw``, ``draw(m)`` gives the sorted features of each of those ``m``
    nodes. Each (node, feature) sums each of its distinct values' rows in
    row order, values ascending; a cut's left sums are one running sum over
    the depth's (node, feature, value) sums, less its value before the
    (node, feature). ``gains``, if given, collects each cut's gain, depth by
    depth."""
    trees = [{} for _ in tables]
    values = [np.empty(len(g)) for _, g, _ in tables]
    level = [(tree, t, np.arange(len(g))) for t, (tree, (_, g, _)) in
             enumerate(zip(trees, tables))]
    depth = 0
    while level:
        growing = []
        for node, t, idx in level:
            X, g, h = tables[t]
            G, H = np.cumsum(g[idx])[-1], np.cumsum(h[idx])[-1]  # not pairwise ``.sum()``
            if lam is None:
                leaf, pure, n = float(G / H), G in (0.0, H), H
            else:
                leaf, pure, n = float(-G / (H + lam)), False, idx.size
            if pure or depth >= max_depth or n < 2 * min_leaf:
                node.update(leaf=leaf, n=int(n))
                values[t][idx] = leaf
            else:
                growing.append((node, t, idx, G, H, n, leaf))
        d = tables[0][0].shape[1]
        features = (draw(len(growing)) if draw is not None and growing
                    else np.tile(np.arange(d), (len(growing), 1)))
        blocks = []  # (node, feature, its distinct values, their g, h and size sums)
        for s, (_, t, idx, *_) in enumerate(growing):
            X, g, h = tables[t]
            size = h if lam is None else np.ones(len(g))
            for j in features[s]:
                distinct, value = np.unique(X[idx, j], return_inverse=True)
                sums = np.zeros((3, distinct.size))
                for out, v in zip(sums, (g, h, size)):
                    np.add.at(out, value, v[idx])  # one row after another
                blocks.append((s, j, distinct, sums))
        run = np.cumsum(np.hstack([sums for *_, sums in blocks]), axis=1) if blocks else None
        best = [None] * len(growing)
        at = 0
        for s, j, distinct, sums in blocks:  # the lowest threshold wins; a later feature by 1e-12
            before = run[:, at - 1] if at else np.zeros(3)
            GL, HL, left_n = run[:, at:at + distinct.size - 1] - before[:, None]
            at += distinct.size
            _, _, _, G, H, n, _ = growing[s]
            ok = (left_n >= min_leaf) & (n - left_n >= min_leaf)
            if not ok.any():
                continue
            scores = np.where(ok, gain(GL, HL, G, H), -np.inf)
            p = int(np.argmax(scores))
            if scores[p] > min_gain and (best[s] is None or scores[p] > best[s][0] + 1e-12):
                mid = (distinct[p] + distinct[p + 1]) / 2.0
                best[s] = (scores[p], int(j), float(mid if mid < distinct[p + 1] else distinct[p]))
        level = []
        for (node, t, idx, _, _, n, leaf), top in zip(growing, best):
            if top is None:
                node.update(leaf=leaf, n=int(n))
                values[t][idx] = leaf
                continue
            top_gain, j, thr = top
            if gains is not None:
                gains.append(float(top_gain))
            mask = tables[t][0][idx, j] <= thr
            node.update(feature=j, threshold=thr, left={}, right={})
            level += [(node["left"], t, idx[mask]), (node["right"], t, idx[~mask])]
        depth += 1
    return trees, values


def train_decision_tree(X, y, hp, seed):
    return {"tree": _fit_tree(X, y, hp["max_depth"], hp["min_samples_leaf"])}


def _train_random_forest(X, y, hp, seed):
    """Every tree's bootstrap drawn at once, then the trees grown level by
    level together, each depth drawing its nodes' feature subsamples."""
    rng = np.random.default_rng(seed)
    n, d = X.shape
    k = max(1, int(np.sqrt(d)))
    samples = rng.integers(0, n, size=(hp["n_trees"], n))

    def draw(m):
        return np.sort(rng.permuted(np.tile(np.arange(d), (m, 1)), axis=1)[:, :k], axis=1)

    trees, _ = grow_level_wise([(X[s], y[s].astype(float), np.ones(n)) for s in samples],
                               models._gini_gain, hp["max_depth"], hp["min_samples_leaf"],
                               -np.inf, draw=draw if k < d else None)
    return {"trees": trees}


def _train_gbdt(X, y, hp, seed):
    n = X.shape[0]
    p_base = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = float(np.log(p_base / (1.0 - p_base)))
    raw = np.full(n, f0)
    lam, lr = hp["l2"], hp["learning_rate"]
    gain = partial(models._second_order_gain, lam=lam)
    trees = []
    loss_history = []
    for _ in range(hp["n_rounds"]):
        p = np.clip(models._sigmoid(raw), 1e-12, 1 - 1e-12)
        [tree], [values] = grow_level_wise([(X, p - y, p * (1.0 - p))], gain,
                                           hp["max_depth"], 1, 1e-12, lam)
        trees.append(tree)
        raw = raw + lr * values
        p = np.clip(models._sigmoid(raw), 1e-12, 1 - 1e-12)
        loss_history.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    return {"f0": f0, "learning_rate": lr, "trees": trees, "loss_history": loss_history}


def _train_linear(algorithm, X, y, hp, seed):
    assert hp == models.HYPERPARAMS[algorithm]  # ``train`` reads the table itself
    return models.train(algorithm, X, y, seed=seed).parameters


TRAINERS = {
    "logistic_regression": partial(_train_linear, "logistic_regression"),
    "linear_svm": partial(_train_linear, "linear_svm"),
    "decision_tree": train_decision_tree,
    "random_forest": _train_random_forest,
    "gbdt": _train_gbdt,
}


def fold_parameters(algorithm, X, y, k, seed):
    """Each fold's parameters as the per-fold loop fitted them: the
    reference trainer, with the family's ``models.HYPERPARAMS``, on the
    fold's training split, or the constant predictor when that split lost
    a class."""
    hp = models.HYPERPARAMS[algorithm]
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


def cv_fold_parameters(algorithm, X, y, k, seed):
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
        models.kfold_cv(algorithm, X, y, k=k, seed=seed)
    finally:
        models.predict_labels = real_predict
    return fitted


def stratified_folds(y, k, seed=0):
    """``models.stratified_folds`` as a per-index loop: each class's shuffled
    indices are dealt to the folds in turn, the turn running on across
    classes."""
    y = np.asarray(y, dtype=int).ravel()
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    pos = 0
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        for i in idx:
            folds[pos % k].append(int(i))
            pos += 1
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def shapley_mc(model, x, background, n_permutations=1000, seed=0):
    """(phi, std_err, base_value, prediction) from the flip-by-flip row loop."""
    x, background = _check_inputs(model, x, background)
    d = x.shape[0]
    rng = np.random.default_rng(seed)
    rows = np.empty((n_permutations * (d + 1), d))
    picks = rng.integers(background.shape[0], size=n_permutations)
    orders = rng.permuted(np.tile(np.arange(d), (n_permutations, 1)), axis=1)
    for t, order in enumerate(orders):
        z = background[picks[t]].copy()
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
