"""From-scratch binary classifiers with stratified cross-validation.

Six model families share one calling convention: ``train`` fits on a
feature matrix and 0/1 labels, the result scores rows with a value in
[0, 1], and label 1 ("changes") is predicted at score >= 0.5. Learned
state is kept JSON-serializable so models round-trip through save/load.

Score semantics per family: naive Bayes and trees emit class-1
posterior/leaf fractions; logistic regression and boosted trees emit a
sigmoid probability; the linear SVM emits a sigmoid-squashed margin
(monotone in the decision value, not calibrated).

Trees (the decision tree, each forest tree, each boosting round) share one
split search, ``_best_split``. A fit sorts every column once; each node
carries its rows as its slice of those orders, so no node sorts again, and
the search scores every cut of every feature at once from prefix sums of
per-row statistics ``g`` and ``h``: Gini gain with ``g = y``, ``h = 1``
for CART and the forest, the second-order gain with the logistic gradient
and Hessian for boosting. The lowest threshold wins within a feature, and a
later feature must beat it by more than 1e-12. A threshold is the midpoint
of the two values around the cut, or the lower value where the midpoint
rounds up to the upper one, so ``x <= threshold`` always separates them.
Boosting updates the training scores of a round from the rows each leaf
received as the tree grew, which are the rows scoring routes there.

The linear families fit folds in lockstep: ``kfold_cv`` hands the training
splits of all its non-degenerate folds to one fitter, ``_fit_linear_svm``
or ``_fit_logistic_regression``, and ``train`` is that fitter's one-split
call. Every split sees the float operations its own fit would, so each
result is bit-identical to fitting it alone. Pegasos splits share the step
size 1/(lambda*t) at step t and draw one permutation per epoch from their
own ``default_rng(seed)``; their margins are ``np.vecdot`` of row and
weights (bit-equal to the 1-D dot product, which ``einsum`` and
``(z * w).sum()`` are not), and only splits inside the margin are written,
so no ``+0`` is added over a ``-0.0``. Logistic-regression splits of one
length descend as a stack of matrix-vector products.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

ALGORITHMS = (
    "naive_bayes",
    "decision_tree",
    "logistic_regression",
    "random_forest",
    "linear_svm",
    "gbdt",
)

DEFAULT_HYPERPARAMS: dict[str, dict] = {
    "naive_bayes": {"var_floor": 1e-9},
    "decision_tree": {"max_depth": 6, "min_samples_leaf": 2},
    "logistic_regression": {"l2": 1e-3, "epochs": 500, "learning_rate": 0.1},
    "random_forest": {"n_trees": 100, "max_depth": 6, "min_samples_leaf": 2},
    "linear_svm": {"l2": 1e-3, "epochs": 500},
    "gbdt": {"n_rounds": 100, "max_depth": 3, "learning_rate": 0.1, "l2": 1.0},
}


@dataclass(frozen=True)
class TrainedClassifier:
    """A fitted model: algorithm tag plus JSON-safe learned parameters."""

    algorithm: str
    parameters: dict
    hyperparams: dict
    seed: int
    feature_names: tuple[str, ...]

    def scores(self, X) -> np.ndarray:
        """Class-1 scores in [0, 1] for each row of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}")
        if "constant" in self.parameters:
            return np.full(X.shape[0], float(self.parameters["constant"]))
        return _SCORERS[self.algorithm](self.parameters, X)


@dataclass(frozen=True)
class EvalReport:
    """Cross-validation outcome: per-fold and aggregate accuracy/F1."""

    algorithm: str
    k: int
    seed: int
    fold_accuracy: tuple[float, ...]
    fold_f1: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    mean_f1: float
    std_f1: float
    confusion: Mapping[str, int]  # tp/fp/tn/fn totals over all test folds
    degenerate_folds: tuple[int, ...] = ()
    fold_scaler_stats: tuple = field(default=(), repr=False)


# ---------------------------------------------------------------------------
# shared helpers

def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    # checked before the int cast, which would truncate 0.5 to 0
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (no nan or inf)")
    return X, y.astype(int)


def _fit_scaler(X: np.ndarray) -> dict:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return {"mean": mean.tolist(), "std": std.tolist()}


def _apply_scaler(scaler: Mapping, X: np.ndarray) -> np.ndarray:
    return (X - np.asarray(scaler["mean"])) / np.asarray(scaler["std"])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _constant_params(y: np.ndarray) -> dict:
    return {"constant": float(y[0])}


# ---------------------------------------------------------------------------
# decision trees (shared by the tree, forest, and boosting families)

def _gini(counts1: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity given class-1 counts and positive totals (vectorized)."""
    p1 = counts1 / total
    return 1.0 - p1 ** 2 - (1.0 - p1) ** 2


def _gini_gain(GL, HL, G, H):
    """Gini gain of cuts sending ``GL`` class-1 rows of ``HL`` left, out of
    ``G`` of ``H`` in the node."""
    child = (HL * _gini(GL, HL) + (H - HL) * _gini(G - GL, H - HL)) / H
    return _gini(G, H) - child


def _second_order_gain(GL, HL, G, H, lam):
    """XGBoost gain 0.5*(GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))."""
    return 0.5 * (GL ** 2 / (HL + lam) + (G - GL) ** 2 / (H - HL + lam) - G ** 2 / (H + lam))


def _best_split(X, ords, features, g, h, G, H, gain, min_leaf, min_gain):
    """Best cut of one node as (gain, feature, threshold), or None.

    ``ords[j]`` holds the node's rows sorted by column ``j``, so prefix sums
    of ``g`` and ``h`` along it are the left-child sums of every cut; ``G``
    and ``H`` are the node totals. A cut lies between distinct values,
    leaves ``min_leaf`` rows per side and gains more than ``min_gain``."""
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
    mid = (lo + hi) / 2.0  # can round up to ``hi`` when the two are adjacent floats
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
    """CART over all rows of ``(X, y)``; leaves store the class-1 fraction.

    Impure nodes split on the best Gini gain even when that gain is zero
    (a zero-gain cut can still enable a useful second-level split, as in
    parity-structured data). With ``rng``, every node searches a fresh
    subsample of ``n_subsample`` features (the random forest)."""
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
                           _gini_gain, min_leaf, -np.inf)
        if best is None:
            return {"leaf": p1, "n": int(idx.size)}
        return _branch(X, idx, ords, best[1], best[2], grow, depth)

    return grow(np.arange(y.size), np.argsort(X, axis=0, kind="stable").T, 0)


def _fit_boost_tree(X, g, h, ords, max_depth, lam):
    """Second-order regression tree on gradients ``g`` and Hessians ``h``
    (``ords`` presorted as in :func:`_best_split`); leaves store the weight
    -G/(H+lam), and only gains above 1e-12 split.

    Returns the tree and each training row's leaf weight, taken from the
    rows each leaf received, which are the rows the tree routes there."""
    features = np.arange(X.shape[1])
    gain = partial(_second_order_gain, lam=lam)
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


def _tree_scores(node: Mapping, X: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    if "leaf" in node:
        out[idx] = node["leaf"]
        return
    mask = X[idx, node["feature"]] <= node["threshold"]
    _tree_scores(node["left"], X, out, idx[mask])
    _tree_scores(node["right"], X, out, idx[~mask])


def _eval_tree(node: Mapping, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    _tree_scores(node, X, out, np.arange(X.shape[0]))
    return out


# ---------------------------------------------------------------------------
# training per family

def _train_naive_bayes(X, y, hp, seed):
    floor = hp["var_floor"]
    params = {"classes": [], "log_prior": [], "mean": [], "var": []}
    for c in (0, 1):
        rows = X[y == c]
        params["classes"].append(c)
        params["log_prior"].append(float(np.log(rows.shape[0] / X.shape[0])))
        params["mean"].append(rows.mean(axis=0).tolist())
        params["var"].append(np.maximum(rows.var(axis=0), floor).tolist())
    return params


def _score_naive_bayes(params, X):
    joint = []
    for i in range(2):
        mean = np.asarray(params["mean"][i])
        var = np.asarray(params["var"][i])
        ll = -0.5 * (np.log(2 * np.pi * var) + (X - mean) ** 2 / var).sum(axis=1)
        joint.append(params["log_prior"][i] + ll)
    joint = np.vstack(joint)
    return np.exp(joint[1] - np.logaddexp(joint[0], joint[1]))


def _train_decision_tree(X, y, hp, seed):
    return {"tree": _fit_tree(X, y, hp["max_depth"], hp["min_samples_leaf"])}


def _score_decision_tree(params, X):
    return _eval_tree(params["tree"], X)


def _fit_logistic_regression(splits, hp, seed):
    """Full-batch gradient descent on the L2-penalized log loss, one fit per
    ``(X, y)`` split, each z-scored by its own scaler; splits of one length
    are stacked."""
    lr, lam = hp["learning_rate"], hp["l2"]
    scalers = [_fit_scaler(X) for X, _ in splits]
    by_length: dict[int, list[int]] = {}
    for f, (X, _) in enumerate(splits):
        by_length.setdefault(X.shape[0], []).append(f)
    fits: list = [None] * len(splits)
    for n, group in by_length.items():
        Z = np.stack([_apply_scaler(scalers[f], splits[f][0]) for f in group])
        Zt = Z.transpose(0, 2, 1)
        Y = np.stack([splits[f][1] for f in group])
        W = np.zeros((len(group), Z.shape[2]))
        B = np.zeros(len(group))
        for _ in range(hp["epochs"]):
            R = _sigmoid((Z @ W[:, :, None])[:, :, 0] + B[:, None]) - Y
            grad_w = (Zt @ R[:, :, None])[:, :, 0] / n + lam * W
            W -= lr * grad_w
            B -= lr * R.mean(axis=1)
        for f, w, b in zip(group, W, B):
            fits[f] = {"weights": w.tolist(), "bias": float(b), "scaler": scalers[f]}
    return fits


def _score_logistic_regression(params, X):
    Z = _apply_scaler(params["scaler"], X)
    return _sigmoid(Z @ np.asarray(params["weights"]) + params["bias"])


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


def _score_random_forest(params, X):
    votes = [_eval_tree(t, X) for t in params["trees"]]
    return np.mean(votes, axis=0)


_SVM_CHUNK = 256  # Pegasos steps whose rows are gathered at once


def _fit_linear_svm(splits, hp, seed):
    """Hinge-loss SGD with 1/(lambda*t) steps, one fit per ``(X, y)`` split;
    the intercept rides along as an augmented constant feature, so it
    shares the light L2 penalty. The splits are the rows of one weight
    array, longest first, so the splits still running are a prefix."""
    lam, epochs = hp["l2"], hp["epochs"]
    scalers, signed = [], []
    for X, y in splits:
        scaler = _fit_scaler(X)
        Z = np.hstack([_apply_scaler(scaler, X), np.ones((X.shape[0], 1))])
        scalers.append(scaler)
        # Rows times their +-1 target: only signs flip, so margins and
        # updates equal the one-split loop's ``target * (z @ w)`` and
        # ``eta * target * z`` bit for bit.
        signed.append(np.where(y == 1, 1.0, -1.0)[:, None] * Z)
    order = sorted(range(len(splits)), key=lambda f: -signed[f].shape[0])
    ends = [epochs * signed[f].shape[0] for f in order]  # non-increasing
    rngs = [np.random.default_rng(seed) for _ in order]
    pending = [np.empty(0, dtype=int) for _ in order]
    W = np.zeros((len(order), signed[0].shape[1]))
    t = 0
    while t < ends[0]:
        m = sum(end > t for end in ends)  # active splits, a prefix of ``order``
        size = min(_SVM_CHUNK, ends[m - 1] - t)
        chunk = []
        for a in range(m):
            Z, rng = signed[order[a]], rngs[a]
            while pending[a].size < size:  # a new epoch starts within the chunk
                pending[a] = np.concatenate([pending[a], rng.permutation(Z.shape[0])])
            chunk.append(Z[pending[a][:size]])
            pending[a] = pending[a][size:]
        rows = np.stack(chunk, axis=1)  # (step, split, feature)
        Wa, step = W[:m], np.empty((m, W.shape[1]))
        for r in rows:
            t += 1
            eta = 1.0 / (lam * t)
            Wa *= 1.0 - eta * lam
            hit = np.vecdot(r, Wa) < 1.0
            if hit.any():  # splits off the margin are not written, so -0.0 stays
                np.add(Wa, np.multiply(r, eta, out=step), out=Wa, where=hit[:, None])
    fits: list = [None] * len(splits)
    for a, f in enumerate(order):
        fits[f] = {"weights": W[a].tolist(), "scaler": scalers[f]}
    return fits


def _score_linear_svm(params, X):
    Z = np.hstack([_apply_scaler(params["scaler"], X), np.ones((X.shape[0], 1))])
    return _sigmoid(Z @ np.asarray(params["weights"]))


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
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        tree, values = _fit_boost_tree(X, p - y, p * (1.0 - p), ords, hp["max_depth"], lam)
        trees.append(tree)
        raw = raw + lr * values
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        loss_history.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    return {"f0": f0, "learning_rate": lr, "trees": trees, "loss_history": loss_history}


def _score_gbdt(params, X):
    raw = np.full(X.shape[0], params["f0"])
    for tree in params["trees"]:
        raw += params["learning_rate"] * _eval_tree(tree, X)
    return _sigmoid(raw)


#: Fitters that take a list of ``(X, y)`` splits and fit them all at once.
_FOLD_FITTERS = {
    "logistic_regression": _fit_logistic_regression,
    "linear_svm": _fit_linear_svm,
}

_TRAINERS = {
    "naive_bayes": _train_naive_bayes,
    "decision_tree": _train_decision_tree,
    "random_forest": _train_random_forest,
    "gbdt": _train_gbdt,
    **{name: (lambda X, y, hp, seed, fit=fit: fit([(X, y)], hp, seed)[0])
       for name, fit in _FOLD_FITTERS.items()},
}

_SCORERS = {
    "naive_bayes": _score_naive_bayes,
    "decision_tree": _score_decision_tree,
    "logistic_regression": _score_logistic_regression,
    "random_forest": _score_random_forest,
    "linear_svm": _score_linear_svm,
    "gbdt": _score_gbdt,
}


def _hyperparams(algorithm: str, hyperparams: Mapping | None) -> dict:
    """The family's defaults updated with ``hyperparams``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    hp = dict(DEFAULT_HYPERPARAMS[algorithm])
    if hyperparams:
        unknown = set(hyperparams) - set(hp)
        if unknown:
            raise ValueError(f"unknown hyperparameter(s) for {algorithm}: {sorted(unknown)}")
        hp.update(hyperparams)
    return hp


def train(
    algorithm: str,
    X,
    y,
    hyperparams: Mapping | None = None,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
    *,
    parameters: dict | None = None,
) -> TrainedClassifier:
    """Fit one model family on a 0/1-labeled feature matrix.

    A single-class ``y`` yields a constant predictor (with a warning)
    instead of failing, so degenerate folds stay survivable. ``parameters``
    are this split's parameters when a fold-batched fitter has already
    fitted them (:func:`kfold_cv` passes them): they are checked against
    the inputs like a fresh fit and wrapped, not fitted again.
    """
    hp = _hyperparams(algorithm, hyperparams)
    X, y = _validate_xy(X, y)
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{i}" for i in range(X.shape[1]))
    if len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} feature names for {X.shape[1]} columns")
    if np.unique(y).size < 2:
        warnings.warn(f"single-class training data; {algorithm} degenerates to a "
                      "constant predictor", stacklevel=2)
        params = _constant_params(y)
    elif parameters is not None:
        params = parameters
    else:
        params = _TRAINERS[algorithm](X, y, hp, seed)
    return TrainedClassifier(algorithm=algorithm, parameters=params,
                             hyperparams=hp, seed=seed, feature_names=names)


def predict(model: TrainedClassifier, x) -> tuple[int, float]:
    """(label, score) for one feature vector; label 1 at score >= 0.5."""
    score = float(model.scores(np.asarray(x, dtype=float).reshape(1, -1))[0])
    return (1 if score >= 0.5 else 0, score)


def predict_labels(model: TrainedClassifier, X) -> np.ndarray:
    return (model.scores(X) >= 0.5).astype(int)


def metrics(y_true, y_pred) -> dict[str, float]:
    """Accuracy and F1 on the positive class (label 1, "changes")."""
    y_true = np.asarray(y_true, dtype=int).ravel()
    y_pred = np.asarray(y_pred, dtype=int).ravel()
    if y_true.size == 0:
        raise ValueError("empty input")
    if y_true.shape != y_pred.shape:
        raise ValueError("length mismatch")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    accuracy = float(np.mean(y_true == y_pred))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"accuracy": accuracy, "f1": f1}


def stratified_folds(y, k: int, seed: int = 0) -> list[np.ndarray]:
    """Test-index folds with per-class round-robin dealing.

    Each class's indices are shuffled with the seed and dealt to folds in
    turn, so every fold's class counts are within 1 of an even split.
    """
    y = np.asarray(y, dtype=int).ravel()
    if not 2 <= k <= y.size:
        raise ValueError(f"k={k} outside [2, {y.size}]")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    pos = 0  # runs on across classes so no fold stays empty when n >= k
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        for i in idx:
            folds[pos % k].append(int(i))
            pos += 1
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def kfold_cv(
    algorithm: str,
    X,
    y,
    k: int = 10,
    seed: int = 0,
    hyperparams: Mapping | None = None,
    feature_names: Sequence[str] | None = None,
) -> EvalReport:
    """Stratified k-fold cross-validation of one model family.

    Every sample is tested exactly once. Folds whose training split lost a
    class are still evaluated (constant predictor) but flagged in
    ``degenerate_folds``. Scaler statistics of standardizing families are
    kept per fold so leakage is auditable.
    """
    X, y = _validate_xy(X, y)
    folds = stratified_folds(y, k, seed)
    splits = []
    for test_idx in folds:
        train_mask = np.ones(y.size, dtype=bool)
        train_mask[test_idx] = False
        splits.append((X[train_mask], y[train_mask]))
    degenerate = [f for f, (_, y_tr) in enumerate(splits) if np.unique(y_tr).size < 2]
    live = [f for f in range(k) if f not in degenerate]
    fitted: dict[int, dict] = {}
    if algorithm in _FOLD_FITTERS and live:  # degenerate folds stay constant predictors
        fitted = dict(zip(live, _FOLD_FITTERS[algorithm](
            [splits[f] for f in live], _hyperparams(algorithm, hyperparams), seed)))
    accs: list[float] = []
    f1s: list[float] = []
    confusion = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    scaler_stats: list = []
    for fold_no, (test_idx, (X_tr, y_tr)) in enumerate(zip(folds, splits)):
        with warnings.catch_warnings():
            if fold_no in degenerate:
                warnings.simplefilter("ignore")
            model = train(algorithm, X_tr, y_tr, hyperparams, seed, feature_names,
                          parameters=fitted.get(fold_no))
        scaler_stats.append(model.parameters.get("scaler"))
        y_hat = predict_labels(model, X[test_idx])
        y_tst = y[test_idx]
        m = metrics(y_tst, y_hat)
        accs.append(m["accuracy"])
        f1s.append(m["f1"])
        confusion["tp"] += int(np.sum((y_tst == 1) & (y_hat == 1)))
        confusion["fp"] += int(np.sum((y_tst == 0) & (y_hat == 1)))
        confusion["tn"] += int(np.sum((y_tst == 0) & (y_hat == 0)))
        confusion["fn"] += int(np.sum((y_tst == 1) & (y_hat == 0)))
    return EvalReport(
        algorithm=algorithm, k=k, seed=seed,
        fold_accuracy=tuple(accs), fold_f1=tuple(f1s),
        mean_accuracy=float(np.mean(accs)), std_accuracy=float(np.std(accs)),
        mean_f1=float(np.mean(f1s)), std_f1=float(np.std(f1s)),
        confusion=confusion, degenerate_folds=tuple(degenerate),
        fold_scaler_stats=tuple(scaler_stats),
    )


def save_model(model: TrainedClassifier, path: str) -> None:
    payload = {
        "version": 1,
        "algorithm": model.algorithm,
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "feature_names": list(model.feature_names),
        "parameters": model.parameters,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> TrainedClassifier:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")
    if payload["algorithm"] not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {payload['algorithm']!r}")
    return TrainedClassifier(
        algorithm=payload["algorithm"],
        parameters=payload["parameters"],
        hyperparams=payload["hyperparams"],
        seed=int(payload["seed"]),
        feature_names=tuple(payload["feature_names"]),
    )


def write_eval_csv(rows: Sequence[tuple[str, str, EvalReport]], path: str) -> None:
    """Rows of (model, case, report) to the model,case,accuracy,f1 table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "case", "accuracy", "f1"])
        for algorithm, case, report in rows:
            writer.writerow([algorithm, case,
                             f"{report.mean_accuracy:.6f}", f"{report.mean_f1:.6f}"])
