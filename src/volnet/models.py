"""From-scratch binary classifiers with stratified cross-validation.

Six model families share one calling convention: ``train`` fits on a
feature matrix and 0/1 labels, the result scores rows with a value in
[0, 1], and label 1 ("changes") is predicted at score >= 0.5. Learned
state is kept JSON-serializable so models round-trip through save/load.

Score semantics per family: naive Bayes and trees emit class-1
posterior/leaf fractions; logistic regression and boosted trees emit a
sigmoid probability; the linear SVM emits a sigmoid-squashed margin
(monotone in the decision value, not calibrated).

Every family's fitter takes a list of ``(X, y)`` training splits:
``kfold_cv`` hands it the training splits of its folds, and ``train`` one.
``_fit_two_class`` alone turns a split that lost a class into a constant
predictor and has the family fit the others; every split sees the float
operations its own fit would, so each result is bit-identical to fitting it
alone.

A model's score of a row does not depend on the batch it is scored in:
margins are ``np.vecdot`` of rows and weights, not BLAS ``@``, and a forest
adds its trees' votes one tree at a time.

Trees (the decision tree, each forest tree, each boosting round) share one
level-wise grower, ``_grow``, an exact histogram split search (XGBoost's
``hist`` with one bin per distinct value). A call grows every tree of a list
of splits (of one split, for a forest) one depth at a time, each depth one
array pass over every node of every tree. Each feature is coded once per
call by its values' ranks, and rows are never reordered, only relabelled
with their node. One ``bincount`` per statistic over (node, feature, value)
keys gives each node's per-value sums, rows added in row order; a cut's left
sums are a running sum per split over the present values, less its value
before the (node, feature). Gini gain takes ``g = y`` and ``h = 1`` (CART,
the forest), counts that add up exactly in any order; boosting takes the
second-order gain of the logistic gradient and Hessian, and a node's totals
add its rows left to right in row order. The lowest threshold wins within a
feature, and a later feature must beat it by more than 1e-12. A threshold is
the midpoint of the node's two values around the cut, or the lower value
where the midpoint rounds up to the upper one, so ``x <= threshold`` always
separates them. A forest split draws all its trees' bootstraps from its own
``default_rng(seed)`` at once, grows a row drawn w times once with weight w,
and draws, depth by depth, one sorted feature subsample for every node that
may split, in (tree, node) order. A boosting round updates each split's
scores from the leaf value the grower wrote for each training row.

Both linear families are one Newton solver, ``_newton``, run split by split:
damped Newton steps with Armijo backtracking until every gradient entry is
below ``_NEWTON_TOL``, a fit that reaches ``_NEWTON_STEPS`` warning that it
did. Logistic regression minimizes the mean log loss plus ``l2/2*||w||^2``
with its bias unpenalized, and the linear SVM the mean squared hinge plus
``l2/2*||w||^2`` with its bias an appended, penalized constant feature.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import write_json, write_rows

ALGORITHMS = (
    "naive_bayes",
    "decision_tree",
    "logistic_regression",
    "random_forest",
    "linear_svm",
    "gbdt",
)

#: Each family's hyperparameters; a model's JSON records the values it was fit with.
HYPERPARAMS: dict[str, dict] = {
    "naive_bayes": {"var_floor": 1e-9},
    "decision_tree": {"max_depth": 6, "min_samples_leaf": 2},
    "logistic_regression": {"l2": 1e-3},
    "random_forest": {"n_trees": 100, "max_depth": 6, "min_samples_leaf": 2},
    "linear_svm": {"l2": 1e-3},
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


def _feature_names(feature_names: Sequence[str] | None, d: int) -> tuple[str, ...]:
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{i}" for i in range(d))
    if len(names) != d:
        raise ValueError(f"{len(names)} feature names for {d} columns")
    return names


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


@dataclass(frozen=True)
class _TreeRule:
    """How a family grows its trees: the cut score, the depth and leaf-size
    limits, the gain a cut must exceed and, for boosting, the leaves' L2.
    ``min_leaf`` counts ``h`` for Gini and rows (one per cut side) for boosting."""

    gain: Callable
    max_depth: int
    min_leaf: int
    min_gain: float
    lam: float | None = None


def _grow(bins, levels, edges, sizes, lanes, g, h, rule: _TreeRule, draw=None):
    """Grow one tree per entry of ``sizes`` level by level; return the trees
    and each grown row's leaf value.

    A grown row (a column of ``bins``, with its ``g`` and ``h``) is one
    tree's copy of a training row; trees of ``sizes`` rows follow each other
    in the order of their ``lanes``. Rows are never reordered: each depth
    keeps the rows still growing and each one's node, and a node's totals
    add its rows in row order. With ``lam`` a leaf is -G/(H+lam); without it
    G and H count class-1 rows and rows, a leaf is G/H and a pure node does
    not split. The nodes that may split search every feature, or the sorted
    subsets ``draw(m)`` gives those ``m`` nodes (the random forest)."""
    (d, N), B = bins.shape, int(edges[-1])
    gh = np.vstack((g, h))
    trees = [{} for _ in sizes.tolist()]
    nodes, values, depth = trees, np.empty(N), 0
    rows, node = np.arange(N), np.repeat(np.arange(sizes.size), sizes)
    while nodes:
        G, H = (np.bincount(node, w, len(nodes)) for w in gh.take(rows, axis=1))
        if rule.lam is None:
            leaf, n, grow = G / H, H, (G != 0.0) & (G != H)
        else:  # every node may split
            leaf, n, grow = -G / (H + rule.lam), np.bincount(node, minlength=len(nodes)), True
        grow &= (n >= 2 * rule.min_leaf) & (depth < rule.max_depth)
        cut = np.zeros(len(nodes), dtype=bool)
        if grow.any():
            live, m = grow[node], int(np.count_nonzero(grow))
            r, s = rows[live], (np.cumsum(grow) - 1)[node[live]]  # each row's searched node
            if draw is None:  # node s, value b of ``levels``: key s * B + b
                K, size = d, m * B
                feats, shift = np.arange(m * d) % d, np.arange(m * d) // d * B
                keys = bins.take(r, axis=1) + s * B
            else:  # the drawn features' values, node by node
                drawn = draw(m)
                K, feats = drawn.shape[1], drawn.ravel()
                span = edges[feats + 1] - edges[feats]
                shift, size = np.cumsum(span) - span - edges[feats], int(span.sum())
                keys = bins.take(drawn[s].T * N + r) + shift.reshape(m, K)[s].T
            pos, pick, _, slot = _best_cuts(keys, gh.take(r, axis=1), shift + edges[feats], size,
                                            lanes[grow], G[grow], H[grow], rule)
            cut[grow] = split = slot >= 0
            block = np.flatnonzero(split) * K + slot[split]
            at = pick[block]  # the cut's value; the next present one opens the right side
            j, lo, hi = feats[block], pos[at] - shift[block], pos[at + 1] - shift[block]
            mid = (levels[lo] + levels[hi]) / 2.0  # can round up to ``hi`` when the two are adjacent floats
            thr = np.where(mid < levels[hi], mid, levels[lo])
            cuts = iter(zip(j.tolist(), thr.tolist()))
        stay = ~cut[node]
        values[rows[stay]] = leaf[node[stay]]
        rows, parent = rows[~stay], (np.cumsum(cut) - 1)[node[~stay]]
        if rows.size:  # the left child takes values up to the cut's
            node = 2 * parent + (bins.take(j[parent] * N + rows) > lo[parent])
        children: list = []
        for tree_node, c, v, count in zip(nodes, cut.tolist(), leaf.tolist(), n.tolist()):
            if c:
                feature, threshold = next(cuts)
                tree_node.update(feature=feature, threshold=threshold, left={}, right={})
                children += (tree_node["left"], tree_node["right"])
            else:
                tree_node.update(leaf=v, n=int(count))
        lanes, nodes, depth = np.repeat(lanes[cut], 2), children, depth + 1
    return trees, values


def _best_cuts(keys, gh, starts, size, lanes, G, H, rule: _TreeRule):
    """The present keys, each (node, slot) block's best cut as an index into
    them (the next opens the right side) and best gain, and each node's slot
    (-1 for none). Row ``i`` of ``keys`` holds each grown row's key (of
    ``size``) in slot ``i``, a block's keys from ``starts`` on, blocks in
    (node, slot) order; ``gh`` holds the rows' ``g`` and ``h``, ``G`` and
    ``H`` the nodes' totals. A cut's left sums are a running sum per lane
    (``lanes`` nondecreasing) over the present keys' sums, less its value
    before the block. The lowest valid cut wins within a block, and a later
    slot by more than 1e-12."""
    K, flat = keys.shape[0], keys.ravel()
    if size > 4 * flat.size:  # mostly absent keys: sort them rather than count every one
        pos, flat = np.unique(flat, return_inverse=True)
        sums = np.vstack([np.bincount(flat, w, pos.size) for w in np.tile(gh, K)])
    else:
        sums = np.vstack([np.bincount(flat, w, size) for w in np.tile(gh, K)])
        pos = np.flatnonzero(sums[1] != 0.0)  # the present keys (h > 0): every block holds one
        sums = sums.take(pos, axis=1)
    first = np.searchsorted(pos, starts)
    block = np.repeat(np.arange(starts.size), np.diff(first, append=pos.size))
    fresh = (np.flatnonzero(lanes[1:] != lanes[:-1]) + 1) * K  # each later lane's first block
    run = np.empty_like(sums)
    bounds = [0, *first[fresh].tolist(), pos.size]
    for a, b in zip(bounds, bounds[1:]):
        np.cumsum(sums[:, a:b], axis=1, out=run[:, a:b])
    before = run.take(first - 1, axis=1)
    before[:, 0] = before[:, fresh] = 0.0
    GL, HL = run - before.take(block, axis=1)
    G, H = G.take(block // K), H.take(block // K)
    ok = np.ones(pos.size, dtype=bool)
    ok[first - 1] = False  # a block's last value leaves no row on the right
    if rule.lam is None:
        ok &= (HL >= rule.min_leaf) & (H - HL >= rule.min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):  # kept only at valid cuts
        scores = np.where(ok, rule.gain(GL, HL, G, H), -np.inf)
    tops = np.maximum.reduceat(scores, first)
    pick = np.minimum.reduceat(np.where(scores == tops.take(block), np.arange(pos.size), pos.size),
                               first)  # the first max: the lowest value
    slot, tops = [], tops.reshape(-1, K)
    for row in tops.tolist():
        best, bar = -1, rule.min_gain
        for i, top in enumerate(row):  # a later slot wins by more than 1e-12
            if top > bar:
                best, bar = i, top + 1e-12
        slot.append(best)
    return pos, pick, tops, np.array(slot)


def _grown_rows(splits, counts=None):
    """:func:`_grow`'s ``bins``, ``levels``, ``edges``, sizes, lanes, ``g`` and
    ``h`` for ``counts[a]`` (trees, rows), how often each tree draws each row
    of split ``a`` (by default, one tree of all rows): a drawn row is grown
    once with ``g = count * y`` and ``h = count``. Each feature is coded once
    over the stacked splits: ``levels`` holds every feature's sorted distinct
    values, feature ``j``'s from ``edges[j]``, and ``bins[j, r]`` is the
    index in ``levels`` of grown row ``r``'s value of feature ``j``."""
    counts = counts or [np.ones((1, y.size), dtype=int) for _, y in splits]
    coded = [np.unique(column, return_inverse=True)
             for column in np.vstack([X for X, _ in splits]).T]
    edges = np.cumsum([0, *(lv.size for lv, _ in coded)])
    blocks, offset = [], 0
    for a, ((_, y), w) in enumerate(zip(splits, counts)):
        drawn = w > 0
        blocks.append((np.nonzero(drawn)[1] + offset, drawn.sum(axis=1), np.full(w.shape[0], a),
                       (w * y)[drawn], w[drawn]))
        offset += y.size
    src, sizes, lanes, g, h = (np.concatenate(part) for part in zip(*blocks))
    bins = (np.vstack([inv for _, inv in coded]) + edges[:-1, None]).take(src, axis=1)
    return (bins.astype(np.min_scalar_type(edges[-1])), np.concatenate([lv for lv, _ in coded]),
            edges, sizes, lanes, g.astype(float), h.astype(float))


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

def _fit_naive_bayes(splits, hp, seed):
    fits = []
    for X, y in splits:
        params = {"classes": [], "log_prior": [], "mean": [], "var": []}
        for c in (0, 1):
            rows = X[y == c]
            params["classes"].append(c)
            params["log_prior"].append(float(np.log(rows.shape[0] / X.shape[0])))
            params["mean"].append(rows.mean(axis=0).tolist())
            params["var"].append(np.maximum(rows.var(axis=0), hp["var_floor"]).tolist())
        fits.append(params)
    return fits


def _score_naive_bayes(params, X):
    joint = []
    for i in range(2):
        mean = np.asarray(params["mean"][i])
        var = np.asarray(params["var"][i])
        ll = -0.5 * (np.log(2 * np.pi * var) + (X - mean) ** 2 / var).sum(axis=1)
        joint.append(params["log_prior"][i] + ll)
    joint = np.vstack(joint)
    return np.exp(joint[1] - np.logaddexp(joint[0], joint[1]))


def _fit_decision_tree(splits, hp, seed):
    rule = _TreeRule(_gini_gain, hp["max_depth"], hp["min_samples_leaf"], -np.inf)
    return [{"tree": tree} for tree in _grow(*_grown_rows(splits), rule)[0]]


def _score_decision_tree(params, X):
    return _eval_tree(params["tree"], X)


_NEWTON_TOL = 1e-8  # a linear fit stops once every gradient entry is below this
_NEWTON_STEPS = 50  # ... or after this many Newton steps, with a warning


def _newton(Z, y, l2, loss, penalized):
    """Minimize ``mean(loss(Z @ w, y)) + l2/2 * ||penalized * w||^2`` from
    ``w = 0``, ``penalized`` a 0/1 mask; ``loss`` gives each row's value and
    its first and second derivatives in the margin. Each step solves for the
    Newton direction and halves it until the Armijo condition holds, or takes
    it whole where the predicted decrease is below the objective's rounding.
    Returns the weights and the steps taken, None if the gradient test did
    not pass within ``_NEWTON_STEPS``."""
    n, reg = Z.shape[0], l2 * penalized

    def objective(w):
        value, d1, d2 = loss(Z @ w, y)
        return value.mean() + 0.5 * reg @ (w * w), d1, d2

    w = np.zeros(Z.shape[1])
    f, d1, d2 = objective(w)
    for steps in range(_NEWTON_STEPS + 1):
        grad = Z.T @ d1 / n + reg * w
        if np.abs(grad).max() < _NEWTON_TOL:
            return w, steps
        if steps == _NEWTON_STEPS:
            return w, None
        step = np.linalg.solve((Z.T * d2) @ Z / n + np.diag(reg), -grad)
        slope, t = grad @ step, 1.0
        while True:
            trial = objective(w + t * step)
            if trial[0] <= f + 1e-4 * t * slope or -slope <= 1e-12 * f:
                break
            t /= 2.0
        w, (f, d1, d2) = w + t * step, trial


def _log_loss(m, y):
    p = _sigmoid(m)
    return np.logaddexp(0.0, m) - y * m, p - y, p * (1.0 - p)


def _squared_hinge(m, y):
    t = 2.0 * y - 1.0
    slack = np.maximum(0.0, 1.0 - t * m)
    return slack * slack, -2.0 * t * slack, 2.0 * (slack > 0.0)


def _fit_linear(family, loss, bias_penalized, splits, l2):
    """Each ``(X, y)`` split's ``(weights, scaler)`` from :func:`_newton` on
    ``X`` z-scored by its own scaler, a constant 1 appended for the bias."""
    fits = []
    for X, y in splits:
        scaler = _fit_scaler(X)
        Z = np.hstack([_apply_scaler(scaler, X), np.ones((y.size, 1))])
        w, steps = _newton(Z, y, l2, loss, np.append(np.ones(X.shape[1]), float(bias_penalized)))
        if steps is None:
            warnings.warn(f"{family} stopped at the Newton step cap ({_NEWTON_STEPS} steps)")
        fits.append((w, scaler))
    return fits


def _fit_logistic_regression(splits, hp, seed):
    fits = _fit_linear("logistic_regression", _log_loss, False, splits, hp["l2"])
    return [{"weights": w[:-1].tolist(), "bias": float(w[-1]), "scaler": scaler}
            for w, scaler in fits]


def _score_logistic_regression(params, X):
    Z = _apply_scaler(params["scaler"], X)
    return _sigmoid(np.vecdot(Z, np.asarray(params["weights"])) + params["bias"])


def _fit_random_forest(splits, hp, seed):
    """Each split's trees, one grower call per split: 10 folds' 1,000 trees in
    one call would hold all their grown rows at once."""
    n_trees, d = hp["n_trees"], splits[0][0].shape[1]
    k = max(1, int(np.sqrt(d)))
    rule = _TreeRule(_gini_gain, hp["max_depth"], hp["min_samples_leaf"], -np.inf)
    fits = []
    for X, y in splits:
        rng = np.random.default_rng(seed)
        sample = rng.integers(0, y.size, size=(n_trees, y.size))
        sample += y.size * np.arange(n_trees)[:, None]
        counts = np.bincount(sample.ravel(), minlength=sample.size).reshape(sample.shape)

        def draw(m, rng=rng):
            return np.sort(rng.permuted(np.tile(np.arange(d), (m, 1)), axis=1)[:, :k], axis=1)

        trees, _ = _grow(*_grown_rows([(X, y)], [counts]), rule, draw if k < d else None)
        fits.append({"trees": trees})
    return fits


def _score_random_forest(params, X):
    total = np.zeros(X.shape[0])
    for tree in params["trees"]:
        total += _eval_tree(tree, X)
    return total / len(params["trees"])


def _fit_linear_svm(splits, hp, seed):
    return [{"weights": w.tolist(), "scaler": scaler}
            for w, scaler in _fit_linear("linear_svm", _squared_hinge, True, splits, hp["l2"])]


def _score_linear_svm(params, X):
    Z = np.hstack([_apply_scaler(params["scaler"], X), np.ones((X.shape[0], 1))])
    return _sigmoid(np.vecdot(Z, np.asarray(params["weights"])))


def _fit_gbdt(splits, hp, seed):
    """Each split's boosted ensemble: every round grows one tree per split,
    then updates each split's scores from the leaf values it grew."""
    lam, lr = hp["l2"], hp["learning_rate"]
    rule = _TreeRule(partial(_second_order_gain, lam=lam), hp["max_depth"], 1, 1e-12, lam)
    bins, levels, edges, sizes, lanes, y, _ = _grown_rows(splits)
    ends = np.cumsum(sizes).tolist()
    f0 = [float(np.log(p / (1.0 - p)))
          for p in (float(np.clip(y.mean(), 1e-12, 1 - 1e-12)) for _, y in splits)]
    raw = np.repeat(f0, sizes)
    fits = [{"f0": f, "learning_rate": lr, "trees": [], "loss_history": []} for f in f0]
    p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
    for _ in range(hp["n_rounds"]):
        trees, values = _grow(bins, levels, edges, sizes, lanes, p - y, p * (1.0 - p), rule)
        raw = raw + lr * values
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        loss = -(y * np.log(p) + (1 - y) * np.log(1 - p))
        for fit, tree, a, b in zip(fits, trees, [0, *ends], ends):
            fit["trees"].append(tree)
            fit["loss_history"].append(float(loss[a:b].mean()))
    return fits


def _score_gbdt(params, X):
    raw = np.full(X.shape[0], params["f0"])
    for tree in params["trees"]:
        raw += params["learning_rate"] * _eval_tree(tree, X)
    return _sigmoid(raw)


def _fit_two_class(algorithm, splits, hp, seed) -> list[dict]:
    """The family's fits of the ``splits`` that hold both classes; a
    single-class split becomes a constant predictor (``{"constant": label}``)."""
    live = [split for split in splits if np.unique(split[1]).size > 1]
    fits = iter(_FITTERS[algorithm](live, hp, seed) if live else [])
    return [next(fits) if np.unique(y).size > 1 else _constant_params(y) for _, y in splits]


#: Each family's fitter: a list of fitted parameters, one per ``(X, y)`` split.
_FITTERS = {
    "naive_bayes": _fit_naive_bayes,
    "decision_tree": _fit_decision_tree,
    "logistic_regression": _fit_logistic_regression,
    "random_forest": _fit_random_forest,
    "linear_svm": _fit_linear_svm,
    "gbdt": _fit_gbdt,
}

_SCORERS = {
    "naive_bayes": _score_naive_bayes,
    "decision_tree": _score_decision_tree,
    "logistic_regression": _score_logistic_regression,
    "random_forest": _score_random_forest,
    "linear_svm": _score_linear_svm,
    "gbdt": _score_gbdt,
}


def _hyperparams(algorithm: str) -> dict:
    """A copy of the family's ``HYPERPARAMS`` entry."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    return dict(HYPERPARAMS[algorithm])


def train(
    algorithm: str,
    X,
    y,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> TrainedClassifier:
    """Fit one model family on a 0/1-labeled feature matrix.

    A single-class ``y`` yields a constant predictor (with a warning)
    instead of failing, so degenerate folds stay survivable.
    """
    hp = _hyperparams(algorithm)
    X, y = _validate_xy(X, y)
    names = _feature_names(feature_names, X.shape[1])
    if np.unique(y).size < 2:
        warnings.warn(f"single-class training data; {algorithm} degenerates to a "
                      "constant predictor", stacklevel=2)
    [params] = _fit_two_class(algorithm, [(X, y)], hp, seed)
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
    _, accuracy, f1 = _confusion(y_true, y_pred)
    return {"accuracy": accuracy, "f1": f1}


def _confusion(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[dict[str, int], float, float]:
    """The tp/fp/tn/fn counts of 0/1 predictions, and the accuracy and F1
    they give; ``(tp + tn) / n`` is ``np.mean(y_true == y_pred)`` to the
    last bit, as a float sum of 0/1 values is exact."""
    counts = {"tp": int(np.sum((y_true == 1) & (y_pred == 1))),
              "fp": int(np.sum((y_true == 0) & (y_pred == 1))),
              "tn": int(np.sum((y_true == 0) & (y_pred == 0))),
              "fn": int(np.sum((y_true == 1) & (y_pred == 0)))}
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return counts, (tp + counts["tn"]) / y_true.size, f1


def stratified_folds(y, k: int, seed: int = 0) -> list[np.ndarray]:
    """Test-index folds with per-class round-robin dealing.

    Each class's indices are shuffled with the seed, the classes in
    ascending order, and the concatenation is dealt to folds in turn, so
    every fold's class counts are within 1 of an even split and, as the
    dealing runs on across classes, no fold is empty.
    """
    y = np.asarray(y, dtype=int).ravel()
    if not 2 <= k <= y.size:
        raise ValueError(f"k={k} outside [2, {y.size}]")
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(np.flatnonzero(y == c)) for c in np.unique(y)])
    return [np.sort(order[f::k]) for f in range(k)]


def kfold_cv(
    algorithm: str,
    X,
    y,
    k: int = 10,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> EvalReport:
    """Stratified k-fold cross-validation of one model family on ``(X, y)``.

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
    hp = _hyperparams(algorithm)
    names = _feature_names(feature_names, X.shape[1])
    fitted = _fit_two_class(algorithm, splits, hp, seed)
    per_fold = []
    for test_idx, params in zip(folds, fitted):
        model = TrainedClassifier(algorithm=algorithm, parameters=params, hyperparams=hp,
                                  seed=seed, feature_names=names)
        per_fold.append(_confusion(y[test_idx], predict_labels(model, X[test_idx])))
    counts, accs, f1s = zip(*per_fold)
    return EvalReport(
        algorithm=algorithm, k=k, seed=seed,
        fold_accuracy=tuple(accs), fold_f1=tuple(f1s),
        mean_accuracy=float(np.mean(accs)), std_accuracy=float(np.std(accs)),
        mean_f1=float(np.mean(f1s)), std_f1=float(np.std(f1s)),
        confusion={key: sum(c[key] for c in counts) for key in counts[0]},
        degenerate_folds=tuple(f for f, params in enumerate(fitted) if "constant" in params),
        fold_scaler_stats=tuple(params.get("scaler") for params in fitted),
    )


def save_model(model: TrainedClassifier, path: str) -> None:
    write_json({
        "version": 1,
        "algorithm": model.algorithm,
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "feature_names": model.feature_names,
        "parameters": model.parameters,
    }, path)


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
    write_rows(path, "csv", ("model", "case", "accuracy", "f1"),
               ((algorithm, case, f"{report.mean_accuracy:.6f}", f"{report.mean_f1:.6f}")
                for algorithm, case, report in rows))
