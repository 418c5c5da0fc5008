"""From-scratch binary classifiers with stratified cross-validation.

Six model families share one calling convention: ``train`` fits on a
feature matrix and 0/1 labels, the result scores rows with a value in
[0, 1], and label 1 ("changes") is predicted at score >= 0.5. Learned
state is kept JSON-serializable so models round-trip through save/load.

Score semantics per family: naive Bayes and trees emit class-1
posterior/leaf fractions; logistic regression and boosted trees emit a
sigmoid probability; the linear SVM emits a sigmoid-squashed margin
(monotone in the decision value, not calibrated).

Every family's fitter takes the ``(X, y)`` splits of every job, a list of
lists, and decides how to batch them: ``kfold_cv`` hands it the training
splits of all folds of each of its jobs, and ``train`` is its one-job,
one-split call. The fitter alone turns a split that lost a class into a
constant predictor and fits the others; every split sees the float
operations its own fit would, so each result is bit-identical to fitting it
alone. The linear families and naive Bayes fit all jobs' splits in one call.
The tree families run one lockstep per job: their lanes are padded to the
largest pending node, so mixing jobs of different lengths costs more than it
shares (the six gbdt jobs of a seed-7 run took 3.2 s in one lockstep, 2.0 s
in six).

A model's score of a row does not depend on the batch it is scored in:
margins are ``np.vecdot`` of rows and weights, not BLAS ``@``, and a forest
adds its trees' votes one tree at a time.

Trees (the decision tree, each forest tree, each boosting round) share one
grower, ``_grow``, and one split search, ``_split_lanes``. The grower is one
generator per tree with a stack of pending nodes, popped in depth-first
preorder; it yields every node that may split. Each split is a lane: a
generator that grows its trees one after another. The shared lane driver,
``_lanes.lockstep``, answers the pending node of every lane with one search
padded over (lane, feature, row), and each lane keeps its own order: a
forest lane draws each tree's bootstrap, then that tree's node feature
subsamples, from its own ``default_rng(seed)``; a boosting lane finishes a
round, updating its scores from the leaf value the grower wrote for each
training row, before the next. A node stably sorts its candidate columns
over its ascending rows, the order a sort of all rows sliced to the node
gives; the keys are the values' dense ranks, ranked once per split, which
are small integers that a stable argsort orders by radix sort. It scores its
valid cuts from prefix sums of ``g`` and ``h``: Gini gain with ``g = y``,
``h = 1`` for CART and the forest, the second-order gain with the logistic
gradient and Hessian for boosting. The lowest threshold wins within a
feature, and a later feature must beat it by more than 1e-12. A threshold is
the midpoint of the two values around the cut, or the lower value where the
midpoint rounds up to the upper one, so ``x <= threshold`` always separates
them. A Gini child's class-1 count and size, exact integers, come from its
parent's prefix sums, so its leaf ``G / H`` is its label mean; a boosting
node sums its own ``g`` and ``h``.

The linear families fit folds in lockstep too. Pegasos splits share the step
size 1/(lambda*t) at step t and draw one permutation per epoch from their
own ``default_rng(seed)``; their margins are ``np.vecdot`` of row and
weights (bit-equal to the 1-D dot product, which ``einsum`` and
``(z * w).sum()`` are not), and only splits inside the margin are written,
so no ``+0`` is added over a ``-0.0``. Logistic-regression splits of one
length descend as a stack of matrix-vector products.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ._lanes import lockstep
from .ingest import write_json, write_rows

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
    limits and the gain a cut must exceed. With ``lam`` (boosting) a node
    sums its own ``g`` and ``h`` and its leaf is -G/(H+lam); without it the
    totals are class-1 counts and sizes, a leaf is the class-1 fraction G/H,
    and a pure node does not split."""

    gain: Callable
    max_depth: int
    min_leaf: int
    min_gain: float
    lam: float | None = None


def _ranks(X):
    """Each column's dense ranks: equal values share one, and ranks rise
    with the value, so a stable sort by rank is a stable sort by value."""
    order = np.argsort(X, axis=0, kind="stable")
    sx = np.take_along_axis(X, order, axis=0)
    steps = np.vstack((np.zeros((1, X.shape[1])), sx[1:] > sx[:-1]))
    ranks = np.empty(X.shape)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _split_lanes(nodes, rule: _TreeRule) -> list:
    """Best cut of one node per lane, as (gain, feature, threshold, GL, HL)
    with ``GL`` and ``HL`` the left child's sums, or None.

    A node is ``(W, rows, cols, G, H)``: its tree's table (the ``d``
    features' ranks, their values, then ``g`` and ``h``), its rows
    ascending, the columns it reads (the ranks of the features it may cut,
    then ``g`` and ``h``) and its totals. Lanes are padded to the longest
    node with a rank above every rank; a valid cut lies between distinct
    values and leaves ``min_leaf`` rows per side, and only valid cuts are
    scored."""
    L, C, M = len(nodes), nodes[0][2].size, max(node[1].size for node in nodes)
    F = C - 2
    if M < 2:
        return [None] * L
    # per lane: F rank rows, then g and h; prefix sums past a lane's rows
    # reach the padding but are never read, as no valid cut lies there
    pad = max(node[0].shape[0] for node in nodes)
    P = np.full((L, C, M), float(pad))
    sizes = np.empty((L, 1, 1), dtype=int)
    for a, (W, rows, cols, _, _) in enumerate(nodes):
        sizes[a] = rows.size
        P[a, :, :rows.size] = W[rows[:, None], cols].T
    # ranks below ``pad`` fit the smallest unsigned type, radix-sorted up to 16 bits
    order = np.argsort(P[:, :F].astype(np.min_scalar_type(pad)), axis=2, kind="stable")
    flat = order + np.arange(0, P.size, C * M).reshape(L, 1, 1)  # indices into P
    keys = P.take(flat + np.arange(0, F * M, M).reshape(F, 1))  # sorted ranks
    left = np.cumsum(P.take(flat + np.array([F * M, C * M - M]).reshape(2, 1, 1, 1)),
                     axis=3)  # (g or h, lane, feature, cut)
    left_n = np.arange(1, M)
    ok = ((keys[..., :-1] < keys[..., 1:])
          & ((left_n >= rule.min_leaf) & (sizes - left_n >= rule.min_leaf)))
    cut = np.flatnonzero(ok)
    at = cut + cut // (M - 1)  # the same cuts indexed over all M prefix sums
    lane = cut // (F * (M - 1))
    totals = np.array([node[3:] for node in nodes], dtype=float).T
    scores = np.full(ok.size, -np.inf)
    scores[cut] = rule.gain(left[0].take(at), left[1].take(at),
                            totals[0].take(lane), totals[1].take(lane))
    scores = scores.reshape(ok.shape)
    out: list = [None] * L
    for a, (tops, picks) in enumerate(zip(scores.max(axis=2).tolist(),
                                          scores.argmax(axis=2).tolist())):
        f = None  # first max = lowest threshold; a later feature must beat it by 1e-12
        for c, top in enumerate(tops):
            if top > rule.min_gain and (f is None or top > tops[f] + 1e-12):
                f = c
        if f is not None:
            W, rows, cols, _, _ = nodes[a]
            j, p = cols.item(f), picks[f]
            x = j + (W.shape[1] - 2) // 2  # the feature's value column
            lo = W.item(rows.item(order.item(a, f, p)), x)
            hi = W.item(rows.item(order.item(a, f, p + 1)), x)
            mid = (lo + hi) / 2.0  # can round up to ``hi`` when the two are adjacent floats
            out[a] = (tops[f], j, mid if mid < hi else lo,
                      left.item(0, a, f, p), left.item(1, a, f, p))
    return out


def _grow(W, rule: _TreeRule, rng=None, n_subsample=0, values=None):
    """Generator that grows one tree over all rows of the table ``W`` (the
    ``d`` features' ranks, their values, then ``g`` and ``h``) and returns it.

    Pending nodes wait on a stack as empty dicts, filled in place when
    popped; the right child is pushed first, so nodes pop in depth-first
    preorder. Every node that may split yields its search request (a node of
    :func:`_split_lanes`) and is sent back its best cut or None. With
    ``rng``, each such node first draws a sorted subsample of
    ``n_subsample`` features (the random forest); ``values`` receives each
    training row's leaf value, the rows a leaf received being the rows
    scoring routes there."""
    d = (W.shape[1] - 2) // 2
    stats = np.array([2 * d, 2 * d + 1])
    cols = np.concatenate((np.arange(d), stats))
    n = W.shape[0]
    tree: dict = {}
    stack = [(tree, np.arange(n), float(W[:, 2 * d].sum()), float(n), 0)]
    while stack:
        node, idx, G, H, depth = stack.pop()
        if rule.lam is None:
            leaf, pure = G / H, G in (0.0, H)
        else:
            G, H = W[idx, 2 * d].sum(), W[idx, 2 * d + 1].sum()
            leaf, pure = float(-G / (H + rule.lam)), False
        best = None
        if not (pure or depth >= rule.max_depth or idx.size < 2 * rule.min_leaf):
            if rng is not None and n_subsample < d:
                features = rng.choice(d, size=n_subsample, replace=False)
                features.sort()
                cols = np.concatenate((features, stats))
            best = yield W, idx, cols, G, H
        if best is None:
            if values is not None:
                values[idx] = leaf
            node.update(leaf=leaf, n=int(idx.size))
            continue
        _, j, thr, GL, HL = best
        mask = W[idx, d + j] <= thr
        node.update(feature=j, threshold=thr, left={}, right={})
        stack.append((node["right"], idx[~mask], G - GL, H - HL, depth + 1))
        stack.append((node["left"], idx[mask], GL, HL, depth + 1))
    return tree


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


def _gini_table(X, y):
    """The CART table: ranks and values of the features, ``g = y``, ``h = 1``."""
    return np.column_stack((_ranks(X), X, y, np.ones(y.size)))


def _gini_rule(hp) -> _TreeRule:
    return _TreeRule(_gini_gain, hp["max_depth"], hp["min_samples_leaf"], -np.inf)


def _fit_decision_tree(splits, hp, seed):
    rule = _gini_rule(hp)
    lanes = [_grow(_gini_table(X, y), rule) for X, y in splits]
    trees = lockstep(lanes, lambda nodes: enumerate(_split_lanes(nodes, rule)))
    return [{"tree": tree} for tree in trees]


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
    return _sigmoid(np.vecdot(Z, np.asarray(params["weights"])) + params["bias"])


def _forest_lane(X, y, hp, rule, rng):
    """One split's forest: each tree draws its bootstrap and then its nodes'
    feature subsamples from ``rng``, before the next tree draws."""
    n, d = X.shape
    n_subsample = max(1, int(np.sqrt(d)))
    table = _gini_table(X, y)
    trees = []
    for _ in range(hp["n_trees"]):
        sample = rng.integers(0, n, size=n)
        trees.append((yield from _grow(table[sample], rule, rng, n_subsample)))
    return {"trees": trees}


def _fit_random_forest(splits, hp, seed):
    rule = _gini_rule(hp)
    return lockstep([_forest_lane(X, y, hp, rule, np.random.default_rng(seed))
                     for X, y in splits], lambda nodes: enumerate(_split_lanes(nodes, rule)))


def _score_random_forest(params, X):
    total = np.zeros(X.shape[0])
    for tree in params["trees"]:
        total += _eval_tree(tree, X)
    return total / len(params["trees"])


_SVM_CHUNK = 256  # Pegasos steps whose rows are gathered at once


def _fit_linear_svm(splits, hp, seed):
    """Hinge-loss SGD with 1/(lambda*t) steps, one fit per ``(X, y)`` split;
    the intercept rides along as an augmented constant feature, so it
    shares the light L2 penalty. The splits are the rows of one weight
    array, longest first, so the splits still running are a prefix; each
    step gathers their rows from one array of every split's rows, so no
    buffer grows with the number of steps times splits."""
    lam, epochs = hp["l2"], hp["epochs"]
    order = sorted(range(len(splits)), key=lambda f: -splits[f][0].shape[0])
    sizes = [splits[f][0].shape[0] for f in order]
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    # Every split's rows, in ``order``, times their +-1 target: only signs
    # flip, so margins and updates equal the one-split loop's
    # ``target * (z @ w)`` and ``eta * target * z`` bit for bit.
    signed = np.empty((sum(sizes), splits[0][0].shape[1] + 1))
    scalers: list = [None] * len(splits)
    for f, start, n in zip(order, starts, sizes):
        X, y = splits[f]
        scalers[f] = _fit_scaler(X)
        block = signed[start:start + n]
        block[:, :-1] = _apply_scaler(scalers[f], X)
        block[:, -1] = 1.0
        block *= np.where(y == 1, 1.0, -1.0)[:, None]
    ends = [epochs * n for n in sizes]  # non-increasing
    rngs = [np.random.default_rng(seed) for _ in order]
    pending = [np.empty(0, dtype=int) for _ in order]
    W = np.zeros((len(order), signed.shape[1]))
    at = np.empty((_SVM_CHUNK, len(order)), dtype=int)  # (step, split): rows of ``signed``
    t = 0
    while t < ends[0]:
        m = sum(end > t for end in ends)  # active splits, a prefix of ``order``
        size = min(_SVM_CHUNK, ends[m - 1] - t)
        for a in range(m):
            while pending[a].size < size:  # a new epoch starts within the chunk
                epoch = starts[a] + rngs[a].permutation(sizes[a])
                pending[a] = np.concatenate([pending[a], epoch])
            at[:size, a] = pending[a][:size]
            pending[a] = pending[a][size:]
        Wa, r, step = W[:m], np.empty((m, W.shape[1])), np.empty((m, W.shape[1]))
        for rows in at[:size, :m]:
            t += 1
            eta = 1.0 / (lam * t)
            Wa *= 1.0 - eta * lam
            hit = np.vecdot(signed.take(rows, axis=0, out=r), Wa) < 1.0
            if hit.any():  # splits off the margin are not written, so -0.0 stays
                np.add(Wa, np.multiply(r, eta, out=step), out=Wa, where=hit[:, None])
    fits: list = [None] * len(splits)
    for a, f in enumerate(order):
        fits[f] = {"weights": W[a].tolist(), "scaler": scalers[f]}
    return fits


def _score_linear_svm(params, X):
    Z = np.hstack([_apply_scaler(params["scaler"], X), np.ones((X.shape[0], 1))])
    return _sigmoid(np.vecdot(Z, np.asarray(params["weights"])))


def _gbdt_lane(X, y, hp, rule):
    """One split's boosted ensemble, one round's tree after another; each
    round updates the training scores from the leaf values it grew."""
    n = X.shape[0]
    p_base = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = float(np.log(p_base / (1.0 - p_base)))
    raw = np.full(n, f0)
    lr = hp["learning_rate"]
    features = np.column_stack((_ranks(X), X))
    trees = []
    loss_history = []
    for _ in range(hp["n_rounds"]):
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        table, values = np.column_stack((features, p - y, p * (1.0 - p))), np.empty(n)
        trees.append((yield from _grow(table, rule, values=values)))
        raw = raw + lr * values
        p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
        loss_history.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    return {"f0": f0, "learning_rate": lr, "trees": trees, "loss_history": loss_history}


def _fit_gbdt(splits, hp, seed):
    lam = hp["l2"]
    rule = _TreeRule(partial(_second_order_gain, lam=lam), hp["max_depth"], 1, 1e-12, lam)
    return lockstep([_gbdt_lane(X, y, hp, rule) for X, y in splits],
                    lambda nodes: enumerate(_split_lanes(nodes, rule)))


def _score_gbdt(params, X):
    raw = np.full(X.shape[0], params["f0"])
    for tree in params["trees"]:
        raw += params["learning_rate"] * _eval_tree(tree, X)
    return _sigmoid(raw)


def _fit_two_class(fit, splits, hp, seed) -> list[dict]:
    """``fit``, a fitter over one list of splits, called with the splits that
    hold both classes; a single-class split becomes a constant predictor."""
    live = [split for split in splits if np.unique(split[1]).size > 1]
    fits = iter(fit(live, hp, seed) if live else [])
    return [next(fits) if np.unique(y).size > 1 else _constant_params(y) for _, y in splits]


def _all_jobs_at_once(fit):
    """A fitter over jobs from ``fit``, called once with every job's splits."""
    def fit_jobs(jobs, hp, seed):
        fits = iter(_fit_two_class(fit, [split for splits in jobs for split in splits], hp, seed))
        return [[next(fits) for _ in splits] for splits in jobs]
    return fit_jobs


def _job_by_job(fit):
    """A fitter over jobs from ``fit``, called for each job as its fits are
    consumed, so a caller can drop one job's models before the next job's
    are grown."""
    return lambda jobs, hp, seed: (_fit_two_class(fit, splits, hp, seed) for splits in jobs)


#: Each family's fitter: it takes each job's list of ``(X, y)`` splits and
#: returns an iterable of each job's list of fitted parameters, in order.
#: These adapters are the one place a split that lost a class becomes a
#: constant predictor (``{"constant": label}``); the family fits the rest.
_FITTERS = {
    "naive_bayes": _all_jobs_at_once(_fit_naive_bayes),
    "decision_tree": _job_by_job(_fit_decision_tree),
    "logistic_regression": _all_jobs_at_once(_fit_logistic_regression),
    "random_forest": _job_by_job(_fit_random_forest),
    "linear_svm": _all_jobs_at_once(_fit_linear_svm),
    "gbdt": _job_by_job(_fit_gbdt),
}

_SCORERS = {
    "naive_bayes": _score_naive_bayes,
    "decision_tree": _score_decision_tree,
    "logistic_regression": _score_logistic_regression,
    "random_forest": _score_random_forest,
    "linear_svm": _score_linear_svm,
    "gbdt": _score_gbdt,
}


_COUNTS = ("n_trees", "n_rounds", "epochs", "max_depth", "min_samples_leaf")


def _hyperparams(algorithm: str, hyperparams: Mapping | None) -> dict:
    """The family's defaults updated with ``hyperparams``, range-checked.

    Counts are ints >= 1 (not bools); ``linear_svm``'s ``l2`` is > 0 (its
    step size is 1/(l2*t)), every other ``l2`` >= 0, and ``learning_rate``
    and ``var_floor`` > 0."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    hp = dict(DEFAULT_HYPERPARAMS[algorithm])
    if hyperparams:
        unknown = set(hyperparams) - set(hp)
        if unknown:
            raise ValueError(f"unknown hyperparameter(s) for {algorithm}: {sorted(unknown)}")
        hp.update(hyperparams)
    for key, value in hp.items():
        if key in _COUNTS:
            ok, want = isinstance(value, numbers.Integral) and value >= 1, "an int >= 1"
        else:
            positive = key != "l2" or algorithm == "linear_svm"
            ok = isinstance(value, numbers.Real) and math.isfinite(value) and (
                value > 0 if positive else value >= 0)
            want = "a finite number " + ("> 0" if positive else ">= 0")
        if isinstance(value, bool) or not ok:
            raise ValueError(f"{algorithm} hyperparameter {key} must be {want}, got {value!r}")
    return hp


def train(
    algorithm: str,
    X,
    y,
    hyperparams: Mapping | None = None,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> TrainedClassifier:
    """Fit one model family on a 0/1-labeled feature matrix.

    A single-class ``y`` yields a constant predictor (with a warning)
    instead of failing, so degenerate folds stay survivable.
    """
    hp = _hyperparams(algorithm, hyperparams)
    X, y = _validate_xy(X, y)
    names = _feature_names(feature_names, X.shape[1])
    if np.unique(y).size < 2:
        warnings.warn(f"single-class training data; {algorithm} degenerates to a "
                      "constant predictor", stacklevel=2)
    [[params]] = _FITTERS[algorithm]([[(X, y)]], hp, seed)
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
    jobs: Sequence[tuple],
    k: int = 10,
    seed: int = 0,
    hyperparams: Mapping | None = None,
    feature_names: Sequence[str] | None = None,
) -> list[EvalReport]:
    """Stratified k-fold cross-validation of one model family on each
    ``(X, y)`` job; one report per job, in order.

    Each job has its own folds, and every sample is tested exactly once.
    Folds whose training split lost a class are still evaluated (constant
    predictor) but flagged in ``degenerate_folds``. Scaler statistics of
    standardizing families are kept per fold so leakage is auditable. The
    family's fitter gets every job's splits at once (see the module
    docstring); each report equals a one-job call's.
    """
    prepared = []
    for X, y in jobs:
        X, y = _validate_xy(X, y)
        folds = stratified_folds(y, k, seed)
        splits = []
        for test_idx in folds:
            train_mask = np.ones(y.size, dtype=bool)
            train_mask[test_idx] = False
            splits.append((X[train_mask], y[train_mask]))
        prepared.append((X, y, folds, splits))
    if len({X.shape[1] for X, *_ in prepared}) > 1:
        raise ValueError("every job needs the same number of features")
    hp = _hyperparams(algorithm, hyperparams)
    names = [_feature_names(feature_names, X.shape[1]) for X, *_ in prepared]
    fitted = iter(_FITTERS[algorithm]([splits for *_, splits in prepared], hp, seed))
    # each job's report is made, and its models dropped, before the next
    # job's models are fitted (a forest job's 10 folds hold ~1,000 trees)
    return [_report(algorithm, k, seed, hp, job_names, X, y, folds, next(fitted))
            for job_names, (X, y, folds, _) in zip(names, prepared)]


def _report(algorithm, k, seed, hp, names, X, y, folds, fitted) -> EvalReport:
    """One job's report from its folds and each fold's fitted parameters; a
    fold whose parameters are a constant predictor is degenerate."""
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
