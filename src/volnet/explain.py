"""Shapley-value feature attributions for trained classifiers.

The value function is interventional: v(S) is the model's mean score over
background rows whose features in S are replaced by the explained row's
values. The permutation Monte-Carlo estimator samples that value
function and reports per-feature standard errors; it satisfies efficiency
(attributions plus base equal the prediction) by telescoping. The exact
enumeration it is checked against lives with the tests, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ingest import write_rows
from .models import TrainedClassifier

MIN_PERMUTATIONS = 100
# the most rows of ``X`` the value function averages over
_BACKGROUND_ROWS = 100


@dataclass(frozen=True)
class Attribution:
    """Per-feature contributions for one explained row."""

    user: str
    per_feature: Mapping[str, float]
    base_value: float
    prediction: float
    std_err: Mapping[str, float] | None = None


def _check_inputs(model: TrainedClassifier, x, background) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = len(model.feature_names)
    if x.shape[0] != d:
        raise ValueError(f"x has {x.shape[0]} features, model expects {d}")
    if background.shape[0] == 0:
        raise ValueError("background must be non-empty")
    if background.shape[1] != d:
        raise ValueError(f"background has {background.shape[1]} features, model expects {d}")
    return x, background


def shapley_mc(
    model: TrainedClassifier,
    x,
    background,
    n_permutations: int,
    seed: int = 0,
    user: str = "",
) -> Attribution:
    """Permutation-sampling Shapley estimate with per-feature standard errors.

    Each permutation draws one background row and flips features to the
    explained row's values in permutation order; a feature's contribution
    is the score change when it flips. Deterministic per seed. Each
    distinct row is scored once, in one batch: the partly flipped rows, the
    background and ``x``; a model's score of a row does not depend on its
    batch, so this equals scoring every permutation's rows.
    """
    x, background = _check_inputs(model, x, background)
    if n_permutations < MIN_PERMUTATIONS:
        raise ValueError(f"need at least {MIN_PERMUTATIONS} permutations")
    d = x.shape[0]
    rng = np.random.default_rng(seed)

    # one (background row, order) pair per permutation, each kind drawn at once
    picks = rng.integers(background.shape[0], size=n_permutations)
    orders = rng.permuted(np.tile(np.arange(d), (n_permutations, 1)), axis=1)
    perm = np.arange(n_permutations)[:, None]
    rank = np.empty_like(orders)
    rank[perm, orders] = np.arange(d)  # the step at which each feature flips
    # Row s of a permutation has the features of rank < s flipped to ``x``:
    # row 0 is its background row and row d is ``x``, so only rows 1 to d - 1
    # are its own. One call scores them all, as a tree ensemble's scoring
    # costs more per call than per row.
    flipped = np.where(rank[:, None, :] < np.arange(1, d)[None, :, None],
                       x, background[picks][:, None, :]).reshape(-1, d)
    scored = model.scores(np.vstack([flipped, background, x]))
    prediction = float(scored[-1])
    scores = np.empty((n_permutations, d + 1))
    scores[:, 0] = scored[flipped.shape[0]:-1][picks]
    scores[:, 1:d] = scored[:flipped.shape[0]].reshape(n_permutations, d - 1)
    scores[:, d] = prediction

    contrib = np.empty((n_permutations, d))
    contrib[perm, orders] = np.diff(scores, axis=1)  # each flip's score change

    phi = contrib.mean(axis=0)
    std_err = contrib.std(axis=0, ddof=1) / math.sqrt(n_permutations)

    per_feature = {name: float(p) for name, p in zip(model.feature_names, phi)}
    errs = {name: float(e) for name, e in zip(model.feature_names, std_err)}
    return Attribution(user=user, per_feature=per_feature,
                       base_value=float(scores[:, 0].mean()), prediction=prediction,
                       std_err=errs)


def importance_from_attributions(
    attributions: Sequence[Attribution],
    feature_names: Sequence[str],
) -> list[tuple[str, float]]:
    """Mean |phi| per feature over attributions, descending; ties sort by name."""
    if not attributions:
        raise ValueError("no attributions to aggregate")
    totals = np.zeros(len(feature_names))
    for att in attributions:
        totals += np.abs([att.per_feature[name] for name in feature_names])
    means = totals / len(attributions)
    ranked = sorted(zip(feature_names, means), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(value)) for name, value in ranked]


def _seeded_rows(n: int, size: int, seed: int) -> np.ndarray:
    """Sorted indices of ``size`` of ``n`` rows drawn without replacement;
    every row when ``n <= size``."""
    if n <= size:
        return np.arange(n)
    return np.sort(np.random.default_rng(seed).choice(n, size=size, replace=False))


def background_sample(X, seed: int = 0) -> np.ndarray:
    """Seeded background subsample of at most ``_BACKGROUND_ROWS`` rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[_seeded_rows(X.shape[0], _BACKGROUND_ROWS, seed)]


def attribute_rows(
    model: TrainedClassifier,
    X,
    users: Sequence[str],
    seed: int = 0,
    n_permutations: int = 300,
    max_rows: int = 40,
) -> tuple[list[Attribution], list[tuple[str, float]]]:
    """Attributions of up to ``max_rows`` rows of ``X`` and their importance ranking.

    The rows are a seeded draw (all rows when there are few enough), each
    explained by :func:`shapley_mc` against :func:`background_sample` of
    ``X`` with seed ``seed + 1 + i``, ``i`` being the row's index in ``X``.
    The ranking is :func:`importance_from_attributions` over those rows.
    ``users`` names the rows of ``X``, one user per row.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(users) != X.shape[0]:
        raise ValueError(f"{len(users)} users for {X.shape[0]} rows")
    background = background_sample(X, seed=seed)
    atts = [shapley_mc(model, X[i], background, n_permutations=n_permutations,
                       seed=seed + 1 + int(i), user=users[i])
            for i in _seeded_rows(X.shape[0], max_rows, seed)]
    return atts, importance_from_attributions(atts, model.feature_names)


def write_attribution_csv(attributions: Sequence[Attribution], path: str) -> None:
    write_rows(path, "csv", ("user_id", "feature", "phi", "std_err"), (
        (att.user, feature, f"{phi:.6f}", f"{(att.std_err or {}).get(feature, 0.0):.6f}")
        for att in attributions for feature, phi in att.per_feature.items()))


def write_importance_csv(ranked: Sequence[tuple[str, float]], path: str) -> None:
    write_rows(path, "csv", ("feature", "mean_abs_phi", "rank"),
               ((feature, f"{value:.6f}", rank) for rank, (feature, value) in enumerate(ranked, 1)))
