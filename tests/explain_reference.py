"""Exact Shapley reference for the attribution tests.

``shapley_exact`` enumerates every coalition of up to
``EXACT_MAX_FEATURES`` features under the same interventional value
function as ``volnet.explain.shapley_mc``: v(S) is the model's mean score
over background rows whose features in S take the explained row's
values.  The tests compare the sampled estimator with it.
"""

from __future__ import annotations

import math

import numpy as np

from volnet.explain import Attribution, _check_inputs
from volnet.models import TrainedClassifier

EXACT_MAX_FEATURES = 12


def shapley_exact(model: TrainedClassifier, x, background, user: str = "") -> Attribution:
    """Exact Shapley attributions by full subset enumeration (d <= 12)."""
    x, background = _check_inputs(model, x, background)
    d = x.shape[0]
    if d > EXACT_MAX_FEATURES:
        raise ValueError(
            f"{d} features exceeds the exact-enumeration cap of {EXACT_MAX_FEATURES}; "
            "use shapley_mc")
    m = background.shape[0]
    n_subsets = 1 << d

    # v[mask] = mean score over background rows with masked features from x.
    composite = np.repeat(background, n_subsets, axis=0).reshape(m, n_subsets, d)
    for j in range(d):
        masks_with_j = [s for s in range(n_subsets) if s >> j & 1]
        composite[:, masks_with_j, j] = x[j]
    v = model.scores(composite.reshape(m * n_subsets, d)).reshape(m, n_subsets).mean(axis=0)

    # weight of a coalition of size s when adding one more feature
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)]
    popcount = np.array([bin(s).count("1") for s in range(n_subsets)])

    phi = np.zeros(d)
    for j in range(d):
        bit = 1 << j
        without = np.array([s for s in range(n_subsets) if not s & bit])
        w = np.array([weight[c] for c in popcount[without]])
        phi[j] = float(np.sum(w * (v[without | bit] - v[without])))

    per_feature = {name: float(p) for name, p in zip(model.feature_names, phi)}
    return Attribution(user=user, per_feature=per_feature,
                       base_value=float(v[0]), prediction=float(v[n_subsets - 1]))
