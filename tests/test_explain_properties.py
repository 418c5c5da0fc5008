"""Property tests of the Shapley estimators (skipped without Hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volnet.explain import shapley_mc  # noqa: E402
from volnet.models import train  # noqa: E402

from conftest import set_hyperparams  # noqa: E402

values = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def fitted_case(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=4, max_value=12))
    X = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array([0, 1] * (n // 2) + [0] * (n % 2))
    algorithm = draw(st.sampled_from(["naive_bayes", "decision_tree", "logistic_regression",
                                      "gbdt"]))
    with pytest.MonkeyPatch.context() as mp:
        set_hyperparams(mp, "gbdt", n_rounds=5)
        return train(algorithm, X, y), X


@settings(max_examples=60, deadline=None)
@given(fitted_case(), st.integers(min_value=0, max_value=2**32 - 1))
def test_permutation_estimate_is_efficient(case, seed):
    # Every permutation's deltas telescope from its background row's score
    # to the explained row's, so the attributions sum to the gap.
    model, X = case
    att = shapley_mc(model, X[0], X[1:], n_permutations=100, seed=seed)
    assert sum(att.per_feature.values()) == pytest.approx(
        att.prediction - att.base_value, abs=1e-9)
