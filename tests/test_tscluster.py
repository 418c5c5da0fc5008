"""Tests for time-series distances, K-means, k selection, and archetypes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from volnet import tscluster
from volnet._lanes import lockstep
from volnet.behavior import DRSeries
from volnet.tscluster import (
    ARCHETYPES,
    METRICS,
    ArchetypeLabel,
    ClusterModel,
    _dba_update,
    _distances_to_centroids,
    best_k,
    calinski_harabasz,
    case_and_trend,
    ch_scan,
    dtw,
    dtw_path,
    euclidean_sq,
    kmeans_ts,
    label_archetypes,
    model_from_dict,
    model_to_dict,
    soft_dtw,
    write_centroid_csv,
    write_cluster_csv,
)

import dtw_reference as ref
from conftest import at_day


class TestEuclidean:
    def test_hand_value(self):
        assert euclidean_sq([0, 1], [1, 3]) == pytest.approx(5.0)

    def test_zero_on_self(self):
        assert euclidean_sq([0.25, 0.5], [0.25, 0.5]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            euclidean_sq([1, 2], [1, 2, 3])


class TestDTW:
    @pytest.mark.parametrize("a, b, want", [
        ([0, 0, 1], [0, 1, 1], 0.0),
        ([0, 1, 1], [0, 1], 0.0),
        ([0, 1], [1, 0], 2.0),
        ([0, 0, 0], [1, 1, 1], 3.0),
        ([1, 3, 2], [1, 2, 3], 2.0),
        ([0, 2], [2, 0], 8.0),
    ])
    def test_frozen_values(self, a, b, want):
        assert dtw(a, b) == pytest.approx(want)

    def test_symmetric_and_zero_on_self(self):
        a, b = [0.2, 0.9, 0.1, 0.5], [0.8, 0.3, 0.3]
        assert dtw(a, b) == pytest.approx(dtw(b, a))
        assert dtw(a, a) == 0.0

    def test_never_above_euclidean_for_equal_lengths(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.random(8)
            b = rng.random(8)
            assert dtw(a, b) <= euclidean_sq(a, b) + 1e-12

    def test_matches_exhaustive_path_minimum(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            a = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            b = rng.integers(0, 4, size=int(rng.integers(2, 6))).astype(float)
            assert dtw(a, b) == pytest.approx(ref.dtw_brute(list(a), list(b)))

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            dtw([], [1.0])

    def test_path_is_valid_and_priced_correctly(self):
        a, b = [0.0, 1.0, 3.0, 2.0], [0.0, 3.0, 2.0]
        cost, path = dtw_path(a, b)
        assert cost == pytest.approx(dtw(a, b))
        assert path[0] == (0, 0)
        assert path[-1] == (len(a) - 1, len(b) - 1)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 1), (1, 0), (0, 1)}
        assert sum((a[i] - b[j]) ** 2 for i, j in path) == pytest.approx(cost)


class TestSoftDTW:
    def test_at_most_zero_on_self(self):
        x = [0.1, 0.7, 0.4]
        assert soft_dtw(x, x) <= 0.0

    def test_below_hard_dtw(self):
        a, b = [0.0, 1.0, 0.5], [0.2, 0.9, 0.4]
        assert soft_dtw(a, b, gamma=1.0) <= dtw(a, b)

    def test_converges_to_dtw_as_gamma_shrinks(self):
        a, b = [0.0, 1.0, 3.0], [1.0, 2.0, 2.5]
        gaps = [abs(soft_dtw(a, b, gamma=g) - dtw(a, b)) for g in (1.0, 0.1, 0.001)]
        assert gaps[-1] < 0.01
        assert gaps[0] > gaps[-1]

    def test_symmetric(self):
        a, b = [0.3, 0.1, 0.9], [0.5, 0.5]
        assert soft_dtw(a, b) == pytest.approx(soft_dtw(b, a))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_dtw([1.0], [1.0], gamma=0.0)

    @pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            soft_dtw([1.0], [1.0], gamma=gamma)


def two_blobs(n_per: int = 6, length: int = 10, seed: int = 5) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    data: dict[str, list[float]] = {}
    for i in range(n_per):
        data[f"lo{i}"] = list(0.1 + 0.02 * rng.random(length))
        data[f"hi{i}"] = list(0.9 + 0.02 * rng.random(length))
    return data


class TestKMeans:
    @pytest.mark.parametrize("gamma", [0.0, float("inf"), float("nan")])
    def test_softdtw_rejects_a_gamma_that_is_not_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            kmeans_ts(two_blobs(), k=2, metric="softdtw", gamma=gamma)

    @pytest.mark.parametrize("metric", ["euclidean", "dtw"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_value_is_rejected_naming_the_user(self, metric, value):
        # a nan used to end in k-means++ seeding as "Probabilities contain NaN"
        data = two_blobs()
        data["hi3"][4] = value
        with pytest.raises(ValueError, match="series of user 'hi3' holds a non-finite value"):
            kmeans_ts(data, k=2, metric=metric)
        with pytest.raises(ValueError, match="series of user 'hi3' holds a non-finite value"):
            ch_scan(data, (2, 4), metric=metric)

    def test_separates_two_blobs(self):
        data = two_blobs()
        model = kmeans_ts(data, k=2, seed=0)
        lo = {model.assignment[f"lo{i}"] for i in range(6)}
        hi = {model.assignment[f"hi{i}"] for i in range(6)}
        assert len(lo) == 1 and len(hi) == 1 and lo != hi
        assert model.inertia < 0.1

    def test_deterministic_for_fixed_seed(self):
        data = two_blobs()
        m1 = kmeans_ts(data, k=3, seed=9)
        m2 = kmeans_ts(data, k=3, seed=9)
        assert m1.assignment == m2.assignment
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.inertia_history == m2.inertia_history

    def test_euclidean_inertia_never_increases(self):
        data = two_blobs(n_per=10, seed=2)
        model = kmeans_ts(data, k=4, seed=3)
        for earlier, later in zip(model.inertia_history, model.inertia_history[1:]):
            assert later <= earlier + 1e-9

    def test_identical_points_collapse_to_lowest_cluster(self):
        data = {"a": [0.5, 0.5], "b": [0.5, 0.5]}
        model = kmeans_ts(data, k=2, seed=0)
        assert model.assignment == {"a": 0, "b": 0}
        assert model.centroids.shape == (2, 2)

    def test_members_listing(self):
        data = two_blobs(n_per=3)
        model = kmeans_ts(data, k=2, seed=0)
        c_lo = model.assignment["lo0"]
        assert model.members(c_lo) == ["lo0", "lo1", "lo2"]

    def test_series_objects_match_mapping_input(self):
        data = two_blobs(n_per=4)
        series = [
            DRSeries(user=u, interval="weekly", t0=at_day(0),
                     values=tuple(v), imputed_mask=tuple([False] * len(v)))
            for u, v in data.items()
        ]
        m_map = kmeans_ts(data, k=2, seed=1)
        m_series = kmeans_ts(series, k=2, seed=1)
        assert m_map.assignment == m_series.assignment
        assert np.allclose(m_map.centroids, m_series.centroids)

    def test_dtw_metric_groups_shifted_shapes(self):
        # Same bump at different offsets vs. flat lines: warping unites the
        # bumps even though pointwise distance would not.
        bump = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        data = {
            "bump0": bump,
            "bump1": bump[1:] + [0.0],
            "bump2": [0.0] + bump[:-1],
            "flat0": [0.0] * 6,
            "flat1": [0.001] * 6,
        }
        model = kmeans_ts(data, k=2, metric="dtw", seed=4)
        bumps = {model.assignment[u] for u in ("bump0", "bump1", "bump2")}
        flats = {model.assignment[u] for u in ("flat0", "flat1")}
        assert len(bumps) == 1 and len(flats) == 1 and bumps != flats

    def test_k_bounds_validated(self):
        data = two_blobs(n_per=2)
        with pytest.raises(ValueError):
            kmeans_ts(data, k=1)
        with pytest.raises(ValueError):
            kmeans_ts(data, k=5)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            kmeans_ts(two_blobs(), k=2, metric="cosine")

    def test_ragged_series_rejected(self):
        with pytest.raises(ValueError):
            kmeans_ts({"a": [1.0, 2.0], "b": [1.0]}, k=2)


def hand_model(assignment: dict[str, int], k: int) -> ClusterModel:
    return ClusterModel(k=k, metric="euclidean",
                        centroids=np.zeros((k, 1)), assignment=assignment,
                        inertia=0.0, seed=0)


class TestCalinskiHarabasz:
    def test_hand_value_is_200(self):
        data = {"a": [0.0], "b": [0.1], "c": [1.0], "d": [1.1]}
        model = hand_model({"a": 0, "b": 0, "c": 1, "d": 1}, k=2)
        assert calinski_harabasz(data, model) == pytest.approx(200.0)

    def test_zero_within_variance_is_inf(self):
        data = {"a": [0.0], "b": [0.0], "c": [1.0], "d": [1.0]}
        model = hand_model({"a": 0, "b": 0, "c": 1, "d": 1}, k=2)
        assert calinski_harabasz(data, model) == float("inf")

    def test_requires_k_at_least_two(self):
        data = {"a": [0.0], "b": [1.0]}
        with pytest.raises(ValueError):
            calinski_harabasz(data, hand_model({"a": 0, "b": 0}, k=1))

    def test_requires_more_points_than_clusters(self):
        data = {"a": [0.0], "b": [1.0]}
        with pytest.raises(ValueError):
            calinski_harabasz(data, hand_model({"a": 0, "b": 1}, k=2))


def four_level_groups(n_per: int = 5, length: int = 8, seed: int = 13) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    data: dict[str, list[float]] = {}
    for level_idx, level in enumerate((0.05, 0.35, 0.65, 0.95)):
        for i in range(n_per):
            data[f"g{level_idx}_{i}"] = list(level + 0.01 * rng.random(length))
    return data


class TestKSelection:
    def test_finds_four_planted_groups(self):
        data = four_level_groups()
        assert best_k(ch_scan(data, k_range=(2, 8), seed=0)[0]) == 4

    def test_scan_covers_full_range(self):
        data = four_level_groups()
        scores, _ = ch_scan(data, k_range=(2, 6), seed=0)
        assert sorted(scores) == [2, 3, 4, 5, 6]
        assert all(np.isfinite(v) or v == float("inf") for v in scores.values())

    def test_scan_returns_the_model_it_scored(self):
        data = four_level_groups()
        scores, fitted = ch_scan(data, k_range=(2, 4), seed=5)
        assert sorted(fitted) == [2, 3, 4]
        for k, model in fitted.items():
            again = kmeans_ts(data, k, seed=5)
            assert model.assignment == again.assignment
            assert np.array_equal(model.centroids, again.centroids)
            assert calinski_harabasz(data, model) == scores[k]

    def test_scan_normalizes_its_input_once(self, monkeypatch):
        calls = []
        as_matrix = tscluster._as_matrix
        monkeypatch.setattr(tscluster, "_as_matrix",
                            lambda data: calls.append(1) or as_matrix(data))
        ch_scan(four_level_groups(), k_range=(2, 6), seed=0)
        assert len(calls) == 1

    def test_best_k_ties_go_to_smallest(self):
        assert best_k({4: 2.0, 5: 3.0, 6: 3.0}) == 5
        assert best_k({4: float("inf"), 5: float("inf")}) == 4

    def test_all_degenerate_ties_resolve_to_smallest_k(self):
        data = {f"u{i}": [0.5, 0.5] for i in range(6)}
        assert best_k(ch_scan(data, k_range=(2, 4), seed=0)[0]) == 2

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ch_scan(four_level_groups(), k_range=(5, 3))
        with pytest.raises(ValueError):
            ch_scan(four_level_groups(), k_range=(1, 3))


def model_with_centroids(rows: list[list[float]]) -> ClusterModel:
    arr = np.asarray(rows, dtype=float)
    return ClusterModel(k=arr.shape[0], metric="euclidean", centroids=arr,
                        assignment={}, inertia=0.0, seed=0)


def ramp(start: float, end: float, length: int = 12) -> list[float]:
    return list(np.linspace(start, end, length))


class TestArchetypes:
    def test_four_canonical_shapes(self):
        model = model_with_centroids([
            ramp(0.9, 0.2),   # high start, falling
            ramp(0.85, 0.85),  # high start, flat
            ramp(0.15, 0.8),  # low start, rising
            ramp(0.15, 0.15),  # low start, flat
        ])
        labels = {c: rec.label for c, rec in label_archetypes(model).items()}
        assert labels == {0: "FPD", 1: "SAD", 2: "FAD", 3: "SPD"}

    def test_one_sided_drifts_keep_their_level(self):
        model = model_with_centroids([
            ramp(0.6, 0.95),  # high and rising
            ramp(0.4, 0.05),  # low and falling
        ])
        labels = {c: rec.label for c, rec in label_archetypes(model).items()}
        assert labels == {0: "SAD", 1: "SPD"}

    def test_threshold_boundaries(self):
        # Initial exactly at the high threshold counts as high; movements
        # just above / just below the stability band flip the label.
        model = model_with_centroids([
            [0.5] * 3 + [0.5] * 9,
            [0.6] * 3 + [0.39] * 9,
            [0.6] * 3 + [0.45] * 9,
        ])
        labels = label_archetypes(model)
        assert labels[0].label == "SAD"
        assert labels[1].label == "FPD"
        assert labels[2].label == "SAD"

    def test_levels_reported(self):
        model = model_with_centroids([ramp(0.9, 0.2)])
        rec = label_archetypes(model)[0]
        assert rec.initial_level == pytest.approx(np.mean(ramp(0.9, 0.2)[:3]))
        assert rec.final_level == pytest.approx(np.mean(ramp(0.9, 0.2)[-3:]))

    def test_short_centroid_rejected(self):
        model = model_with_centroids([[0.5] * 4])
        with pytest.raises(ValueError):
            label_archetypes(model)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ArchetypeLabel(label="XXX", initial_level=0.0, final_level=0.0)
        assert set(ARCHETYPES) == {"FPD", "SAD", "FAD", "SPD"}


class TestSplitCases:
    def test_partition_by_starting_level(self):
        model = hand_model({"u1": 0, "u2": 1, "u3": 2, "u4": 3, "u5": 0}, k=4)
        labels = {
            0: ArchetypeLabel("FPD", 0.9, 0.2),
            1: ArchetypeLabel("SAD", 0.85, 0.85),
            2: ArchetypeLabel("FAD", 0.15, 0.8),
            3: ArchetypeLabel("SPD", 0.15, 0.15),
        }
        cases: dict[str, set[str]] = {"starting_high": set(), "starting_low": set()}
        for u, c in model.assignment.items():
            cases[case_and_trend(labels[c].label)[0]].add(u)
        assert cases == {
            "starting_high": {"u1", "u2", "u5"},
            "starting_low": {"u3", "u4"},
        }
        assert [case_and_trend(a)[1] for a in ARCHETYPES] == [
            "changes", "stable", "changes", "stable"]

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            case_and_trend("XXX")


class TestSerialization:
    def test_round_trip_through_json(self):
        model = kmeans_ts(two_blobs(), k=2, seed=6)
        payload = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(payload)
        assert back.k == model.k
        assert back.metric == model.metric
        assert back.seed == model.seed
        assert back.assignment == model.assignment
        assert np.allclose(back.centroids, model.centroids)
        assert back.inertia == pytest.approx(model.inertia)
        assert back.inertia_history == pytest.approx(model.inertia_history)

    def test_unsupported_version_rejected(self):
        payload = model_to_dict(kmeans_ts(two_blobs(), k=2, seed=6))
        payload["version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(payload)


class TestWriters:
    def test_cluster_csv(self, tmp_path):
        model = hand_model({"b": 1, "a": 0}, k=2)
        labels = {0: ArchetypeLabel("FPD", 0.9, 0.2),
                  1: ArchetypeLabel("SPD", 0.1, 0.1)}
        path = tmp_path / "clusters.csv"
        write_cluster_csv(model, labels, str(path))
        assert path.read_bytes() == b"user_id,cluster_id,archetype\r\na,0,FPD\r\nb,1,SPD\r\n"

    def test_centroid_csv(self, tmp_path):
        model = model_with_centroids([[0.25, 0.5], [1.0, 0.0]])
        path = tmp_path / "centroids.csv"
        write_centroid_csv(model, str(path))
        assert path.read_bytes() == (
            b"cluster_id,index,value\r\n"
            b"0,0,0.250000\r\n0,1,0.500000\r\n"
            b"1,0,1.000000\r\n1,1,0.000000\r\n")


def dba_update(X, assign, centroids, max_inner: int = 30) -> int:
    """The DBA step of one sweep, run alone through the lockstep driver."""
    lane = _dba_update(X, assign, centroids, max_inner)
    return lockstep([lane], lambda requests: tscluster._answer(requests, X, "dtw", 1.0))[0]


def random_series(rng: np.random.Generator, shape, tied: bool) -> np.ndarray:
    """Uniform values; ``tied`` quantises them to thirds so table cells tie."""
    values = rng.random(shape)
    return np.round(values * 3) / 3 if tied else values


@pytest.mark.parametrize("tied", [False, True])
class TestWarpKernelMatchesReference:
    """The batched kernel against the per-pair loops in dtw_reference."""

    def test_assignment_distances(self, tied):
        rng = np.random.default_rng(101 + tied)
        for _ in range(40):
            length = int(rng.integers(1, 16))
            X = random_series(rng, (int(rng.integers(1, 21)), length), tied)
            C = random_series(rng, (int(rng.integers(1, 6)), length), tied)
            want = np.array([[ref.dtw(x, c) for c in C] for x in X])
            assert np.array_equal(_distances_to_centroids(X, C, "dtw", 1.0), want)

    def test_dba_centroids(self, tied):
        rng = np.random.default_rng(202 + tied)
        for trial in range(30):
            length = int(rng.integers(1, 16))
            members = random_series(rng, (int(rng.integers(1, 21)), length), tied)
            init = members[int(rng.integers(members.shape[0]))] if trial % 2 else (
                random_series(rng, length, tied))
            centroids = init[None].copy()
            dba_update(members, np.zeros(members.shape[0], dtype=int), centroids)
            assert np.array_equal(centroids[0], ref.dba_update(members, init)[0])

    def test_dba_batch_equals_each_cluster_alone(self, tied):
        rng = np.random.default_rng(505 + tied)
        for trial in range(20):
            length = int(rng.integers(1, 13))
            k = int(rng.integers(3, 7))
            empty, single = rng.choice(k, size=2, replace=False)
            others = [c for c in range(k) if c not in (empty, single)]
            assign = rng.choice(others, size=int(rng.integers(1, 18)))
            assign = np.insert(assign, int(rng.integers(assign.size + 1)), single)
            X = random_series(rng, (assign.size, length), tied)
            init = random_series(rng, (k, length), tied)
            if trial % 2:  # start some centroids on a member
                init[assign] = X
            max_inner = (1, 3, 30)[trial % 3]
            centroids = init.copy()
            capped = dba_update(X, assign, centroids, max_inner)
            assert np.array_equal(centroids[empty], init[empty])
            unsettled = 0
            for c in set(range(k)) - {empty}:
                want, _, settled = ref.dba_update(X[assign == c], init[c], max_inner)
                assert np.array_equal(centroids[c], want)
                unsettled += not settled
            assert capped == unsettled

    def test_paths_of_unequal_lengths(self, tied):
        rng = np.random.default_rng(303 + tied)
        for _ in range(100):
            a = random_series(rng, int(rng.integers(1, 16)), tied)
            b = random_series(rng, int(rng.integers(1, 16)), tied)
            assert dtw_path(a, b) == ref.dtw_path(a, b)
            assert dtw(a, b) == ref.dtw(a, b)

    def test_soft_dtw_within_1e12(self, tied):
        rng = np.random.default_rng(404 + tied)
        for _ in range(30):
            gamma = float(rng.choice([1.0, 0.3, 0.01]))
            a = random_series(rng, int(rng.integers(1, 16)), tied)
            b = random_series(rng, int(rng.integers(1, 16)), tied)
            assert abs(soft_dtw(a, b, gamma) - ref.soft_dtw(a, b, gamma)) <= 1e-12
            length = int(rng.integers(1, 16))
            X = random_series(rng, (int(rng.integers(1, 21)), length), tied)
            C = random_series(rng, (int(rng.integers(1, 6)), length), tied)
            want = np.array([[ref.soft_dtw(x, c, gamma) for c in C] for x in X])
            got = _distances_to_centroids(X, C, "softdtw", gamma)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestIterationCaps:
    def test_settled_fit_reports_no_cap(self):
        model = kmeans_ts(two_blobs(), k=2, metric="dtw", seed=0)
        assert model.converged
        assert model.dba_capped == 0

    def test_max_iter_cap_is_reported(self):
        model = kmeans_ts(two_blobs(n_per=10, seed=2), k=4, seed=3, max_iter=1)
        assert not model.converged
        assert len(model.inertia_history) == 1

    @pytest.mark.parametrize("metric", ["euclidean", "dtw"])
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_rejected_before_fitting(self, monkeypatch, metric, max_iter):
        def no_fit(*args):
            raise AssertionError("fitting started")

        monkeypatch.setattr(tscluster, "lockstep", no_fit)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            kmeans_ts(two_blobs(), k=2, metric=metric, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            ch_scan(two_blobs(), (2, 4), metric=metric, max_iter=max_iter)

    def test_dba_inner_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(tscluster, "_dba_update",
                            lambda X, assign, centroids: _dba_update(X, assign, centroids,
                                                                     max_inner=1))
        model = kmeans_ts(two_blobs(), k=2, metric="dtw", seed=0)
        assert model.dba_capped > 0
        members = np.array(list(two_blobs().values()))
        one = np.zeros(members.shape[0], dtype=int)
        assert dba_update(members, one, members[:1].copy(), max_inner=1) == 1
        assert dba_update(members, one, members[:1].copy()) == 0


def random_panel(seed: int) -> dict[str, np.ndarray]:
    """30 uniform series of 10 points, quantised to thirds at odd seeds."""
    X = random_series(np.random.default_rng(seed), (30, 10), tied=bool(seed % 2))
    return {f"u{i:02d}": row for i, row in enumerate(X)}


class TestBatchedDBAFits:
    """Fits with the batched DBA step against the cluster-by-cluster loop."""

    # (metric, seed, k, max_iter, DBA inner cap): multi-sweep fits, softdtw
    # fits with empty clusters, one stopped at max_iter, and two whose DBA
    # updates hit a lowered inner cap
    @pytest.mark.parametrize("metric, seed, k, max_iter, max_inner", [
        ("dtw", 20, 3, 100, 30), ("dtw", 3, 5, 100, 30), ("softdtw", 46, 7, 100, 30),
        ("softdtw", 5, 7, 8, 30), ("dtw", 20, 3, 100, 2), ("softdtw", 0, 5, 100, 2),
    ])
    def test_fit_equals_per_cluster_loop(self, monkeypatch, metric, seed, k, max_iter,
                                         max_inner):
        monkeypatch.setattr(tscluster, "_dba_update",
                            lambda X, assign, centroids: _dba_update(X, assign, centroids,
                                                                     max_inner=max_inner))
        data = random_panel(seed)
        got = kmeans_ts(data, k, metric=metric, seed=seed, max_iter=max_iter)
        want, _ = ref.kmeans_ts(data, k, metric, seed, max_iter, max_inner=max_inner)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.inertia_history == want.inertia_history
        assert got.assignment == want.assignment
        assert (got.converged, got.dba_capped) == (want.converged, want.dba_capped)

    def test_one_backtrack_per_iteration_of_the_slowest_cluster(self, monkeypatch):
        data = random_panel(3)
        calls = []
        backtrack = tscluster._backtrack

        def counting(*args):
            calls.append(args[0].shape[2])  # the steps' batch axis
            return backtrack(*args)

        monkeypatch.setattr(tscluster, "_backtrack", counting)
        kmeans_ts(data, 5, metric="dtw", seed=3)
        _, rounds = ref.kmeans_ts(data, 5, "dtw", 3)
        assert len(calls) == sum(map(max, rounds)) < sum(map(sum, rounds))
        assert max(calls) == len(data)  # the first iteration aligns every series


def assert_same_fit(got: ClusterModel, want: ClusterModel) -> None:
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia_history == want.inertia_history
    assert got.assignment == want.assignment
    assert (got.converged, got.dba_capped) == (want.converged, want.dba_capped)


class TestLockstepScan:
    """The fits of a scan, run as lanes in lockstep, against one k at a time."""

    # (metric, seed, k range, max_iter, DBA inner cap, what the scan reaches)
    @pytest.mark.parametrize("metric, seed, k_range, max_iter, max_inner, reaches", [
        ("dtw", 3, (2, 7), 100, 30, None),
        ("dtw", 20, (2, 6), 100, 2, "inner cap"),
        ("softdtw", 46, (4, 8), 100, 30, "empty cluster"),
        ("softdtw", 5, (4, 8), 8, 30, "max_iter"),
        ("euclidean", 7, (2, 8), 100, 30, None),
        ("euclidean", 8, (2, 8), 2, 30, "max_iter"),
    ])
    def test_each_k_equals_its_reference_fit(self, monkeypatch, metric, seed, k_range,
                                             max_iter, max_inner, reaches):
        monkeypatch.setattr(tscluster, "_dba_update",
                            lambda X, assign, centroids: _dba_update(X, assign, centroids,
                                                                     max_inner=max_inner))
        data = random_panel(seed)
        scores, fitted = ch_scan(data, k_range, metric=metric, seed=seed, max_iter=max_iter)
        assert sorted(fitted) == list(range(k_range[0], k_range[1] + 1))
        for k, got in fitted.items():
            want, _ = ref.kmeans_ts(data, k, metric, seed, max_iter, max_inner=max_inner)
            assert_same_fit(got, want)
            assert scores[k] == calinski_harabasz(data, want)
        reached = {
            "inner cap": any(m.dba_capped for m in fitted.values()),
            "empty cluster": any(len(set(m.assignment.values())) < m.k for m in fitted.values()),
            "max_iter": any(not m.converged for m in fitted.values()),
        }
        assert reached.get(reaches, True)

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_lower_table_cap_changes_nothing(self, monkeypatch, metric):
        data = random_panel(3)
        scores, fitted = ch_scan(data, (2, 6), metric=metric, seed=3)
        # one centroid per distance call, six pairs per alignment call
        monkeypatch.setattr(tscluster, "_MAX_TABLE_BYTES", 3000)
        capped_scores, capped = ch_scan(data, (2, 6), metric=metric, seed=3)
        assert capped_scores == scores
        for k in fitted:
            assert_same_fit(capped[k], fitted[k])

    def test_a_scan_backtracks_less_often_than_its_fits(self, monkeypatch):
        data = random_panel(3)
        calls = []
        backtrack = tscluster._backtrack

        def counting(*args):
            calls.append(args[0].shape[2])
            return backtrack(*args)

        monkeypatch.setattr(tscluster, "_backtrack", counting)
        for k in range(2, 8):
            kmeans_ts(data, k, metric="dtw", seed=3)
        one_lane = len(calls)
        calls.clear()
        ch_scan(data, (2, 7), metric="dtw", seed=3)
        assert len(calls) < one_lane
        assert max(calls) > len(data)  # some call aligns the members of several lanes
