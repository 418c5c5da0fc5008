"""Time-series distances, K-means, cluster-count selection, and archetypes.

Distances are kept in squared form: ``euclidean_sq`` is the sum of squared
differences and the DTW variants accumulate squared pointwise costs, so
the three metrics are directly comparable and argmin-equivalent to their
square-rooted counterparts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .behavior import DRSeries

METRICS = ("euclidean", "dtw", "softdtw")
ARCHETYPES = ("FPD", "SAD", "FAD", "SPD")

# archetype -> (starts high?, stable?)
_STARTING_HIGH = ("FPD", "SAD")
_STABLE = ("SAD", "SPD")


@dataclass(frozen=True)
class ClusterModel:
    """Fitted time-series K-means state."""

    k: int
    metric: str
    centroids: np.ndarray  # shape (k, L)
    assignment: dict[str, int]
    inertia: float
    seed: int
    inertia_history: tuple[float, ...] = field(default=())

    def members(self, cluster: int) -> list[str]:
        return sorted(u for u, c in self.assignment.items() if c == cluster)


@dataclass(frozen=True)
class ArchetypeLabel:
    """Trend archetype of one centroid with its head/tail levels."""

    label: str
    initial_level: float
    final_level: float

    def __post_init__(self):
        if self.label not in ARCHETYPES:
            raise ValueError(f"unknown archetype {self.label!r}")


def euclidean_sq(a, b) -> float:
    """Sum of squared pointwise differences (series must align)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.sum((a - b) ** 2))


def _local_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        raise ValueError("empty series")
    return (a[:, None] - b[None, :]) ** 2


def _dtw_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cost = _local_cost(a, b)
    n, m = cost.shape
    acc = np.empty_like(cost)
    acc[0, :] = np.cumsum(cost[0, :])
    acc[:, 0] = np.cumsum(cost[:, 0])
    for i in range(1, n):
        row_prev = acc[i - 1]
        row = acc[i]
        for j in range(1, m):
            row[j] = cost[i, j] + min(row_prev[j - 1], row_prev[j], row[j - 1])
    return acc


def dtw(a, b) -> float:
    """Dynamic time warping with squared pointwise costs.

    Unconstrained warping with {diagonal, up, left} steps; symmetric and
    zero on identical series, and never above ``euclidean_sq`` for
    equal-length inputs (the diagonal path is admissible).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(_dtw_table(a, b)[-1, -1])


def dtw_path(a, b) -> tuple[float, list[tuple[int, int]]]:
    """DTW cost plus one optimal alignment path (ties prefer the diagonal)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    acc = _dtw_table(a, b)
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            if acc[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(acc[-1, -1]), path


def soft_dtw(a, b, gamma: float = 1.0) -> float:
    """Soft-DTW: the DTW recursion with min replaced by a soft minimum.

    ``softmin(x) = -gamma * log(sum(exp(-x/gamma)))``, so the value can dip
    below zero (even on identical series) and converges to :func:`dtw` as
    ``gamma`` goes to 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = _local_cost(a, b)
    n, m = cost.shape
    acc = np.empty_like(cost)
    acc[0, 0] = cost[0, 0]
    for i in range(1, n):
        acc[i, 0] = cost[i, 0] + acc[i - 1, 0]
    for j in range(1, m):
        acc[0, j] = cost[0, j] + acc[0, j - 1]
    for i in range(1, n):
        for j in range(1, m):
            stacked = np.logaddexp(
                np.logaddexp(-acc[i - 1, j - 1] / gamma, -acc[i - 1, j] / gamma),
                -acc[i, j - 1] / gamma,
            )
            acc[i, j] = cost[i, j] - gamma * stacked
    return float(acc[-1, -1])


def _as_matrix(data) -> tuple[list[str], np.ndarray]:
    """Normalize input series to (sorted user list, value matrix)."""
    if isinstance(data, Mapping):
        items = sorted((str(u), np.asarray(v, dtype=float)) for u, v in data.items())
    else:
        items = sorted((s.user, np.asarray(s.values, dtype=float)) for s in data)
    if not items:
        raise ValueError("no series given")
    users = [u for u, _ in items]
    lengths = {arr.shape for _, arr in items}
    if len(lengths) != 1 or len(next(iter(lengths))) != 1:
        raise ValueError("all series must be one-dimensional and equally long")
    return users, np.vstack([arr for _, arr in items])


def _metric_fn(metric: str, gamma: float):
    if metric == "euclidean":
        return euclidean_sq
    if metric == "dtw":
        return dtw
    if metric == "softdtw":
        return lambda a, b: soft_dtw(a, b, gamma)
    raise ValueError(f"unknown metric {metric!r} (expected one of {METRICS})")


def _distances_to_centroids(X: np.ndarray, centroids: np.ndarray, metric: str, gamma: float) -> np.ndarray:
    if metric == "euclidean":
        return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    fn = _metric_fn(metric, gamma)
    out = np.empty((X.shape[0], centroids.shape[0]))
    for i in range(X.shape[0]):
        for c in range(centroids.shape[0]):
            out[i, c] = fn(X[i], centroids[c])
    return out


def _kmeans_pp_init(X: np.ndarray, k: int, metric: str, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding; negative soft-DTW weights are clipped to 0."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d = np.maximum(_distances_to_centroids(X, X[chosen[-1:]], metric, gamma)[:, 0], 0.0)
    while len(chosen) < k:
        total = d.sum()
        if total <= 0.0:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d / total))
        chosen.append(nxt)
        d = np.minimum(d, np.maximum(
            _distances_to_centroids(X, X[nxt:nxt + 1], metric, gamma)[:, 0], 0.0))
    return X[chosen].copy()


def _dba_update(members: np.ndarray, init: np.ndarray, max_inner: int = 30) -> np.ndarray:
    """DTW barycenter averaging started from ``init`` (capped iterations)."""
    centroid = init.copy()
    for _ in range(max_inner):
        sums = np.zeros_like(centroid)
        counts = np.zeros_like(centroid)
        for row in members:
            _, path = dtw_path(row, centroid)
            for i, j in path:
                sums[j] += row[i]
                counts[j] += 1.0
        updated = np.where(counts > 0, sums / np.maximum(counts, 1.0), centroid)
        if np.max(np.abs(updated - centroid)) < 1e-8:
            return updated
        centroid = updated
    return centroid


def kmeans_ts(
    data,
    k: int,
    metric: str = "euclidean",
    seed: int = 0,
    max_iter: int = 100,
    gamma: float = 1.0,
) -> ClusterModel:
    """Time-series K-means over equally long series.

    Initialization is seeded k-means++; the assignment step uses the chosen
    metric (ties toward the lower cluster id) and the update step is the
    pointwise mean for ``euclidean`` or DTW barycenter averaging for the
    warping metrics.  Stops when assignments stabilize or after
    ``max_iter`` sweeps.  Deterministic for a fixed seed.

    ``inertia`` is the metric-distance sum to assigned centroids; for
    ``softdtw`` it can be negative (soft minima admit negative values).
    """
    users, X = _as_matrix(data)
    n = X.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    _metric_fn(metric, gamma)  # validate name early
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, metric, gamma, rng)
    history: list[float] = []
    prev: np.ndarray | None = None
    assign = np.zeros(n, dtype=int)
    for sweep in range(max_iter):
        dists = _distances_to_centroids(X, centroids, metric, gamma)
        assign = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        if sweep == max_iter - 1:
            break
        for c in range(k):
            members = X[assign == c]
            if members.shape[0] == 0:
                continue  # empty cluster keeps its centroid
            if metric == "euclidean":
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = _dba_update(members, centroids[c])
    return ClusterModel(
        k=k,
        metric=metric,
        centroids=centroids,
        assignment={u: int(c) for u, c in zip(users, assign)},
        inertia=history[-1],
        seed=seed,
        inertia_history=tuple(history),
    )


def calinski_harabasz(data, model: ClusterModel) -> float:
    """Variance-ratio criterion [B/(k-1)] / [W/(n-k)] of a fitted model.

    Each series is treated as a point in R^L with Euclidean geometry and
    cluster centers are the member means (independent of the fitted
    centroids).  Returns ``inf`` when every cluster is perfectly tight
    (W = 0).
    """
    users, X = _as_matrix(data)
    n, k = X.shape[0], model.k
    if k < 2:
        raise ValueError("criterion needs k >= 2")
    if n <= k:
        raise ValueError(f"criterion needs n > k (n={n}, k={k})")
    labels = np.array([model.assignment[u] for u in users])
    overall = X.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in range(k):
        members = X[labels == c]
        if members.shape[0] == 0:
            continue
        center = members.mean(axis=0)
        between += members.shape[0] * float(np.sum((center - overall) ** 2))
        within += float(np.sum((members - center) ** 2))
    if within == 0.0:
        return float("inf")
    return (between / (k - 1)) / (within / (n - k))


def ch_scan(
    data,
    k_range: tuple[int, int] = (4, 10),
    metric: str = "euclidean",
    seed: int = 0,
    max_iter: int = 100,
    gamma: float = 1.0,
) -> tuple[dict[int, float], dict[int, ClusterModel]]:
    """Fit K-means for each k in the inclusive range; return the score and
    the fitted model of each k."""
    k_min, k_max = k_range
    if k_min > k_max or k_min < 2:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    scores: dict[int, float] = {}
    fitted: dict[int, ClusterModel] = {}
    for k in range(k_min, k_max + 1):
        fitted[k] = kmeans_ts(data, k, metric=metric, seed=seed, max_iter=max_iter, gamma=gamma)
        scores[k] = calinski_harabasz(data, fitted[k])
    return scores, fitted


def best_k(scores: Mapping[int, float]) -> int:
    """Argmax of the variance-ratio criterion; ties (and the all-degenerate
    case where every k scores ``inf``) resolve to the smallest k."""
    best = min(scores)
    for k in sorted(scores):
        if scores[k] > scores[best]:
            best = k
    return best


def select_k(
    data,
    k_range: tuple[int, int] = (4, 10),
    metric: str = "euclidean",
    seed: int = 0,
    max_iter: int = 100,
    gamma: float = 1.0,
) -> int:
    """:func:`best_k` over a :func:`ch_scan` of ``k_range``."""
    return best_k(ch_scan(data, k_range, metric=metric, seed=seed, max_iter=max_iter,
                          gamma=gamma)[0])


def label_archetypes(
    model: ClusterModel,
    head: int = 3,
    tail: int = 3,
    high_threshold: float = 0.5,
    stability_band: float = 0.2,
) -> dict[int, ArchetypeLabel]:
    """Map each centroid to a trend archetype from its head and tail levels.

    ``initial`` / ``final`` are means of the first ``head`` and last
    ``tail`` points.  High means initial >= ``high_threshold``; stable
    means |final - initial| < ``stability_band``.  High-and-falling is
    FPD, low-and-rising is FAD, and stable trends are SAD (high) or SPD
    (low).  The two drifts that stay on one side (high-and-rising,
    low-and-falling) keep the stable label of their level.
    """
    out: dict[int, ArchetypeLabel] = {}
    for c in range(model.k):
        centroid = np.asarray(model.centroids[c], dtype=float)
        if centroid.shape[0] < head + tail:
            raise ValueError(f"centroid length {centroid.shape[0]} < head+tail={head + tail}")
        initial = float(centroid[:head].mean())
        final = float(centroid[-tail:].mean())
        high = initial >= high_threshold
        stable = abs(final - initial) < stability_band
        if stable:
            label = "SAD" if high else "SPD"
        elif high:
            label = "FPD" if final < initial else "SAD"
        else:
            label = "FAD" if final > initial else "SPD"
        out[c] = ArchetypeLabel(label=label, initial_level=initial, final_level=final)
    return out


def split_cases(model: ClusterModel, labels: Mapping[int, ArchetypeLabel]) -> dict[str, set[str]]:
    """Partition clustered users into the starting-high (FPD+SAD) and
    starting-low (FAD+SPD) prediction cases."""
    clusters = set(model.assignment.values())
    missing = clusters - set(labels)
    if missing:
        raise ValueError(f"labels missing for cluster(s) {sorted(missing)}")
    high = {u for u, c in model.assignment.items() if labels[c].label in _STARTING_HIGH}
    low = {u for u, c in model.assignment.items() if labels[c].label not in _STARTING_HIGH}
    return {"starting_high": high, "starting_low": low}


def model_to_dict(model: ClusterModel) -> dict:
    return {
        "version": 1,
        "k": model.k,
        "metric": model.metric,
        "seed": model.seed,
        "inertia": model.inertia,
        "inertia_history": list(model.inertia_history),
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "assignment": {u: int(c) for u, c in sorted(model.assignment.items())},
    }


def model_from_dict(payload: Mapping) -> ClusterModel:
    if payload.get("version") != 1:
        raise ValueError(f"unsupported cluster model version {payload.get('version')!r}")
    return ClusterModel(
        k=int(payload["k"]),
        metric=str(payload["metric"]),
        centroids=np.asarray(payload["centroids"], dtype=float),
        assignment={str(u): int(c) for u, c in payload["assignment"].items()},
        inertia=float(payload["inertia"]),
        seed=int(payload["seed"]),
        inertia_history=tuple(payload.get("inertia_history", ())),
    )


def write_cluster_csv(model: ClusterModel, labels: Mapping[int, ArchetypeLabel], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "cluster_id", "archetype"])
        for user in sorted(model.assignment):
            c = model.assignment[user]
            writer.writerow([user, c, labels[c].label])


def write_centroid_csv(model: ClusterModel, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "index", "value"])
        for c in range(model.k):
            for i, v in enumerate(model.centroids[c]):
                writer.writerow([c, i, f"{float(v):.6f}"])
