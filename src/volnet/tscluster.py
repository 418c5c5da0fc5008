"""Time-series distances, K-means, cluster-count selection, and archetypes.

Distances are kept in squared form: ``euclidean_sq`` is the sum of squared
differences and the DTW variants accumulate squared pointwise costs, so
the three metrics are directly comparable and argmin-equivalent to their
square-rooted counterparts.

DTW and soft-DTW share one kernel (``_warp``) that fills the warping
tables of many (series, centroid) pairs at once: NumPy operations run
over all pairs and one anti-diagonal of cells at a time, doing the same
float operations in the same order as a cell-by-cell loop over one pair,
so results do not depend on how pairs are batched.  The k-means
assignment step and each k-means++ pick are one call over all pairs,
keeping three diagonals per pair; a DBA iteration aligns the members of
all clusters of a sweep, each to its own centroid, in one call that fills
their full tables and backtracks their paths together.
The scalar ``dtw``, ``dtw_path`` and ``soft_dtw`` are the same kernel on
a single pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .behavior import DRSeries

METRICS = ("euclidean", "dtw", "softdtw")
ARCHETYPES = ("FPD", "SAD", "FAD", "SPD")

# archetype -> (prediction case, trend): FPD and SAD start high, SAD and SPD stay stable
_CASE_AND_TREND = {
    "FPD": ("starting_high", "changes"),
    "SAD": ("starting_high", "stable"),
    "FAD": ("starting_low", "changes"),
    "SPD": ("starting_low", "stable"),
}


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
    # Fit diagnostics, not serialized: whether assignments stabilized within
    # max_iter sweeps, and how many DBA updates stopped at their inner cap.
    converged: bool = True
    dba_capped: int = 0

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


def _warp(a: np.ndarray, b: np.ndarray, gamma: float | None = None,
          keep: bool = False) -> np.ndarray:
    """Accumulated warping cost of every pair of rows of ``a`` and ``b``.

    ``a`` has shape (..., n) and ``b`` shape (..., m); their leading axes
    broadcast to the batch of pairs.  Cell (i, j) costs ``(a_i - b_j)**2``;
    the first row and column are cumulative sums, and every other cell adds
    its cost to the minimum of its diagonal, up and left neighbours (the
    soft minimum with temperature ``gamma`` when one is given).  Cells are
    swept one anti-diagonal (i + j = d) at a time for all pairs at once.
    Returns the final cell of each pair, holding only three diagonals; with
    ``keep`` it returns every diagonal instead, ``out[i + j, ..., i]`` being
    cell (i, j) (entries outside the table are 0).
    """
    n, m = a.shape[-1], b.shape[-1]
    if n == 0 or m == 0:
        raise ValueError("empty series")
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    b_rev = b[..., ::-1]
    slots = n + m - 1 if keep else 3
    diags = np.zeros((slots,) + batch + (n,))
    if gamma is not None:  # each finished diagonal divided by -gamma, once
        scaled = np.zeros((3,) + batch + (n,))
    for d in range(n + m - 1):
        cur, prev, prev2 = diags[d % slots], diags[(d - 1) % slots], diags[(d - 2) % slots]
        if d < m:  # cell (0, d) of the first row
            cur[..., :1] = (a[..., :1] - b[..., d:d + 1]) ** 2
            if d:
                cur[..., :1] += prev[..., :1]
        if 0 < d < n:  # cell (d, 0) of the first column
            cur[..., d:d + 1] = (a[..., d:d + 1] - b[..., :1]) ** 2 + prev[..., d - 1:d]
        lo, hi = max(1, d - m + 1), min(n - 1, d - 1)
        if lo <= hi:
            cost = (a[..., lo:hi + 1] - b_rev[..., m - 1 - d + lo:m - d + hi]) ** 2
            if gamma is None:
                diag, up, left = prev2[..., lo - 1:hi], prev[..., lo - 1:hi], prev[..., lo:hi + 1]
                np.add(cost, np.minimum(np.minimum(diag, up), left), out=cur[..., lo:hi + 1])
            else:
                s1, s2 = scaled[(d - 1) % 3], scaled[(d - 2) % 3]
                cur[..., lo:hi + 1] = cost - gamma * np.logaddexp(
                    np.logaddexp(s2[..., lo - 1:hi], s1[..., lo - 1:hi]), s1[..., lo:hi + 1])
        if gamma is not None:
            np.divide(cur, -gamma, out=scaled[d % 3])
    return diags if keep else diags[(n + m - 2) % slots][..., n - 1].copy()


def _backtrack(tables: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One optimal path per pair through kept :func:`_warp` tables of batch
    shape (P,), walked back from (n-1, m-1) for all pairs at once; ties
    prefer the diagonal step, then up (i - 1), then left (j - 1).

    Returns ``(pair, i, j)`` of every path cell, pair-major and in
    ascending path order.
    """
    pairs = np.arange(tables.shape[1])
    i = np.full(pairs.size, n - 1)
    j = np.full(pairs.size, m - 1)
    cells_i, cells_j, moved = [i], [j], [np.ones(pairs.size, dtype=bool)]
    for _ in range(n + m - 2):
        live = (i > 0) | (j > 0)
        d = np.maximum(i + j - 1, 0)
        back = np.maximum(i - 1, 0)
        diag = tables[np.maximum(d - 1, 0), pairs, back]
        up = tables[d, pairs, back]
        left = tables[d, pairs, i]
        best = np.minimum(np.minimum(diag, up), left)
        go_diag = (i > 0) & (j > 0) & (diag == best)
        go_up = (i > 0) & ~go_diag & ((j == 0) | (up == best))
        go_left = live & ~go_diag & ~go_up
        i = i - (go_diag | go_up)
        j = j - (go_diag | go_left)
        cells_i.append(i)
        cells_j.append(j)
        moved.append(live)
    keep = np.stack(moved, axis=1)[:, ::-1]
    return (np.nonzero(keep)[0], np.stack(cells_i, axis=1)[:, ::-1][keep],
            np.stack(cells_j, axis=1)[:, ::-1][keep])


def _series_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return a, b


def dtw(a, b) -> float:
    """Dynamic time warping with squared pointwise costs.

    Unconstrained warping with {diagonal, up, left} steps; symmetric and
    zero on identical series, and never above ``euclidean_sq`` for
    equal-length inputs (the diagonal path is admissible).
    """
    a, b = _series_pair(a, b)
    return float(_warp(a, b))


def dtw_path(a, b) -> tuple[float, list[tuple[int, int]]]:
    """DTW cost plus one optimal alignment path (ties prefer the diagonal)."""
    a, b = _series_pair(a, b)
    tables = _warp(a[None], b, keep=True)
    _, i, j = _backtrack(tables, a.size, b.size)
    return float(tables[-1, 0, -1]), list(zip(i.tolist(), j.tolist()))


def soft_dtw(a, b, gamma: float = 1.0) -> float:
    """Soft-DTW: the DTW recursion with min replaced by a soft minimum.

    ``softmin(x) = -gamma * log(sum(exp(-x/gamma)))``, so the value can dip
    below zero (even on identical series) and converges to :func:`dtw` as
    ``gamma`` goes to 0.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    a, b = _series_pair(a, b)
    return float(_warp(a, b, gamma))


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


def _distances_to_centroids(X: np.ndarray, centroids: np.ndarray, metric: str, gamma: float) -> np.ndarray:
    if metric == "euclidean":
        return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return _warp(X[:, None, :], centroids[None, :, :], gamma if metric == "softdtw" else None)


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


def _dba_update(X: np.ndarray, assign: np.ndarray, centroids: np.ndarray,
                max_inner: int = 30) -> int:
    """DTW barycenter averaging of every non-empty cluster, in place; returns
    how many clusters stopped at ``max_inner`` iterations before their
    largest change fell below 1e-8.  An empty cluster keeps its centroid.
    Each iteration aligns the members of every cluster still moving to
    their own centroid in one table fill and backtrack; paths come back
    pair-major with members in row order, so each cluster's sums add in
    the order of a cluster-by-cluster update."""
    k, m = centroids.shape
    n = X.shape[1]
    # the non-empty clusters; np.unique would page in NumPy's sort kernels,
    # ~0.8 MB of peak RSS that a clustering run otherwise never touches
    moving = np.flatnonzero(np.bincount(assign, minlength=k))
    for _ in range(max_inner):
        if moving.size == 0:
            break
        rows = np.flatnonzero(np.isin(assign, moving))
        own = assign[rows]
        owner, i, j = _backtrack(_warp(X[rows], centroids[own], keep=True), n, m)
        bins = own[owner] * m + j
        sums = np.bincount(bins, weights=X[rows[owner], i], minlength=k * m).reshape(k, m)
        counts = np.bincount(bins, minlength=k * m).reshape(k, m)
        updated = sums[moving] / counts[moving]  # every path visits every column
        settled = np.max(np.abs(updated - centroids[moving]), axis=1) < 1e-8
        centroids[moving] = updated
        moving = moving[~settled]
    return int(moving.size)


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
    pointwise mean for ``euclidean`` or DTW barycenter averaging (at most
    30 iterations per cluster and sweep) for the warping metrics.  For the
    warping metrics each seeding pick and each assignment step is one
    batched kernel call over all (series, centroid) pairs, and each DBA
    iteration aligns the members of every cluster of the sweep that is
    still moving to their own centroids in one call.  Stops when
    assignments stabilize or after ``max_iter`` sweeps; the model's
    ``converged`` and ``dba_capped`` report whether either cap was hit.
    Deterministic for a fixed seed.

    ``inertia`` is the metric-distance sum to assigned centroids; for
    ``softdtw`` it can be negative (soft minima admit negative values).
    ``softdtw`` assigns by soft-DTW but still updates centroids with
    hard-DTW DBA, which does not minimise soft-DTW, so its
    ``inertia_history`` can rise between sweeps.
    """
    users, X = _as_matrix(data)
    n = X.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r} (expected one of {METRICS})")
    if metric == "softdtw" and not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, metric, gamma, rng)
    history: list[float] = []
    prev: np.ndarray | None = None
    assign = np.zeros(n, dtype=int)
    converged = False
    dba_capped = 0
    for sweep in range(max_iter):
        dists = _distances_to_centroids(X, centroids, metric, gamma)
        assign = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        if sweep == max_iter - 1:
            break
        if metric != "euclidean":
            dba_capped += _dba_update(X, assign, centroids)
            continue
        for c in range(k):
            members = X[assign == c]
            if members.shape[0] == 0:
                continue  # empty cluster keeps its centroid
            centroids[c] = members.mean(axis=0)
    return ClusterModel(
        k=k,
        metric=metric,
        centroids=centroids,
        assignment={u: int(c) for u, c in zip(users, assign)},
        inertia=history[-1],
        seed=seed,
        inertia_history=tuple(history),
        converged=converged,
        dba_capped=dba_capped,
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


def case_and_trend(label: str) -> tuple[str, str]:
    """The prediction case and trend label of an archetype."""
    if label not in _CASE_AND_TREND:
        raise ValueError(f"unknown archetype {label!r}")
    return _CASE_AND_TREND[label]


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
