"""Per-pair warping references for the differential tests.

These are the cell-by-cell DTW table, path backtrack and DBA update that
``volnet.tscluster`` used before its batched kernel; the tests require the
kernel to reproduce them exactly.  ``kmeans_ts`` is the k-means loop that
fitted one k at a time, seeding with ``kmeans_pp_init`` and updating one
cluster at a time, before the fits of a scan ran in lockstep and the DBA
step was batched over all clusters of a sweep.
``dtw_brute`` is the exhaustive oracle over all alignment paths.
"""

from __future__ import annotations

import math

import numpy as np

from volnet.tscluster import ClusterModel, _as_matrix, _distances_to_centroids


def dtw_table(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = (a[:, None] - b[None, :]) ** 2
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
    return float(dtw_table(a, b)[-1, -1])


def dtw_path(a, b) -> tuple[float, list[tuple[int, int]]]:
    acc = dtw_table(a, b)
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


def dba_update(members: np.ndarray, init: np.ndarray,
               max_inner: int = 30) -> tuple[np.ndarray, int, bool]:
    """DBA of one cluster: the centroid, the iterations run, and whether it
    settled within ``max_inner`` of them."""
    centroid = init.copy()
    for it in range(1, max_inner + 1):
        sums = np.zeros_like(centroid)
        counts = np.zeros_like(centroid)
        for row in members:
            _, path = dtw_path(row, centroid)
            for i, j in path:
                sums[j] += row[i]
                counts[j] += 1.0
        updated = np.where(counts > 0, sums / np.maximum(counts, 1.0), centroid)
        if np.max(np.abs(updated - centroid)) < 1e-8:
            return updated, it, True
        centroid = updated
    return centroid, max_inner, False


def kmeans_pp_init(X: np.ndarray, k: int, metric: str, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d = _distances_to_centroids(X, X[chosen[-1:]], metric)[:, 0]
    while len(chosen) < k:
        total = d.sum()
        if total <= 0.0:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d / total))
        chosen.append(nxt)
        d = np.minimum(d, _distances_to_centroids(X, X[nxt:nxt + 1], metric)[:, 0])
    return X[chosen].copy()


def kmeans_ts(data, k: int, metric: str, seed: int = 0, max_iter: int = 100,
              max_inner: int = 30) -> tuple[ClusterModel, list[list[int]]]:
    """K-means with one update per non-empty cluster and sweep: the member
    mean for ``euclidean``, one :func:`dba_update` for ``dtw``;
    assignment distances are volnet's.  Also returns, per sweep with an
    update step, the DBA iterations each non-empty cluster ran."""
    users, X = _as_matrix(data)
    n = X.shape[0]
    centroids = kmeans_pp_init(X, k, metric, np.random.default_rng(seed))
    history: list[float] = []
    rounds: list[list[int]] = []
    prev = None
    converged = False
    dba_capped = 0
    for sweep in range(max_iter):
        dists = _distances_to_centroids(X, centroids, metric)
        assign = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        if sweep == max_iter - 1:
            break
        rounds.append([])
        for c in range(k):
            members = X[assign == c]
            if members.shape[0] == 0:
                continue
            if metric == "euclidean":
                centroids[c] = members.mean(axis=0)
                continue
            centroids[c], iterations, settled = dba_update(members, centroids[c], max_inner)
            dba_capped += not settled
            rounds[-1].append(iterations)
    model = ClusterModel(
        k=k, metric=metric, centroids=centroids,
        assignment={u: int(c) for u, c in zip(users, assign)},
        inertia=history[-1], seed=seed, inertia_history=tuple(history),
        converged=converged, dba_capped=dba_capped,
    )
    return model, rounds


def dtw_brute(a, b) -> float:
    """Exhaustive minimum over all monotone alignment paths."""
    n, m = len(a), len(b)
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc += (a[i] - b[j]) ** 2
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]
