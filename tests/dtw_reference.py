"""Per-pair warping references for the differential tests.

These are the cell-by-cell DTW table, path backtrack, soft-DTW loop and
DBA update that ``volnet.tscluster`` used before its batched kernel; the
tests require the kernel to reproduce them exactly.  ``dtw_brute`` is
the exhaustive oracle over all alignment paths.
"""

from __future__ import annotations

import math

import numpy as np


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


def soft_dtw(a, b, gamma: float = 1.0) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = (a[:, None] - b[None, :]) ** 2
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


def dba_update(members: np.ndarray, init: np.ndarray, max_inner: int = 30) -> np.ndarray:
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
