"""Time-series distances, K-means, cluster-count selection, and archetypes.

Distances are kept in squared form: ``euclidean_sq`` is the sum of squared
differences and DTW accumulates squared pointwise costs, so the two
metrics are directly comparable and argmin-equivalent to their
square-rooted counterparts.

One DTW kernel (``_warp``) fills the warping tables of many (series,
centroid) pairs at once: NumPy operations run over all pairs and one
anti-diagonal of cells at a time, doing the same float operations in the
same order as a cell-by-cell loop over one pair, so results do not depend
on how pairs are batched.  Its tables are batch-last (``[d, i, pair]``),
so every step works on contiguous blocks with the pairs as the long inner
axis, and it holds three diagonals of costs; for alignments it also keeps
one byte per cell, the step that reached it, which ``_backtrack`` follows.
The scalar ``dtw`` and ``dtw_path`` are the same kernel on a single pair.

A k-means fit is a lane: a generator that yields two kinds of request,
the distances of every series to some centroids (each k-means++ pick and
each assignment step) and the DBA alignments of cluster members to their
own centroids, and returns its model.  The lane driver, ``lockstep``, runs
the lanes side by side, and ``_answer`` answers all pending requests of
one kind with one kernel call (split between pairs where a call would pass
``_MAX_TABLE_BYTES``), so ``ch_scan`` fits every k of its range in the same
calls; ``kmeans_ts`` is the one-lane call.  Each lane draws from its own
``default_rng(seed)``, so a fit does not depend on the lanes beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .ingest import write_rows

METRICS = ("euclidean", "dtw")
ARCHETYPES = ("FPD", "SAD", "FAD", "SPD")

# archetype -> (prediction case, trend): FPD and SAD start high, SAD and SPD stay stable
_CASE_AND_TREND = {
    "FPD": ("starting_high", "changes"),
    "SAD": ("starting_high", "stable"),
    "FAD": ("starting_low", "changes"),
    "SPD": ("starting_low", "stable"),
}
# label_archetypes' head and tail lengths, high level and stability band
_HEAD, _TAIL, _HIGH, _STABLE_BAND = 3, 3, 0.5, 0.2
# a fit whose assignments still change after this many sweeps stops unconverged
_MAX_SWEEPS = 100
# a DBA update whose centroid still moves after this many steps stops there
_MAX_DBA_STEPS = 30


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
    # _MAX_SWEEPS sweeps, and how many DBA updates stopped at their inner cap.
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


# The step into each cell of a warping table, as :func:`_warp` keeps it: 0
# from the diagonal, 1 from above (i - 1), 2 or 3 from the left (j - 1), and
# 4 at (0, 0); and how far each step moves i and j.
_UP, _LEFT, _START = 1, 2, 4
_DI = np.array([1, 1, 0, 0, 0])
_DJ = np.array([1, 0, 1, 1, 0])


def _warp(a: np.ndarray, b: np.ndarray, keep: bool = False):
    """Accumulated warping cost of every pair of rows of ``a`` and ``b``.

    ``a`` has shape (..., n) and ``b`` shape (..., m); their leading axes
    broadcast to the batch of pairs.  Cell (i, j) costs ``(a_i - b_j)**2``;
    the first row and column are cumulative sums, and every other cell adds
    its cost to the minimum of its diagonal, up and left neighbours.  Cells
    are swept one anti-diagonal (i + j = d) at a time for all pairs at once,
    holding three diagonals; they are batch-last, ``[d, i, pair]``, so one
    step works on contiguous blocks with the pairs as the inner axis.
    Returns the final cell of each pair.  With ``keep`` it also returns the
    step into every cell, ``steps[i + j, i, pair]``, for :func:`_backtrack`;
    a tie prefers the diagonal, then up, then left.
    """
    n, m = a.shape[-1], b.shape[-1]
    if n == 0 or m == 0:
        raise ValueError("empty series")
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    pairs = math.prod(batch)
    a = np.moveaxis(np.broadcast_to(a, batch + (n,)), -1, 0).reshape(n, pairs)
    b_rev = np.moveaxis(np.broadcast_to(b[..., ::-1], batch + (m,)), -1, 0).reshape(m, pairs)
    diags = np.zeros((3, n, pairs))
    cost, least = np.empty((n, pairs)), np.empty((n, pairs))  # reused by every diagonal
    if keep:
        steps = np.empty((n + m - 1, n, pairs), dtype=np.int8)
        steps[0, 0] = _START
        wins = np.empty((n, pairs), dtype=bool)
    for d in range(n + m - 1):
        cur, prev, prev2 = diags[d % 3], diags[(d - 1) % 3], diags[(d - 2) % 3]
        if d < m:  # cell (0, d) of the first row
            cur[0] = (a[0] - b_rev[m - 1 - d]) ** 2
            if d:
                cur[0] += prev[0]
                if keep:
                    steps[d, 0] = _LEFT
        if 0 < d < n:  # cell (d, 0) of the first column
            cur[d] = (a[d] - b_rev[m - 1]) ** 2 + prev[d - 1]
            if keep:
                steps[d, d] = _UP
        lo, hi = max(1, d - m + 1), min(n - 1, d - 1)
        if lo <= hi:
            c, low = cost[:hi + 1 - lo], least[:hi + 1 - lo]  # one row per cell
            np.square(np.subtract(a[lo:hi + 1], b_rev[m - 1 - d + lo:m - d + hi], out=c), out=c)
            diag, up, left = prev2[lo - 1:hi], prev[lo - 1:hi], prev[lo:hi + 1]
            np.minimum(diag, up, out=low)
            if keep:  # 2 if left beats both, plus 1 if up beats the diagonal
                step, won = steps[d, lo:hi + 1], wins[:hi + 1 - lo]
                np.less(left, low, out=won)
                np.add(won, won, out=step, dtype=np.int8)
                np.add(step, np.less(up, diag, out=won), out=step)
            np.minimum(low, left, out=low)
            np.add(c, low, out=cur[lo:hi + 1])
    final = diags[(n + m - 2) % 3][n - 1].reshape(batch).copy()
    return (final, steps.reshape((n + m - 1, n) + batch)) if keep else final


def _backtrack(steps: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One optimal path per pair through the kept steps of :func:`_warp`
    (batch shape (P,)), walked back from (n-1, m-1) for all pairs at once.

    Returns ``(pair, i, j)`` of every path cell, pair-major and in
    ascending path order.
    """
    size = steps.shape[2]
    flat = steps.reshape(-1)
    # the flat offset each step moves back: (d, i) to (d-2, i-1), (d-1, i-1) or (d-1, i)
    back = np.array([2 * n + 1, n + 1, n, n, 0]) * size
    at = ((n + m - 2) * n + n - 1) * size + np.arange(size)
    taken = np.empty((n + m - 2, size), dtype=np.int8)
    for s in range(n + m - 2):
        taken[s] = flat[at]
        at -= back[taken[s]]
    i = np.vstack([np.full(size, n - 1), n - 1 - np.cumsum(_DI[taken], axis=0)]).T[:, ::-1]
    j = np.vstack([np.full(size, m - 1), m - 1 - np.cumsum(_DJ[taken], axis=0)]).T[:, ::-1]
    moved = np.vstack([np.ones(size, dtype=bool), taken != _START]).T[:, ::-1]
    return np.nonzero(moved)[0], i[moved], j[moved]


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
    cost, steps = _warp(a[None], b, keep=True)
    _, i, j = _backtrack(steps, a.size, b.size)
    return float(cost[0]), list(zip(i.tolist(), j.tolist()))


def _as_matrix(data) -> tuple[list[str], np.ndarray]:
    """Normalize a mapping of user to series to (sorted user list, value
    matrix); every value must be finite."""
    items = sorted((str(u), np.asarray(v, dtype=float)) for u, v in data.items())
    if not items:
        raise ValueError("no series given")
    users = [u for u, _ in items]
    lengths = {arr.shape for _, arr in items}
    if len(lengths) != 1 or len(next(iter(lengths))) != 1:
        raise ValueError("all series must be one-dimensional and equally long")
    X = np.vstack([arr for _, arr in items])
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"series of user {users[bad[0]]!r} holds a non-finite value")
    return users, X


def _distances_to_centroids(X: np.ndarray, centroids: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return _warp(X[:, None, :], centroids[None, :, :])


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator):
    """Seeded k-means++ seeding, one distance request per pick.  Returns
    the k centroids."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d = (yield "dist", X[chosen[-1:]])[:, 0]
    while len(chosen) < k:
        total = d.sum()
        if total <= 0.0:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d / total))
        chosen.append(nxt)
        d = np.minimum(d, (yield "dist", X[nxt:nxt + 1])[:, 0])
    return X[chosen].copy()


def _dba_update(X: np.ndarray, assign: np.ndarray, centroids: np.ndarray):
    """DTW barycenter averaging of every non-empty cluster, in place; returns
    how many clusters stopped at ``_MAX_DBA_STEPS`` iterations before their
    largest change fell below 1e-8.  An empty cluster keeps its centroid.
    Each iteration requests the alignment of the members of every cluster
    still moving to their own centroid; paths come back pair-major with
    members in row order, so each cluster's sums add in the order of a
    cluster-by-cluster update."""
    k, m = centroids.shape
    n = X.shape[1]
    # the non-empty clusters; np.unique would page in NumPy's sort kernels,
    # ~0.8 MB of peak RSS that a clustering run otherwise never touches
    moving = np.flatnonzero(np.bincount(assign, minlength=k))
    for _ in range(_MAX_DBA_STEPS):
        if moving.size == 0:
            break
        rows = np.flatnonzero(np.isin(assign, moving))
        own = assign[rows]
        owner, i, j = yield "align", rows, centroids[own]
        bins = own[owner] * m + j
        sums = np.bincount(bins, weights=X[rows[owner], i], minlength=k * m).reshape(k, m)
        counts = np.bincount(bins, minlength=k * m).reshape(k, m)
        del owner, i, j, bins  # no path is held while the other lanes run
        updated = sums[moving] / counts[moving]  # every path visits every column
        settled = np.max(np.abs(updated - centroids[moving]), axis=1) < 1e-8
        centroids[moving] = updated
        moving = moving[~settled]
    return int(moving.size)


def lockstep(lanes, answer) -> list:
    """Run a list of generator ``lanes`` side by side; return their results
    in lane order.

    A lane yields requests and is sent their replies.  Every step hands the
    pending requests, in lane order, to ``answer``, which yields
    ``(position, reply)`` once for each, in any order, so that one batched
    kernel call can serve them all.  A lane advances as soon as its reply
    arrives, and its next request waits for the next step."""
    out: list = [None] * len(lanes)
    pending: dict = {}

    def advance(a: int, reply) -> None:
        try:
            pending[a] = lanes[a].send(reply)
        except StopIteration as stop:
            out[a] = stop.value

    for a in range(len(lanes)):
        advance(a, None)
    while pending:
        asked = sorted(pending)
        for position, reply in answer([pending.pop(a) for a in asked]):
            advance(asked[position], reply)
    return out


def _fit(users: list[str], X: np.ndarray, k: int, metric: str, seed: int):
    """One k-means fit as a lane of :func:`lockstep`: it yields distance
    and alignment requests and returns its :class:`ClusterModel`."""
    n = X.shape[0]
    centroids = yield from _kmeans_pp_init(X, k, np.random.default_rng(seed))
    history: list[float] = []
    prev: np.ndarray | None = None
    assign = np.zeros(n, dtype=int)
    converged = False
    dba_capped = 0
    for sweep in range(_MAX_SWEEPS):
        dists = yield "dist", centroids
        assign = dists.argmin(axis=1)
        history.append(float(dists[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        if sweep == _MAX_SWEEPS - 1:
            break
        if metric != "euclidean":
            dba_capped += yield from _dba_update(X, assign, centroids)
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


# Table bytes one kernel call may fill: three float diagonals per pair, and
# for alignments one step byte per cell.  The pending requests of one kind
# are answered in calls of at most this size, split between pairs.
_MAX_TABLE_BYTES = 1 << 21


def _answer(requests: list, X: np.ndarray, metric: str):
    """Answer the pending requests of the fit lanes over the series ``X``:
    first every distance request, then every alignment request, each kind
    with as few kernel calls over all its pairs as ``_MAX_TABLE_BYTES``
    allows.  Yields ``(position, reply)``: the distances of every series to
    the request's centroids once all distance calls are done, and the
    (pair, i, j) path cells of a request's alignments, pairs numbered within
    the request, as soon as the call holding its last pair returns."""
    n, length = X.shape
    diagonals = 3 * length * 8
    dist = [a for a, r in enumerate(requests) if r[0] == "dist"]
    if dist:  # a unit is a centroid: n pairs
        units = np.concatenate([requests[a][1] for a in dist])
        step = max(1, _MAX_TABLE_BYTES // (n * diagonals))
        got = np.concatenate([_distances_to_centroids(X, units[lo:lo + step], metric)
                              for lo in range(0, units.shape[0], step)], axis=1)
        ends = np.cumsum([requests[a][1].shape[0] for a in dist[:-1]])
        yield from zip(dist, np.split(got, ends, axis=1))
    align = [a for a, r in enumerate(requests) if r[0] == "align"]
    if not align:
        return
    # a unit is a (series, centroid) pair and its steps; align[b] asks for units ends[b]:ends[b + 1]
    rows, units = (np.concatenate([requests[a][c] for a in align]) for c in (1, 2))
    step = max(1, _MAX_TABLE_BYTES // (diagonals + (2 * length - 1) * length))
    ends = np.cumsum([0] + [requests[a][1].size for a in align]).tolist()
    b, parts = 0, []
    for lo in range(0, ends[-1], step):
        hi = min(lo + step, ends[-1])
        pair, i, j = _backtrack(_warp(X[rows[lo:hi]], units[lo:hi], keep=True)[1], length, length)
        pair += lo
        while b < len(align):
            x, y = np.searchsorted(pair, [max(ends[b], lo), min(ends[b + 1], hi)])
            parts.append((pair[x:y] - ends[b], i[x:y], j[x:y]))
            if ends[b + 1] > hi:
                break
            yield align[b], tuple(np.concatenate(cells) for cells in zip(*parts))
            b, parts = b + 1, []


def _check_fit(n: int, k: int, metric: str) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r} (expected one of {METRICS})")


def kmeans_ts(
    data: Mapping,
    k: int,
    metric: str = "euclidean",
    seed: int = 0,
) -> ClusterModel:
    """Time-series K-means over equally long series.

    Initialization is seeded k-means++; the assignment step uses the chosen
    metric (ties toward the lower cluster id) and the update step is the
    pointwise mean for ``euclidean`` or DTW barycenter averaging (at most
    30 iterations per cluster and sweep) for ``dtw``.  The fit is the
    one-lane case of :func:`ch_scan`'s lockstep (see the module docstring).
    Stops when assignments stabilize or after ``_MAX_SWEEPS`` (100) sweeps;
    the model's ``converged`` and ``dba_capped`` report whether either
    cap was hit.  ``inertia`` is the metric-distance sum to assigned
    centroids.  Deterministic for a fixed seed.
    """
    users, X = _as_matrix(data)
    _check_fit(X.shape[0], k, metric)
    lane = _fit(users, X, k, metric, seed)
    return lockstep([lane], lambda requests: _answer(requests, X, metric))[0]


def calinski_harabasz(data: Mapping, model: ClusterModel) -> float:
    """Variance-ratio criterion [B/(k-1)] / [W/(n-k)] of a fitted model.

    Each series is treated as a point in R^L with Euclidean geometry and
    cluster centers are the member means (independent of the fitted
    centroids).  Returns ``inf`` when every cluster is perfectly tight
    (W = 0).
    """
    return _calinski_harabasz(*_as_matrix(data), model)


def _calinski_harabasz(users: list[str], X: np.ndarray, model: ClusterModel) -> float:
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
    data: Mapping,
    k_range: tuple[int, int] = (4, 10),
    metric: str = "euclidean",
    seed: int = 0,
) -> tuple[dict[int, float], dict[int, ClusterModel]]:
    """Fit K-means for each k in the inclusive range; return the score and
    the fitted model of each k.

    The fits run in lockstep, one lane per k with its own
    ``default_rng(seed)``, so each k's model equals its :func:`kmeans_ts`
    fit.  Each step answers the distance requests of all lanes with one
    kernel call, and their alignment requests with one more, each split
    between pairs at ``_MAX_TABLE_BYTES`` (2 MiB), which bounds memory and
    changes no result.  Every argument is checked before any fit starts."""
    k_min, k_max = k_range
    if k_min > k_max or k_min < 2:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    users, X = _as_matrix(data)
    ks = range(k_min, k_max + 1)
    for k in ks:
        _check_fit(X.shape[0], k, metric)
    lanes = [_fit(users, X, k, metric, seed) for k in ks]
    fits = lockstep(lanes, lambda requests: _answer(requests, X, metric))
    fitted = dict(zip(ks, fits))
    return {k: _calinski_harabasz(users, X, fitted[k]) for k in ks}, fitted


def best_k(scores: Mapping[int, float]) -> int:
    """Argmax of the variance-ratio criterion; ties (and the all-degenerate
    case where every k scores ``inf``) resolve to the smallest k."""
    best = min(scores)
    for k in sorted(scores):
        if scores[k] > scores[best]:
            best = k
    return best


def label_archetypes(model: ClusterModel) -> dict[int, ArchetypeLabel]:
    """Map each centroid to a trend archetype from its head and tail levels.

    ``initial`` / ``final`` are means of the first :data:`_HEAD` and last
    :data:`_TAIL` points.  High means initial >= :data:`_HIGH`; stable
    means |final - initial| < :data:`_STABLE_BAND`.  High-and-falling is
    FPD, low-and-rising is FAD, and stable trends are SAD (high) or SPD
    (low).  The two drifts that stay on one side (high-and-rising,
    low-and-falling) keep the stable label of their level.
    """
    out: dict[int, ArchetypeLabel] = {}
    for c in range(model.k):
        centroid = np.asarray(model.centroids[c], dtype=float)
        if centroid.shape[0] < _HEAD + _TAIL:
            raise ValueError(f"centroid length {centroid.shape[0]} < head+tail={_HEAD + _TAIL}")
        initial = float(centroid[:_HEAD].mean())
        final = float(centroid[-_TAIL:].mean())
        high = initial >= _HIGH
        stable = abs(final - initial) < _STABLE_BAND
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
    write_rows(path, "csv", ("user_id", "cluster_id", "archetype"),
               ((user, c, labels[c].label) for user, c in sorted(model.assignment.items())))


def write_centroid_csv(model: ClusterModel, path: str) -> None:
    write_rows(path, "csv", ("cluster_id", "index", "value"),
               ((c, i, f"{float(v):.6f}")
                for c in range(model.k) for i, v in enumerate(model.centroids[c])))
