"""Key-user behavior over time: the donors-ratio series and the hub rule.

The donors ratio of a user in a window is listings / (listings + pickups),
1.0 for a pure donor and 0.0 for a pure recipient.  Series are sampled on
fixed windows from the user's first transaction; windows without activity
are filled by linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable

import numpy as np

from .graph import TransactionGraph
from .ingest import MICROSECOND, KeyUserSet, TransactionLog, from_micros, write_rows

INTERVAL_DAYS = {"weekly": 7, "monthly": 30}


class SeriesError(ValueError):
    """A DR series cannot be materialized (too few defined points)."""


@dataclass(frozen=True)
class DRSeries:
    """Per-user donors-ratio samples at fixed intervals from ``t0``."""

    user: str
    interval: str  # "weekly" | "monthly"
    t0: datetime
    values: tuple[float, ...]
    imputed_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != len(self.imputed_mask):
            raise ValueError("values and imputed_mask lengths differ")
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"DR value {v} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.values)


def _interpolate(raw: list[float | None]) -> tuple[list[float], list[bool]]:
    """Fill gaps linearly between defined neighbors; boundary gaps copy the
    nearest defined value."""
    defined = [i for i, v in enumerate(raw) if v is not None]
    if len(defined) < 2:
        raise SeriesError(f"only {len(defined)} defined point(s); need >= 2 to impute")
    values: list[float] = []
    mask: list[bool] = []
    first, last = defined[0], defined[-1]
    nxt = 0
    for i, v in enumerate(raw):
        if v is not None:
            values.append(v)
            mask.append(False)
            continue
        mask.append(True)
        if i < first:
            values.append(raw[first])
        elif i > last:
            values.append(raw[last])
        else:
            while defined[nxt] < i:
                nxt += 1
            lo, hi = defined[nxt - 1], defined[nxt]
            frac = (i - lo) / (hi - lo)
            values.append(raw[lo] + frac * (raw[hi] - raw[lo]))
    return values, mask


def dr_series(
    u: str,
    log: TransactionLog,
    interval: str = "weekly",
    horizon: timedelta = timedelta(days=365),
) -> DRSeries:
    """Sample the DR of ``u`` on windows tiling [t0, t0 + horizon).

    ``t0`` is the user's first transaction.  Weekly windows are 7 days and
    monthly windows 30 days; the series holds ``horizon // window`` points
    (52 weekly or 12 monthly over a year), and a row collected at
    ``t0 + k * window`` opens window ``k``.  Windows with no transactions
    are imputed and flagged in ``imputed_mask``.
    """
    if interval not in INTERVAL_DAYS:
        raise ValueError(f"unknown interval {interval!r}")
    step = timedelta(days=INTERVAL_DAYS[interval])
    n_points = int(horizon / step)
    if n_points < 1:
        raise ValueError("horizon shorter than one interval")

    rows = log.rows_of(u)
    if not len(rows):
        raise SeriesError(f"user {u!r} has no transactions")

    at = log.collected_at[rows]  # in log order, from t0
    window = (at - at[0]) // (step // MICROSECOND)
    inside = window < n_points
    lists = log.lister[rows] == log.code_of[u]
    listings = np.bincount(window[inside & lists], minlength=n_points).tolist()
    pickups = np.bincount(window[inside & ~lists], minlength=n_points).tolist()
    t0 = from_micros(at[0])
    raw: list[float | None] = [
        (l / (l + p)) if l + p > 0 else None for l, p in zip(listings, pickups)
    ]
    values, mask = _interpolate(raw)
    return DRSeries(user=u, interval=interval, t0=t0,
                    values=tuple(values), imputed_mask=tuple(mask))


def detect_hubs(g: TransactionGraph, multiplier: float = 1.0) -> KeyUserSet:
    """Users whose distinct total degree exceeds ``multiplier`` times the
    network average.  Degree counts distinct in- plus out-neighbors, so the
    result is invariant under edge-weight scaling."""
    if not 1.0 <= multiplier < np.inf:
        raise ValueError(f"multiplier must be finite and >= 1, got {multiplier}")
    if not g.nodes:
        raise ValueError("hub detection needs a non-empty graph")
    # each distinct directed edge is one out-neighbor of its source and one
    # in-neighbor of its target
    degree = dict.fromkeys(g.nodes, 0)
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
    avg = sum(degree.values()) / len(degree)
    hubs = frozenset(v for v, d in degree.items() if d > multiplier * avg)
    return KeyUserSet(ids=hubs, origin="hub_rule")


def write_series_csv(series: Iterable[DRSeries], path: str) -> None:
    write_rows(path, "csv", ("user_id", "index", "value", "imputed"), (
        (s.user, i, f"{v:.6f}", int(imp))
        for s in sorted(series, key=lambda s: s.user)
        for i, (v, imp) in enumerate(zip(s.values, s.imputed_mask))))
