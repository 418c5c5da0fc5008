"""Seeded synthetic volunteer-network generator with planted structure.

Stands in for a real sharing-platform export: "hero" users with known
trend archetypes and home communities, regular counterparties, weekly
listing/pickup traffic whose realized donors ratio tracks a per-archetype
template, and activity events whose rates are tied to the stable/changes
outcome so that chosen raw features become predictive by construction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Mapping

import numpy as np

from .featureset import KIND_COUNTS
from .ingest import (
    EVENT_KINDS,
    MICROSECOND,
    EventLog,
    TransactionLog,
    to_micros,
    write_events,
    write_rows,
    write_transactions,
)
from .tscluster import ARCHETYPES, case_and_trend

#: Start/end levels of each archetype's donors-ratio template; the trend
#: breakpoint sits at week 12 (about three months in).
TEMPLATE_LEVELS = {
    "FPD": (0.90, 0.20),
    "SAD": (0.85, 0.85),
    "FAD": (0.15, 0.80),
    "SPD": (0.15, 0.15),
}
BREAK_WEEK = 12

#: Archetypes whose donors ratio drifts ("changes", :func:`tscluster.case_and_trend`).
CHANGING = tuple(a for a in ARCHETYPES if case_and_trend(a)[1] == "changes")

#: Baseline mean event counts per user over the event window, by raw feature.
_EVENT_BASE_RATES = {
    "articles_count": 5.0,
    "messages_count": 20.0,
    "rating_count": 4.0,
    "likes_count": 10.0,
    "stories_count": 2.0,
    "comments_count": 8.0,
}
#: The event kind each raw feature counts, as :mod:`featureset` pairs them.
_FEATURE_TO_KIND = dict(zip(KIND_COUNTS, EVENT_KINDS))

_SECOND_US = 1_000_000  # stamps are epoch microseconds
_HOUR_US = 3600 * _SECOND_US
_DAY_US = 24 * _HOUR_US
_EPOCH_US = to_micros(datetime(2021, 1, 1, tzinfo=timezone.utc))
_EVENT_WINDOW_DAYS = 84  # all events land well inside a 3-month cutoff
_CLOSING_DAY = 372  # every hero spans the default min_span_days of PipelineConfig
_MAX_EXPONENT = math.log(np.finfo(float).max)  # the largest x whose exp(x) is finite


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic dataset; fully determined by ``seed``."""

    n_heroes: int = 200
    n_regulars_per_hero: int = 8
    weeks: int = 52
    community_count: int = 4
    noise_sd: float = 0.05
    feature_signal: Mapping[str, float] = field(
        default_factory=lambda: {"messages_count": -1.2})
    seed: int = 0

    def __post_init__(self):
        if self.n_heroes < len(ARCHETYPES):
            raise ValueError(f"n_heroes must be >= {len(ARCHETYPES)} (one hero per archetype), "
                             f"got {self.n_heroes}")
        if self.weeks < 8:
            raise ValueError("weeks must be >= 8")
        if self.community_count < 1:
            raise ValueError("community_count must be >= 1")
        if self.n_regulars_per_hero < 1:
            raise ValueError("n_regulars_per_hero must be >= 1")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        bad = set(self.feature_signal) - set(_EVENT_BASE_RATES) - {"rating_current"}
        if bad:
            raise ValueError(f"feature_signal refers to unknown raw feature(s): {sorted(bad)}")
        for name, effect in self.feature_signal.items():  # a rate scales by exp(effect)
            if not math.isfinite(effect) or (name in _EVENT_BASE_RATES and effect > _MAX_EXPONENT):
                raise ValueError(f"feature_signal {name}={effect} must be finite, with a finite exp")


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth for one hero."""

    archetype: str
    community: int


def template_dr(archetype: str, week: int, weeks: int) -> float:
    """Noise-free donors-ratio template value for one week."""
    start, end = TEMPLATE_LEVELS[archetype]
    if week < BREAK_WEEK or weeks - 1 <= BREAK_WEEK:
        return start
    frac = (week - BREAK_WEEK) / (weeks - 1 - BREAK_WEEK)
    return start + (end - start) * frac


def generate(config: SynthConfig) -> tuple[TransactionLog, EventLog, dict[str, PlantedTruth]]:
    """Build one synthetic dataset.

    Heroes split equally over ``ARCHETYPES`` in order, the first
    ``n_heroes % 4`` archetypes taking one hero more, and get home
    communities round-robin; each hero contributes ``n_regulars_per_hero``
    regulars to the home community's shared pool. Week by week a hero
    makes 6-12 transactions whose listing share follows the archetype
    template plus clipped Gaussian jitter; 90% of counterparties are drawn
    from the home community's pool, the rest from other communities.
    A closing transaction at day ~372 keeps every hero's activity span
    above one year. Event counts are Poisson with rates scaled by
    ``exp(signal * is_changing)`` so configured raw features separate the
    stable and changing heroes. Both logs are appended to column by column
    and packed once (:meth:`TransactionLog.pack`, :meth:`EventLog.pack`).
    Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    share, extra = divmod(config.n_heroes, len(ARCHETYPES))
    archetype_of = [a for i, a in enumerate(ARCHETYPES) for _ in range(share + (i < extra))]

    heroes = [f"hero{idx:04d}" for idx in range(config.n_heroes)]
    community_of = {h: idx % config.community_count for idx, h in enumerate(heroes)}
    truth = {h: PlantedTruth(archetype=archetype_of[idx], community=community_of[h])
             for idx, h in enumerate(heroes)}

    regulars_of: dict[str, list[str]] = {}
    community_pool: dict[int, list[str]] = {c: [] for c in range(config.community_count)}
    for idx, h in enumerate(heroes):
        pool = [f"reg{idx:04d}x{j}" for j in range(config.n_regulars_per_hero)]
        regulars_of[h] = pool
        community_pool[community_of[h]].extend(pool)

    lister, collector, collected = [], [], []  # transaction columns, stamps in epoch µs
    hero_t0: dict[str, int] = {}

    def pick_partner(hero: str) -> str:
        home = community_of[hero]
        others = [c for c in range(config.community_count) if c != home]
        if others and rng.random() >= 0.9:
            away = int(others[int(rng.integers(len(others)))])
            pool = community_pool[away]
        else:
            pool = community_pool[home]
        return pool[int(rng.integers(len(pool)))]

    for idx, hero in enumerate(heroes):
        t0 = _EPOCH_US + int(rng.integers(0, 29)) * _DAY_US
        hero_t0[hero] = t0
        archetype = archetype_of[idx]
        for week in range(config.weeks):
            dr = template_dr(archetype, week, config.weeks)
            if config.noise_sd > 0:
                dr = float(np.clip(dr + rng.normal(0.0, config.noise_sd), 0.0, 1.0))
            n_trans = int(rng.integers(6, 13))
            n_listings = int(np.clip(round(dr * n_trans), 0, n_trans))
            week_start = t0 + 7 * week * _DAY_US
            step = timedelta(days=7) / n_trans // MICROSECOND  # rounded half to even
            for j in range(n_trans):
                at = week_start + step * j
                # whole seconds: the canonical file format is second-precision
                collected.append(at - at % _SECOND_US)
                partner = pick_partner(hero)
                lister.append(hero if j < n_listings else partner)
                collector.append(partner if j < n_listings else hero)
        lister.append(hero)
        collector.append(regulars_of[hero][0])
        collected.append(t0 + _CLOSING_DAY * _DAY_US)
    collected = np.array(collected, dtype=np.int64)
    item_ids = [f"it{serial:07d}" for serial in range(1, len(collected) + 1)]
    log = TransactionLog.pack(item_ids, lister, collector, collected - 2 * _HOUR_US, collected)

    ev_columns = ([], [], [], [])  # in EVENT_COLUMNS order
    for idx, hero in enumerate(heroes):
        changing = 1.0 if archetype_of[idx] in CHANGING else 0.0
        for feature, base in _EVENT_BASE_RATES.items():
            rate = base * math.exp(config.feature_signal.get(feature, 0.0) * changing)
            n_events = int(rng.poisson(rate))
            kind = _FEATURE_TO_KIND[feature]
            for _ in range(n_events):
                at = hero_t0[hero] + int(rng.uniform(0, _EVENT_WINDOW_DAYS * 86400)) * _SECOND_US
                value = None
                if kind == "rating":
                    mean = 8.0 + config.feature_signal.get("rating_current", 0.0) * changing
                    value = float(np.clip(rng.normal(mean, 1.0), 0.0, 10.0))
                for column, field_value in zip(ev_columns, (hero, kind, at, value)):
                    column.append(field_value)

    return log, EventLog.pack(*ev_columns), truth


def adjusted_rand_index(a: Mapping[str, object], b: Mapping[str, object]) -> float:
    """Chance-adjusted agreement of two labelings of the same element set.

    1.0 for identical partitions (up to label renaming), about 0 for
    independent ones, negative for worse-than-chance. Degenerate pairs
    whose expected index equals the maximum (both trivial partitions)
    return 1.0.
    """
    if set(a) != set(b):
        raise ValueError("labelings cover different element sets")
    n = len(a)
    if n == 0:
        raise ValueError("empty labelings")
    pair: dict[tuple[object, object], int] = {}
    rows: dict[object, int] = {}
    cols: dict[object, int] = {}
    for element, la in a.items():
        lb = b[element]
        pair[(la, lb)] = pair.get((la, lb), 0) + 1
        rows[la] = rows.get(la, 0) + 1
        cols[lb] = cols.get(lb, 0) + 1

    def comb2(x: int) -> float:
        return x * (x - 1) / 2.0

    index = sum(comb2(v) for v in pair.values())
    sum_rows = sum(comb2(v) for v in rows.values())
    sum_cols = sum(comb2(v) for v in cols.values())
    expected = sum_rows * sum_cols / comb2(n) if n > 1 else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (index - expected) / (max_index - expected)


def write_truth_csv(truth: Mapping[str, PlantedTruth], path: str) -> None:
    write_rows(path, "csv", ("user_id", "archetype", "community"),
               ((user, t.archetype, t.community) for user, t in sorted(truth.items())))


def write_dataset(out_dir: str, log: TransactionLog, events: EventLog,
                  truth: Mapping[str, PlantedTruth], fmt: str = "csv") -> dict[str, str]:
    """Write transactions/events/truth under ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    ext = "csv" if fmt == "csv" else "jsonl"
    paths = {
        "transactions": os.path.join(out_dir, f"transactions.{ext}"),
        "events": os.path.join(out_dir, f"events.{ext}"),
        "truth": os.path.join(out_dir, "truth.csv"),
    }
    write_transactions(log, paths["transactions"], fmt=fmt)
    write_events(events, paths["events"], fmt=fmt)
    write_truth_csv(truth, paths["truth"])
    return paths
