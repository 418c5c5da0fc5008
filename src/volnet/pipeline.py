"""End-to-end orchestration: data in, clustered archetypes and trained
trend predictors out.

The run is staged (ingest → filter → graph → communities → key users →
behavior → cluster, then features → train → explain); any failure is
re-raised as :class:`PipelineStageError` tagged with the stage name.
The stages before clustering are public functions (``load_log``,
``build_network``, ``detect_communities``, ``select_key_users``,
``series_cache``), so a caller can run a prefix of the pipeline.
Analysis happens per *scope*: the whole network plus the largest
communities.  With a fixed config and seed, every emitted artifact is
byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import timedelta
from typing import Mapping, Sequence

from . import behavior, community, explain, featureset, graph, ingest, models, tscluster, viz

class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc


@dataclass(frozen=True)
class PipelineConfig:
    """Fully resolved run settings (defaults < config file < overrides)."""

    transactions: str = ""
    events: str = ""
    format: str = "csv"
    key_users: str = "hub"  # "hub" or a path to a predefined id list
    hub_multiplier: float = 1.0
    min_transactions: int = 1
    interval: str = "weekly"
    horizon_days: int = 365
    min_span_days: int = 365
    min_listing_weeks: int = 6
    k_min: int = 4
    k_max: int = 10
    metric: str = "euclidean"
    gamma: float = 1.0
    cutoff_months: int = 3
    models: tuple[str, ...] = models.ALGORITHMS
    cv_folds: int = 10
    seed: int = 0
    out: str = "out"
    top_communities: int = 2
    n_permutations: int = 300
    explain_rows: int = 40

    def __post_init__(self):
        if self.format not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {self.format!r} (expected csv or jsonl)")
        if self.interval not in behavior.INTERVAL_DAYS:
            raise ValueError(f"unknown interval {self.interval!r}")
        if self.metric not in tscluster.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 2 <= self.k_min <= self.k_max:
            raise ValueError(f"bad k range [{self.k_min}, {self.k_max}]")
        unknown = set(self.models) - set(models.ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown model(s): {sorted(unknown)}")
        if not self.models:
            raise ValueError("at least one model required")
        minimums = {
            "hub_multiplier": 1,
            "min_transactions": 1,
            "horizon_days": behavior.INTERVAL_DAYS[self.interval],
            "cutoff_months": 1,
            "cv_folds": 2,
            "top_communities": 0,
            "n_permutations": explain.MIN_PERMUTATIONS,
            "explain_rows": 1,
        }
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


# Config keys with their defaults; each value is parsed to its default's type.
_FIELDS = {f.name: f for f in fields(PipelineConfig)}


def _parse_value(key: str, text: str):
    kind = type(_FIELDS[key].default)
    if kind is tuple:  # models: a comma list
        return tuple(m.strip() for m in text.split(",") if m.strip())
    return kind(text)


def load_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` text config; '#' starts a comment line."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            mapping[key] = value.strip()
    return mapping


def build_config(file_mapping: Mapping[str, str] | None = None, **overrides) -> PipelineConfig:
    """Merge defaults, a config-file mapping, and keyword overrides."""
    raw = dict(file_mapping or {})
    raw.update((key, str(value)) for key, value in overrides.items() if value is not None)
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    return PipelineConfig(**{key: _parse_value(key, text) for key, text in raw.items()})


@dataclass
class ScopeResult:
    """Clustering outcome for one analysis scope (network or community)."""

    name: str
    users: tuple[str, ...]
    series: dict[str, behavior.DRSeries]
    chosen_k: int | None = None
    ch_scores: dict[int, float] = field(default_factory=dict)
    model: tscluster.ClusterModel | None = None
    labels: dict[int, tscluster.ArchetypeLabel] = field(default_factory=dict)
    skipped: str | None = None  # reason, when clustering was not possible


@dataclass
class Method1Result:
    log: ingest.TransactionLog
    net: graph.TransactionGraph
    partition: community.Partition
    key_users: ingest.KeyUserSet
    scopes: dict[str, ScopeResult]
    artifacts: dict[str, str]
    warnings: list[str]


@dataclass
class Method2Result:
    vectors: dict[str, list[featureset.FeatureVector]]  # per scope
    eval_rows: dict[str, list[tuple[str, str, models.EvalReport]]]
    best: dict[tuple[str, str], str]  # (scope, case) -> algorithm
    importances: dict[tuple[str, str], list[tuple[str, float]]]
    artifacts: dict[str, str]
    warnings: list[str]


def _out_path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def load_log(cfg: PipelineConfig) -> ingest.TransactionLog:
    """Stages ingest and filter: the configured transaction log."""
    with _stage("ingest"):
        if not cfg.transactions:
            raise ValueError("no transactions path configured")
        log = ingest.parse_transactions(cfg.transactions, fmt=cfg.format)
        if len(log) == 0:
            raise ValueError(f"{cfg.transactions} holds no transactions")
    with _stage("filter"):
        if cfg.min_transactions > 1:
            log = ingest.filter_min_transactions(log, cfg.min_transactions)
            if len(log) == 0:
                raise ValueError("no transactions survive the minimum-count filter")
    return log


def build_network(log: ingest.TransactionLog) -> graph.TransactionGraph:
    """Stage graph: the transaction graph over the whole log."""
    with _stage("graph"):
        return graph.build_graph(log, until=log.transactions[-1].collected_at)


def detect_communities(cfg: PipelineConfig, net: graph.TransactionGraph) -> community.Partition:
    """Stage communities: the seeded Louvain partition."""
    with _stage("communities"):
        return community.louvain(net, seed=cfg.seed)


def select_key_users(cfg: PipelineConfig, log: ingest.TransactionLog,
                     net: graph.TransactionGraph) -> ingest.KeyUserSet:
    """Stage key_users: hubs (or the configured id list) that pass the activity filter."""
    with _stage("key_users"):
        if cfg.key_users == "hub":
            key = behavior.detect_hubs(net, behavior.HubRuleParams(cfg.hub_multiplier))
        else:
            with open(cfg.key_users, encoding="utf-8") as fh:
                ids = frozenset(line.strip() for line in fh if line.strip())
            key = ingest.KeyUserSet(ids=ids, origin="predefined")
        active = ingest.select_active_key_users(
            log, key, min_span=timedelta(days=cfg.min_span_days),
            min_listing_weeks=cfg.min_listing_weeks)
        if not active.ids:
            raise ValueError("key-user set is empty after activity filtering — "
                             "nothing to analyze (lower the thresholds or check the data)")
        return active


def _scope_users(cfg: PipelineConfig, part: community.Partition,
                 key: ingest.KeyUserSet) -> dict[str, tuple[str, ...]]:
    scopes: dict[str, tuple[str, ...]] = {"network": tuple(sorted(key.ids))}
    sizes = community.community_sizes(part)
    top = sorted(sizes, key=lambda c: (-sizes[c], c))[: cfg.top_communities]
    for cid in top:
        members = tuple(sorted(
            u for u in key.ids if part.assignment.get(u) == cid))
        scopes[f"community_{cid}"] = members
    return scopes


def series_cache(cfg: PipelineConfig, log: ingest.TransactionLog,
                 users: Sequence[str], warnings_out: list[str]) -> dict[str, behavior.DRSeries]:
    """Stage behavior: the DR series of each of ``users``; unusable users
    are dropped with a warning."""
    with _stage("behavior"):
        horizon = timedelta(days=cfg.horizon_days)
        cache: dict[str, behavior.DRSeries] = {}
        for u in sorted(set(users)):
            try:
                cache[u] = behavior.dr_series(u, log, interval=cfg.interval,
                                              horizon=horizon)
            except behavior.SeriesError as exc:
                warnings_out.append(f"behavior: dropped {u}: {exc}")
        if not cache:
            raise ValueError("no key user yields a usable donors-ratio series")
        return cache


def _cluster_scope(cfg: PipelineConfig, scope: ScopeResult,
                   warnings_out: list[str]) -> None:
    n = len(scope.users)
    k_max_eff = min(cfg.k_max, n - 1)
    if n < 3 or k_max_eff < cfg.k_min:
        scope.skipped = (f"{n} users with series — too few to scan "
                         f"k in [{cfg.k_min}, {cfg.k_max}]")
        warnings_out.append(f"cluster: scope {scope.name} skipped: {scope.skipped}")
        return
    data = {u: scope.series[u].values for u in scope.users}
    scope.ch_scores, fitted = tscluster.ch_scan(
        data, (cfg.k_min, k_max_eff), metric=cfg.metric, seed=cfg.seed, gamma=cfg.gamma)
    for k, fit in sorted(fitted.items()):
        if not fit.converged:
            warnings_out.append(f"cluster: scope {scope.name} k={k}: assignments still changing "
                                f"after {len(fit.inertia_history)} sweeps (max_iter cap)")
        if fit.dba_capped:
            warnings_out.append(f"cluster: scope {scope.name} k={k}: {fit.dba_capped} DBA "
                                f"update(s) stopped at the inner-iteration cap")
    scope.chosen_k = tscluster.best_k(scope.ch_scores)
    scope.model = fitted[scope.chosen_k]
    scope.labels = tscluster.label_archetypes(scope.model)


def _write_scope_artifacts(cfg: PipelineConfig, scope: ScopeResult,
                           artifacts: dict[str, str]) -> None:
    name = f"dr_series_{scope.name}.csv"
    behavior.write_series_csv([scope.series[u] for u in scope.users],
                              _out_path(cfg, name))
    artifacts[name] = name
    if scope.model is None:
        return
    name = f"clusters_{scope.name}.csv"
    tscluster.write_cluster_csv(scope.model, scope.labels, _out_path(cfg, name))
    artifacts[name] = name
    name = f"centroids_{scope.name}.csv"
    tscluster.write_centroid_csv(scope.model, _out_path(cfg, name))
    artifacts[name] = name
    name = f"centroids_{scope.name}.svg"
    curves = {
        f"cluster {c} ({scope.labels[c].label})": list(scope.model.centroids[c])
        for c in range(scope.model.k)
    }
    viz.svg_line_chart(curves, _out_path(cfg, name),
                       title=f"Donors-ratio centroids — {scope.name}",
                       y_range=(0.0, 1.0))
    artifacts[name] = name
    name = f"cluster_model_{scope.name}.json"
    payload = {
        "version": 1,
        "scope": scope.name,
        "k_range": [cfg.k_min, max(scope.ch_scores)],
        "chosen_k": scope.chosen_k,
        "ch_scores": {str(k): (v if math.isfinite(v) else "inf")
                      for k, v in sorted(scope.ch_scores.items())},
        "labels": {str(c): {"label": lab.label,
                            "initial_level": lab.initial_level,
                            "final_level": lab.final_level}
                   for c, lab in sorted(scope.labels.items())},
        "model": tscluster.model_to_dict(scope.model),
    }
    with open(_out_path(cfg, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts[name] = name


def run_method1(cfg: PipelineConfig) -> Method1Result:
    """Ingest through archetype labeling; writes per-scope artifacts."""
    os.makedirs(cfg.out, exist_ok=True)
    warnings_out: list[str] = []
    artifacts: dict[str, str] = {}

    log = load_log(cfg)
    net = build_network(log)
    part = detect_communities(cfg, net)
    community.write_partition_csv(part, _out_path(cfg, "partition.csv"))
    artifacts["partition.csv"] = "partition.csv"
    key = select_key_users(cfg, log, net)

    scope_users = _scope_users(cfg, part, key)
    cache = series_cache(cfg, log, scope_users["network"], warnings_out)

    scopes: dict[str, ScopeResult] = {}
    with _stage("cluster"):
        for name, users in scope_users.items():
            usable = tuple(u for u in users if u in cache)
            scope = ScopeResult(name=name, users=usable,
                                series={u: cache[u] for u in usable})
            _cluster_scope(cfg, scope, warnings_out)
            _write_scope_artifacts(cfg, scope, artifacts)
            scopes[name] = scope

    return Method1Result(log=log, net=net, partition=part, key_users=key,
                         scopes=scopes, artifacts=artifacts, warnings=warnings_out)


def _best_algorithm(rows: Sequence[tuple[str, str, models.EvalReport]], case: str) -> str:
    """Highest mean accuracy; exact ties prefer gbdt, then alphabetical."""
    candidates = [(r.mean_accuracy, alg) for alg, c, r in rows if c == case]
    return min(candidates, key=lambda t: (-t[0], t[1] != "gbdt", t[1]))[1]


def run_method2(cfg: PipelineConfig, m1: Method1Result,
                through: str = "explain") -> Method2Result:
    """Feature assembly, cross-validated training, and attribution.

    ``through`` stops early at "features" or "train" for partial runs.
    """
    if through not in ("features", "train", "explain"):
        raise ValueError(f"unknown stage cap {through!r}")
    os.makedirs(cfg.out, exist_ok=True)
    warnings_out: list[str] = []
    artifacts: dict[str, str] = {}

    with _stage("features"):
        if not cfg.events:
            raise ValueError("no events path configured (required for feature assembly)")
        events = ingest.parse_events(cfg.events, fmt=cfg.format)
        vectors: dict[str, list[featureset.FeatureVector]] = {}
        for name, scope in m1.scopes.items():
            if scope.model is None:
                continue
            vecs = featureset.assemble_all(
                list(scope.users), m1.log, events, scope.model, scope.labels,
                t_months=cfg.cutoff_months)
            vectors[name] = vecs
            fname = f"features_{name}.csv"
            featureset.write_features_csv(vecs, _out_path(cfg, fname))
            artifacts[fname] = fname

    result = Method2Result(vectors=vectors, eval_rows={}, best={}, importances={},
                           artifacts=artifacts, warnings=warnings_out)
    if through == "features":
        return result

    trained_inputs: dict[tuple[str, str], tuple] = {}
    with _stage("train"):
        for name, vecs in vectors.items():
            rows: list[tuple[str, str, models.EvalReport]] = []
            for case in featureset.CASES:
                case_vecs = [v for v in vecs if v.case == case]
                if len(case_vecs) < 2 * cfg.cv_folds:
                    warnings_out.append(
                        f"train: scope {name} case {case} skipped "
                        f"({len(case_vecs)} samples < {2 * cfg.cv_folds})")
                    continue
                X, y, users = featureset.feature_matrix(case_vecs)
                trained_inputs[(name, case)] = (X, y, users)
                for alg in cfg.models:
                    rows.append((alg, case, models.kfold_cv(
                        alg, X, y, k=cfg.cv_folds, seed=cfg.seed,
                        feature_names=featureset.FEATURE_NAMES)))
            result.eval_rows[name] = rows
            fname = f"eval_{name}.csv"
            models.write_eval_csv(rows, _out_path(cfg, fname))
            artifacts[fname] = fname
            for case in featureset.CASES:
                if any(c == case for _, c, _ in rows):
                    result.best[(name, case)] = _best_algorithm(rows, case)
    if through == "train":
        return result

    with _stage("explain"):
        for (name, case), alg in sorted(result.best.items()):
            X, y, users = trained_inputs[(name, case)]
            model = models.train(alg, X, y, seed=cfg.seed,
                                 feature_names=featureset.FEATURE_NAMES)
            fname = f"model_{name}_{case}.json"
            models.save_model(model, _out_path(cfg, fname))
            artifacts[fname] = fname

            atts, ranked = explain.attribute_rows(
                model, X, users, seed=cfg.seed, n_permutations=cfg.n_permutations,
                max_rows=cfg.explain_rows)
            fname = f"attributions_{name}_{case}.csv"
            explain.write_attribution_csv(atts, _out_path(cfg, fname))
            artifacts[fname] = fname
            result.importances[(name, case)] = ranked
            fname = f"importance_{name}_{case}.csv"
            explain.write_importance_csv(ranked, _out_path(cfg, fname))
            artifacts[fname] = fname
            fname = f"importance_{name}_{case}.svg"
            viz.svg_importance_bars(
                ranked, _out_path(cfg, fname),
                title=f"Mean |attribution| — {name}, {case} ({alg})")
            artifacts[fname] = fname
    return result


def write_manifest(cfg: PipelineConfig, artifacts: Mapping[str, str],
                   warnings_list: Sequence[str]) -> str:
    """Emit manifest.json and verify every declared artifact is non-empty."""
    with _stage("manifest"):
        for rel in artifacts.values():
            full = _out_path(cfg, rel)
            if not os.path.exists(full) or os.path.getsize(full) == 0:
                raise ValueError(f"declared artifact missing or empty: {rel}")
        payload = {
            "version": 1,
            # 'out' is omitted: the manifest's own location implies it, and
            # leaving it out keeps artifacts byte-identical across output dirs
            "config": {f.name: (list(getattr(cfg, f.name))
                                if f.name == "models" else getattr(cfg, f.name))
                       for f in fields(PipelineConfig) if f.name != "out"},
            "artifacts": dict(sorted(artifacts.items())),
            "warnings": list(warnings_list),
        }
        path = _out_path(cfg, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def run_all(cfg: PipelineConfig) -> tuple[Method1Result, Method2Result, str]:
    """Method 1 then Method 2, plus the verified run manifest."""
    m1 = run_method1(cfg)
    m2 = run_method2(cfg, m1)
    manifest = write_manifest(cfg, {**m1.artifacts, **m2.artifacts},
                              m1.warnings + m2.warnings)
    return m1, m2, manifest
