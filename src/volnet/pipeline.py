"""End-to-end orchestration: data in, clustered archetypes and trained
trend predictors out.

:func:`run` is one staged run: ingest (and filter) → graph → communities
→ key users → behavior → cluster, the paper's Method 1, then features →
train → explain, its Method 2.  It stops after a cap from :data:`STAGES`,
which is how each data subcommand of the CLI runs, writes one verified
``manifest.json`` and returns one :class:`RunResult`, whose fields of
later stages stay empty.  Each stage writes its own artifacts whatever
the cap: communities ``partition.csv`` (and ``edges.csv`` when the run
stops there), behavior ``dr_series_<scope>.csv`` for every scope, cluster
the per-scope cluster files, and so on.  Any failure is re-raised as
:class:`PipelineStageError` tagged with the stage name.  Analysis happens
per *scope*: the whole network plus the largest communities.  With a
fixed config and seed, every emitted artifact is byte-identical across
reruns.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import timedelta
from typing import Mapping, Sequence

from . import behavior, community, explain, featureset, graph, ingest, models, tscluster, viz

# the stage caps, in run order: Method 1 through "cluster", then Method 2
STAGES = ("ingest", "communities", "behavior", "cluster", "features", "train", "explain")


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


@contextmanager
def _warnings_to(warnings_out: list[str], prefix: str):
    """Record each warning raised inside, as ``prefix`` and its message: a
    linear fit stopped at its Newton step cap, or a final fit on one class."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        yield
    warnings_out += [f"{prefix}{w.message}" for w in caught]


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
        repeated = sorted({m for m in self.models if self.models.count(m) > 1})
        if repeated:
            raise ValueError(f"duplicate model {repeated[0]!r} in models")
        if not self.models:
            raise ValueError("at least one model required")
        if not math.isfinite(self.hub_multiplier):
            raise ValueError(f"hub_multiplier must be finite, got {self.hub_multiplier}")
        minimums = {
            "hub_multiplier": 1,
            "min_transactions": 1,
            "horizon_days": behavior.INTERVAL_DAYS[self.interval],
            "cutoff_months": 1,
            "min_span_days": 0,
            "min_listing_weeks": 0,
            "seed": 0,
            "cv_folds": 2,
            "top_communities": 0,
            "n_permutations": explain.MIN_PERMUTATIONS,
            "explain_rows": 1,
        }
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


# Config keys with their defaults; each value is parsed to its default's type.
_FIELDS = {f.name: f for f in fields(PipelineConfig)}


def _parse_value(key: str, text: str):
    kind = type(_FIELDS[key].default)
    if kind is tuple:  # models: a comma list
        return tuple(m.strip() for m in text.split(",") if m.strip())
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, got {text!r}") from None


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
            if key in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
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
    """Series and clustering outcome for one analysis scope (network or community)."""

    name: str
    users: tuple[str, ...]
    series: dict[str, behavior.DRSeries]
    chosen_k: int | None = None
    ch_scores: dict[int, float] = field(default_factory=dict)
    model: tscluster.ClusterModel | None = None
    labels: dict[int, tscluster.ArchetypeLabel] = field(default_factory=dict)
    skipped: str | None = None  # reason, when clustering was not possible


@dataclass
class RunResult:
    """What a run produced up to its stage cap; later stages' fields stay empty."""

    log: ingest.TransactionLog | None = None
    reports: dict[str, ingest.ParseReport] = field(default_factory=dict)  # "transactions", "events"
    net: graph.TransactionGraph | None = None
    partition: community.Partition | None = None
    key_users: frozenset[str] | None = None
    scopes: dict[str, ScopeResult] = field(default_factory=dict)
    features: dict[str, featureset.ScopeFeatures] = field(default_factory=dict)  # clustered scopes
    eval_rows: dict[str, list[tuple[str, str, models.EvalReport]]] = field(default_factory=dict)
    best: dict[tuple[str, str], str] = field(default_factory=dict)  # (scope, case) -> algorithm
    importances: dict[tuple[str, str], list[tuple[str, float]]] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    manifest: str = ""  # path of the run's manifest.json


def _out_path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _emit(cfg: PipelineConfig, artifacts: dict[str, str], name: str, write,
          *args, **kwargs) -> None:
    """Write artifact ``name`` with ``write(*args, path, **kwargs)`` and declare it."""
    write(*args, _out_path(cfg, name), **kwargs)
    artifacts[name] = name


def _read(cfg: PipelineConfig, kind: str, lenient: bool, result: RunResult):
    """Parse the configured ``kind`` file ("transactions" or "events"); a
    lenient parse drops malformed rows, each as a warning."""
    path = getattr(cfg, kind)
    if lenient:
        parsed, report = getattr(ingest, f"parse_{kind}_with_report")(path, fmt=cfg.format)
        result.warnings += [f"ingest: dropped {path} line {bad.line}: {bad.reason}"
                            for bad in report.bad_rows]
    else:
        parsed = getattr(ingest, f"parse_{kind}")(path, fmt=cfg.format)
        report = ingest.ParseReport(path, len(parsed))
    result.reports[kind] = report
    return parsed


def _key_users(cfg: PipelineConfig, log: ingest.TransactionLog,
               net: graph.TransactionGraph) -> frozenset[str]:
    """Hubs (or the configured id list) that pass the activity filter."""
    if cfg.key_users == "hub":
        key = behavior.detect_hubs(net, cfg.hub_multiplier)
    else:
        with open(cfg.key_users, encoding="utf-8") as fh:
            key = frozenset(line.strip() for line in fh if line.strip())
    active = ingest.select_active_key_users(
        log, key, min_span=timedelta(days=cfg.min_span_days),
        min_listing_weeks=cfg.min_listing_weeks)
    if not active:
        raise ValueError("key-user set is empty after activity filtering — "
                         "nothing to analyze (lower the thresholds or check the data)")
    return active


def _scope_users(cfg: PipelineConfig, part: community.Partition,
                 key: frozenset[str]) -> dict[str, tuple[str, ...]]:
    scopes: dict[str, tuple[str, ...]] = {"network": tuple(sorted(key))}
    sizes = community.community_sizes(part)
    top = sorted(sizes, key=lambda c: (-sizes[c], c))[: cfg.top_communities]
    for cid in top:
        scopes[f"community_{cid}"] = tuple(sorted(
            u for u in key if part.assignment.get(u) == cid))
    return scopes


def _series(cfg: PipelineConfig, log: ingest.TransactionLog, users: Sequence[str],
            warnings_out: list[str]) -> dict[str, behavior.DRSeries]:
    """The DR series of each of ``users``; unusable users are dropped with a warning."""
    horizon = timedelta(days=cfg.horizon_days)
    cache: dict[str, behavior.DRSeries] = {}
    for u in sorted(set(users)):
        try:
            cache[u] = behavior.dr_series(u, log, interval=cfg.interval, horizon=horizon)
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
        data, (cfg.k_min, k_max_eff), metric=cfg.metric, seed=cfg.seed)
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


def _write_cluster_artifacts(cfg: PipelineConfig, scope: ScopeResult,
                             artifacts: dict[str, str]) -> None:
    model, labels = scope.model, scope.labels
    _emit(cfg, artifacts, f"clusters_{scope.name}.csv", tscluster.write_cluster_csv,
          model, labels)
    _emit(cfg, artifacts, f"centroids_{scope.name}.csv", tscluster.write_centroid_csv, model)
    curves = {f"cluster {c} ({labels[c].label})": list(model.centroids[c])
              for c in range(model.k)}
    _emit(cfg, artifacts, f"centroids_{scope.name}.svg", viz.svg_line_chart, curves,
          title=f"Donors-ratio centroids — {scope.name}")
    _emit(cfg, artifacts, f"cluster_model_{scope.name}.json", ingest.write_json, {
        "version": 1,
        "scope": scope.name,
        "k_range": [cfg.k_min, max(scope.ch_scores)],
        "chosen_k": scope.chosen_k,
        "ch_scores": {str(k): (v if math.isfinite(v) else "inf")
                      for k, v in sorted(scope.ch_scores.items())},
        "labels": {str(c): {"label": lab.label,
                            "initial_level": lab.initial_level,
                            "final_level": lab.final_level}
                   for c, lab in sorted(labels.items())},
        "model": tscluster.model_to_dict(model),
    })


def _best_algorithm(rows: Sequence[tuple[str, str, models.EvalReport]], case: str) -> str:
    """Highest mean accuracy; exact ties prefer gbdt, then alphabetical."""
    candidates = [(r.mean_accuracy, alg) for alg, c, r in rows if c == case]
    return min(candidates, key=lambda t: (-t[0], t[1] != "gbdt", t[1]))[1]


def write_manifest(cfg: PipelineConfig, artifacts: Mapping[str, str],
                   warnings_list: Sequence[str]) -> str:
    """Emit manifest.json and verify every declared artifact is non-empty."""
    with _stage("manifest"):
        for rel in artifacts.values():
            full = _out_path(cfg, rel)
            if not os.path.exists(full) or os.path.getsize(full) == 0:
                raise ValueError(f"declared artifact missing or empty: {rel}")
        path = _out_path(cfg, "manifest.json")
        ingest.write_json({
            "version": 1,
            # 'out' is omitted: the manifest's own location implies it, and
            # leaving it out keeps artifacts byte-identical across output dirs
            "config": {f.name: getattr(cfg, f.name) for f in fields(PipelineConfig)
                       if f.name != "out"},
            "artifacts": dict(artifacts),
            "warnings": list(warnings_list),
        }, path)
        return path


def run(cfg: PipelineConfig, through: str = "explain", lenient: bool = False) -> RunResult:
    """Every stage up to and including the cap ``through`` (one of
    :data:`STAGES`), then the verified run manifest.

    ``lenient`` makes the ingest stage drop malformed rows, each as a
    warning, instead of failing.  The event log is parsed in ingest only
    when ``through`` is "ingest"; longer runs parse it once, strictly, in
    the features stage.
    """
    if through not in STAGES:
        raise ValueError(f"unknown stage cap {through!r}")
    os.makedirs(cfg.out, exist_ok=True)
    result = RunResult()
    _run_stages(cfg, through, lenient, result)
    result.manifest = write_manifest(cfg, result.artifacts, result.warnings)
    return result


def _run_stages(cfg: PipelineConfig, through: str, lenient: bool, result: RunResult) -> None:
    """Fill ``result`` stage by stage, returning after the stage cap ``through``."""
    artifacts = result.artifacts
    with _stage("ingest"):
        if not cfg.transactions:
            raise ValueError("no transactions path configured")
        log = _read(cfg, "transactions", lenient, result)
        if len(log) == 0:
            raise ValueError(f"{cfg.transactions} holds no transactions")
        if through == "ingest" and cfg.events:
            _read(cfg, "events", lenient, result)
    with _stage("filter"):
        if cfg.min_transactions > 1:
            log = ingest.filter_min_transactions(log, cfg.min_transactions)
            if len(log) == 0:
                raise ValueError("no transactions survive the minimum-count filter")
    result.log = log
    if through == "ingest":
        return

    with _stage("graph"):
        result.net = net = graph.build_graph(log)
    with _stage("communities"):
        result.partition = community.louvain(net, seed=cfg.seed)
        _emit(cfg, artifacts, "partition.csv", community.write_partition_csv, result.partition)
        if through == "communities":
            # only a run that stops here writes the edge list (~0.3 s, 1.5 MB at 200 heroes)
            _emit(cfg, artifacts, "edges.csv", graph.write_edges_csv, net)
            return

    with _stage("key_users"):
        result.key_users = _key_users(cfg, log, net)
    with _stage("behavior"):
        scope_users = _scope_users(cfg, result.partition, result.key_users)
        cache = _series(cfg, log, scope_users["network"], result.warnings)
        for name, users in scope_users.items():
            usable = tuple(u for u in users if u in cache)
            result.scopes[name] = ScopeResult(name=name, users=usable,
                                              series={u: cache[u] for u in usable})
            _emit(cfg, artifacts, f"dr_series_{name}.csv", behavior.write_series_csv,
                  [cache[u] for u in usable])
    if through == "behavior":
        return

    with _stage("cluster"):
        for scope in result.scopes.values():
            _cluster_scope(cfg, scope, result.warnings)
            if scope.model is not None:
                _write_cluster_artifacts(cfg, scope, artifacts)
    if through == "cluster":
        return

    with _stage("features"):
        if not cfg.events:
            raise ValueError("no events path configured (required for feature assembly)")
        events = ingest.parse_events(cfg.events, fmt=cfg.format)
        clustered = {name: scope for name, scope in result.scopes.items()
                     if scope.model is not None}
        # features do not depend on the scope: assemble each user once
        users = sorted({u for scope in clustered.values() for u in scope.users})
        X = featureset.assemble_all(users, log, events, t_months=cfg.cutoff_months)
        row_of = {u: i for i, u in enumerate(users)}
        tables = result.features
        for name, scope in clustered.items():
            tables[name] = featureset.label_scope(
                scope.users, X[[row_of[u] for u in scope.users]], scope.model, scope.labels)
            _emit(cfg, artifacts, f"features_{name}.csv", featureset.write_features_csv,
                  tables[name])
    if through == "features":
        return

    with _stage("train"):
        for name, table in tables.items():
            rows = result.eval_rows[name] = []
            for case in featureset.CASES:
                n = table.cases.count(case)
                if n < 2 * cfg.cv_folds:
                    result.warnings.append(
                        f"train: scope {name} case {case} skipped "
                        f"({n} samples < {2 * cfg.cv_folds})")
                    continue
                X, y, _ = table.rows(case)
                constant = [f for f, c in zip(featureset.FEATURE_NAMES, (X == X[0]).all(axis=0)) if c]
                if constant:
                    result.warnings.append(
                        f"train: constant in scope {name} case {case}: {', '.join(constant)}")
                tag = f"train: scope {name} case {case}: "
                for alg in cfg.models:
                    with _warnings_to(result.warnings, tag):
                        report = models.kfold_cv(alg, X, y, k=cfg.cv_folds, seed=cfg.seed,
                                                 feature_names=featureset.FEATURE_NAMES)
                    if report.degenerate_folds:
                        result.warnings.append(f"{tag}{alg} folds {list(report.degenerate_folds)} "
                                               "trained on one class (constant predictor)")
                    rows.append((alg, case, report))
                result.best[(name, case)] = _best_algorithm(rows, case)
            _emit(cfg, artifacts, f"eval_{name}.csv", models.write_eval_csv, rows)
    if through == "train":
        return

    with _stage("explain"):
        for (name, case), alg in sorted(result.best.items()):
            X, y, users = tables[name].rows(case)
            with _warnings_to(result.warnings, f"explain: scope {name} case {case}: "):
                model = models.train(alg, X, y, seed=cfg.seed,
                                     feature_names=featureset.FEATURE_NAMES)
            _emit(cfg, artifacts, f"model_{name}_{case}.json", models.save_model, model)
            atts, ranked = explain.attribute_rows(
                model, X, users, seed=cfg.seed, n_permutations=cfg.n_permutations,
                max_rows=cfg.explain_rows)
            _emit(cfg, artifacts, f"attributions_{name}_{case}.csv",
                  explain.write_attribution_csv, atts)
            result.importances[(name, case)] = ranked
            _emit(cfg, artifacts, f"importance_{name}_{case}.csv",
                  explain.write_importance_csv, ranked)
            _emit(cfg, artifacts, f"importance_{name}_{case}.svg", viz.svg_importance_bars,
                  ranked, title=f"Mean |attribution| — {name}, {case} ({alg})")
