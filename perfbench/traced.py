"""Run one volnet command in this process with timing wrappers installed.

Usage: python3 perfbench/traced.py REPORT.json SUBCOMMAND [ARGS...]

The wrappers replace public functions on volnet's modules from outside the
program; nothing inside ``src/volnet`` is changed.  Each wrapped call is a
span.  A span's time is its self time: nested spans are subtracted, so
spans add up to the traced time without double counting.  The report holds
the per-layer seconds, counts and rates, plus ``spans_s``, the sum of all
spans, and the exit code of the command.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [metric, seconds spent in child spans]

    def span(self, module, name: str, metric, on_result=None, count: str | None = None,
             not_within: str | None = None) -> None:
        """Time calls of ``module.name`` under ``metric`` (a name or a function
        of the call's arguments).  ``count`` counts every call; calls made
        inside a span whose metric starts with ``not_within`` are only counted."""
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            if not_within and self.stack and self.stack[-1][0].startswith(not_within):
                return fn(*args, **kwargs)
            key = metric(*args) if callable(metric) else metric
            self.stack.append([key, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, child = self.stack.pop()
                self.seconds[key] += elapsed - child
                if self.stack:
                    self.stack[-1][1] += elapsed
            if on_result:
                on_result(result)
            return result

        setattr(module, name, wrapper)

    def counter(self, module, name: str, count: str) -> None:
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            self.counts[count] += 1
            return fn(*args, **kwargs)

        setattr(module, name, wrapper)

    def add(self, count: str, value: float) -> None:
        self.counts[count] += value


def install(tr: Tracer) -> None:
    from volnet import (behavior, community, explain, featureset, graph, ingest, models,
                        pipeline, tscluster, viz)

    tr.span(ingest, "parse_transactions", "ingest.parse_transactions_s",
            on_result=lambda log: tr.add("ingest.rows", len(log)))
    tr.span(ingest, "parse_events", "ingest.parse_events_s",
            on_result=lambda events: tr.add("ingest.rows", len(events)))
    tr.span(ingest, "select_active_key_users", "ingest.select_active_key_users_s")
    tr.span(graph, "build_graph", "graph.build_graph_s")
    tr.span(community, "louvain", "community.louvain_s", on_result=lambda p: (
        tr.add("community.phases", len(p.phase_modularity)),
        tr.add("community.modularity", p.modularity)))
    tr.span(behavior, "detect_hubs", "behavior.detect_hubs_s")
    tr.span(behavior, "dr_series", "behavior.dr_series_s", count="behavior.series")
    tr.span(tscluster, "ch_scan", "tscluster.ch_scan_s")
    tr.span(tscluster, "kmeans_ts", "tscluster.kmeans_ts_s", count="tscluster.kmeans_fits",
            on_result=lambda m: tr.add("tscluster.sweeps", len(m.inertia_history)))
    tr.counter(tscluster, "dtw", "tscluster.dtw_calls")
    tr.counter(tscluster, "dtw_path", "tscluster.dtw_path_calls")
    tr.span(featureset, "assemble_all", "featureset.assemble_all_s",
            on_result=lambda vecs: tr.add("featureset.vectors", len(vecs)))
    tr.span(models, "kfold_cv", lambda algorithm, *_: f"models.cv.{algorithm}_s")
    tr.span(models, "train", "models.train_s", count="models.fits", not_within="models.cv.")
    tr.span(explain, "shapley_mc", "explain.shapley_mc_s", count="explain.rows")
    for name in ("svg_line_chart", "svg_importance_bars"):
        tr.span(viz, name, "viz.svg_s")
    for module, name in ((community, "write_partition_csv"), (behavior, "write_series_csv"),
                         (tscluster, "write_cluster_csv"), (tscluster, "write_centroid_csv"),
                         (featureset, "write_features_csv"), (models, "write_eval_csv"),
                         (models, "save_model"), (explain, "write_attribution_csv"),
                         (explain, "write_importance_csv"), (graph, "write_edges_csv"),
                         (pipeline, "write_manifest")):
        tr.span(module, name, "pipeline.write_s")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def report(tr: Tracer, code: int) -> dict:
    s, c = tr.seconds, tr.counts
    out = dict(s)
    out.update({
        "ingest.rows_per_s": _rate(c["ingest.rows"],
                                   s["ingest.parse_transactions_s"] + s["ingest.parse_events_s"]),
        "community.phases": c["community.phases"],
        "community.modularity": c["community.modularity"],
        "behavior.series_per_s": _rate(c["behavior.series"], s["behavior.dr_series_s"]),
        "tscluster.kmeans_fits": c["tscluster.kmeans_fits"],
        "tscluster.sweeps": c["tscluster.sweeps"],
        "tscluster.dtw_calls": c["tscluster.dtw_calls"],
        "tscluster.dtw_path_calls": c["tscluster.dtw_path_calls"],
        "featureset.vectors_per_s": _rate(c["featureset.vectors"], s["featureset.assemble_all_s"]),
        "models.fits": c["models.fits"],
        "explain.rows": c["explain.rows"],
        "explain.rows_per_s": _rate(c["explain.rows"], s["explain.shapley_mc_s"]),
    })
    return {"exit_code": code, "spans_s": sum(s.values()), "metrics": out}


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    from volnet import cli

    tr = Tracer()
    install(tr)
    code = cli.main(argv)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report(tr, code), fh, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
