"""Command-line entry point for the volunteer-network analysis pipeline.

Subcommands cover the synthetic-data harness, stage-wise runs, and the
full two-method pipeline.  Common flags (``--config``, ``--seed``,
``--out``) follow the subcommand; config-file keys are overridden by
flags.  Exit status is 0 on success and 2 on any failure, with a
stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import behavior, community, graph as graphmod, ingest, pipeline, synthgen
from .pipeline import PipelineStageError


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--out", help="output directory override")
    return common


def _data_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--transactions", help="transaction log (CSV or JSONL)")
    sub.add_argument("--events", help="activity-event log (CSV or JSONL)")
    sub.add_argument("--format", choices=("csv", "jsonl"), help="input format")


def _config_from(args: argparse.Namespace) -> pipeline.PipelineConfig:
    mapping = pipeline.load_config_file(args.config) if args.config else None
    overrides = {key: getattr(args, key, None)
                 for key in ("transactions", "events", "format", "seed", "out")}
    return pipeline.build_config(mapping, **overrides)


def _cmd_synth(args: argparse.Namespace) -> int:
    mix = {a: 0.25 for a in synthgen.ARCHETYPES}
    config = synthgen.SynthConfig(
        n_heroes=args.heroes,
        archetype_mix=mix,
        n_regulars_per_hero=args.regulars,
        weeks=args.weeks,
        community_count=args.communities,
        noise_sd=args.noise,
        feature_signal=dict(args.signal or [("messages_count", -1.2)]),
        seed=args.seed if args.seed is not None else 0,
    )
    out = args.out or "synth_out"
    log, events, truth = synthgen.generate(config)
    paths = synthgen.write_dataset(out, log, events, truth, fmt=args.format or "csv")
    print(f"wrote {len(log)} transactions, {len(events)} events, "
          f"{len(truth)} heroes under {out}/")
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")
    return 0


def _parse_signal(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected feature=effect, got {text!r}")
    name, _, value = text.partition("=")
    return name.strip(), float(value)


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    strict = not args.lenient
    if not cfg.transactions:
        raise PipelineStageError("ingest", "no transactions path given")
    log, report = ingest.parse_transactions_with_report(cfg.transactions, fmt=cfg.format)
    if report.bad_rows and strict:
        raise PipelineStageError(
            "ingest", f"{len(report.bad_rows)} bad transaction row(s); "
            "rerun with --lenient to drop them")
    print(f"transactions: {report.total_rows} rows, {len(log)} parsed, "
          f"{len(report.bad_rows)} rejected")
    for bad in report.bad_rows[:10]:
        print(f"  line {bad.line}: {bad.reason}")
    if cfg.events:
        events, ereport = ingest.parse_events_with_report(cfg.events, fmt=cfg.format)
        if ereport.bad_rows and strict:
            raise PipelineStageError(
                "ingest", f"{len(ereport.bad_rows)} bad event row(s); "
                "rerun with --lenient to drop them")
        print(f"events: {ereport.total_rows} rows, {len(events)} parsed, "
              f"{len(ereport.bad_rows)} rejected")
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    os.makedirs(cfg.out, exist_ok=True)
    log = pipeline.load_log(cfg)
    net = pipeline.build_network(log)
    part = pipeline.detect_communities(cfg, net)
    community.write_partition_csv(part, os.path.join(cfg.out, "partition.csv"))
    graphmod.write_edges_csv(net, os.path.join(cfg.out, "edges.csv"))
    sizes = community.community_sizes(part)
    top = sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    print(f"{part.count} communities over {len(net.nodes)} users, "
          f"modularity {part.modularity:.4f}")
    for cid, size in top:
        print(f"  community {cid}: {size} users")
    return 0


def _cmd_behavior(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    os.makedirs(cfg.out, exist_ok=True)
    log = pipeline.load_log(cfg)
    net = pipeline.build_network(log)
    key = pipeline.select_key_users(cfg, log, net)
    warnings_out: list[str] = []
    cache = pipeline.series_cache(cfg, log, sorted(key.ids), warnings_out)
    path = os.path.join(cfg.out, "dr_series_network.csv")
    behavior.write_series_csv(list(cache.values()), path)
    print(f"{len(cache)} donors-ratio series ({cfg.interval}) -> {path}")
    for w in warnings_out:
        print(f"  warning: {w}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the pipeline through the subcommand's last stage, then write the
    manifest and summarize what each stage produced."""
    cfg = _config_from(args)
    m1 = pipeline.run_method1(cfg)
    m2 = None if args.through == "cluster" else pipeline.run_method2(cfg, m1, through=args.through)
    artifacts = {**m1.artifacts, **(m2.artifacts if m2 else {})}
    warnings = m1.warnings + (m2.warnings if m2 else [])
    manifest = pipeline.write_manifest(cfg, artifacts, warnings)
    for name, scope in m1.scopes.items():
        if scope.skipped:
            print(f"scope {name}: skipped ({scope.skipped})")
            continue
        counts: dict[str, int] = {}
        for u, c in scope.model.assignment.items():
            lab = scope.labels[c].label
            counts[lab] = counts.get(lab, 0) + 1
        mix = ", ".join(f"{lab}={counts[lab]}" for lab in sorted(counts))
        print(f"scope {name}: {len(scope.users)} users, chose k={scope.chosen_k}, {mix}")
    if m2:
        for name, table in m2.features.items():
            print(f"scope {name}: {len(table.users)} feature vectors")
        for (name, case), alg in sorted(m2.best.items()):
            rows = [r for a, c, r in m2.eval_rows[name] if c == case and a == alg]
            print(f"scope {name} case {case}: best {alg} "
                  f"(accuracy {rows[0].mean_accuracy:.3f}, f1 {rows[0].mean_f1:.3f})")
        for (name, case), ranked in sorted(m2.importances.items()):
            top = ", ".join(f"{f}={v:.4f}" for f, v in ranked[:3])
            print(f"scope {name} case {case}: top features {top}")
    for w in warnings:
        print(f"  warning: {w}")
    print(f"manifest: {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volnet",
        description="Volunteer-network behavior analysis: archetype clustering "
                    "and trend prediction.")
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset with planted archetypes")
    p.add_argument("--heroes", type=int, default=200)
    p.add_argument("--regulars", type=int, default=8)
    p.add_argument("--weeks", type=int, default=52)
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--signal", type=_parse_signal, action="append",
                   metavar="FEATURE=EFFECT",
                   help="raw-feature effect on the 'changes' event rate "
                        "(default messages_count=-1.2)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", parents=[common],
                       help="validate input files and report bad rows")
    _data_args(p)
    p.add_argument("--lenient", action="store_true",
                   help="drop bad rows instead of failing")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("communities", parents=[common],
                       help="build the transaction graph and detect communities")
    _data_args(p)
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("behavior", parents=[common],
                       help="emit donors-ratio series for the key users")
    _data_args(p)
    p.set_defaults(func=_cmd_behavior)

    for command, through, text in (
            ("cluster", "cluster", "full Method 1: communities, series, clustering, archetypes"),
            ("features", "features", "Method 1 plus feature assembly at the cutoff"),
            ("train", "train", "Method 1 + features + cross-validated model training"),
            ("explain", "explain", "full Method 2 including Shapley attributions"),
            ("run-all", "explain", "both methods end to end with a verified manifest")):
        p = sub.add_parser(command, parents=[common], help=text)
        _data_args(p)
        p.set_defaults(func=_cmd_run, through=through)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineStageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
