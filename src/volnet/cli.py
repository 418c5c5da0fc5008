"""Command-line entry point for the volunteer-network analysis pipeline.

``synth`` writes a synthetic dataset; a flag it is not given keeps the
default of :class:`volnet.synthgen.SynthConfig` (``--format``: of
:func:`volnet.synthgen.write_dataset`).  Every other subcommand is a stage
cap of :func:`volnet.pipeline.run`, from ``ingest`` to ``run-all``: it runs
the stages up to its cap, writes their artifacts and a verified
``manifest.json``, and prints a summary of each stage it reached.  These
take ``--config``, ``--seed`` and ``--out``; config-file keys are
overridden by flags.  Exit status is 0 on success and 2 on any failure,
with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import community, pipeline, synthgen
from .pipeline import PipelineStageError


def _config_from(args: argparse.Namespace) -> pipeline.PipelineConfig:
    mapping = pipeline.load_config_file(args.config) if args.config else None
    overrides = {key: getattr(args, key)
                 for key in ("transactions", "events", "format", "seed", "out")}
    return pipeline.build_config(mapping, **overrides)


def _cmd_synth(args: argparse.Namespace) -> int:
    knobs = {"n_heroes": args.heroes, "n_regulars_per_hero": args.regulars, "weeks": args.weeks,
             "community_count": args.communities, "noise_sd": args.noise, "seed": args.seed,
             "feature_signal": args.signal and dict(args.signal)}
    config = synthgen.SynthConfig(**{k: v for k, v in knobs.items() if v is not None})
    log, events, truth = synthgen.generate(config)
    paths = synthgen.write_dataset(args.out, log, events, truth,
                                   **({"fmt": args.format} if args.format else {}))
    print(f"wrote {len(log)} transactions, {len(events)} events, "
          f"{len(truth)} heroes under {args.out}/")
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")
    return 0


def _parse_signal(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected feature=effect, got {text!r}")
    name, _, value = text.partition("=")
    return name.strip(), float(value)


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the pipeline through the subcommand's stage cap, then summarize
    each stage the run reached."""
    cfg = _config_from(args)
    result = pipeline.run(cfg, through=args.through, lenient=args.lenient)
    for kind, report in result.reports.items():
        rejected = len(report.bad_rows)
        print(f"{kind}: {report.total_rows} rows, {report.total_rows - rejected} parsed, "
              f"{rejected} rejected")
    if result.partition is not None:
        sizes = community.community_sizes(result.partition)
        print(f"{result.partition.count} communities over {len(result.net.names)} users, "
              f"modularity {result.partition.modularity:.4f}")
        for cid, size in sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))[:10]:
            print(f"  community {cid}: {size} users")
    if result.scopes:
        print(f"{len(result.scopes['network'].users)} donors-ratio series ({cfg.interval}) -> "
              + ", ".join(a for a in result.artifacts if a.startswith("dr_series_")))
    for name, scope in result.scopes.items():
        if scope.skipped:
            print(f"scope {name}: skipped ({scope.skipped})")
        elif scope.model is not None:
            counts = Counter(scope.labels[c].label for c in scope.model.assignment.values())
            mix = ", ".join(f"{lab}={counts[lab]}" for lab in sorted(counts))
            print(f"scope {name}: {len(scope.users)} users, chose k={scope.chosen_k}, {mix}")
    for name, table in result.features.items():
        print(f"scope {name}: {len(table.users)} feature vectors")
    for (name, case), alg in sorted(result.best.items()):
        rows = [r for a, c, r in result.eval_rows[name] if c == case and a == alg]
        print(f"scope {name} case {case}: best {alg} "
              f"(accuracy {rows[0].mean_accuracy:.3f}, f1 {rows[0].mean_f1:.3f})")
    for (name, case), ranked in sorted(result.importances.items()):
        top = ", ".join(f"{f}={v:.4f}" for f, v in ranked[:3])
        print(f"scope {name} case {case}: top features {top}")
    for w in result.warnings:
        print(f"  warning: {w}")
    print(f"manifest: {result.manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volnet",
        description="Volunteer-network behavior analysis: archetype clustering "
                    "and trend prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted archetypes")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="synth_out", help="output directory")
    p.add_argument("--heroes", type=int)
    p.add_argument("--regulars", type=int)
    p.add_argument("--weeks", type=int)
    p.add_argument("--communities", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--format", choices=("csv", "jsonl"))
    p.add_argument("--signal", type=_parse_signal, action="append",
                   metavar="FEATURE=EFFECT",
                   help="raw-feature effect on the 'changes' event rate (default "
                        + ", ".join(f"{name}={effect}" for name, effect
                                    in synthgen.SynthConfig().feature_signal.items()) + ")")
    p.set_defaults(func=_cmd_synth)

    # every data subcommand is one stage cap of the same staged run
    for command, through, text in (
            ("ingest", "ingest", "validate input files and report bad rows"),
            ("communities", "communities", "build the transaction graph and detect communities"),
            ("behavior", "behavior", "emit the donors-ratio series of every scope's key users"),
            ("cluster", "cluster", "full Method 1: communities, series, clustering, archetypes"),
            ("features", "features", "Method 1 plus feature assembly at the cutoff"),
            ("train", "train", "Method 1 + features + cross-validated model training"),
            ("explain", "explain", "full Method 2 including Shapley attributions"),
            ("run-all", "explain", "both methods end to end")):
        p = sub.add_parser(command, help=f"{text}; writes a verified manifest.json")
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--transactions", help="transaction log (CSV or JSONL)")
        p.add_argument("--events", help="activity-event log (CSV or JSONL)")
        p.add_argument("--format", choices=("csv", "jsonl"), help="input format")
        p.set_defaults(func=_cmd_run, through=through, lenient=False)
        if command == "ingest":
            p.add_argument("--lenient", action="store_true",
                           help="drop bad rows, each listed as a manifest warning, "
                                "instead of failing")
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
