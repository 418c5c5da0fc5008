#!/usr/bin/env python3
"""End-to-end benchmark of volnet on synthetic workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-default --seed 7 --seconds 10 --trace 0

Each run generates the workload's input datasets with ``volnet synth``,
each at least once and three times in all at least (``setup_s`` is the
median time of one), then runs the workload's
``volnet`` subcommand in a fresh process on each dataset, one at a time,
repeating until ``--seconds`` have passed (at least once).
Every run's outputs are checked against values recomputed apart from the
program (``checks.py``).  With ``--trace 1`` one more run of the same
command goes through ``traced.py``, which times the calls into each
module, and the per-layer metrics are reported instead of the end-to-end
ones.  ``--workload all`` runs every workload in turn.

Inputs and outputs go under ``.perfbench_runs/`` at the repository root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = ".perfbench_runs"
RUN_LIMIT_S = 170  # a child still running this long after the run started is killed
SETUPS = 3  # set-ups per run at least; a workload with fewer datasets writes them again


@dataclass(frozen=True)
class Workload:
    heroes: int
    fmt: str
    command: str
    config: str = ""  # text of a volnet config file, when the defaults are not used
    step_days: int = 7  # the series interval the config selects
    datasets: int = 1  # inputs generated per run; each round runs the command on all of them


# Each workload loads a different set of layers; README.md gives the map.
WORKLOADS = {
    "paper-default": Workload(heroes=200, fmt="csv", command="run-all"),
    # Four smaller datasets per run: the DTW k-means work of one dataset
    # varies up to twofold with its seed, and one or two per run spread too widely.
    "warp-monthly": Workload(heroes=120, fmt="jsonl", command="cluster",
                             config="metric = dtw\ninterval = monthly\n", step_days=30,
                             datasets=4),
}


@dataclass(frozen=True)
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv: list[str], log_path: str, deadline: float) -> Proc:
    """Run one child to its end (or kill it at ``deadline``, a perf_counter
    time); time it and read its own resource usage.

    A child's peak RSS starts from its parent's, so this process must stay
    small: it never loads the inputs or imports volnet or NumPy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, specs: dict,
                 groups: tuple[str, ...]) -> dict:
    """One benchmark run of one workload; ``groups`` names the metric groups reported."""
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = os.path.join(RUNS, name)
    shutil.rmtree(os.path.join(ROOT, base), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, base))
    py = [sys.executable]
    if wl.config:
        with open(os.path.join(ROOT, base, "workload.cfg"), "w", encoding="utf-8") as fh:
            fh.write(wl.config)

    seeds = [seed * wl.datasets + i for i in range(wl.datasets)]
    data = [os.path.join(base, f"data{i}") for i in range(wl.datasets)]
    order = [n % wl.datasets for n in range(max(SETUPS, wl.datasets))]
    setups = [run_process(py + ["-m", "volnet.cli", "synth", "--seed", str(seeds[i]), "--heroes",
                                str(wl.heroes), "--format", wl.fmt, "--out", data[i]],
                          os.path.join(ROOT, f"{data[i]}.{n}.log"), deadline)
              for n, i in enumerate(order)]
    if any(p.code != 0 for p in setups):
        raise SystemExit(f"{name}: volnet synth failed; see {base}/data*.log")

    runs: dict[str, Proc] = {}
    dataset: dict[str, int] = {}  # run tag -> index of its inputs

    def launch(tag: str, i: int) -> None:
        command = [wl.command, "--transactions", f"{data[i]}/transactions.{wl.fmt}",
                   "--events", f"{data[i]}/events.{wl.fmt}", "--format", wl.fmt,
                   "--seed", str(seeds[i]), "--out", f"{base}/{tag}"]
        if wl.config:
            command += ["--config", f"{base}/workload.cfg"]
        report = os.path.join(ROOT, base, f"{tag}.trace.json")
        prefix = [os.path.join(HERE, "traced.py"), report] if tag == "traced" else ["-m", "volnet.cli"]
        runs[tag] = run_process(py + prefix + command, os.path.join(ROOT, base, f"{tag}.log"), deadline)
        dataset[tag] = i

    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        for i in range(wl.datasets):
            launch(f"round{len(runs)}", i)
    untraced = list(runs.values())
    if trace:
        launch("traced", 0)

    finished = [tag for tag, p in runs.items() if p.code == 0]
    problems: dict[str, list[str]] = {}
    for i in range(wl.datasets):
        mine = [tag for tag in finished if dataset[tag] == i]
        checker = subprocess.run(
            py + [os.path.join(HERE, "checks.py"), data[i], wl.fmt, str(seeds[i]), str(wl.step_days),
                  str(int(wl.command != "cluster")), str(int(wl.command == "run-all"))]
            + [f"{base}/{tag}" for tag in mine],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0))
        if checker.returncode != 0:
            raise SystemExit(f"{name}: output checker failed:\n{checker.stderr}")
        problems.update(json.loads(checker.stdout))
        digests = {tag: tree_digest(os.path.join(ROOT, base, tag)) for tag in mine}
        for tag in mine:
            if digests[tag] != digests[mine[0]]:
                problems[f"{base}/{tag}"].append(f"artifacts differ from those of {mine[0]}")
    for tag, p in runs.items():
        if p.code != 0:
            print(f"{name} {tag}: exit code {p.code}; see {base}/{tag}.log", file=sys.stderr)
        for problem in problems.get(f"{base}/{tag}", ()):
            print(f"{name} {tag}: check failed: {problem}", file=sys.stderr)
    correct = not any(problems.values())
    failed = len(runs) - len(finished) + sum(1 for found in problems.values() if found)

    wall = statistics.median(p.wall_s for p in untraced)
    values = {"wall_s": wall,
              "cpu_s": statistics.median(p.cpu_s for p in untraced),
              "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
              "setup_s": statistics.median(p.wall_s for p in setups)}
    if trace:
        same_inputs = [p.wall_s for tag, p in runs.items() if tag != "traced" and dataset[tag] == 0]
        values["trace.overhead_s"] = runs["traced"].wall_s - statistics.median(same_inputs)
        if "traced" in finished:
            with open(os.path.join(ROOT, base, "traced.trace.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            values.update(report["metrics"])
            values["pipeline.self_s"] = runs["traced"].wall_s - report["spans_s"]

    print(f"workload {name}: seed {seed}, {len(untraced)} untraced run(s), "
          f"{int(trace)} traced run(s), {failed} failed")
    for group in ("end_to_end", "per_layer") if trace else ("end_to_end",):
        for m in specs[group]:
            print(f"  {m['name']:<36} {values.get(m['name'], 0.0):>14.6f} {m['unit']}")
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                        for g in groups for m in specs[g]}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "volnet", "cli.py")):
        print(f"error: no volnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    if args.workload == "all":
        groups = ("end_to_end", "per_layer") if args.trace else ("end_to_end",)
        print(json.dumps({n: run_workload(n, args.seed, args.seconds, bool(args.trace), specs, groups)
                          for n in WORKLOADS}))
    else:
        groups = ("per_layer",) if args.trace else ("end_to_end",)
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                      specs, groups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
