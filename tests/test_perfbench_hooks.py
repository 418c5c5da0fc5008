"""The benchmark's per-layer tracer (``perfbench/traced.py``) wraps volnet's
public functions by name and reads their results; a rename or a change of
return shape must fail here rather than silently skew a traced run.

The tracer patches volnet's modules in place, so it runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from volnet import synthgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import traced
from volnet import featureset
from volnet.ingest import EventLog, TransactionLog

tracer = traced.Tracer()
traced.install(tracer)
day0 = 1_640_995_200_000_000  # 2022-01-01 in epoch microseconds
log = TransactionLog.pack(["i0"], ["a"], ["b"], [day0], [day0 + 86_400_000_000])
featureset.assemble_all(["a", "b"], log, EventLog.pack([], [], [], []))
assert tracer.counts["featureset.vectors"] == 2, dict(tracer.counts)
assert tracer.seconds["featureset.assemble_all_s"] > 0, dict(tracer.seconds)
"""


def test_traced_assemble_all_counts_one_vector_per_user():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# Layers whose wrapped function the pipeline no longer calls: ``ch_scan`` fits
# its k as lanes without calling ``kmeans_ts``, so the tracer's k-means span
# never fires and that time reads under ``tscluster.ch_scan_s`` instead.
NOT_CALLED = {"tscluster.kmeans_ts_s"}


def test_traced_run_all_reports_every_layer(tmp_path):
    """A traced ``run-all`` fills every per-layer metric the benchmark declares
    (bar the two that ``run.py`` derives from the wall time), and every timed
    layer reads above zero, so a wrapped function that the pipeline stops
    calling through its module fails here instead of zeroing a layer; the
    layers of ``NOT_CALLED`` must stay unfilled until the tracer is updated."""
    log, events, truth = synthgen.generate(synthgen.SynthConfig(n_heroes=40, seed=5))
    paths = synthgen.write_dataset(str(tmp_path / "data"), log, events, truth)
    config = tmp_path / "run.cfg"
    config.write_text("cv_folds = 2\nn_permutations = 100\nexplain_rows = 2\nk_max = 5\n")
    report_path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced.py"), str(report_path),
         "run-all", "--config", str(config), "--transactions", paths["transactions"],
         "--events", paths["events"], "--out", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(report_path.read_text())
    assert report["exit_code"] == 0
    metrics = report["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {layer["name"] for layer in json.load(fh)["per_layer"]}
    missing = declared - {"pipeline.self_s", "trace.overhead_s"} - metrics.keys()
    assert missing == NOT_CALLED, sorted(missing)
    assert (metrics["tscluster.kmeans_fits"], metrics["tscluster.sweeps"]) == (0, 0)
    idle = sorted(name for name, value in metrics.items()
                  if name.endswith("_s") and not value > 0)
    assert not idle, idle
