"""The benchmark's per-layer tracer (``perfbench/traced.py``) wraps volnet's
public functions by name and reads their results; a rename or a change of
return shape must fail here rather than silently skew a traced run.

The tracer patches volnet's modules in place, so it runs in a subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import traced
from datetime import datetime, timedelta, timezone
from volnet import featureset
from volnet.ingest import EventLog, Transaction, TransactionLog

tracer = traced.Tracer()
traced.install(tracer)
day0 = datetime(2022, 1, 1, tzinfo=timezone.utc)
log = TransactionLog.from_transactions([
    Transaction(item_id="i0", lister_id="a", collector_id="b",
                listed_at=day0, collected_at=day0 + timedelta(days=1))])
featureset.assemble_all(["a", "b"], log, EventLog.from_events([]))
assert tracer.counts["featureset.vectors"] == 2, dict(tracer.counts)
assert tracer.seconds["featureset.assemble_all_s"] > 0, dict(tracer.seconds)
"""


def test_traced_assemble_all_counts_one_vector_per_user():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
