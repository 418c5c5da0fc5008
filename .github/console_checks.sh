#!/usr/bin/env bash
# End-to-end checks of the volnet command line: synth, every stage cap,
# byte-identical reruns, README's config block, the JSONL parser and
# lenient ingest.
#
#   .github/console_checks.sh                      # the installed console script
#   VOLNET="python3 -m volnet.cli" PYTHONPATH=src .github/console_checks.sh
#
# Outputs go under $RUNNER_TEMP, or a new temporary folder when it is unset.
set -euo pipefail
VOLNET=${VOLNET:-volnet}
RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
echo "outputs under $RUNNER_TEMP"

volnet() { command $VOLNET "$@"; }

# a synth knob whose exp overflows ends in a usage error (exit 2), not a traceback
status=0
volnet synth --heroes 4 --signal messages_count=1000 --out "$RUNNER_TEMP/synth-bad" || status=$?
test "$status" -eq 2
# fewer heroes than archetypes is a usage error (exit 2) that writes nothing
status=0
volnet synth --heroes 3 --out "$RUNNER_TEMP/synth-3" || status=$?
test "$status" -eq 2
test ! -e "$RUNNER_TEMP/synth-3"
volnet synth --heroes 20 --out "$RUNNER_TEMP/synth"
volnet ingest --transactions "$RUNNER_TEMP/synth/transactions.csv" \
  --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/ingest"
# Louvain and the edge list: a rerun into another folder writes the same bytes
for out in communities communities-again; do
  volnet communities --transactions "$RUNNER_TEMP/synth/transactions.csv" \
    --out "$RUNNER_TEMP/$out"
done
test -s "$RUNNER_TEMP/communities/partition.csv"
test -s "$RUNNER_TEMP/communities/edges.csv"
test -s "$RUNNER_TEMP/communities/manifest.json"
diff -r "$RUNNER_TEMP/communities" "$RUNNER_TEMP/communities-again"
# the behavior cap: the donors-ratio series of every scope, and a summary
# that names exactly the series files the manifest lists
volnet behavior --transactions "$RUNNER_TEMP/synth/transactions.csv" \
  --out "$RUNNER_TEMP/behavior" | tee "$RUNNER_TEMP/behavior.out"
test -s "$RUNNER_TEMP/behavior/dr_series_network.csv"
listed=$(grep -o '"dr_series_[^"]*\.csv":' "$RUNNER_TEMP/behavior/manifest.json" | tr -d '":' | sort)
summary=$(grep -F "donors-ratio series" "$RUNNER_TEMP/behavior.out" \
  | grep -o 'dr_series_[^ ,]*\.csv' | sort)
test -n "$listed"
test "$summary" = "$listed"
# README's config block (the first fenced block under "## Config file")
# sets every key to its default: a behavior run from it writes the
# no-config run's bytes, manifest.json included
awk '/^## Config file/ { section = 1 }
     section && /^```/ { if (inside) exit; inside = 1; next }
     inside' "$(dirname "$0")/../README.md" > "$RUNNER_TEMP/readme.conf"
grep -q '^metric = ' "$RUNNER_TEMP/readme.conf"
volnet behavior --config "$RUNNER_TEMP/readme.conf" \
  --transactions "$RUNNER_TEMP/synth/transactions.csv" --out "$RUNNER_TEMP/behavior-readme" > /dev/null
diff -r "$RUNNER_TEMP/behavior" "$RUNNER_TEMP/behavior-readme"
# the warping k-means path: monthly DTW clustering
printf 'metric = dtw\ninterval = monthly\n' > "$RUNNER_TEMP/dtw.conf"
volnet cluster --config "$RUNNER_TEMP/dtw.conf" \
  --transactions "$RUNNER_TEMP/synth/transactions.csv" --out "$RUNNER_TEMP/cluster"
test -s "$RUNNER_TEMP/cluster/cluster_model_network.json"
# a rerun into another folder writes the same bytes
volnet cluster --config "$RUNNER_TEMP/dtw.conf" \
  --transactions "$RUNNER_TEMP/synth/transactions.csv" --out "$RUNNER_TEMP/cluster-again"
diff -r "$RUNNER_TEMP/cluster" "$RUNNER_TEMP/cluster-again"
# a removed metric is a config error (exit 2), not a traceback, and writes nothing
printf 'metric = softdtw\ninterval = monthly\n' > "$RUNNER_TEMP/softdtw.conf"
status=0
volnet cluster --config "$RUNNER_TEMP/softdtw.conf" \
  --transactions "$RUNNER_TEMP/synth/transactions.csv" --out "$RUNNER_TEMP/cluster-softdtw" \
  2> "$RUNNER_TEMP/softdtw.err" || status=$?
test "$status" -eq 2
grep -q "unknown metric" "$RUNNER_TEMP/softdtw.err"
test ! -e "$RUNNER_TEMP/cluster-softdtw"
# the event log's parser, the raw-feature counts and the ego
# networks' features: a rerun into another folder writes the same bytes
for out in features features-again; do
  volnet features --transactions "$RUNNER_TEMP/synth/transactions.csv" \
    --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/$out"
done
test -s "$RUNNER_TEMP/features/features_network.csv"
diff -r "$RUNNER_TEMP/features" "$RUNNER_TEMP/features-again"
# the tree families' level-wise CV fits: a rerun writes the same bytes
printf 'cv_folds = 2\nmodels = decision_tree,random_forest,gbdt\n' > "$RUNNER_TEMP/trees.conf"
for out in train train-again; do
  volnet train --config "$RUNNER_TEMP/trees.conf" \
    --transactions "$RUNNER_TEMP/synth/transactions.csv" \
    --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/$out"
done
test "$(tail -n +2 "$RUNNER_TEMP/train/eval_network.csv" | wc -l)" -eq 6
diff -r "$RUNNER_TEMP/train" "$RUNNER_TEMP/train-again"
# ... and so do their final fits, the forest's draws and explain's
# Shapley draws, through the whole run
for out in run-all-trees run-all-trees-again; do
  volnet run-all --config "$RUNNER_TEMP/trees.conf" \
    --transactions "$RUNNER_TEMP/synth/transactions.csv" \
    --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/$out"
done
diff -r "$RUNNER_TEMP/run-all-trees" "$RUNNER_TEMP/run-all-trees-again"
# the linear families' Newton fits, and explain scoring each
# distinct Shapley row once: a rerun writes the same bytes
printf 'cv_folds = 2\nmodels = naive_bayes,logistic_regression,linear_svm\n' > "$RUNNER_TEMP/linear.conf"
for out in run-all run-all-again; do
  volnet run-all --config "$RUNNER_TEMP/linear.conf" \
    --transactions "$RUNNER_TEMP/synth/transactions.csv" \
    --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/$out"
done
test "$(tail -n +2 "$RUNNER_TEMP/run-all/eval_network.csv" | wc -l)" -eq 6
diff -r "$RUNNER_TEMP/run-all" "$RUNNER_TEMP/run-all-again"
# ... and every linear fit, CV fold or final, converges before its
# Newton step cap
if grep -F "Newton step cap" "$RUNNER_TEMP/run-all/manifest.json"; then exit 1; fi
# explain is the same cap as run-all: the trees match byte for byte
volnet explain --config "$RUNNER_TEMP/linear.conf" \
  --transactions "$RUNNER_TEMP/synth/transactions.csv" \
  --events "$RUNNER_TEMP/synth/events.csv" --out "$RUNNER_TEMP/explain"
diff -r "$RUNNER_TEMP/run-all" "$RUNNER_TEMP/explain"
# the JSONL parser: the same seed's JSONL data clusters to the CSV
# data's artifacts (only the manifest, which names the input file
# and format, differs) ...
volnet synth --heroes 20 --format jsonl --out "$RUNNER_TEMP/synth-jsonl"
volnet cluster --config "$RUNNER_TEMP/dtw.conf" --format jsonl \
  --transactions "$RUNNER_TEMP/synth-jsonl/transactions.jsonl" --out "$RUNNER_TEMP/cluster-jsonl"
diff -r -x manifest.json "$RUNNER_TEMP/cluster" "$RUNNER_TEMP/cluster-jsonl"
# ... and so does the CSV data with every stamp rewritten from "Z" to
# "+00:00", which sends each stamp through the scalar grammar
sed 's/:\([0-9][0-9]\)Z/:\1+00:00/g' "$RUNNER_TEMP/synth/transactions.csv" \
  > "$RUNNER_TEMP/offsets.csv"
test "$(grep -c Z "$RUNNER_TEMP/offsets.csv")" -eq 0
volnet cluster --config "$RUNNER_TEMP/dtw.conf" \
  --transactions "$RUNNER_TEMP/offsets.csv" --out "$RUNNER_TEMP/cluster-offsets"
diff -r -x manifest.json "$RUNNER_TEMP/cluster" "$RUNNER_TEMP/cluster-offsets"
# ... and a malformed line appended to the transactions is dropped by
# a lenient ingest and named in the manifest's warnings
echo '{"item_id": "broken"}' >> "$RUNNER_TEMP/synth-jsonl/transactions.jsonl"
bad_line=$(wc -l < "$RUNNER_TEMP/synth-jsonl/transactions.jsonl")
volnet ingest --format jsonl --lenient \
  --transactions "$RUNNER_TEMP/synth-jsonl/transactions.jsonl" --out "$RUNNER_TEMP/ingest-jsonl"
grep -F "line $bad_line: expected keys item_id,lister_id,collector_id,listed_at,collected_at" \
  "$RUNNER_TEMP/ingest-jsonl/manifest.json"
# ... and so are a row of the wrong width, a row with a bad stamp, a
# canonical-shaped stamp of a day February 2023 does not have and a
# lister_id longer than the CSV reader's field limit (131,072
# characters), put in middle chunks of the CSV transactions (9,333
# rows), each named by its line
printf 'i-long,%s,b,2021-01-01T00:00:00Z,2021-01-01T00:00:00Z\n' \
  "$(head -c 200000 /dev/zero | tr '\0' x)" > "$RUNNER_TEMP/long-row.csv"
sed -e '4000a i-short,a,b' -e '6000a i-bad,a,b,not-a-time,2021-01-01T00:00:00Z' \
  -e '7000a i-feb,a,b,2023-02-29T00:00:00Z,2023-03-01T00:00:00Z' \
  -e "8000r $RUNNER_TEMP/long-row.csv" \
  "$RUNNER_TEMP/synth/transactions.csv" > "$RUNNER_TEMP/bad-rows.csv"
volnet ingest --lenient --transactions "$RUNNER_TEMP/bad-rows.csv" \
  --out "$RUNNER_TEMP/ingest-bad-rows"
grep -F "line 4001: expected 5 columns, got 3" "$RUNNER_TEMP/ingest-bad-rows/manifest.json"
grep -F "line 6002: not an RFC 3339 timestamp: 'not-a-time'" \
  "$RUNNER_TEMP/ingest-bad-rows/manifest.json"
grep -F "line 7003: not an RFC 3339 timestamp: '2023-02-29T00:00:00Z'" \
  "$RUNNER_TEMP/ingest-bad-rows/manifest.json"
grep -F "line 8004: field larger than field limit (131072)" \
  "$RUNNER_TEMP/ingest-bad-rows/manifest.json"
echo "console checks passed"
