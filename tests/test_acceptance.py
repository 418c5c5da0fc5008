"""Release acceptance gate: seven end-to-end checks over the full stack.

Each check prints a single ``acceptance N/7 ...: PASS`` (or FAIL) line to
the real stdout so the verdicts survive pytest's output capture.  The
heavyweight checks share one full pipeline run over a 200-hero planted
synthetic dataset; the rest exercise reference oracles, cross-cutting
invariants, rerun determinism, and degenerate-input behavior.
"""

from __future__ import annotations

import os
import time
import warnings as warnings_mod
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from volnet import (
    community,
    explain,
    featureset,
    graph,
    ingest,
    models,
    pipeline,
    synthgen,
    tscluster,
)
from volnet.graph import TransactionGraph

from conftest import tx
from ingest_reference import transaction_log, transaction_rows
from explain_reference import shapley_exact


@pytest.fixture
def gate(capsys):
    """One PASS/FAIL verdict line per gate, printed through the capture."""
    @contextmanager
    def _gate(label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nacceptance {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"\nacceptance {label}: PASS")
    return _gate


# ---------------------------------------------------------------------------
# shared full-scale run: 200 heroes, equal archetype mix, noise 0.05, seed 7

@pytest.fixture(scope="module")
def fullscale(tmp_path_factory):
    base = tmp_path_factory.mktemp("fullscale")
    config = synthgen.SynthConfig(seed=7)
    log, events, truth = synthgen.generate(config)
    paths = synthgen.write_dataset(str(base / "data"), log, events, truth, fmt="csv")
    cfg = pipeline.build_config(
        transactions=paths["transactions"], events=paths["events"],
        out=str(base / "out"), seed=7)
    started = time.perf_counter()
    m1 = pipeline.run_method1(cfg)
    m1_seconds = time.perf_counter() - started
    m2 = pipeline.run_method2(cfg, m1)
    manifest = pipeline.write_manifest(
        cfg, {**m1.artifacts, **m2.artifacts}, m1.warnings + m2.warnings)
    return SimpleNamespace(cfg=cfg, paths=paths, truth=truth, m1=m1, m2=m2,
                           m1_seconds=m1_seconds, manifest=manifest)


# ---------------------------------------------------------------------------
# 1. archetype recovery at scale

def test_archetype_recovery_at_scale(fullscale, gate):
    with gate("1/7 archetype recovery at scale (chosen k, ARI, runtime)"):
        scope = fullscale.m1.scopes["network"]
        assert scope.skipped is None
        assert set(scope.ch_scores) == set(range(4, 11))
        assert scope.chosen_k == 4
        planted = {u: t.archetype for u, t in fullscale.truth.items()}
        ari = synthgen.adjusted_rand_index(planted, dict(scope.model.assignment))
        assert ari >= 0.90
        assert fullscale.m1_seconds < 60.0


# ---------------------------------------------------------------------------
# 2. centroid labels are a bijection onto the planted archetypes

def test_centroid_labels_match_planted_templates(fullscale, gate):
    with gate("2/7 centroid labels map one-to-one onto planted archetypes"):
        scope = fullscale.m1.scopes["network"]
        labels = {c: lab.label for c, lab in scope.labels.items()}
        assert sorted(labels) == list(range(4))
        assert sorted(labels.values()) == sorted(tscluster.ARCHETYPES)
        for c, label in labels.items():
            members = scope.model.members(c)
            assert members
            planted = Counter(fullscale.truth[u].archetype for u in members)
            assert planted.most_common(1)[0][0] == label


# ---------------------------------------------------------------------------
# 3. trend prediction accuracy and the planted dominant feature

def test_trend_prediction_accuracy_and_dominant_feature(fullscale, gate):
    with gate("3/7 trend prediction >= 0.85 per case; messages_count ranks first"):
        gbdt_reports = {case: report
                        for alg, case, report in fullscale.m2.eval_rows["network"]
                        if alg == "gbdt"}
        assert set(gbdt_reports) == set(featureset.CASES)
        for report in gbdt_reports.values():
            assert report.mean_accuracy >= 0.85
        for case in featureset.CASES:
            X, y, users = fullscale.m2.features["network"].rows(case)
            model = models.train("gbdt", X, y, seed=7,
                                 feature_names=featureset.FEATURE_NAMES)
            background = explain.background_sample(X, 100, seed=7)
            rng = np.random.default_rng(7)
            keep = np.sort(rng.choice(X.shape[0], size=40, replace=False))
            atts = [explain.shapley_mc(model, X[i], background,
                                       n_permutations=300, seed=7 + int(i),
                                       user=users[i])
                    for i in keep]
            ranked = explain.importance_from_attributions(
                atts, featureset.FEATURE_NAMES)
            assert ranked[0][0] == "messages_count"


# ---------------------------------------------------------------------------
# 4. reference-oracle equivalence

def _dense_pagerank(g: TransactionGraph, damping: float = 0.85) -> dict[str, float]:
    """Direct linear solve of the stationary equations (test oracle)."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    M = np.zeros((n, n))
    succ = graph.adjacency(g)
    for i, v in enumerate(nodes):
        out = succ[v]
        total = sum(out.values())
        if total == 0:
            M[i, :] = 1.0 / n
        else:
            for w_node, w in out.items():
                M[i, index[w_node]] = w / total
    r = np.linalg.solve(np.eye(n) - damping * M.T, np.full(n, (1.0 - damping) / n))
    r = r / r.sum()
    return {v: float(r[index[v]]) for v in nodes}


def _two_cliques_with_bridge(size: int) -> TransactionGraph:
    left = [f"l{i}" for i in range(size)]
    right = [f"r{i}" for i in range(size)]
    edges: dict[tuple[str, str], int] = {}
    for group in (left, right):
        for a, b in combinations(group, 2):
            edges[(a, b)] = 1
    edges[(left[0], right[0])] = 1
    return TransactionGraph(nodes=frozenset(left + right), edges=edges)


def _brute_force_best_modularity(g: TransactionGraph) -> float:
    """Exhaustive maximum of Newman Q over every partition of the nodes."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    edge_list = [(index[a], index[b], w) for (a, b), w in g.edges.items()]
    degree = [0.0] * n
    for a, b, w in edge_list:
        degree[a] += w
        degree[b] += w
    m = sum(w for _, _, w in edge_list)
    assignment = [0] * n
    best = -1.0

    def q_of(a: list[int]) -> float:
        internal: dict[int, float] = {}
        dsum: dict[int, float] = {}
        for i, j, w in edge_list:
            if a[i] == a[j]:
                internal[a[i]] = internal.get(a[i], 0.0) + w
        for i in range(n):
            dsum[a[i]] = dsum.get(a[i], 0.0) + degree[i]
        return sum(internal.get(c, 0.0) / m - (dsum[c] / (2.0 * m)) ** 2
                   for c in dsum)

    def grow(i: int, n_groups: int):
        nonlocal best
        if i == n:
            best = max(best, q_of(assignment))
            return
        for c in range(n_groups + 1):
            assignment[i] = c
            grow(i + 1, max(n_groups, c + 1))

    grow(1, 1)  # node 0 stays in group 0: partitions up to renaming
    return best


def test_reference_oracle_equivalence(gate):
    with gate("4/7 oracle equivalence (pagerank, communities, warping, "
               "attribution, cluster validity)"):
        # a) power-iteration pagerank vs a dense linear solve, n = 50
        rng = np.random.default_rng(17)
        names = [f"n{i}" for i in range(50)]
        edges: dict[tuple[str, str], int] = {}
        while len(edges) < 160:
            a, b = rng.choice(50, size=2, replace=False)
            edges[(names[a], names[b])] = int(rng.integers(1, 6))
        g = TransactionGraph(nodes=frozenset(names), edges=edges)
        pr = graph.pagerank(g)
        oracle = _dense_pagerank(g)
        assert max(abs(pr[v] - oracle[v]) for v in names) <= 1e-8

        # b) community detection vs the exhaustive optimum on ten nodes
        cliques = _two_cliques_with_bridge(5)
        optimum = _brute_force_best_modularity(cliques)
        assert optimum > 0
        found = community.louvain(cliques, seed=0)
        assert found.modularity >= 0.95 * optimum
        # the inline oracle's arithmetic agrees with the package's scorer
        natural = community.Partition(
            assignment={v: 0 if v.startswith("l") else 1 for v in cliques.nodes},
            count=2, modularity=0.0)
        assert abs(community.modularity(cliques, natural) - 19.0 / 42.0) <= 1e-12
        assert optimum >= 19.0 / 42.0 - 1e-12

        # c) warping distance vs hand-worked dynamic-programming tables
        table_pairs = [
            ([0, 0, 1], [0, 1, 1], 0.0),
            ([0, 1, 1], [0, 1], 0.0),
            ([0, 1], [1, 0], 2.0),
            ([0, 0, 0], [1, 1, 1], 3.0),
            ([1, 3, 2], [1, 2, 3], 2.0),
            ([0, 2], [2, 0], 8.0),
        ]
        for a, b, want in table_pairs:
            assert tscluster.dtw(a, b) == pytest.approx(want, abs=1e-12)

        # d) sampled attribution vs exact enumeration, 8 features
        rng = np.random.default_rng(5)
        X8 = rng.normal(size=(60, 8))
        y8 = (X8[:, 0] + 0.5 * X8[:, 3] > 0).astype(int)
        model8 = models.train("gbdt", X8, y8, seed=5)
        exact = shapley_exact(model8, X8[0], X8)
        sampled = explain.shapley_mc(model8, X8[0], X8, n_permutations=2000, seed=5)
        gap = max(abs(exact.per_feature[f] - sampled.per_feature[f])
                  for f in exact.per_feature)
        assert gap <= 0.05

        # e) cluster-validity score vs a direct recomputation
        rng = np.random.default_rng(9)
        blobs = np.vstack([rng.normal(0.1, 0.03, size=(12, 6)),
                           rng.normal(0.8, 0.03, size=(12, 6)),
                           rng.normal(0.45, 0.03, size=(12, 6))])
        data = {f"u{i}": blobs[i] for i in range(blobs.shape[0])}
        fitted = tscluster.kmeans_ts(data, k=3, seed=2)
        score = tscluster.calinski_harabasz(data, fitted)
        order = sorted(data)
        Xb = np.array([data[u] for u in order])
        lab = np.array([fitted.assignment[u] for u in order])
        overall = Xb.mean(axis=0)
        between = sum(np.sum(lab == c) * np.sum((Xb[lab == c].mean(axis=0) - overall) ** 2)
                      for c in range(3))
        within = sum(np.sum((Xb[lab == c] - Xb[lab == c].mean(axis=0)) ** 2)
                     for c in range(3))
        direct = (between / 2.0) / (within / (Xb.shape[0] - 3))
        assert abs(score - direct) <= 1e-9


# ---------------------------------------------------------------------------
# 5. cross-cutting invariants

def test_cross_cutting_invariants(fullscale, gate):
    with gate("5/7 invariants (ratio range, inertia, warping, attribution "
               "efficiency, fold stratification, cutoff, pagerank mass)"):
        scope = fullscale.m1.scopes["network"]

        # every donors-ratio sample lies in [0, 1]
        for series in scope.series.values():
            assert all(0.0 <= v <= 1.0 for v in series.values)

        # clustering objective never increases across iterations
        history = scope.model.inertia_history
        assert history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

        # warping distance: symmetric, zero on self, bounded by the
        # plain squared distance for equal-length inputs
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0, 1, size=10)
            b = rng.uniform(0, 1, size=10)
            assert tscluster.dtw(a, b) == pytest.approx(tscluster.dtw(b, a), abs=1e-12)
            assert tscluster.dtw(a, a) == 0.0
            assert tscluster.dtw(a, b) <= tscluster.euclidean_sq(a, b) + 1e-12

        # exact attribution satisfies the efficiency identity
        rng = np.random.default_rng(21)
        X8 = rng.normal(size=(40, 8))
        y8 = (X8[:, 1] > 0).astype(int)
        model8 = models.train("random_forest", X8, y8, seed=21)
        att = shapley_exact(model8, X8[3], X8)
        assert abs(sum(att.per_feature.values())
                   - (att.prediction - att.base_value)) <= 1e-9

        # stratified folds partition the samples and balance each class
        y = np.array([0] * 31 + [1] * 19)
        folds = models.stratified_folds(y, 10, seed=3)
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(len(y)))
        for fold in folds:
            ones = int(y[fold].sum())
            assert ones in (1, 2)
            assert len(fold) - ones in (3, 4)

        # appending strictly post-cutoff transactions leaves features alone
        events = ingest.parse_events(fullscale.paths["events"])
        probes = sorted(scope.users)[:5]
        table = fullscale.m2.features["network"]
        before = {u: table.X[i] for i, u in enumerate(table.users) if u in probes}
        future = [t for u in probes
                  for t in (tx(u, "drifter", 500), tx("drifter", u, 501))]
        extended = transaction_log(list(transaction_rows(fullscale.m1.log)) + future)
        again = featureset.assemble_all(probes, extended, events, t_months=3)
        for u, row in zip(probes, again):
            assert np.array_equal(row, before[u])

        # pagerank is a probability distribution over the whole network
        pr = graph.pagerank(fullscale.m1.net)
        assert abs(sum(pr.values()) - 1.0) <= 1e-9
        assert all(v > 0 for v in pr.values())


# ---------------------------------------------------------------------------
# 6. rerun determinism

def test_rerun_produces_byte_identical_outputs(fullscale, tmp_path_factory, gate):
    with gate("6/7 reruns with the same config and seed are byte-identical"):
        out2 = tmp_path_factory.mktemp("rerun_out")
        cfg2 = pipeline.build_config(
            transactions=fullscale.paths["transactions"],
            events=fullscale.paths["events"],
            out=str(out2), seed=7)
        pipeline.run(cfg2)
        first = fullscale.cfg.out
        names1 = sorted(os.listdir(first))
        names2 = sorted(os.listdir(out2))
        assert names1 == names2
        assert any(n.endswith(".csv") for n in names1)
        for name in names1:
            with open(os.path.join(first, name), "rb") as fh:
                blob1 = fh.read()
            with open(os.path.join(str(out2), name), "rb") as fh:
                blob2 = fh.read()
            assert blob1 == blob2, f"artifact differs across reruns: {name}"


# ---------------------------------------------------------------------------
# 7. degenerate inputs fail soft

def test_degenerate_inputs_fail_soft(tmp_path, gate):
    with gate("7/7 degenerate inputs yield sentinels or tagged errors"):
        # an empty transaction file stops with a stage-tagged error
        empty = tmp_path / "empty.csv"
        empty.write_text("item_id,lister_id,collector_id,listed_at,collected_at\n")
        cfg = pipeline.build_config(transactions=str(empty), out=str(tmp_path / "out"))
        with pytest.raises(pipeline.PipelineStageError) as err:
            pipeline.run_method1(cfg)
        assert err.value.stage == "ingest"
        assert "holds no transactions" in str(err.value)

        # single-class labels train a constant predictor, with a warning
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 4))
        ones = np.ones(12, dtype=int)
        with pytest.warns(Warning):
            constant = models.train("gbdt", X, ones, seed=1)
        assert np.allclose(constant.scores(X), 1.0)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            report = models.kfold_cv("naive_bayes", [(X, ones)], k=3, seed=1)[0]
        assert report.mean_accuracy == 1.0
        assert report.degenerate_folds  # flagged, not crashed

        # all-identical series cluster without dividing by zero; 0.5 keeps
        # the mean exact, so the zero-dispersion sentinel fires
        flat = {f"u{i}": [0.5, 0.5, 0.5, 0.5] for i in range(6)}
        fitted = tscluster.kmeans_ts(flat, k=2, seed=0)
        assert set(fitted.assignment.values()) == {0}
        assert tscluster.calinski_harabasz(flat, fitted) == float("inf")
        assert tscluster.best_k(tscluster.ch_scan(flat, (2, 4), seed=0)[0]) == 2
        # a value whose mean rounds (0.4) still scores finite, never NaN
        off = {f"u{i}": [0.4, 0.4, 0.4, 0.4] for i in range(6)}
        score = tscluster.calinski_harabasz(off, tscluster.kmeans_ts(off, k=2, seed=0))
        assert np.isfinite(score) and score >= 0.0

        # isolated nodes get the documented zero-valued metrics
        g = TransactionGraph(nodes=frozenset({"a", "b", "z"}),
                             edges={("a", "b"): 1})
        pr = graph.pagerank(g)
        assert abs(sum(pr.values()) - 1.0) <= 1e-9
        assert "z" in pr
        assert graph.closeness_centrality(g, "z") == 0.0
        assert graph.clustering_coefficient(g, "z") == 0.0
        ego = graph.ego_network(g, "z")
        assert ego.nodes == frozenset({"z"})
        assert graph.density(ego) == 0.0
