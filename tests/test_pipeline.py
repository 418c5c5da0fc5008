"""End-to-end orchestration tests: config resolution, stage error
tagging, both analysis methods over a planted synthetic dataset, the
run manifest, and the command-line interface.

One full pipeline run over the shared synthetic dataset is computed
once per module and inspected by many tests.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from volnet import cli, featureset, graph, models, pipeline, synthgen, tscluster
from volnet.pipeline import PipelineStageError, build_config, load_config_file


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, small_synth):
    """The shared synthetic dataset written to disk in canonical CSV form."""
    log, events, truth = small_synth
    out = tmp_path_factory.mktemp("synth_data")
    return synthgen.write_dataset(str(out), log, events, truth, fmt="csv")


@pytest.fixture(scope="module")
def run(tmp_path_factory, data_dir):
    """One full run over the synthetic dataset: (cfg, result).

    The permutation and row counts are trimmed for speed; the network
    scope has 20 samples per case, exactly the floor for 10-fold CV,
    while each community scope has 10 per case and is skipped.
    """
    out = tmp_path_factory.mktemp("run_out")
    cfg = build_config(
        transactions=data_dir["transactions"], events=data_dir["events"],
        out=str(out), seed=11, n_permutations=120, explain_rows=6)
    return cfg, pipeline.run(cfg)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# configuration resolution

class TestConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.seed == 0
        assert cfg.interval == "weekly"
        assert cfg.cv_folds == 10
        assert cfg.models == models.ALGORITHMS
        assert cfg.out == "out"
        assert cfg.metric == "euclidean"
        assert (cfg.k_min, cfg.k_max) == (4, 10)

    def test_overrides_are_typed(self):
        cfg = build_config(seed=5, hub_multiplier="2.5", k_min="2", k_max=6)
        assert cfg.seed == 5 and isinstance(cfg.seed, int)
        assert cfg.hub_multiplier == 2.5
        assert (cfg.k_min, cfg.k_max) == (2, 6)

    def test_none_override_keeps_default(self):
        cfg = build_config(seed=None, out=None)
        assert cfg.seed == 0 and cfg.out == "out"

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config(learning_rate="0.1")

    def test_models_list_parsed_from_text(self):
        cfg = build_config(models=" gbdt , naive_bayes ")
        assert cfg.models == ("gbdt", "naive_bayes")

    @pytest.mark.parametrize("overrides", [
        {"interval": "daily"},
        {"metric": "cosine"},
        {"k_min": "1"},
        {"k_min": "8", "k_max": "4"},
        {"models": "gbdt,perceptron"},
        {"models": " , "},
        {"cv_folds": "1"},
        {"cutoff_months": "0"},
        {"top_communities": "-1"},
        {"n_permutations": "50"},
        {"explain_rows": "0"},
        {"hub_multiplier": "0.5"},
        {"min_transactions": "0"},
        {"metric": "softdtw"},
        {"gamma": "1.0"},
        {"hub_multiplier": "nan"},
        {"hub_multiplier": "inf"},
        {"horizon_days": "6"},
        {"horizon_days": "29", "interval": "monthly"},
        {"format": "xml"},
        {"seed": "-1"},
        {"min_span_days": "-1"},
        {"min_listing_weeks": "-1"},
        {"models": "naive_bayes,naive_bayes"},
    ])
    def test_invalid_settings_rejected(self, overrides, tmp_path, capsys):
        with pytest.raises(ValueError):
            build_config(**overrides)
        # the CLI rejects them before any stage runs or writes
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
        out = tmp_path / "out"
        rc = cli.main(["cluster", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("hub_multiplier", "nan"), ("hub_multiplier", "inf")])
    def test_non_finite_floats_rejected_by_name(self, key, value):
        # before, hub_multiplier = nan selected no hubs, reported as an empty key-user set
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            build_config(**{key: value})

    @pytest.mark.parametrize("overrides", [
        {"cv_folds": "2", "cutoff_months": "1", "top_communities": "0",
         "n_permutations": "100", "explain_rows": "1", "hub_multiplier": "1",
         "min_transactions": "1", "horizon_days": "7",
         "seed": "0", "min_span_days": "0", "min_listing_weeks": "0"},
        {"metric": "dtw", "interval": "monthly", "horizon_days": "30", "format": "jsonl"},
    ])
    def test_boundary_values_accepted(self, overrides):
        cfg = build_config(**overrides)
        assert {k: getattr(cfg, k) for k in overrides} == {
            k: type(getattr(cfg, k))(v) for k, v in overrides.items()}

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "seed = 7\n"
            "  metric=dtw  \n"
            "models = gbdt,linear_svm\n")
        mapping = load_config_file(str(path))
        assert mapping == {"seed": "7", "metric": "dtw", "models": "gbdt,linear_svm"}
        cfg = build_config(mapping)
        assert cfg.seed == 7 and cfg.metric == "dtw"
        assert cfg.models == ("gbdt", "linear_svm")

    def test_readme_config_block_builds_the_defaults(self, tmp_path):
        # README's "Keys and defaults" block names every key at its default
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("Keys and defaults", 1)[1].split("```\n")[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        mapping = load_config_file(str(path))
        assert sorted(mapping) == sorted(f.name for f in fields(pipeline.PipelineConfig))
        assert build_config(mapping) == pipeline.PipelineConfig()

    def test_readme_fixed_constants_name_module_attributes(self):
        # every `module.NAME` README's "Fixed constants" list names is
        # an attribute of that volnet module
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("## Fixed constants", 1)[1].split("\n## ", 1)[0]
        named = re.findall(r"`(\w+)\.(\w+)`", section)
        assert ("graph", "_DAMPING") in named
        for module, name in named:
            assert hasattr(importlib.import_module(f"volnet.{module}"), name), f"{module}.{name}"

    def test_config_file_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\njust some words\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: expected 'key = value'"):
            load_config_file(str(path))

    def test_config_file_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        # the blank first line shifts the bad key to line 3
        path.write_text("\nseed = 1\nnonsense = 3\n")
        with pytest.raises(ValueError, match=r"run\.cfg:3: unknown config key"):
            load_config_file(str(path))

    @pytest.mark.parametrize("text, message", [
        ("cv_folds = ten\n", "cv_folds must be int, got 'ten'"),
        ("hub_multiplier = x\n", "hub_multiplier must be float, got 'x'"),
        ("seed = 1\nseed = 2\n", "bad.cfg:2: duplicate config key 'seed'"),
        ("models = gbdt,naive_bayes,gbdt\n", "duplicate model 'gbdt' in models"),
    ])
    def test_bad_config_value_names_its_key(self, text, message, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        rc = cli.main(["cluster", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_override_beats_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nout = from_file\n")
        cfg = build_config(load_config_file(str(path)), seed=9)
        assert cfg.seed == 9          # flag wins
        assert cfg.out == "from_file"  # file beats default


# ---------------------------------------------------------------------------
# stage error tagging

class TestStageErrors:
    def test_missing_transactions_path(self, tmp_path):
        cfg = build_config(out=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError, match=r"\[ingest\] no transactions path"):
            pipeline.run(cfg, through="cluster")

    def test_unreadable_transactions_file(self, tmp_path):
        cfg = build_config(transactions=str(tmp_path / "nope.csv"), out=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError) as err:
            pipeline.run(cfg, through="cluster")
        assert err.value.stage == "ingest"
        assert str(err.value).startswith("[ingest] ")

    def test_filter_removing_everything(self, data_dir, tmp_path):
        cfg = build_config(transactions=data_dir["transactions"],
                           min_transactions=10**6, out=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError) as err:
            pipeline.run(cfg, through="cluster")
        assert err.value.stage == "filter"
        assert "no transactions survive" in str(err.value)

    def test_no_key_users_is_actionable(self, data_dir, tmp_path):
        cfg = build_config(transactions=data_dir["transactions"],
                           min_listing_weeks=500, out=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError) as err:
            pipeline.run(cfg, through="cluster")
        assert err.value.stage == "key_users"
        assert "key-user set is empty after activity filtering" in str(err.value)
        assert "lower the thresholds" in str(err.value)

    def test_unconverged_ego_pagerank_is_a_features_error(self, data_dir, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(graph, "_MAX_ITER", 1)
        cfg = build_config(transactions=data_dir["transactions"], events=data_dir["events"],
                           out=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError,
                           match=r"^\[features\] pagerank did not converge in 1 iterations"):
            pipeline.run(cfg, through="features")


# ---------------------------------------------------------------------------
# stage caps

class TestStageCaps:
    """``run`` stops after each cap of ``STAGES``, having written exactly the
    artifacts its manifest declares and left the fields of later stages empty."""

    # the result fields each stage fills (cluster fills each scope's model)
    FILLS = {"ingest": ("log", "reports"), "communities": ("net", "partition"),
             "behavior": ("key_users", "scopes"), "cluster": (), "features": ("features",),
             "train": ("eval_rows", "best"), "explain": ("importances",)}

    @pytest.fixture(scope="class")
    def caps(self, tmp_path_factory, data_dir):
        base = tmp_path_factory.mktemp("caps")
        results = {}
        for through in pipeline.STAGES:
            cfg = build_config(
                transactions=data_dir["transactions"], events=data_dir["events"],
                out=str(base / through), seed=11, cv_folds=2, n_permutations=100,
                explain_rows=2)
            results[through] = pipeline.run(cfg, through=through)
        return base, results

    @pytest.mark.parametrize("through", pipeline.STAGES)
    def test_cap_writes_exactly_its_own_artifacts(self, caps, through):
        base, results = caps
        result = results[through]
        assert result.manifest == str(base / through / "manifest.json")
        with open(result.manifest, encoding="utf-8") as fh:
            assert json.load(fh)["artifacts"] == result.artifacts
        assert sorted(os.listdir(base / through)) == sorted([*result.artifacts, "manifest.json"])
        # each cap writes what the cap before it wrote, bar the edge list,
        # which only a run that stops at communities writes
        assert ("edges.csv" in result.artifacts) == (through == "communities")
        i = pipeline.STAGES.index(through)
        if i:
            previous = set(results[pipeline.STAGES[i - 1]].artifacts) - {"edges.csv"}
            assert previous < set(result.artifacts)
        # the event log is parsed in ingest only when the run stops there
        assert set(result.reports) == (
            {"transactions", "events"} if through == "ingest" else {"transactions"})
        reached = pipeline.STAGES[:i + 1]
        for stage, names in self.FILLS.items():
            for name in names:
                value = getattr(result, name)
                assert (value is not None and value != {}) == (stage in reached), name
        clustered = [scope for scope in result.scopes.values() if scope.model is not None]
        assert bool(clustered) == ("cluster" in reached)

    def test_unknown_cap_rejected_before_any_write(self, data_dir, tmp_path):
        cfg = build_config(transactions=data_dir["transactions"], out=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="unknown stage cap 'bogus'"):
            pipeline.run(cfg, through="bogus")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# method 1 over the synthetic dataset

class TestMethodOneRun:
    def test_scopes_are_network_plus_top_communities(self, run):
        _, result = run
        names = set(result.scopes)
        assert "network" in names
        assert len(names) == 3
        assert all(n.startswith("community_") for n in names - {"network"})

    def test_network_scope_covers_every_key_user(self, run, small_synth):
        _, result = run
        _, _, truth = small_synth
        scope = result.scopes["network"]
        assert set(scope.users) == set(truth)
        assert list(scope.users) == sorted(scope.users)
        assert set(scope.model.assignment) == set(truth)

    def test_network_scope_chooses_four_clusters(self, run):
        _, result = run
        scope = result.scopes["network"]
        assert scope.skipped is None
        assert scope.chosen_k == 4
        assert set(scope.ch_scores) == set(range(4, 11))
        assert scope.model.k == 4

    def test_all_four_archetypes_labelled(self, run):
        _, result = run
        scope = result.scopes["network"]
        assert set(scope.labels) == set(range(4))
        assert {lab.label for lab in scope.labels.values()} == set(tscluster.ARCHETYPES)

    def test_recovered_clusters_match_planted_archetypes(self, run, small_synth):
        _, result = run
        _, _, truth = small_synth
        scope = result.scopes["network"]
        found = dict(scope.model.assignment)
        planted = {u: t.archetype for u, t in truth.items()}
        ari = synthgen.adjusted_rand_index(planted, found)
        assert ari > 0.9

    def test_community_scopes_cluster_their_members(self, run):
        _, result = run
        for name, scope in result.scopes.items():
            if name == "network":
                continue
            assert len(scope.users) == 20
            assert scope.skipped is None
            assert scope.chosen_k is not None

    def test_method1_artifacts_on_disk(self, run):
        cfg, result = run
        for fname in ("partition.csv", "dr_series_network.csv", "clusters_network.csv",
                      "centroids_network.csv", "centroids_network.svg",
                      "cluster_model_network.json"):
            assert fname in result.artifacts
            full = os.path.join(cfg.out, fname)
            assert os.path.getsize(full) > 0

    def test_cluster_model_json_round_trips(self, run):
        cfg, result = run
        with open(os.path.join(cfg.out, "cluster_model_network.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        model = tscluster.model_from_dict(payload["model"] if "model" in payload else payload)
        scope = result.scopes["network"]
        assert model.k == scope.model.k
        assert model.assignment == scope.model.assignment

    def test_series_csv_lists_every_user_and_week(self, run):
        cfg, result = run
        lines = _read_lines(os.path.join(cfg.out, "dr_series_network.csv"))
        scope = result.scopes["network"]
        # header + one row per (user, week)
        assert len(lines) == 1 + len(scope.users) * 52


# ---------------------------------------------------------------------------
# method 2 over the synthetic dataset

class TestMethodTwoRun:
    def test_feature_vectors_per_scope(self, run):
        _, result = run
        assert set(result.features) == set(result.scopes)
        assert len(result.features["network"].users) == 40
        for name, table in result.features.items():
            assert table.users == result.scopes[name].users
            assert table.X.shape == (len(table.users), len(featureset.FEATURE_NAMES))
            assert len(table.y) == len(table.cases) == len(table.users)

    def test_features_assembled_once_and_shared_by_scopes(self, run, monkeypatch, tmp_path):
        cfg, _ = run
        calls = []
        assemble_all = featureset.assemble_all

        def counting(users, *args, **kwargs):
            calls.append(list(users))
            return assemble_all(calls[-1], *args, **kwargs)

        monkeypatch.setattr(featureset, "assemble_all", counting)
        result = pipeline.run(replace(cfg, out=str(tmp_path)), through="features")
        assert calls == [sorted(result.scopes["network"].users)]
        assert len(result.features) == len(result.scopes) > 1
        network = result.features["network"]
        row_of = {u: i for i, u in enumerate(network.users)}
        for table in result.features.values():
            assert np.array_equal(table.X, network.X[[row_of[u] for u in table.users]])

    def test_network_eval_covers_every_model_and_case(self, run):
        cfg, result = run
        rows = result.eval_rows["network"]
        assert len(rows) == len(cfg.models) * 2
        assert {alg for alg, _, _ in rows} == set(cfg.models)
        assert {case for _, case, _ in rows} == set(featureset.CASES)
        for _, _, report in rows:
            assert 0.0 <= report.mean_accuracy <= 1.0
            assert len(report.fold_accuracy) == cfg.cv_folds

    def test_small_community_cases_are_skipped_with_warnings(self, run):
        _, result = run
        community_scopes = sorted(set(result.scopes) - {"network"})
        for name in community_scopes:
            assert result.eval_rows[name] == []
        skip = [w for w in result.warnings if w.startswith("train: scope community_")]
        assert len(skip) == 4  # 2 communities x 2 cases
        assert all("(10 samples < 20)" in w for w in skip)

    def test_features_constant_in_a_job_are_named(self, run):
        # the synthetic network is bipartite, and each key user sits at the
        # centre of its own ego network: its clustering and closeness are
        # the same in every row
        _, result = run
        constant = [w for w in result.warnings if w.startswith("train: constant in ")]
        assert [w.split(":")[1] for w in constant] == [
            f" constant in scope network case {case}" for case in featureset.CASES]
        for case, warning in zip(featureset.CASES, constant):
            names = warning.split(": ")[-1].split(", ")
            assert {"closeness_centrality", "clustering_coefficient"} <= set(names)
            X = result.features["network"].rows(case)[0]
            for j, name in enumerate(featureset.FEATURE_NAMES):
                assert (name in names) == bool(np.all(X[:, j] == X[0, j]))

    def test_best_model_chosen_per_network_case(self, run):
        _, result = run
        assert set(result.best) == {("network", "starting_high"), ("network", "starting_low")}
        for alg in result.best.values():
            assert alg in models.ALGORITHMS

    def test_best_model_actually_has_top_accuracy(self, run):
        _, result = run
        for (scope, case), alg in result.best.items():
            case_rows = [(a, r) for a, c, r in result.eval_rows[scope] if c == case]
            top = max(r.mean_accuracy for _, r in case_rows)
            chosen = next(r for a, r in case_rows if a == alg)
            assert chosen.mean_accuracy == top

    def test_importances_rank_all_features(self, run):
        _, result = run
        assert set(result.importances) == set(result.best)
        for ranked in result.importances.values():
            assert [f for f, _ in ranked] != []
            assert {f for f, _ in ranked} == set(featureset.FEATURE_NAMES)
            values = [v for _, v in ranked]
            assert values == sorted(values, reverse=True)
            assert all(v >= 0.0 for v in values)

    def test_planted_signal_feature_ranks_high(self, run):
        """The generator suppresses messages for trend-changing volunteers;
        the attribution ranking over the full network scope should notice."""
        _, result = run
        ranked = dict(result.importances)
        for case in ("starting_high", "starting_low"):
            order = [f for f, _ in ranked[("network", case)]]
            assert order.index("messages_count") < 5

    def test_feature_csvs_row_counts(self, run):
        cfg, result = run
        for name, scope in result.scopes.items():
            lines = _read_lines(os.path.join(cfg.out, f"features_{name}.csv"))
            assert len(lines) == 1 + len(scope.users)

    def test_eval_csvs(self, run):
        cfg, result = run
        lines = _read_lines(os.path.join(cfg.out, "eval_network.csv"))
        assert len(lines) == 1 + len(cfg.models) * 2
        for name in set(result.scopes) - {"network"}:
            assert _read_lines(os.path.join(cfg.out, f"eval_{name}.csv"))[1:] == []

    def test_saved_best_models_predict(self, run):
        cfg, result = run
        for (scope, case), alg in result.best.items():
            model = models.load_model(os.path.join(cfg.out, f"model_{scope}_{case}.json"))
            assert model.algorithm == alg
            X, y, _ = result.features[scope].rows(case)
            scores = model.scores(X)
            assert scores.shape == (len(y),)
            assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_attribution_csv_long_format(self, run):
        cfg, _ = run
        lines = _read_lines(os.path.join(cfg.out, "attributions_network_starting_high.csv"))
        assert lines[0] == "user_id,feature,phi,std_err"
        # 6 explained rows x 15 features
        assert len(lines) == 1 + 6 * len(featureset.FEATURE_NAMES)

    def test_importance_csv_is_ranked(self, run):
        cfg, _ = run
        lines = _read_lines(os.path.join(cfg.out, "importance_network_starting_low.csv"))
        assert lines[0] == "feature,mean_abs_phi,rank"
        ranks = [int(line.split(",")[2]) for line in lines[1:]]
        assert ranks == list(range(1, len(featureset.FEATURE_NAMES) + 1))

    def test_svg_charts_are_svg(self, run):
        cfg, _ = run
        for fname in ("centroids_network.svg", "importance_network_starting_high.svg"):
            with open(os.path.join(cfg.out, fname), encoding="utf-8") as fh:
                text = fh.read()
            assert text.startswith("<svg ")
            # the white background covers the whole document, legend included
            size = r'width="(\d+)" height="(\d+)"'
            assert (re.search(r"<rect " + size, text).groups()
                    == re.search(r"<svg [^>]*" + size, text).groups())


# ---------------------------------------------------------------------------
# manifest

class TestManifest:
    def test_manifest_declares_existing_artifacts(self, run):
        cfg, result = run
        with open(result.manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["version"] == 1
        assert payload["artifacts"]
        for rel in payload["artifacts"].values():
            full = os.path.join(cfg.out, rel)
            assert os.path.getsize(full) > 0

    def test_manifest_config_echo_omits_output_dir(self, run):
        cfg, result = run
        with open(result.manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "out" not in payload["config"]
        assert payload["config"]["seed"] == cfg.seed
        assert tuple(payload["config"]["models"]) == cfg.models

    def test_manifest_rejects_missing_artifact(self, tmp_path):
        cfg = build_config(out=str(tmp_path))
        with pytest.raises(PipelineStageError, match="declared artifact missing or empty"):
            pipeline.write_manifest(cfg, {"ghost.csv": "ghost.csv"}, [])

    def test_manifest_rejects_empty_artifact(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        cfg = build_config(out=str(tmp_path))
        with pytest.raises(PipelineStageError, match="missing or empty: empty.csv"):
            pipeline.write_manifest(cfg, {"empty.csv": "empty.csv"}, [])

    def test_manifest_file_bytes(self, tmp_path):
        # sorted keys, artifacts sorted by name, warnings kept in order
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("x\n")
        cfg = build_config(out=str(tmp_path), models="naive_bayes", seed=5)
        path = pipeline.write_manifest(cfg, {"b.csv": "b.csv", "a.csv": "a.csv"}, ["w2", "w1"])
        assert path == str(tmp_path / "manifest.json")
        assert (tmp_path / "manifest.json").read_bytes() == (
            b'{\n'
            b'  "artifacts": {\n'
            b'    "a.csv": "a.csv",\n'
            b'    "b.csv": "b.csv"\n'
            b'  },\n'
            b'  "config": {\n'
            b'    "cutoff_months": 3,\n'
            b'    "cv_folds": 10,\n'
            b'    "events": "",\n'
            b'    "explain_rows": 40,\n'
            b'    "format": "csv",\n'
            b'    "horizon_days": 365,\n'
            b'    "hub_multiplier": 1.0,\n'
            b'    "interval": "weekly",\n'
            b'    "k_max": 10,\n'
            b'    "k_min": 4,\n'
            b'    "key_users": "hub",\n'
            b'    "metric": "euclidean",\n'
            b'    "min_listing_weeks": 6,\n'
            b'    "min_span_days": 365,\n'
            b'    "min_transactions": 1,\n'
            b'    "models": [\n'
            b'      "naive_bayes"\n'
            b'    ],\n'
            b'    "n_permutations": 300,\n'
            b'    "seed": 5,\n'
            b'    "top_communities": 2,\n'
            b'    "transactions": ""\n'
            b'  },\n'
            b'  "version": 1,\n'
            b'  "warnings": [\n'
            b'    "w2",\n'
            b'    "w1"\n'
            b'  ]\n'
            b'}\n')

    def test_manifest_records_warnings(self, run):
        _, result = run
        with open(result.manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        for w in result.warnings:
            assert w in payload["warnings"]


class TestIterationCapWarnings:
    """A k-means fit that hits its sweep cap, or a DBA update that hits its inner
    cap, leaves a ``cluster:`` line in the manifest warnings; a linear fit
    stopped at its Newton step cap leaves a ``train:`` line for a CV fit and
    an ``explain:`` line for a final fit."""

    def _warnings(self, data_dir, tmp_path, command, config) -> list[str]:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        out = tmp_path / "out"
        rc = cli.main([command, "--transactions", data_dir["transactions"],
                       "--events", data_dir["events"], "--config", str(cfg_path),
                       "--seed", "11", "--out", str(out)])
        assert rc == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            return json.load(fh)["warnings"]

    def _cluster(self, data_dir, tmp_path) -> list[str]:
        return self._warnings(data_dir, tmp_path, "cluster", "metric = dtw\ninterval = monthly\n")

    def test_default_caps_do_not_fire(self, run, data_dir, tmp_path):
        _, result = run
        assert not [w for w in result.warnings if "cap" in w]
        assert not [w for w in self._cluster(data_dir, tmp_path) if "cap" in w]

    # (the function that stops at the cap, the lowered cap, the warning text)
    @pytest.mark.parametrize("name, force, needle", [
        ("ch_scan", {"_MAX_SWEEPS": 1}, "sweeps (max_iter cap)"),
        ("ch_scan", {"_MAX_SWEEPS": 2}, "sweeps (max_iter cap)"),
        ("_dba_update", {"_MAX_DBA_STEPS": 1}, "stopped at the inner-iteration cap"),
    ])
    def test_forced_cap_is_a_manifest_warning(self, data_dir, tmp_path, monkeypatch,
                                              name, force, needle):
        for constant, value in force.items():
            monkeypatch.setattr(tscluster, constant, value)
        hits = [w for w in self._cluster(data_dir, tmp_path) if needle in w]
        assert hits
        assert all(w.startswith("cluster: scope ") for w in hits)

    def test_forced_newton_cap_is_a_manifest_warning(self, data_dir, tmp_path, monkeypatch):
        # every CV fold fit and final fit of both linear families stops at
        # the cap: one line each, tagged with its stage, scope and case
        monkeypatch.setattr(models, "_NEWTON_STEPS", 1)
        families = ("linear_svm", "logistic_regression")
        got = self._warnings(data_dir, tmp_path, "explain",
                             f"models = {','.join(families)}\nexplain_rows = 2\n")
        hits = [w for w in got if "Newton step cap" in w]
        want = [f"train: scope network case {case}: {alg} stopped at the Newton step cap (1 steps)"
                for case in featureset.CASES for alg in families for _ in range(10)]
        assert [w for w in hits if w.startswith("train: ")] == want
        final = [w for w in hits if w.startswith("explain: ")]
        assert [w.split(": ")[1] for w in final] == [
            f"scope network case {case}" for case in sorted(featureset.CASES)]
        assert all(w.endswith(" stopped at the Newton step cap (1 steps)") for w in final)

    def test_degenerate_folds_are_manifest_warnings(self, data_dir, tmp_path, monkeypatch):
        # a job with one positive: the fold that tests it trains on one class
        real = featureset.ScopeFeatures.rows
        labels = {}

        def one_positive(table, case=None):
            X, y, users = real(table, case)
            labels[case] = (np.arange(y.size) == 0).astype(int)
            return X, labels[case], users

        monkeypatch.setattr(featureset.ScopeFeatures, "rows", one_positive)
        families = ("logistic_regression", "naive_bayes")
        got = self._warnings(data_dir, tmp_path, "train", f"models = {','.join(families)}\n")
        want = []
        for case in featureset.CASES:
            folds = models.stratified_folds(labels[case], 10, 11)
            [fold] = [f for f, test_idx in enumerate(folds) if 0 in test_idx]
            want += [f"train: scope network case {case}: {alg} folds [{fold}] trained on one "
                     "class (constant predictor)" for alg in families]
        assert [w for w in got if "trained on one class" in w] == want


# ---------------------------------------------------------------------------
# best-model selection rule

def _report(alg: str, accuracy: float) -> models.EvalReport:
    return models.EvalReport(
        algorithm=alg, k=10, seed=0, fold_accuracy=(), fold_f1=(),
        mean_accuracy=accuracy, std_accuracy=0.0, mean_f1=0.0, std_f1=0.0,
        confusion={})


class TestBestAlgorithmRule:
    def test_highest_accuracy_wins(self):
        rows = [("naive_bayes", "c", _report("naive_bayes", 0.9)),
                ("gbdt", "c", _report("gbdt", 0.8))]
        assert pipeline._best_algorithm(rows, "c") == "naive_bayes"

    def test_exact_tie_prefers_boosted_trees(self):
        rows = [("naive_bayes", "c", _report("naive_bayes", 0.9)),
                ("gbdt", "c", _report("gbdt", 0.9)),
                ("linear_svm", "c", _report("linear_svm", 0.9))]
        assert pipeline._best_algorithm(rows, "c") == "gbdt"

    def test_tie_without_boosted_trees_is_alphabetical(self):
        rows = [("random_forest", "c", _report("random_forest", 0.7)),
                ("logistic_regression", "c", _report("logistic_regression", 0.7))]
        assert pipeline._best_algorithm(rows, "c") == "logistic_regression"

    def test_only_matching_case_rows_count(self):
        rows = [("gbdt", "other", _report("gbdt", 1.0)),
                ("linear_svm", "c", _report("linear_svm", 0.6))]
        assert pipeline._best_algorithm(rows, "c") == "linear_svm"


# ---------------------------------------------------------------------------
# command-line interface

class TestCLI:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = cli.main(["synth", "--heroes", "8", "--regulars", "2", "--weeks", "9",
                       "--communities", "2", "--noise", "0.0", "--seed", "4",
                       "--out", str(out)])
        assert rc == 0
        for fname in ("transactions.csv", "events.csv", "truth.csv"):
            assert (out / fname).stat().st_size > 0
        assert "8 heroes" in capsys.readouterr().out

    def test_synth_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = cli.main(["synth", "--seed", "-1", "--heroes", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_synth_rejects_malformed_signal(self):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--signal", "no-equals-sign"])

    def test_synth_has_no_config_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["synth", "--config", str(tmp_path / "x.cfg"),
                      "--out", str(tmp_path / "synth")])
        assert exit_.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    def test_ingest_reports_clean_files(self, data_dir, tmp_path, capsys):
        rc = cli.main(["ingest", "--transactions", data_dir["transactions"],
                       "--events", data_dir["events"], "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 rejected" in out
        assert "events:" in out

    def test_ingest_strict_fails_on_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text(
            "item_id,lister_id,collector_id,listed_at,collected_at\n"
            "i1,a,b,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n"
            "i2,a,b,not-a-date,2022-01-02T01:00:00Z\n")
        rc = cli.main(["ingest", "--transactions", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "[ingest]" in capsys.readouterr().err

    def test_ingest_lenient_drops_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_text(
            "item_id,lister_id,collector_id,listed_at,collected_at\n"
            "i1,a,b,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z\n"
            "i2,a,b,not-a-date,2022-01-02T01:00:00Z\n")
        out = tmp_path / "out"
        rc = cli.main(["ingest", "--lenient", "--transactions", str(path), "--out", str(out)])
        assert rc == 0
        assert "1 rejected" in capsys.readouterr().out
        with open(out / "manifest.json", encoding="utf-8") as fh:
            warnings = json.load(fh)["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"ingest: dropped {path} line 3: ")

    def test_ingest_lenient_drops_jsonl_lines_the_decoder_cannot_take(self, tmp_path, capsys):
        # too long an integer literal raises ValueError and too deep a nesting
        # RecursionError, not JSONDecodeError; each drops just its line
        row = ('{"item_id": "i1", "lister_id": "a", "collector_id": "b", '
               '"listed_at": "2022-01-01T00:00:00Z", "collected_at": "2022-01-01T01:00:00Z"}')
        path = tmp_path / "tx.jsonl"
        path.write_text("\n".join([row, "1" * 5000, "[" * 100_000]) + "\n")
        out = tmp_path / "out"
        rc = cli.main(["ingest", "--lenient", "--format", "jsonl", "--transactions", str(path),
                       "--out", str(out)])
        assert rc == 0
        assert "2 rejected" in capsys.readouterr().out
        with open(out / "manifest.json", encoding="utf-8") as fh:
            warnings = json.load(fh)["warnings"]
        assert [w.split(": ", 2)[1] for w in warnings] == [
            f"dropped {path} line 2", f"dropped {path} line 3"]
        reasons = [w.split(": ", 2)[2] for w in warnings]
        assert reasons[0].startswith("invalid JSON: Exceeds the limit (4300 digits)")
        assert reasons[1].startswith("invalid JSON: maximum recursion depth exceeded")

    def test_communities_with_config_file_and_flag_override(self, tmp_path, data_dir, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"transactions = {data_dir['transactions']}\n"
                            f"out = {tmp_path / 'ignored'}\n")
        out = tmp_path / "chosen"
        rc = cli.main(["communities", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        assert (out / "partition.csv").stat().st_size > 0
        assert (out / "edges.csv").stat().st_size > 0
        assert not (tmp_path / "ignored").exists()
        assert "communities over" in capsys.readouterr().out

    def test_behavior_emits_series(self, tmp_path, data_dir, capsys):
        out = tmp_path / "behave"
        rc = cli.main(["behavior", "--transactions", data_dir["transactions"],
                       "--out", str(out)])
        assert rc == 0
        assert (out / "dr_series_network.csv").stat().st_size > 0
        assert "donors-ratio series" in capsys.readouterr().out

    def test_cluster_summarizes_each_scope(self, tmp_path, data_dir, capsys):
        out = tmp_path / "clusters"
        rc = cli.main(["cluster", "--transactions", data_dir["transactions"],
                       "--seed", "11", "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.json").stat().st_size > 0
        text = capsys.readouterr().out
        assert "scope network: 40 users, chose k=4" in text

    @pytest.mark.parametrize("command, written, absent", [
        ("ingest", None, "partition.csv"),
        ("communities", "edges.csv", "dr_series_network.csv"),
        ("behavior", "dr_series_network.csv", "clusters_network.csv"),
        ("cluster", "clusters_network.csv", "features_network.csv"),
        ("features", "features_network.csv", "eval_network.csv"),
        ("train", "eval_network.csv", "model_network_starting_high.json"),
        ("explain", "importance_network_starting_high.svg", "edges.csv"),
        ("run-all", "importance_network_starting_high.svg", "edges.csv"),
    ])
    def test_stage_cap_stops_after_its_stage(self, command, written, absent,
                                             tmp_path, data_dir):
        """Every data subcommand writes exactly what its manifest declares."""
        cfg_file = tmp_path / "fast.cfg"
        cfg_file.write_text("models = naive_bayes,logistic_regression\n"
                            "n_permutations = 100\nexplain_rows = 2\n")
        out = tmp_path / command
        rc = cli.main([command, "--transactions", data_dir["transactions"],
                       "--events", data_dir["events"], "--config", str(cfg_file),
                       "--seed", "11", "--out", str(out)])
        assert rc == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            declared = json.load(fh)["artifacts"]
        assert (written in declared if written else not declared) and absent not in declared
        assert sorted(os.listdir(out)) == sorted([*declared, "manifest.json"])
        series = [name for name in declared if name.startswith("dr_series_")]
        assert len(series) == (0 if command in ("ingest", "communities") else 3)

    def test_bad_config_file_is_reported_not_raised(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("who knows\n")
        rc = cli.main(["cluster", "--config", str(cfg_file)])
        assert rc == 2
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_stage_errors_exit_with_status_two(self, tmp_path, capsys):
        rc = cli.main(["communities", "--transactions", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "[ingest]" in capsys.readouterr().err
