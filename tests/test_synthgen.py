"""Tests for the seeded synthetic-network generator."""

from __future__ import annotations

import hashlib
from collections import Counter
from datetime import timedelta

import pytest

from volnet import cli, ingest, synthgen
from volnet.behavior import dr_series
from volnet.ingest import select_active_key_users
from volnet.synthgen import (
    BREAK_WEEK,
    CHANGING,
    SynthConfig,
    TEMPLATE_LEVELS,
    adjusted_rand_index,
    generate,
    template_dr,
    write_dataset,
    write_truth_csv,
)
from volnet.tscluster import ARCHETYPES

from ingest_reference import event_rows, transaction_rows


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.n_heroes == 200

    @pytest.mark.parametrize("kwargs", [
        {"n_heroes": 0},
        {"weeks": 7},
        {"community_count": 0},
        {"n_regulars_per_hero": 0},
        {"noise_sd": -0.1},
        {"n_heroes": 3},  # fewer heroes than archetypes
        {"noise_sd": float("nan")},
        {"feature_signal": {"likes_count": 1000.0}},  # exp overflows
        {"feature_signal": {"unknown_count": 1.0}},
        {"seed": -1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("args, field", [
        (["--noise", "nan"], "noise_sd"),
        (["--noise", "inf"], "noise_sd"),
        (["--signal", "messages_count=nan"], "messages_count"),
        (["--signal", "likes_count=-inf"], "likes_count"),
        (["--signal", "rating_current=inf"], "rating_current"),
        (["--signal", "messages_count=1000"], "messages_count"),  # exp overflows
    ])
    def test_non_finite_knobs_exit_2_naming_the_field(self, tmp_path, capsys, args, field):
        assert cli.main(["synth", "--heroes", "4", "--out", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_largest_finite_rate_effect_is_accepted(self):
        cfg = SynthConfig(feature_signal={"messages_count": synthgen._MAX_EXPONENT})
        assert cfg.feature_signal["messages_count"] == synthgen._MAX_EXPONENT

    def test_rating_level_signal_is_allowed(self):
        cfg = SynthConfig(feature_signal={"rating_current": -2.0})
        assert cfg.feature_signal["rating_current"] == -2.0


def planted_counts(n_heroes: int) -> Counter:
    truth = generate(SynthConfig(n_heroes=n_heroes, weeks=8, n_regulars_per_hero=1))[2]
    return Counter(t.archetype for t in truth.values())


class TestAllocation:
    """Heroes split equally over the archetypes; the first ``n % 4`` in
    ``ARCHETYPES`` order take one more (largest remainder, ties in order)."""

    def test_largest_remainder_with_ties(self):
        for n_heroes in range(4, 10):
            share, extra = divmod(n_heroes, 4)
            assert planted_counts(n_heroes) == {a: share + (i < extra)
                                                for i, a in enumerate(ARCHETYPES)}
        assert planted_counts(10) == {"FPD": 3, "SAD": 3, "FAD": 2, "SPD": 2}

    def test_exact_split(self):
        assert planted_counts(8) == {a: 2 for a in TEMPLATE_LEVELS}

    def test_infeasible_mix_rejected(self):
        with pytest.raises(ValueError, match="n_heroes must be >= 4"):
            generate(SynthConfig(n_heroes=3))


class TestTemplate:
    def test_flat_before_the_break(self):
        for week in range(BREAK_WEEK):
            assert template_dr("FPD", week, 52) == 0.90
            assert template_dr("FAD", week, 52) == 0.15

    def test_reaches_end_level_at_final_week(self):
        assert template_dr("FPD", 51, 52) == pytest.approx(0.20)
        assert template_dr("FAD", 51, 52) == pytest.approx(0.80)

    def test_linear_in_between(self):
        mid = (BREAK_WEEK + 51) / 2
        want = (0.90 + 0.20) / 2
        assert template_dr("FPD", int(mid), 52) == pytest.approx(want, abs=0.01)

    def test_stable_archetypes_never_move(self):
        for week in range(52):
            assert template_dr("SAD", week, 52) == 0.85
            assert template_dr("SPD", week, 52) == 0.15

    def test_short_horizon_stays_at_start(self):
        # With no room after the breakpoint the template cannot ramp.
        assert template_dr("FAD", 12, 13) == 0.15


def tiny_config(**overrides) -> SynthConfig:
    base = dict(n_heroes=8, weeks=16, community_count=2, noise_sd=0.0, seed=3)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_deterministic_per_seed(self):
        log1, ev1, truth1 = generate(tiny_config())
        log2, ev2, truth2 = generate(tiny_config())
        assert transaction_rows(log1) == transaction_rows(log2)
        assert event_rows(ev1) == event_rows(ev2)
        assert truth1 == truth2

    def test_different_seeds_differ(self):
        log1, _, _ = generate(tiny_config(seed=1))
        log2, _, _ = generate(tiny_config(seed=2))
        assert transaction_rows(log1) != transaction_rows(log2)

    def test_truth_covers_heroes_with_round_robin_communities(self):
        _, _, truth = generate(tiny_config())
        assert sorted(truth) == [f"hero{i:04d}" for i in range(8)]
        for i in range(8):
            assert truth[f"hero{i:04d}"].community == i % 2
        mix = Counter(rec.archetype for rec in truth.values())
        assert mix == {a: 2 for a in TEMPLATE_LEVELS}

    def test_every_hero_spans_a_year(self):
        log, _, truth = generate(tiny_config())
        for hero in truth:
            times = [t.collected_at for t in transaction_rows(log)
                     if hero in (t.lister_id, t.collector_id)]
            assert max(times) - min(times) >= timedelta(days=365)

    def test_heroes_pass_the_activity_filter(self, small_synth):
        log, _, truth = small_synth
        assert select_active_key_users(log, frozenset(truth)) == frozenset(truth)

    def test_closing_transaction_to_first_regular(self):
        log, _, truth = generate(tiny_config())
        for i, hero in enumerate(sorted(truth)):
            t0 = min(t.collected_at for t in transaction_rows(log)
                     if hero in (t.lister_id, t.collector_id))
            closing = [t for t in transaction_rows(log)
                       if t.lister_id == hero
                       and t.collected_at == t0 + timedelta(days=372)]
            assert len(closing) == 1
            assert closing[0].collector_id == f"reg{i:04d}x0"

    def test_partner_wiring_favors_home_community(self):
        cfg = tiny_config(n_heroes=20, weeks=10, seed=5)
        log, _, truth = generate(cfg)
        home = cross = 0
        for t in transaction_rows(log):
            hero, partner = ((t.lister_id, t.collector_id)
                             if t.lister_id.startswith("hero")
                             else (t.collector_id, t.lister_id))
            reg_owner = int(partner[3:7])
            if reg_owner % cfg.community_count == truth[hero].community:
                home += 1
            else:
                cross += 1
        frac_cross = cross / (home + cross)
        assert 0.03 <= frac_cross <= 0.20

    def test_noise_free_series_tracks_the_template(self):
        cfg = SynthConfig(n_heroes=4, weeks=52, community_count=1, noise_sd=0.0, seed=7)
        log, _, truth = generate(cfg)
        [hero] = [hero for hero, t in truth.items() if t.archetype == "SAD"]
        series = dr_series(hero, log)
        assert not any(series.imputed_mask)
        for value in series.values:
            # round(dr * n) / n for n in 6..12 stays within 1/12 of dr
            assert abs(value - 0.85) <= 0.5 / 6 + 1e-9

    def test_events_sit_inside_the_cutoff_window(self):
        log, events, truth = generate(tiny_config())
        t0 = {h: min(t.collected_at for t in transaction_rows(log)
                     if h in (t.lister_id, t.collector_id)) for h in truth}
        assert len(events) > 0
        for e in event_rows(events):
            assert e.user_id in truth
            assert t0[e.user_id] <= e.at <= t0[e.user_id] + timedelta(days=84)
            if e.kind == "rating":
                assert 0.0 <= e.value <= 10.0
            else:
                assert e.value is None

    def test_planted_message_signal_separates_outcomes(self, small_synth):
        _, events, truth = small_synth
        messages = Counter()
        for e in event_rows(events):
            if e.kind == "message":
                messages[e.user_id] += 1
        changing = [messages[h] for h, rec in truth.items() if rec.archetype in CHANGING]
        stable = [messages[h] for h, rec in truth.items() if rec.archetype not in CHANGING]
        assert sum(changing) / len(changing) < 0.6 * (sum(stable) / len(stable))


class TestAdjustedRandIndex:
    def test_identical_up_to_renaming(self):
        a = {"u1": 0, "u2": 0, "u3": 1, "u4": 2}
        b = {"u1": "x", "u2": "x", "u3": "y", "u4": "z"}
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_trivial_versus_balanced_is_zero(self):
        a = {f"u{i}": 0 for i in range(8)}
        b = {f"u{i}": i % 4 for i in range(8)}
        assert adjusted_rand_index(a, b) == pytest.approx(0.0)

    def test_frozen_negative_example(self):
        a = {"u1": 0, "u2": 0, "u3": 1, "u4": 1}
        b = {"u1": 0, "u2": 1, "u3": 0, "u4": 1}
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5)

    def test_both_trivial_is_one(self):
        a = {"u1": 0, "u2": 0}
        b = {"u1": 5, "u2": 5}
        assert adjusted_rand_index(a, b) == 1.0

    def test_mismatched_elements_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index({"u1": 0}, {"u2": 0})
        with pytest.raises(ValueError):
            adjusted_rand_index({}, {})


#: sha256 of the files ``volnet synth --seed 7 --heroes 20`` writes, per format
PINNED_SHA256 = {
    "csv": {
        "transactions.csv": "c5eb60ec410ca30375ea6580e366975e8a7ad277d8b83277b9fbc57fc8bd7cb7",
        "events.csv": "4c2bdb1233c17a54efbbe202ebab52d552122528507ff30a15303c0f47f87d22",
        "truth.csv": "6cd6a527cd885e092e784889fc3cd17d77935756d053bb42b57d81e66ba0e513",
    },
    "jsonl": {
        "transactions.jsonl": "3e80233e10e31a681fb2127da84a2b6dccd0f313d13996613c459734475d0981",
        "events.jsonl": "8c1090ea8a0fef1c775e7099d33a6155e3b80b46d002e9665347910346405128",
        "truth.csv": "6cd6a527cd885e092e784889fc3cd17d77935756d053bb42b57d81e66ba0e513",
    },
}


class TestWriters:
    def test_truth_csv(self, tmp_path):
        truth = {"b": synthgen.PlantedTruth("SAD", 1),
                 "a": synthgen.PlantedTruth("FPD", 0)}
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, str(path))
        assert path.read_bytes() == b"user_id,archetype,community\r\na,FPD,0\r\nb,SAD,1\r\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_synth_outputs_are_pinned(self, tmp_path, fmt):
        # the generator's rng stream and the canonical writers, byte for byte
        out = tmp_path / fmt
        assert cli.main(["synth", "--seed", "7", "--heroes", "20", "--format", fmt,
                         "--out", str(out)]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256[fmt]}
        assert got == PINNED_SHA256[fmt]

    @pytest.mark.parametrize("flags, config, write_kwargs", [
        ([], SynthConfig(), {}),
        (["--seed", "3", "--heroes", "9", "--regulars", "2", "--weeks", "10", "--communities", "3",
          "--noise", "0.2", "--signal", "likes_count=0.5", "--signal", "rating_current=-1",
          "--format", "jsonl"],
         SynthConfig(seed=3, n_heroes=9, n_regulars_per_hero=2, weeks=10, community_count=3,
                     noise_sd=0.2, feature_signal={"likes_count": 0.5, "rating_current": -1.0}),
         {"fmt": "jsonl"}),
    ])
    def test_synth_flags_are_synth_config_knobs(self, tmp_path, flags, config, write_kwargs):
        # a flag not given keeps SynthConfig's default, and write_dataset's format
        assert cli.main(["synth", *flags, "--out", str(tmp_path / "cli")]) == 0
        write_dataset(str(tmp_path / "api"), *generate(config), **write_kwargs)
        names = sorted(p.name for p in (tmp_path / "api").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    def test_csv_and_jsonl_of_a_seed_parse_alike(self, tmp_path, monkeypatch):
        # the two parsers agree on real data, and both read it column-first,
        # over more than one chunk, with no chunk read line by line and every
        # stamp canonical: none goes through the scalar grammar
        read_per_line, jsonl_lines = [], ingest._jsonl_lines
        monkeypatch.setattr(ingest, "_jsonl_lines", lambda *args: (
            read_per_line.append(args[1]) or jsonl_lines(*args)))
        scalar_parses, parse_timestamp = [], ingest.parse_timestamp
        monkeypatch.setattr(ingest, "parse_timestamp", lambda text: (
            scalar_parses.append(text) or parse_timestamp(text)))
        logs = {}
        for fmt in ("csv", "jsonl"):
            out = tmp_path / fmt
            assert cli.main(["synth", "--seed", "5", "--heroes", "20", "--format", fmt,
                             "--out", str(out)]) == 0
            logs[fmt] = (ingest.parse_transactions(str(out / f"transactions.{fmt}"), fmt),
                         ingest.parse_events(str(out / f"events.{fmt}"), fmt))
        assert read_per_line == []
        assert scalar_parses == []
        assert len(logs["jsonl"][0]) > ingest._CHUNK_LINES
        assert logs["csv"] == logs["jsonl"]

    @pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("jsonl", "jsonl")])
    def test_dataset_round_trip(self, tmp_path, fmt, ext):
        log, events, truth = generate(tiny_config(n_heroes=4, weeks=8))
        paths = write_dataset(str(tmp_path / "data"), log, events, truth, fmt=fmt)
        assert paths["transactions"].endswith(f"transactions.{ext}")
        back_log = ingest.parse_transactions(paths["transactions"], fmt=fmt)
        back_events = ingest.parse_events(paths["events"], fmt=fmt)
        assert transaction_rows(back_log) == transaction_rows(log)
        assert event_rows(back_events) == event_rows(events)
