"""Experiment pipeline tests: config parsing, planning, artifacts."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import esdgait.experiments as ex
import esdgait.forest as forest
import esdgait.io as eio
from esdgait.dsp import MfccConfig
from esdgait.errors import ValidationError
from esdgait.simkit import SignalRecord

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def walk_config_dict(**overrides) -> dict:
    base = {
        "seed": 11,
        "task": "identify_person",
        "cv_folds": 4,
        "dataset": {
            "persons": {
                "ada": {"step_frequency": 1.2, "walking_speed": 1.1},
                "ben": {"step_frequency": 1.5, "walking_speed": 1.2},
            },
            "plant_types": ["pothos", "ficus"],
            "locations": ["lab", "office"],
            "samples_per_cell": 4,
            "noise_std": 0.0,
        },
        "forest": {"n_estimators": 10},
    }
    base.update(overrides)
    return base


def bad(path: str, value):
    """Config mutation setting the dotted `path` to `value`, creating missing
    sections; the rejection must name every part of the path."""

    def mutate(raw: dict) -> None:
        *sections, key = path.split(".")
        for name in sections:
            raw = raw.setdefault(name, {})
        raw[key] = value

    mutate.__name__ = f"{path}={value!r}"
    mutate.path = path
    return mutate


def sine_record(freq: float, n: int = 5000, sample_rate: float = 10_000.0, **labels) -> SignalRecord:
    t = np.arange(n) / sample_rate
    samples = np.sin(2.0 * math.pi * freq * t)
    return SignalRecord(samples=samples, sample_rate=sample_rate, labels=labels)


def write_dataset(tmp_path, records) -> str:
    (tmp_path / "records").mkdir(exist_ok=True)
    entries = []
    for i, record in enumerate(records):
        signal_rel = f"records/r{i}.sig.csv"
        meta_rel = f"records/r{i}.meta.json"
        eio.write_record(record, tmp_path / signal_rel, tmp_path / meta_rel)
        entries.append({"signal_path": signal_rel, "meta_path": meta_rel})
    manifest = tmp_path / "dataset.json"
    eio.write_manifest(manifest, entries)
    return manifest


class TestConfigParsing:
    def test_minimal_walk_config(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        assert cfg.seed == 11
        assert cfg.task == "identify_person"
        assert cfg.cv_folds == 4
        assert isinstance(cfg.dataset, ex.WalkCohort)
        assert cfg.forest_params.n_estimators == 10
        assert cfg.forest_params.seed == 11  # inherits the experiment seed

    def test_explicit_forest_seed_wins(self):
        cfg = ex.ExperimentConfig.from_dict(
            walk_config_dict(forest={"n_estimators": 10, "seed": 999})
        )
        assert cfg.forest_params.seed == 999

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("seed"),
            lambda d: d.update(seed=-1),
            lambda d: d.update(seed=True),
            lambda d: d.pop("task"),
            lambda d: d.update(task="recognize_cats"),
            lambda d: d.update(cv_folds=1),
            lambda d: d.update(include_categoricals="yes"),
            lambda d: d.update(unexpected=1),
            lambda d: d["dataset"].update(samples_per_cell=0),
            lambda d: d["dataset"].update(noise_std=-0.5),
            lambda d: d["dataset"].update(plant_types=[]),
            lambda d: d["dataset"].update(start_distance=0.0),
            lambda d: d["dataset"].update(frequency_jitter=0.9),
            lambda d: d["dataset"].update(surprise=1),
            lambda d: d["dataset"].update(persons={}),
            lambda d: d["dataset"]["persons"].update(eve={"pace": 2.0}),
            lambda d: d.update(mfcc={"n_mfcc": 20, "bogus": 1}),
            lambda d: d.update(forest={"n_trees": 10}),
            bad("forest.bootstrap", "no"),
            bad("forest", [1, 2]),
            bad("forest.seed", -3),
            bad("forest_params", {}),
            bad("dataset.noise_std", True),
            bad("dataset.noise_std", "abc"),
            bad("dataset.noise_std", None),
            bad("dataset.noise_std", math.nan),
            bad("dataset.frequency_jitter", "0.1"),
            bad("dataset.start_distance", [1]),
            bad("dataset.samples_per_cell", 2.0),
            bad("dataset.plant_types", "pothos"),
            bad("dataset.persons.ada.step_frequency", "1.1"),
            bad("dataset.moods.happy.speed_factor", "1.25"),
            bad("detector.min_consecutive_windows", 2.5),
            bad("detector.window_seconds", "1"),
            bad("mfcc.n_mfcc", 12.5),
            bad("mfcc.fmax", "high"),
        ],
    )
    def test_invalid_configs_rejected(self, mutate):
        raw = walk_config_dict()
        mutate(raw)
        with pytest.raises(ValidationError) as info:
            ex.ExperimentConfig.from_dict(raw)
        for part in getattr(mutate, "path", "").split("."):
            assert part in str(info.value)

    def test_int_for_float_field_is_stored_as_float(self):
        raw = walk_config_dict(mfcc={"fmin": 0})
        raw["dataset"]["persons"]["ada"]["walking_speed"] = 1
        cfg = ex.ExperimentConfig.from_dict(raw)
        assert type(cfg.mfcc.fmin) is float
        assert type(cfg.dataset.persons["ada"].walking_speed) is float
        assert cfg.mfcc.to_dict()["fmin"] == 0.0

    def test_non_object_config_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            ex.ExperimentConfig.from_dict([1, 2])

    def test_mood_section_parsed(self):
        raw = walk_config_dict(task="classify_mood")
        raw["dataset"]["moods"] = {
            "happy": {"speed_factor": 1.25, "amplitude_factor": 1.2, "step_frequency_factor": 1.1},
            "sad": {"speed_factor": 0.8, "amplitude_factor": 0.8, "step_frequency_factor": 0.9},
        }
        cfg = ex.ExperimentConfig.from_dict(raw)
        assert set(cfg.dataset.moods) == {"happy", "sad"}
        assert cfg.dataset.moods["happy"].speed_factor == 1.25

    def test_identity_mood_maps_to_none(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        assert cfg.dataset.moods == {"neutral": None}

    def test_unknown_mood_key_rejected(self):
        raw = walk_config_dict()
        raw["dataset"]["moods"] = {"happy": {"speediness": 2.0}}
        with pytest.raises(ValidationError):
            ex.ExperimentConfig.from_dict(raw)

    def test_search_section(self):
        raw = walk_config_dict(search={"n_iter": 3, "space": {"n_estimators": [5, 10]}})
        cfg = ex.ExperimentConfig.from_dict(raw)
        assert cfg.search.n_iter == 3
        assert cfg.search.space == {"n_estimators": [5, 10]}

    def test_search_defaults_to_builtin_space(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict(search={"n_iter": 2}))
        assert cfg.search.space.keys() == forest.DEFAULT_SEARCH_SPACE.keys()

    @pytest.mark.parametrize(
        "section",
        [
            {"n_iter": 0},
            {"n_iter": 2, "space": {"seed": [1, 2]}},
            {"n_iter": 2, "space": {"learning_rate": [0.1]}},
            {"n_iter": 2, "space": {"n_estimators": []}},
            {"n_iter": 2, "extra": 1},
            {"n_iter": 2, "space": {"max_features": [2.5]}},
            {"n_iter": 2, "space": {"bootstrap": "no"}},
            {"n_iter": 2, "space": {"min_samples_split": [1]}},
        ],
    )
    def test_bad_search_sections_rejected(self, section):
        with pytest.raises(ValidationError):
            ex.ExperimentConfig.from_dict(walk_config_dict(search=section))

    def test_shake_dataset_parsed(self):
        cfg = ex.ExperimentConfig.from_dict({
            "seed": 3,
            "task": "legshake",
            "dataset": {
                "shake_frequencies": [5.0, 6.0],
                "onsets": [1.0, 2.0],
                "duration": 6.0,
                "snr_db": 10.0,
                "samples_per_cell": 2,
                "noise_only": 3,
            },
        })
        assert isinstance(cfg.dataset, ex.ShakeCohort)
        assert cfg.dataset.noise_only == 3

    @pytest.mark.parametrize(
        "section",
        [
            {"shake_frequencies": [], "onsets": [1.0]},
            {"shake_frequencies": [5.5], "onsets": []},
            {"shake_frequencies": [5.5], "onsets": [7.0], "duration": 6.0},
            {"shake_frequencies": [5.5], "onsets": [1.0], "samples_per_cell": 0},
            {"shake_frequencies": [5.5], "onsets": [1.0], "samples_per_cell": 1, "noise_only": 2},
            {"onsets": [1.0], "shake_frequencies": 5},
            {"onsets": [1.0], "shake_frequencies": ["x"]},
            {"shake_frequencies": [5.5], "onsets": [1.0], "snr_db": "x"},
            {"shake_frequencies": [5.5], "onsets": [1.0], "duration": None},
            {"shake_frequencies": [5.5], "onsets": None},
            {"shake_frequencies": [5.5], "onsets": [1.0], "noise_only": True},
        ],
    )
    def test_bad_shake_sections_rejected(self, section):
        offending = list(section)[-1]  # each section writes its bad key last
        section.setdefault("samples_per_cell", 1)
        with pytest.raises(ValidationError, match=offending):
            ex.ExperimentConfig.from_dict({"seed": 3, "task": "legshake", "dataset": section})

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("mood", "0240b442ccd9eff218c9a1a6cb83568510f3788774ef3574e88f751768976480"),
            ("persons", "347507e276e75bcb94cd45c37b988615e97aaeeb698306d97fd7d36c62ec499c"),
            ("legshake", "e5a78a0f1e8058e2d88ae7c6fa411438f122cfbc805169e5a714e079ffc031ca"),
        ],
    )
    def test_shipped_configs_decode_unchanged(self, name, digest):
        cfg = ex.load_config(CONFIGS / f"{name}.json")
        blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_load_config_seed_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(walk_config_dict()))
        assert ex.load_config(path).seed == 11
        assert ex.load_config(path, seed_override=77).seed == 77

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            ex.load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            ex.load_config(tmp_path / "absent.json")


class TestPlanning:
    def test_walk_plan_grid(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        plans = ex.build_plans(cfg)
        assert len(plans) == 2 * 1 * 4  # persons x moods x reps
        assert [p.index for p in plans] == list(range(8))
        assert {p.person_id for p in plans} == {"ada", "ben"}

    def test_walk_plans_deterministic(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        assert ex.build_plans(cfg) == ex.build_plans(cfg)

    def test_direction_alternates_between_reps(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        plans = [p for p in ex.build_plans(cfg) if p.person_id == "ada"]
        starts = [p.start_distance for p in plans]
        assert starts == [3.0, 0.6, 3.0, 0.6]

    def test_jitter_stays_within_bounds(self):
        raw = walk_config_dict()
        raw["dataset"]["frequency_jitter"] = 0.02
        raw["dataset"]["samples_per_cell"] = 30
        cfg = ex.ExperimentConfig.from_dict(raw)
        for plan in ex.build_plans(cfg):
            base = cfg.dataset.persons[plan.person_id]
            assert abs(plan.gait.step_frequency / base.step_frequency - 1.0) <= 0.02
            assert abs(plan.gait.walking_speed / base.walking_speed - 1.0) <= 0.02
            assert plan.plant_type in cfg.dataset.plant_types
            assert plan.location in cfg.dataset.locations
            assert 0.0 <= plan.schedule_phase <= 1.0 / plan.gait.step_frequency

    def test_plan_seeds_are_distinct(self):
        raw = walk_config_dict()
        raw["dataset"]["samples_per_cell"] = 25
        cfg = ex.ExperimentConfig.from_dict(raw)
        seeds = [p.noise_seed for p in ex.build_plans(cfg)]
        assert len(set(seeds)) == len(seeds)

    def test_shake_plan_grid_with_noise_records(self):
        cfg = ex.ExperimentConfig.from_dict({
            "seed": 3,
            "task": "legshake",
            "dataset": {
                "shake_frequencies": [5.0, 6.0],
                "onsets": [1.0],
                "duration": 6.0,
                "snr_db": 10.0,
                "samples_per_cell": 2,
                "noise_only": 3,
            },
        })
        plans = ex.build_plans(cfg)
        assert len(plans) == 2 * 1 * 2 + 3
        assert sum(isinstance(p, ex.NoisePlan) for p in plans) == 3
        noise_std = {p.noise_std for p in plans if isinstance(p, ex.NoisePlan)}
        assert len(noise_std) == 1 and noise_std.pop() > 0

    def test_build_plans_requires_dataset(self):
        cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        with pytest.raises(ValidationError):
            ex.build_plans(cfg)


class TestSynthesis:
    def test_walk_record_labels_complete(self):
        cfg = ex.ExperimentConfig.from_dict(walk_config_dict())
        record = ex.synthesize_record(ex.build_plans(cfg)[0])
        labels = record.labels
        assert labels["person_id"] == "ada"
        assert labels["mood"] == "neutral"
        assert labels["activity"] == "walk"
        assert labels["plant_type"] in ("pothos", "ficus")
        assert set(labels["generator_params"]) >= {
            "step_frequency", "walking_speed", "duration", "schedule_phase",
        }

    def test_shake_record_noise_matches_snr(self):
        cfg = ex.ExperimentConfig.from_dict({
            "seed": 3,
            "task": "legshake",
            "dataset": {
                "shake_frequencies": [5.5],
                "onsets": [2.0],
                "duration": 6.0,
                "snr_db": 10.0,
                "samples_per_cell": 1,
            },
        })
        plan = ex.build_plans(cfg)[0]
        record = ex.synthesize_record(plan)
        params = record.labels["generator_params"]
        clean = ex.synthesize_record(
            ex.ShakePlan(index=0, shake_frequency=5.5, onset=2.0, duration=6.0,
                         snr_db=None, noise_seed=0)
        )
        post = clean.samples[int(2.0 * clean.sample_rate):]
        rms = float(np.sqrt(np.mean(post**2)))
        assert params["noise_std"] == pytest.approx(rms / math.sqrt(10.0), rel=1e-9)


class TestFeaturize:
    def test_label_routing_by_task(self, tmp_path):
        records = [
            sine_record(200.0 + 10 * i, person_id=f"p{i % 2}", mood="happy" if i % 2 else "sad",
                        activity="walk")
            for i in range(4)
        ]
        manifest = write_dataset(tmp_path, records)
        person_cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        path, rejects = ex.run_featurize(manifest, person_cfg, tmp_path / "by_person", quiet=True)
        _, _, labels = eio.read_features(path)
        assert sorted(set(labels)) == ["p0", "p1"]
        assert rejects == []
        mood_cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "classify_mood"})
        path, _ = ex.run_featurize(manifest, mood_cfg, tmp_path / "by_mood", quiet=True)
        _, _, labels = eio.read_features(path)
        assert sorted(set(labels)) == ["happy", "sad"]

    def test_mixed_sample_rates_hard_error(self, tmp_path):
        records = [
            sine_record(200.0, person_id="a"),
            sine_record(300.0, sample_rate=8_000.0, person_id="b"),
        ]
        manifest = write_dataset(tmp_path, records)
        cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        with pytest.raises(ValidationError, match="sample rates"):
            ex.run_featurize(manifest, cfg, tmp_path / "out", quiet=True)

    def test_degenerate_record_rejected_not_fatal(self, tmp_path):
        records = [
            sine_record(210.0, person_id="a"),
            sine_record(220.0, person_id="b"),
            SignalRecord(samples=np.zeros(5000), sample_rate=10_000,
                         labels={"person_id": "a"}),
            sine_record(240.0, person_id="b"),
        ]
        manifest = write_dataset(tmp_path, records)
        cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        path, rejects = ex.run_featurize(manifest, cfg, tmp_path / "out", quiet=True)
        matrix, _, labels = eio.read_features(path)
        assert matrix.shape[0] == 3
        assert len(rejects) == 1
        assert rejects[0]["signal_path"].endswith("r2.sig.csv")
        sidecar = eio.read_json(tmp_path / "out" / "features.meta.json")
        assert sidecar["n_records"] == 3
        assert len(sidecar["rejects"]) == 1

    def test_missing_label_is_an_error(self, tmp_path):
        manifest = write_dataset(tmp_path, [sine_record(210.0, mood="happy")])
        cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        with pytest.raises(ValidationError, match="person_id"):
            ex.run_featurize(manifest, cfg, tmp_path / "out", quiet=True)

    def test_sidecar_fingerprint_matches_config(self, tmp_path):
        manifest = write_dataset(
            tmp_path, [sine_record(210.0 + i, person_id=f"p{i}") for i in range(2)]
        )
        cfg = ex.ExperimentConfig.from_dict({"seed": 1, "task": "identify_person"})
        ex.run_featurize(manifest, cfg, tmp_path / "out", quiet=True)
        sidecar = eio.read_json(tmp_path / "out" / "features.meta.json")
        assert sidecar["mfcc_fingerprint"] == eio.mfcc_fingerprint(MfccConfig())
        assert sidecar["label_key"] == "person_id"


def separable_features(tmp_path, n_classes: int = 2, rows_per_class: int = 8):
    """Feature table with class-dependent means; trivially learnable."""
    rng = np.random.default_rng(5)
    rows, labels = [], []
    for c in range(n_classes):
        for _ in range(rows_per_class):
            rows.append(rng.normal(0.0, 0.3, 6) + 2.0 * c * np.arange(1, 7) / 6.0)
            labels.append(f"class{c}")
    names = tuple(f"f{i}" for i in range(6))
    path = tmp_path / "features.csv"
    eio.write_features(path, np.asarray(rows), names, labels)
    return path


def tiny_config(**overrides) -> ex.ExperimentConfig:
    raw = {
        "seed": 9,
        "task": "identify_person",
        "cv_folds": 4,
        "forest": {"n_estimators": 12},
    }
    raw.update(overrides)
    return ex.ExperimentConfig.from_dict(raw)


class TestTrainEval:
    def test_train_writes_model_and_report(self, tmp_path):
        features = separable_features(tmp_path)
        cfg = tiny_config()
        report, model_path, report_path = ex.run_train(features, cfg, tmp_path / "out", quiet=True)
        assert model_path.exists() and report_path.exists()
        assert report.accuracy >= 0.9
        stored = eio.read_json(report_path)
        assert stored["accuracy"] == report.accuracy
        model = forest.load_model(model_path)
        assert model.params.n_estimators == 12

    def test_train_report_matches_direct_cross_validate(self, tmp_path):
        features = separable_features(tmp_path)
        cfg = tiny_config()
        report, _, _ = ex.run_train(features, cfg, tmp_path / "out", quiet=True)
        matrix, names, labels = eio.read_features(features)
        data = ex.dataset_from_features(matrix, names, labels)
        direct = forest.cross_validate(data, cfg.forest_params, k=4, seed=9)
        assert report.accuracy == direct.accuracy
        assert report.confusion_matrix.tolist() == direct.confusion_matrix.tolist()

    def test_eval_holdout(self, tmp_path):
        features = separable_features(tmp_path, rows_per_class=10)
        cfg = tiny_config()
        report, report_path = ex.run_eval(
            features, cfg, tmp_path / "out", holdout=True, quiet=True
        )
        assert report_path.exists()
        assert report.confusion_matrix.sum() == 4  # 20% of 20 rows
        assert len(report.per_fold_accuracies) == 1

    def test_eval_holdout_rejects_model_path(self, tmp_path):
        features = separable_features(tmp_path)
        with pytest.raises(ValidationError):
            ex.run_eval(features, tiny_config(), tmp_path / "out",
                        model_path="model.rfj", holdout=True, quiet=True)

    def test_eval_with_saved_model(self, tmp_path):
        features = separable_features(tmp_path)
        cfg = tiny_config()
        _, model_path, _ = ex.run_train(features, cfg, tmp_path / "out", quiet=True)
        report, _ = ex.run_eval(
            features, cfg, tmp_path / "eval", model_path=model_path, quiet=True
        )
        assert report.accuracy >= 0.9  # scored on its own training rows

    def test_eval_model_fingerprint_mismatch(self, tmp_path):
        features = separable_features(tmp_path)
        cfg = tiny_config()
        _, model_path, _ = ex.run_train(features, cfg, tmp_path / "out", quiet=True)
        other = tiny_config(mfcc={"n_mfcc": 10})
        with pytest.raises(ValidationError):
            ex.run_eval(features, other, tmp_path / "eval", model_path=model_path, quiet=True)

    def test_search_writes_trials(self, tmp_path):
        features = separable_features(tmp_path)
        cfg = tiny_config(search={"n_iter": 3, "space": {"n_estimators": [5, 10, 15, 20]}})
        report, model_path, _ = ex.run_train(features, cfg, tmp_path / "out", quiet=True)
        trials = eio.read_json(tmp_path / "out" / "search_trials.json")
        assert len(trials) == 3
        assert report.accuracy >= 0.9
        model = forest.load_model(model_path)
        assert model.params.n_estimators in (5, 10, 15, 20)


class TestReport:
    def test_balanced_baselines_and_importance(self, tmp_path):
        features = separable_features(tmp_path, n_classes=3, rows_per_class=8)
        cfg = tiny_config(cv_folds=4)
        bundle = ex.run_report(features, cfg, tmp_path / "rep", quiet=True)
        ks = [row[0] for row in bundle.accuracy_vs_k]
        baselines = [row[2] for row in bundle.accuracy_vs_k]
        assert ks == [2, 3]
        assert baselines == pytest.approx([0.5, 1 / 3])
        importance_values = [v for _, v in bundle.importance_chart_data]
        assert importance_values == sorted(importance_values, reverse=True)
        assert sum(importance_values) == pytest.approx(1.0)

    def test_report_csv_files(self, tmp_path):
        features = separable_features(tmp_path, n_classes=3, rows_per_class=8)
        cfg = tiny_config(cv_folds=4)
        ex.run_report(features, cfg, tmp_path / "rep", quiet=True)
        acc_lines = (tmp_path / "rep" / "accuracy_vs_k.csv").read_text().splitlines()
        assert acc_lines[0] == "k,forest_accuracy,baseline_accuracy"
        assert len(acc_lines) == 3
        imp_lines = (tmp_path / "rep" / "importance.csv").read_text().splitlines()
        assert imp_lines[0] == "feature,importance"
        assert len(imp_lines) == 7
        assert (tmp_path / "rep" / "eval_report.json").exists()

    def test_single_class_rejected(self, tmp_path):
        rows = np.random.default_rng(0).normal(size=(6, 3))
        path = tmp_path / "features.csv"
        eio.write_features(path, rows, ("a", "b", "c"), ["only"] * 6)
        with pytest.raises(ValidationError):
            ex.run_report(path, tiny_config(), tmp_path / "rep", quiet=True)
