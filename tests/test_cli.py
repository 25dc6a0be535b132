"""CLI tests: exit codes, artifact layout, determinism, detect streaming."""

from __future__ import annotations

import io as std_io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esdgait
import esdgait.io as eio
from esdgait.cli import main
from esdgait.simkit import CapacitanceModel, ElectrodeModel, synth_legshake


def write_config(tmp_path, **overrides) -> Path:
    raw = {
        "seed": 21,
        "task": "identify_person",
        "cv_folds": 4,
        "dataset": {
            "persons": {
                "ada": {"step_frequency": 1.2, "walking_speed": 1.1, "duty_cycle": 0.55},
                "ben": {"step_frequency": 1.5, "walking_speed": 1.25, "duty_cycle": 0.65},
                "cal": {"step_frequency": 1.8, "walking_speed": 1.4, "duty_cycle": 0.75},
            },
            "plant_types": ["pothos", "ficus"],
            "locations": ["lab"],
            "samples_per_cell": 4,
            "noise_std": 0.0,
        },
        "forest": {"n_estimators": 10},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter; a hang fails the test at the timeout."""
    src = Path(esdgait.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "esdgait.cli", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def tree_bytes(root) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate+featurize+train run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_config(root)
    out = root / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert main([
        "featurize", str(out / "dataset.json"),
        "--config", str(config), "--out", str(out), "--quiet",
    ]) == 0
    assert main([
        "train", str(out / "features.csv"),
        "--config", str(config), "--out", str(out), "--quiet",
    ]) == 0
    return config, out


class TestSimulate:
    def test_writes_expected_records(self, pipeline):
        _, out = pipeline
        signals = sorted((out / "records").glob("*.sig.csv"))
        metas = sorted((out / "records").glob("*.meta.json"))
        assert len(signals) == 12 and len(metas) == 12  # 3 persons x 4 reps
        assert len(eio.read_manifest(out / "dataset.json")) == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        for name in ("a", "b"):
            code = main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / name), "--quiet"])
            assert code == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_seed_flag_changes_outputs(self, tmp_path):
        config = write_config(tmp_path)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "a"), "--quiet"])
        main(["simulate", "--config", str(config), "--seed", "99",
              "--out", str(tmp_path / "b"), "--quiet"])
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")

    def test_requires_config(self, capsys):
        assert main(["simulate", "--quiet"]) == 1
        assert "requires --config" in capsys.readouterr().err

    def test_samples_per_cell_zero_is_validation_error(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        raw["dataset"]["samples_per_cell"] = 0
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1

    def test_malformed_config_is_validation_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1


class TestFeaturize:
    def test_row_per_record_with_person_labels(self, pipeline):
        _, out = pipeline
        matrix, names, labels = eio.read_features(out / "features.csv")
        assert matrix.shape[0] == 12
        assert sorted(set(labels)) == ["ada", "ben", "cal"]
        assert names[0].startswith("mfcc")

    def test_missing_manifest_exits_1(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["featurize", str(tmp_path / "absent.json"),
                     "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 1

    @staticmethod
    def one_record_manifest(out: Path, root: Path) -> tuple[Path, Path, Path]:
        """A copy of the first simulated record plus a manifest listing only it."""
        entry = eio.read_manifest(out / "dataset.json")[0]
        signal, meta = root / "r.sig.csv", root / "r.meta.json"
        signal.write_bytes(Path(entry["signal_path"]).read_bytes())
        meta.write_bytes(Path(entry["meta_path"]).read_bytes())
        manifest = root / "dataset.json"
        eio.write_manifest(manifest, [{"signal_path": signal.name, "meta_path": meta.name}])
        return manifest, signal, meta

    def test_non_numeric_sample_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        manifest, signal, _ = self.one_record_manifest(out, tmp_path)
        lines = signal.read_text().splitlines(keepends=True)
        lines[4] = "abc\n"
        signal.write_text("".join(lines))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert f"{signal}:5:" in err and "abc" in err

    @pytest.mark.parametrize("which", ["manifest", "meta"])
    def test_truncated_json_exits_1(self, pipeline, tmp_path, capsys, which):
        config, out = pipeline
        manifest, _, meta = self.one_record_manifest(out, tmp_path)
        broken = manifest if which == "manifest" else meta
        broken.write_text(broken.read_text()[:30])  # cut mid-document
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert f"{broken}:" in err


class TestTrainEval:
    def test_artifacts_written(self, pipeline):
        _, out = pipeline
        assert (out / "model.rfj").exists()
        assert (out / "eval_report.json").exists()
        report = eio.read_json(out / "eval_report.json")
        assert set(report) >= {"accuracy", "cohens_kappa", "auroc", "confusion_matrix"}

    def test_stdout_lists_artifact_paths(self, pipeline, capsys, tmp_path):
        config, out = pipeline
        code = main(["train", str(out / "features.csv"),
                     "--config", str(config), "--out", str(tmp_path), "--quiet"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2].endswith("model.rfj")
        assert lines[-1].endswith("eval_report.json")

    def test_jobs_flag_does_not_change_report(self, pipeline, tmp_path):
        config, out = pipeline
        for jobs, name in (("1", "j1"), ("2", "j2")):
            code = main(["train", str(out / "features.csv"), "--config", str(config),
                         "--out", str(tmp_path / name), "--jobs", jobs, "--quiet"])
            assert code == 0
        a = (tmp_path / "j1" / "eval_report.json").read_bytes()
        b = (tmp_path / "j2" / "eval_report.json").read_bytes()
        assert a == b

    def test_eval_holdout(self, pipeline, tmp_path):
        config, out = pipeline
        code = main(["eval", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--holdout", "--quiet"])
        assert code == 0
        report = eio.read_json(tmp_path / "eval_report.json")
        assert int(np.sum(report["confusion_matrix"])) == 3  # 20% of 12 rows

    def test_eval_with_model(self, pipeline, tmp_path):
        config, out = pipeline
        code = main(["eval", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--model", str(out / "model.rfj"), "--quiet"])
        assert code == 0

    def test_eval_truncated_model_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        model = tmp_path / "model.rfj"
        text = (out / "model.rfj").read_text()
        model.write_text(text[: len(text) // 2])
        code = main(["eval", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--model", str(model), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model) in err

    def test_eval_model_rejects_nan_feature_cell(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        lines = (out / "features.csv").read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        lines[1] = ",".join(["nan"] + cells[1:])
        features = tmp_path / "features.csv"
        features.write_text("".join(lines))
        (tmp_path / "features.meta.json").write_bytes((out / "features.meta.json").read_bytes())
        code = main(["eval", str(features), "--config", str(config), "--out", str(tmp_path),
                     "--model", str(out / "model.rfj"), "--quiet"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_fractional_n_estimators_exits_1(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = write_config(tmp_path, forest={"n_estimators": 2.5})
        code = main(["train", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_estimators" in err
        assert len(err.strip().splitlines()) == 1

    def test_string_bootstrap_exits_1(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = write_config(tmp_path, forest={"n_estimators": 10, "bootstrap": "no"})
        code = main(["train", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "forest.bootstrap" in err

    def test_non_numeric_feature_cell_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        lines = (out / "features.csv").read_text().splitlines(keepends=True)
        lines[2] = ",".join(["abc"] + lines[2].split(",")[1:])
        features = tmp_path / "features.csv"
        features.write_text("".join(lines))
        code = main(["train", str(features), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert f"{features}:3:" in err and "abc" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature", 999, "split feature"),
            ("left", None, "child index"),  # None: point the node at itself
        ],
    )
    def test_eval_corrupt_tree_exits_1(self, pipeline, tmp_path, field, value, message):
        config, out = pipeline
        doc = json.loads((out / "model.rfj").read_text())
        tree = doc["trees"][0]
        node = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
        tree[field][node] = node if value is None else value
        model = tmp_path / "model.rfj"
        model.write_text(json.dumps(doc))
        result = run_cli("eval", str(out / "features.csv"), "--config", str(config),
                         "--out", str(tmp_path), "--model", str(model), "--quiet")
        assert result.returncode == 1
        assert_one_line_error(result.stderr)
        assert message in result.stderr and "trees[0]" in result.stderr

    def test_missing_features_nonzero_exit(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", str(tmp_path / "absent.csv"),
                     "--config", str(config), "--out", str(tmp_path), "--quiet"]) != 0


class TestReport:
    def test_balanced_sweep_baselines(self, pipeline, tmp_path):
        config, out = pipeline
        code = main(["report", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        lines = (tmp_path / "accuracy_vs_k.csv").read_text().splitlines()
        assert lines[0] == "k,forest_accuracy,baseline_accuracy"
        baselines = [float(line.split(",")[2]) for line in lines[1:]]
        assert baselines == pytest.approx([0.5, 1 / 3])
        imp = (tmp_path / "importance.csv").read_text().splitlines()
        values = [float(line.split(",")[1]) for line in imp[1:]]
        assert sum(values) == pytest.approx(1.0)
        assert values == sorted(values, reverse=True)


@pytest.fixture(scope="module")
def shake_signal(tmp_path_factory):
    root = tmp_path_factory.mktemp("detect")
    record = synth_legshake(
        5.5, 8.0, 2.0,
        CapacitanceModel(c_f1=200e-12, c_f2=200e-12), ElectrodeModel(),
        noise_std=0.0, seed=0,
    )
    path = root / "shake.sig.csv"
    eio.write_record(record, path, root / "shake.meta.json")
    return path


class TestDetect:
    def test_detect_emits_open_event(self, shake_signal, capsys):
        assert main(["detect", str(shake_signal), "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert len(events) == 1
        assert events[0]["type"] == "open"
        assert abs(events[0]["onset"] - 2.0) <= 0.25
        assert events[0]["offset"] is None

    def test_detect_stdin_matches_file(self, shake_signal, capsys, monkeypatch):
        assert main(["detect", str(shake_signal), "--quiet"]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", std_io.StringIO(shake_signal.read_text()))
        assert main(["detect", "-", "--quiet"]) == 0
        assert capsys.readouterr().out == from_file

    def test_detect_noise_only_is_silent(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "noise.sig.csv"
        path.write_text("".join(f"{v:.8e}\n" for v in rng.normal(size=60_000)))
        assert main(["detect", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_detect_burst_reports_close_line(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        t = np.arange(120_000) / 10_000.0
        sig = np.sin(2 * np.pi * 5.5 * t) * ((t >= 2.0) & (t < 6.0))
        sig = sig + rng.normal(0.0, 0.1, t.size)
        path = tmp_path / "burst.sig.csv"
        path.write_text("".join(f"{v:.8e}\n" for v in sig))
        assert main(["detect", str(path), "--quiet"]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [e["type"] for e in events] == ["open", "close"]
        assert events[1]["offset"] is not None
        assert events[1]["offset"] > events[1]["onset"]

    def test_detect_bad_sample_exits_1(self, tmp_path):
        path = tmp_path / "bad.sig.csv"
        path.write_text("1.0\nbanana\n2.0\n" * 2000)
        assert main(["detect", str(path), "--quiet"]) == 1

    def test_event_count_summary_unless_quiet(self, shake_signal, capsys):
        assert main(["detect", str(shake_signal)]) == 0
        err = capsys.readouterr().err
        assert "events: 1" in err
        assert main(["detect", str(shake_signal), "--quiet"]) == 0
        assert "events" not in capsys.readouterr().err


class TestArgumentHandling:
    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_jobs_must_be_positive(self, pipeline, capsys):
        config, out = pipeline
        assert main(["train", str(out / "features.csv"), "--config", str(config),
                     "--out", str(out), "--jobs", "0", "--quiet"]) == 1
        assert "--jobs" in capsys.readouterr().err
