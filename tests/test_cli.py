"""CLI tests: exit codes, artifact layout, determinism, detect streaming."""

from __future__ import annotations

import io as std_io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdgait
import esdgait.io as eio
from esdgait import cli, legshake
from esdgait.cli import main
from esdgait.errors import ToolkitError, ValidationError
from esdgait.simkit import CapacitanceModel, ElectrodeModel, synth_legshake
from reference import reference_detect


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

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes(write_config(tmp_path).read_bytes().replace(b'"lab"', b'"l\xe4b"'))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert str(config) in err

    def test_config_directory_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"


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

    def test_empty_signal_exits_1(self, pipeline, tmp_path):
        # in a fresh interpreter, so a warning printed before the error shows
        config, out = pipeline
        manifest, signal, _ = self.one_record_manifest(out, tmp_path)
        signal.write_text("")
        done = run_cli("featurize", str(manifest), "--config", str(config),
                       "--out", str(tmp_path / "out"), "--quiet")
        assert done.returncode == 1
        assert done.stderr == f"error: {signal}: no samples\n"

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


    def test_directory_signal_path_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        manifest, signal, _ = self.one_record_manifest(out, tmp_path)
        signal.unlink()
        signal.mkdir()
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == f"error: {signal}: is a directory\n"

    @pytest.mark.parametrize("key", ["signal_path", "meta_path"])
    def test_non_string_manifest_path_exits_1(self, pipeline, tmp_path, capsys, key):
        config, out = pipeline
        manifest, signal, meta = self.one_record_manifest(out, tmp_path)
        entries = [
            {"signal_path": signal.name, "meta_path": meta.name},
            {"signal_path": signal.name, "meta_path": meta.name, key: 5},
        ]
        manifest.write_text(json.dumps(entries))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == f"error: {manifest}: [1].{key}: expected str, got 5\n"


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

    def test_features_not_utf8_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        lines = (out / "features.csv").read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        features = tmp_path / "features.csv"
        features.write_bytes(b"".join(lines))
        code = main(["train", str(features), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {features}: not valid UTF-8\n"

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_directory_features_exits_1(self, pipeline, tmp_path, capsys, command):
        config, _ = pipeline
        code = main([command, str(tmp_path), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == f"error: {tmp_path}: is a directory\n"

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
        CapacitanceModel(), ElectrodeModel(),
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

    def test_detect_bad_sample_exits_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.sig.csv"
        path.write_text("1.0\nbanana\n2.0\n" * 2000)
        assert main(["detect", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not a sample value: 'banana'\n"
        # the first bad value sits in the second chunk, after blank lines
        text = "1.0\n\n" * 1300 + "2.0\n" * 100 + " banana \n" + "3.0\n" * 10
        path.write_text(text)
        assert main(["detect", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {path}:2701: not a sample value: 'banana'\n"
        monkeypatch.setattr(sys, "stdin", std_io.StringIO(text))
        assert main(["detect", "-", "--quiet"]) == 1
        assert capsys.readouterr().err == "error: <stdin>:2701: not a sample value: 'banana'\n"

    def test_detect_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.sig.csv"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n3.0\n")
        assert main(["detect", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8\n"

    def test_detect_stdin_not_utf8_exits_1(self):
        src = Path(esdgait.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "esdgait.cli", "detect", "-", "--quiet"],
            input=b"1.0\n2.0\n\xe9\n", capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr == b"error: <stdin>:3: not valid UTF-8\n"

    def test_detect_directory_exits_1(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"
        assert main(["detect", str(tmp_path / "x.sig.csv"), "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"

    def test_detect_prints_events_pushed_before_a_bad_sample(self, tmp_path, capsys):
        # one leading blank line shifts every push boundary one line into the
        # next chunk; the push that opens the event completes on the first
        # line of a chunk whose second line is bad
        rng = np.random.default_rng(9)
        t = np.arange(120_000) / 10_000.0
        sig = np.sin(2 * np.pi * 5.5 * t) * (t >= 2.0) + rng.normal(0.0, 0.1, t.size)
        detector = legshake.ShakeDetector()
        opening = next(j for j, chunk in enumerate(np.split(sig, 48)) if detector.push(chunk))
        lines = ["\n", *(f"{v:.8e}\n" for v in sig)]
        bad_line = 2500 * (opening + 1) + 2
        lines[bad_line - 1] = "banana\n"
        path = tmp_path / "late_bad.sig.csv"
        path.write_text("".join(lines))
        assert main(["detect", str(path), "--quiet"]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {path}:{bad_line}: not a sample value: 'banana'\n"
        with pytest.raises(ValidationError), open(path) as handle:
            reference_detect(handle, legshake.DetectorConfig())
        expected = capsys.readouterr().out
        assert '"type": "open"' in expected and out == expected

    def test_event_count_summary_unless_quiet(self, shake_signal, capsys):
        assert main(["detect", str(shake_signal)]) == 0
        err = capsys.readouterr().err
        assert "events: 1" in err
        assert main(["detect", str(shake_signal), "--quiet"]) == 0
        assert "events" not in capsys.readouterr().err


# a detector at 100 Hz: 100-sample windows, so a soup of a few hundred
# lines opens and closes events
SOUP_DETECTOR = {"sample_rate": 100.0}
SOUP_TOKENS = st.one_of(
    st.sampled_from(
        ["", "  ", "\t", " 1.0 ", "1_0", "1__0", "nAn", "inf", "-Infinity", "\u0661\u0662",
         "\uff11\uff12", "\u0661.\u0665", "\x0c2.5\x0b", "\u20033\u2003", "1.0_0", "banana",
         "1e", "--1", "0x10", "1 2", "5.", "+.5", "1e400", "1\x00"]
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)


@pytest.fixture(scope="module")
def soup_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("soup") / "config.json"
    path.write_text(json.dumps({"seed": 1, "task": "legshake", "detector": SOUP_DETECTOR}))
    return path


def soup_outcome(run) -> tuple[str, int | str, str]:
    """stdout, exit code (or the name of what run() raised) and stderr."""
    out, err = std_io.StringIO(), std_io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run()
        except Exception as exc:  # compared by name: both sides must raise alike
            code = type(exc).__name__
    return out.getvalue(), code, err.getvalue()


def reference_main(path) -> int:
    try:
        with open(path) as lines:
            reference_detect(lines, legshake.DetectorConfig(**SOUP_DETECTOR))
    except ToolkitError as exc:  # a ValidationError is one, with exit 1
        print(exc, file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2
    return 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(0, 3),
    st.sampled_from(["%.8e", "%r", "%.3f", "%g"]),
    st.lists(st.tuples(st.integers(0, 1200), SOUP_TOKENS), max_size=30),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from([1, 3, 25, 64, 2500]),
)
def test_detect_matches_per_line_reader(soup_config, seed, fmt, inserts, newline, chunk):
    rng = np.random.default_rng(seed)
    t = np.arange(1200) / 100.0
    signal = np.sin(2 * np.pi * 5.5 * t) * ((t >= 3.0) & (t < 8.0)) + rng.normal(0, 0.1, t.size)
    lines = [fmt % v for v in signal.tolist()]
    for position, token in sorted(inserts, reverse=True):
        lines.insert(position, token)
    path = soup_config.parent / "soup.sig.csv"
    path.write_text("".join(line + newline for line in lines), encoding="utf-8", newline="")
    argv = ["detect", str(path), "--config", str(soup_config), "--quiet"]
    with mock.patch.object(cli, "_DETECT_CHUNK_LINES", chunk):
        expected_out, expected_code, expected_err = soup_outcome(lambda: reference_main(path))
        out, code, err = soup_outcome(lambda: main(argv))
    assert (out, code) == (expected_out, expected_code)
    if expected_err.startswith("bad sample value: "):
        with open(path) as handle:
            line_no, text = next(
                (n, text) for n, line in enumerate(handle, start=1)
                if (text := line.strip()) and not _is_float(text)
            )
        assert err == f"error: {path}:{line_no}: not a sample value: {text!r}\n"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestArgumentHandling:
    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_jobs_must_be_positive(self, pipeline, capsys):
        config, out = pipeline
        assert main(["train", str(out / "features.csv"), "--config", str(config),
                     "--out", str(out), "--jobs", "0", "--quiet"]) == 1
        assert "--jobs" in capsys.readouterr().err
