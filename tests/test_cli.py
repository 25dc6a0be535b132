"""CLI tests: exit codes, artifact layout, determinism, detect streaming."""

from __future__ import annotations

import contextlib
import io as std_io
import json
import logging
import math
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def run_cli(*args: str, **options) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter; a hang fails the test at the timeout.
    `options` go to subprocess.run."""
    src = Path(esdgait.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "esdgait.cli", *args],
        capture_output=True, text=True, timeout=60, env=env, **options,
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

    def test_config_errors_name_the_config_file(self, tmp_path, capsys):
        config = write_config(tmp_path, mfcc={"window_size": [1]})
        for command in (["simulate"], ["detect", str(tmp_path / "x.sig.csv")]):
            assert main([*command, "--config", str(config),
                         "--out", str(tmp_path / "out"), "--quiet"]) == 1
            assert capsys.readouterr().err == (
                f"error: {config}: mfcc.window_size: expected int, got [1]\n"
            )
        config = write_config(tmp_path, seed=-1)
        assert main(["simulate", "--config", str(config), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: seed must be a non-negative integer\n"
        )

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d["persons"].update({"\ud800": d["persons"].pop("ada")}),
             "dataset.persons: '\\ud800'"),
            (lambda d: d.update(plant_types=["pothos", "\udc80"]),
             "dataset.plant_types[1]: '\\udc80'"),
        ],
        ids=["person id", "plant type"],
    )
    def test_config_label_with_a_lone_surrogate_exits_1(self, tmp_path, capsys, edit, where):
        # JSON's "\ud800" decodes to a lone surrogate, which no UTF-8 label can hold
        raw = json.loads(write_config(tmp_path).read_text())
        edit(raw["dataset"])
        config = write_config(tmp_path, dataset=raw["dataset"])
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: {where} holds a lone surrogate, which is not text\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_nested_past_the_parser_exits_1(self, tmp_path):
        # in a fresh interpreter, so a traceback would show
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        done = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet")
        assert done.returncode == 1
        assert done.stderr == f"error: {config}: JSON nested deeper than the parser can go\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_blames_the_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--seed", "-1",
                     "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        config = tmp_path / "shake.json"
        config.write_text(json.dumps({
            "seed": 5, "task": "legshake",
            "dataset": {"shake_frequencies": [5.5], "onsets": [1.5], "duration": 2.0,
                        "samples_per_cell": 1},
        }))
        out = tmp_path / "out"
        done = run_cli("simulate", "--config", str(config), "--out", str(out), "--quiet",
                       preexec_fn=lambda: os.umask(umask))
        assert done.returncode == 0, done.stderr
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
        assert {"dataset.json", "rec_0000.sig.csv", "rec_0000.sig.csv.f8",
                "rec_0000.meta.json"} <= set(modes)
        assert set(modes.values()) == {mode}


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

    def test_record_shorter_than_one_window_is_named(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        manifest, signal, meta = self.one_record_manifest(out, tmp_path)
        short = tmp_path / "short.sig.csv"
        short.write_text("".join(signal.read_text().splitlines(keepends=True)[:1000]))
        eio.write_manifest(manifest, [
            {"signal_path": signal.name, "meta_path": meta.name},
            {"signal_path": short.name, "meta_path": meta.name},
        ])
        with mock.patch("esdgait.experiments._featurize_task", side_effect=AssertionError):
            code = main(["featurize", str(manifest), "--config", str(config),
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {short}: 1000 samples, shorter than one mfcc window (2500)\n"
        )

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


    @pytest.mark.parametrize(
        "entry, where",
        [
            ({"signal_path": "a\u0000b.sig.csv", "meta_path": "a.meta.json"},
             "[1].signal_path: 'a\\x00b.sig.csv' holds a NUL, which no path can"),
            ({"signal_path": "r.sig.csv", "meta_path": "\ud800.meta.json"},
             "[1].meta_path: '\\ud800.meta.json' holds a lone surrogate, which is not text"),
        ],
        ids=["NUL", "lone surrogate"],
    )
    def test_manifest_path_no_file_can_have_exits_1(self, pipeline, tmp_path, capsys, entry, where):
        # JSON's "\u0000" and "\ud800" decode to a str that no file name can hold
        config, out = pipeline
        manifest, signal, meta = self.one_record_manifest(out, tmp_path)
        eio.write_manifest(manifest, [{"signal_path": signal.name, "meta_path": meta.name}, entry])
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}: {where}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "value, reason",
        [
            ('"abc"', "expected float, got 'abc'"),
            ("null", "expected float, got None"),
            ("true", "expected float, got True"),
            ("1e400", "expected float, got inf"),
            ("0", "must be positive, got 0.0"),
        ],
    )
    def test_bad_sample_rate_names_the_meta_file(self, pipeline, tmp_path, capsys, value, reason):
        config, out = pipeline
        manifest, _, meta = self.one_record_manifest(out, tmp_path)
        doc = {**json.loads(meta.read_text()), "sample_rate": 1}
        meta.write_text(json.dumps(doc).replace('"sample_rate": 1', f'"sample_rate": {value}'))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {meta}: sample_rate: {reason}\n"

    def test_label_with_a_lone_surrogate_names_the_meta_file(self, pipeline, tmp_path, capsys):
        # JSON's "\ud800" decodes to a lone surrogate, which no UTF-8 label can hold
        config, out = pipeline
        manifest, _, meta = self.one_record_manifest(out, tmp_path)
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "person_id": "\ud800"}))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {meta}: person_id: '\\ud800' holds a lone surrogate, which is not text\n"
        )
        assert not (tmp_path / "out").exists()

    def test_meta_that_is_no_object_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        manifest, _, meta = self.one_record_manifest(out, tmp_path)
        meta.write_text('["sample_rate"]')
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {meta}: expected a JSON object\n"

    @pytest.mark.parametrize(
        "edit, line, reason",
        [
            (lambda lines: [x.strip() + " 2.0\n" for x in lines], 1, "not a sample value"),
            (lambda lines: lines[:4] + ["nan\n"] + lines[5:], 5, "not a finite sample value"),
            (lambda lines: ["1.0 2.0\n"], 1, "not a sample value"),  # not two samples
            (lambda lines: lines[:2] + ["1.0 # note\n"] + lines[3:], 3, "not a sample value"),
        ],
        ids=["two per line", "nan", "one line of two", "comment"],
    )
    def test_bad_signal_names_file_and_line(self, pipeline, tmp_path, capsys, edit, line, reason):
        config, out = pipeline
        manifest, signal, _ = self.one_record_manifest(out, tmp_path)
        lines = edit(signal.read_text().splitlines(keepends=True))
        signal.write_text("".join(lines))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        bad = lines[line - 1].strip()
        assert capsys.readouterr().err == f"error: {signal}:{line}: {reason}: {bad!r}\n"

    def test_not_utf8_sample_reads_as_in_detect(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        manifest, signal, _ = self.one_record_manifest(out, tmp_path)
        lines = signal.read_bytes().splitlines(keepends=True)
        lines[7] = lines[7][:3] + b"\xff" + lines[7][3:]
        signal.write_bytes(b"".join(lines))
        code = main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {signal}:8: not valid UTF-8\n"
        assert main(["detect", str(signal), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {signal}:8: not valid UTF-8\n"

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


    @pytest.mark.parametrize(
        "edit, coded_as",
        [
            (lambda doc: doc.pop("plant_type"), "unknown"),
            (lambda doc: doc.update(plant_type=None), "None"),
            (lambda doc: doc.update(plant_type=3), "3"),
        ],
        ids=["missing", "null", "int"],
    )
    def test_categorical_label_codes_as_its_str(self, pipeline, tmp_path, edit, coded_as):
        _, out = pipeline
        config = write_config(tmp_path, include_categoricals=True)
        entries = eio.read_manifest(out / "dataset.json")[:2]
        metas = [tmp_path / "r0.meta.json", tmp_path / "r1.meta.json"]
        for entry, meta in zip(entries, metas):
            meta.write_bytes(Path(entry["meta_path"]).read_bytes())
        doc = json.loads(metas[0].read_text())
        edit(doc)
        metas[0].write_text(json.dumps(doc))
        other = json.loads(metas[1].read_text())["plant_type"]
        manifest = tmp_path / "dataset.json"
        eio.write_manifest(manifest, [
            {"signal_path": str(entry["signal_path"]), "meta_path": meta.name}
            for entry, meta in zip(entries, metas)
        ])
        assert main(["featurize", str(manifest), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0
        matrix, names, _ = eio.read_features(tmp_path / "out" / "features.csv")
        assert names[-2:] == ("plant_type", "location")
        values = sorted({coded_as, other})
        assert matrix[:, -2].tolist() == [values.index(coded_as), values.index(other)]

    def test_legshake_records_featurize_with_categoricals(self, tmp_path):
        # noise and shake records carry the same default labels, so the
        # categorical columns cannot code the activity
        raw = json.loads((Path(__file__).resolve().parent.parent / "configs/legshake.json").read_text())
        raw["include_categoricals"] = True
        raw["dataset"].update(samples_per_cell=1, noise_only=1)
        config = tmp_path / "legshake.json"
        config.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        assert main(["featurize", str(tmp_path / "dataset.json"), "--config", str(config),
                     "--out", str(tmp_path), "--quiet"]) == 0
        matrix, names, labels = eio.read_features(tmp_path / "features.csv")
        assert names[-2:] == ("plant_type", "location")
        assert labels.count("noise") == 1
        np.testing.assert_array_equal(matrix[:, -2:], np.zeros((len(labels), 2)))

    def test_sample_rate_other_than_mfcc_sample_rate_exits_1(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = write_config(tmp_path, mfcc={"sample_rate": 8000})
        code = main(["featurize", str(out / "dataset.json"), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "10000" in err and "8000" in err
        assert not (tmp_path / "out").exists()


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
        assert capsys.readouterr().err == f"error: {features}:2: not a finite feature value: 'nan'\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("command", ["train", "report", "eval --model"])
    def test_non_finite_feature_cell_names_file_and_line(self, pipeline, tmp_path, capsys,
                                                         command, cell):
        config, out = pipeline
        lines = (out / "features.csv").read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        lines[3] = ",".join([cells[0], cell, *cells[2:]])
        features = tmp_path / "features.csv"
        features.write_text("".join(lines))
        (tmp_path / "features.meta.json").write_bytes((out / "features.meta.json").read_bytes())
        model = ["--model", str(out / "model.rfj")] if command == "eval --model" else []
        code = main([command.split()[0], str(features), "--config", str(config),
                     "--out", str(tmp_path / "out"), *model, "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {features}:4: not a finite feature value: {cell!r}\n"

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

    def test_eval_model_with_trees_cut_away_exits_1(self, pipeline, tmp_path):
        config, out = pipeline
        doc = json.loads((out / "model.rfj").read_text())
        doc["trees"], doc["per_tree_seeds"] = doc["trees"][:3], doc["per_tree_seeds"][:7]
        model = tmp_path / "model.rfj"
        model.write_text(json.dumps(doc))
        result = run_cli("eval", str(out / "features.csv"), "--config", str(config),
                         "--out", str(tmp_path), "--model", str(model), "--quiet")
        assert result.returncode == 1
        assert_one_line_error(result.stderr)
        assert "model has 3 trees, but params.n_estimators is 10" in result.stderr
        assert "per_tree_seeds lists 7" in result.stderr

    @pytest.mark.parametrize("column, value", [("feature", 192.5), ("left", True), ("n_samples", "144")])
    def test_eval_model_refuses_a_node_value_that_is_no_json_integer(self, pipeline, tmp_path,
                                                                     capsys, column, value):
        config, out = pipeline
        doc = json.loads((out / "model.rfj").read_text())
        doc["trees"][2][column][0] = value
        model = tmp_path / "model.rfj"
        model.write_text(json.dumps(doc))
        code = main(["eval", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--model", str(model), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}: trees[2].{column}: expected int, got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "column, value", [("threshold", "0.25"), ("impurity", True), ("weighted_decrease", "1e-3")]
    )
    def test_eval_model_refuses_a_node_value_that_is_no_json_number(self, pipeline, tmp_path,
                                                                    capsys, column, value):
        config, out = pipeline
        doc = json.loads((out / "model.rfj").read_text())
        doc["trees"][2][column][0] = value
        model = tmp_path / "model.rfj"
        model.write_text(json.dumps(doc))
        code = main(["eval", str(out / "features.csv"), "--config", str(config),
                     "--out", str(tmp_path), "--model", str(model), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}: trees[2].{column}: expected float, got {value!r}\n"
        )

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

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_repeated_column_exits_1(self, pipeline, tmp_path, capsys, command):
        config, out = pipeline
        header, *rows = (out / "features.csv").read_text().splitlines(keepends=True)
        names = header.split(",")
        names[2] = names[0]
        features = tmp_path / "features.csv"
        features.write_text(",".join(names) + "".join(rows))
        code = main([command, str(features), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {features}: duplicate column {names[0]!r}\n"
        assert not (tmp_path / "out").exists()

    def test_features_under_a_file_exits_1(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        features = out / "features.csv" / "x"
        code = main(["train", str(features), "--config", str(config),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {features}: not a directory\n"

    def test_holdout_refuses_a_class_left_out_of_training(self, pipeline, tmp_path, capsys):
        # the first class's one row always falls in the held-out fold
        config, out = pipeline
        header, *rows = (out / "features.csv").read_text().splitlines(keepends=True)
        labels = [row.rsplit(",", 1)[1] for row in rows]
        first = min(labels)
        kept = [row for row, label in zip(rows, labels) if label != first]
        features = tmp_path / "features.csv"
        features.write_text(header + rows[labels.index(first)] + "".join(kept))
        code = main(["eval", str(features), "--config", str(config), "--out", str(tmp_path),
                     "--holdout", "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == "error: every class needs at least one sample\n"

    def test_missing_features_nonzero_exit(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", str(tmp_path / "absent.csv"),
                     "--config", str(config), "--out", str(tmp_path), "--quiet"]) != 0

    @pytest.mark.parametrize("case", ["small grid", "absent class"])
    def test_warning_is_one_line_under_quiet(self, pipeline, tmp_path, case):
        # in a fresh interpreter, where a Python warning would print its code line as well
        config, out = pipeline
        if case == "small grid":
            config = write_config(tmp_path, search={"n_iter": 20, "space": {"n_estimators": [2, 3]}})
            args = ["train", str(out / "features.csv")]
            expected = "grid has only 2 combinations; sampling all of them\n"
        else:  # the model knows ada, ben and cal; this table holds no cal
            header, *rows = (out / "features.csv").read_text().splitlines(keepends=True)
            features = tmp_path / "features.csv"
            features.write_text(header + "".join(r for r in rows if not r.endswith(",cal\n")))
            args = ["eval", str(features), "--model", str(out / "model.rfj")]
            expected = "class 2 absent from truth; skipping its one-vs-rest term\n"
        done = run_cli(*args, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet")
        assert done.returncode == 0
        assert done.stderr == expected


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
    record = synth_legshake(5.5, 8.0, 2.0, CapacitanceModel(), ElectrodeModel())
    path = root / "shake.sig.csv"
    eio.write_record(record, path, root / "shake.meta.json")
    return path


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_closed_stdout_ends_quietly(pipeline, shake_signal, tmp_path, command):
    """A reader that closed stdout before the command wrote to it: detect's
    flushed event line and eval's path, flushed at the end, both end in
    exit 0 with nothing on stderr."""
    config, out = pipeline
    args = {
        "detect": ["detect", str(shake_signal)],
        "eval": ["eval", str(out / "features.csv"), "--config", str(config),
                 "--model", str(out / "model.rfj"), "--out", str(tmp_path)],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(esdgait.__file__).resolve().parent.parent
    try:
        done = subprocess.run(
            [sys.executable, "-m", "esdgait.cli", *args, "--quiet"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_interrupted_detect_ends_in_one_line(shake_signal, tmp_path):
    """Ctrl-C on `detect -` reading a pipe that stays open, after it has
    printed an event: one stderr line, exit 130, no partial output file."""
    src = Path(esdgait.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "esdgait.cli", "detect", "-", "--quiet"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
    )
    try:
        proc.stdin.write(shake_signal.read_bytes())
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "detect printed no event within 60 s"
        assert json.loads(proc.stdout.readline())["type"] == "open"
        os.kill(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=60) == 130
        assert proc.stderr.read() == b"error: interrupted\n"
    finally:
        proc.kill()
        proc.communicate()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a pool needs two usable CPUs, and the test reads Linux's /proc",
)
def test_interrupted_pooled_train_ends_in_one_line(pipeline, tmp_path):
    """Ctrl-C to the process group of `train --jobs 2` once its pool has
    forked workers: one stderr line, exit 130, and no output or .tmp file.
    A worker that took the signal would print its own traceback."""
    config, run = pipeline
    raw = json.loads(config.read_text())
    long_config = tmp_path / "config.json"  # long enough to be running at the signal
    long_config.write_text(json.dumps({**raw, "forest": {"n_estimators": 5000}}))
    src = Path(esdgait.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "esdgait.cli", "train", str(run / "features.csv"),
         "--config", str(long_config), "--out", str(tmp_path / "out"), "--jobs", "2", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline, "train forked no worker"
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=60) == 130
        assert proc.stderr.read() == b"error: interrupted\n"
    finally:
        with contextlib.suppress(ProcessLookupError):  # a hung train, and its workers
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["config.json"]


# bytes of one stderr line, "error: " and its newline included
ERROR_LINE_BOUND = 300


@pytest.mark.parametrize("case", ["record line", "seed list", "task string"])
def test_a_huge_value_ends_in_one_short_error_line(tmp_path, capsys, case):
    """A value of megabytes is shown by its ends, not whole."""
    if case == "record line":
        signal = tmp_path / "r.sig.csv"
        signal.write_text("1.0\n" + "x" * 5_000_000 + "\n")
        argv = ["detect", str(signal)]
    else:
        edit = {"seed": list(range(200_000))} if case == "seed list" else {"task": "t" * 3_000_000}
        argv = ["simulate", "--config", str(write_config(tmp_path, **edit)),
                "--out", str(tmp_path / "out")]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert len(err.encode("utf-8")) <= ERROR_LINE_BOUND, err


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

    def test_detect_near_the_largest_float_warns_of_nothing(self, tmp_path):
        """Samples of 1e300, one an ulp higher: the windows' power would
        overflow, so they are scored scaled, and no numpy warning reaches stderr."""
        samples = np.full(12_000, 1e300)
        samples[3_000] = np.nextafter(1e300, 2e300)
        path = tmp_path / "huge.sig.csv"
        path.write_text("".join(f"{v!r}\n" for v in samples.tolist()))
        done = run_cli("detect", str(path), "--quiet")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

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

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"1.0 # note", "not a sample value: '1.0 # note'"),
            (b"nan", "not a finite sample value: 'nan'"),
            (b"inf", "not a finite sample value: 'inf'"),
            (b"1_000", None),
            (b"0x1p3", "not a sample value: '0x1p3'"),
            (b"1 2", "not a sample value: '1 2'"),
            (b"\xff1.0", "not valid UTF-8"),
            (b"", None),
        ],
        ids=["comment", "nan", "inf", "underscores", "hex", "two values", "not utf-8",
             "blank lines only"],
    )
    def test_record_read_and_detect_share_one_grammar(self, tmp_path, capsys, monkeypatch,
                                                      line, reason):
        # a second line after "1.0"; the empty case is a file of blank lines
        data = b"1.0\n" + line + b"\n" if line else b"\n \n"
        signal, meta = tmp_path / "r.sig.csv", tmp_path / "r.meta.json"
        signal.write_bytes(data)
        meta.write_text('{"sample_rate": 10000.0}')
        detect_file = main(["detect", str(signal), "--quiet"]), capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", std_io.TextIOWrapper(std_io.BytesIO(data), "utf-8"))
        detect_stdin = main(["detect", "-", "--quiet"]), capsys.readouterr()
        if reason is None:
            samples = [float(text) for text in data.decode().split()]
            if samples:
                assert eio.read_record(signal, meta).samples.tolist() == samples
            else:
                with pytest.raises(ValidationError, match="no samples$"):
                    eio.read_record(signal, meta)
            assert detect_file == detect_stdin == (0, ("", ""))
            return
        with pytest.raises(ValidationError) as caught:
            eio.read_record(signal, meta)
        assert str(caught.value) == f"{signal}:2: {reason}"
        assert detect_file == (1, ("", f"error: {signal}:2: {reason}\n"))
        assert detect_stdin == (1, ("", f"error: <stdin>:2: {reason}\n"))

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
# a bad line after the event opens, inside the one chunk: nothing is pushed
@example(0, "%.8e", [(1000, "banana")], "\n", 2500)
@example(0, "%.8e", [(1000, "nan")], "\n", 2500)
def test_detect_matches_per_line_reader(soup_config, seed, fmt, inserts, newline, chunk):
    rng = np.random.default_rng(seed)
    t = np.arange(1200) / 100.0
    signal = np.sin(2 * np.pi * 5.5 * t) * ((t >= 3.0) & (t < 8.0)) + rng.normal(0, 0.1, t.size)
    lines = [fmt % v for v in signal.tolist()]
    for position, token in sorted(inserts, reverse=True):
        lines.insert(position, token)
    path = soup_config.parent / "soup.sig.csv"
    path.write_text("".join(line + newline for line in lines), encoding="utf-8", newline="")
    meta = soup_config.parent / "soup.meta.json"
    meta.write_text('{"sample_rate": 100.0}')
    argv = ["detect", str(path), "--config", str(soup_config), "--quiet"]
    stdin_argv = ["detect", "-", "--config", str(soup_config), "--quiet"]
    with mock.patch.object(eio, "_SAMPLE_CHUNK_LINES", chunk):
        expected_out, expected_code, _ = soup_outcome(lambda: reference_main(path))
        out, code, err = soup_outcome(lambda: main(argv))
        with mock.patch.object(sys, "stdin", std_io.StringIO(path.read_text(encoding="utf-8"))):
            from_stdin = soup_outcome(lambda: main(stdin_argv))
        try:
            record = eio.read_record(path, meta).samples
        except ValidationError as exc:
            record = f"error: {exc}\n"
    assert (out, code) == (expected_out, expected_code)
    assert from_stdin == (out, code, err.replace(str(path), "<stdin>"))
    with open(path) as handle:
        texts = [(n, text) for n, line in enumerate(handle, start=1) if (text := line.strip())]
    # the first line that is not one finite number ends every reader
    bad = next(((n, text) for n, text in texts if not _is_finite(text)), None)
    assert (bad is not None) == (expected_code == 1)
    if bad is None:
        samples = np.array([float(text) for _, text in texts])
        assert err == ""
        if samples.size:
            assert record.tobytes() == samples.tobytes()
        else:
            assert record == f"error: {path}: no samples\n"
        return
    line_no, text = bad
    reason = "not a finite sample value" if _is_float(text) else "not a sample value"
    assert err == record == f"error: {path}:{line_no}: {reason}: {text!r}\n"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_finite(text: str) -> bool:
    return _is_float(text) and math.isfinite(float(text))


class TestArgumentHandling:
    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_one_parser_serves_calls_that_share_nothing(self, monkeypatch):
        seen = []
        for command in ("simulate", "detect"):
            monkeypatch.setitem(cli._COMMANDS, command, seen.append)
        assert main(["simulate", "--config", "c.json", "--seed", "7", "--out", "o",
                     "--jobs", "2", "--quiet"]) == 0
        assert main(["detect", "s.sig.csv"]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert vars(seen[1]) == {
            "command": "detect", "config": None, "seed": None, "out": ".", "jobs": 1,
            "quiet": False, "source": "s.sig.csv",
        }
        assert logging.getLogger("esdgait").getEffectiveLevel() == logging.INFO

    def test_jobs_must_be_positive(self, pipeline, capsys):
        config, out = pipeline
        assert main(["train", str(out / "features.csv"), "--config", str(config),
                     "--out", str(out), "--jobs", "0", "--quiet"]) == 1
        assert "--jobs" in capsys.readouterr().err
