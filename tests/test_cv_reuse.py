"""report and CV-mode eval reuse train's cross-validation through cv.json:
the same bytes as a fresh run, none of train's forests grown again, and a
fresh CV whenever any input the record is keyed on differs or the record is
unusable."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import shutil
import tracemalloc
from pathlib import Path

import pytest

import esdgait.experiments as ex
from esdgait import forest
from esdgait.cli import main

PERSONS = {
    "ada": {"step_frequency": 1.2, "walking_speed": 1.1},
    "ben": {"step_frequency": 1.5, "walking_speed": 1.25},
    "cal": {"step_frequency": 1.8, "walking_speed": 1.4},
}
REPORT_FILES = ("accuracy_vs_k.csv", "importance.csv", "eval_report.json")


def write_config(path: Path, n_classes: int, **overrides) -> Path:
    raw = {
        "seed": 5,
        "task": "identify_person",
        "cv_folds": 3,
        "dataset": {
            "persons": dict(list(PERSONS.items())[:n_classes]),
            "samples_per_cell": 4,
        },
        "forest": {"n_estimators": 4},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


def run(*argv: str) -> int:
    return main([*argv, "--quiet"])


@pytest.fixture(scope="module", params=[2, 3], ids=["K2", "K3"])
def table(request, tmp_path_factory):
    """(K, config, features.csv, out dir of a train run on it)."""
    root = tmp_path_factory.mktemp(f"k{request.param}")
    config = write_config(root / "config.json", request.param)
    sim = root / "sim"
    assert run("simulate", "--config", str(config), "--out", str(sim)) == 0
    assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
               "--out", str(sim)) == 0
    trained = root / "trained"
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(trained)) == 0
    return request.param, config, sim / "features.csv", trained


@pytest.fixture
def forests(monkeypatch) -> list[int]:
    """One entry per forest grown: per fit handed to forest.grow, which the
    command calls in its own process, so the count holds at any --jobs."""
    grown: list[int] = []
    grow = forest.grow

    def counted(fits, *args, **kwargs):
        grown.extend([1] * len(fits))
        return grow(fits, *args, **kwargs)

    monkeypatch.setattr(forest, "grow", counted)
    return grown


def fresh_forests(k: int, folds: int = 3) -> int:
    """A report in a fresh dir: fold fits of the k - 2 steps below every
    class, then train's cross-validation (the folds and the full fit)."""
    return (k - 2) * folds + folds + 1


def trained_copy(trained: Path, dest: Path) -> Path:
    shutil.copytree(trained, dest)
    return dest


def report_bytes(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in REPORT_FILES}


def fresh_report(features: Path, config: Path, out: Path, *extra: str) -> dict[str, bytes]:
    assert run("report", str(features), "--config", str(config), "--out", str(out), *extra) == 0
    return report_bytes(out)


# ------------------------------------------------------------ reuse


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_report_after_train_reuses_cv(table, tmp_path, forests, jobs):
    k, config, features, trained = table
    expected = fresh_report(features, config, tmp_path / "fresh", "--jobs", jobs)
    assert len(forests) == fresh_forests(k)
    forests.clear()
    out = trained_copy(trained, tmp_path / "out")
    assert run("report", str(features), "--config", str(config), "--out", str(out),
               "--jobs", jobs) == 0
    assert len(forests) == (k - 2) * 3  # the sweep's fold fits alone
    assert report_bytes(out) == expected
    assert (out / "eval_report.json").read_bytes() == (trained / "eval_report.json").read_bytes()


@pytest.mark.parametrize("n_iter", [0, 3])
def test_train_grows_each_forest_once(table, tmp_path, forests, n_iter):
    """train grows its CV's folds and full fit, or each search trial's folds
    and then the winner's full fit: 11 and 31 forests for persons' ten folds."""
    k, _, features, _ = table
    search = {"search": {"n_iter": n_iter, "space": {"n_estimators": [2, 3, 4]}}} if n_iter else {}
    config = write_config(tmp_path / "config.json", k, **search)
    assert run("train", str(features), "--config", str(config), "--out", str(tmp_path / "out"),
               "--jobs", "2") == 0
    assert len(forests) == max(n_iter, 1) * 3 + 1  # no search: one trial


def test_cv_eval_after_train_reuses_cv(table, tmp_path, forests):
    _, config, features, trained = table
    out = trained_copy(trained, tmp_path / "out")
    assert run("eval", str(features), "--config", str(config), "--out", str(out)) == 0
    assert forests == []
    assert (out / "eval_report.json").read_bytes() == (trained / "eval_report.json").read_bytes()


def test_eval_model_between_train_and_report_changes_nothing(table, tmp_path, forests):
    k, config, features, trained = table
    out = trained_copy(trained, tmp_path / "out")
    assert run("eval", str(features), "--config", str(config), "--out", str(out),
               "--model", str(out / "model.rfj")) == 0
    assert (out / "eval_report.json").read_bytes() != (trained / "eval_report.json").read_bytes()
    assert run("report", str(features), "--config", str(config), "--out", str(out)) == 0
    assert len(forests) == (k - 2) * 3
    forests.clear()
    assert report_bytes(out) == fresh_report(features, config, tmp_path / "fresh")


def test_fully_reused_command_starts_no_pool(table, tmp_path, monkeypatch):
    k, config, features, trained = table
    started: list[int] = []

    def no_pool(max_workers):
        started.append(max_workers)
        raise AssertionError("a command whose CV is reused started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = trained_copy(trained, tmp_path / "out")
    assert run("eval", str(features), "--config", str(config), "--out", str(out),
               "--jobs", "2") == 0
    if k == 2:  # report's one sweep step is the reused one
        assert run("report", str(features), "--config", str(config), "--out", str(out),
                   "--jobs", "2") == 0
    assert started == []


def test_searched_config_has_one_cv(table, tmp_path, forests):
    """A searched config's CV is its winner's, read from train's cv.json or
    grown by the search again: eval and report write train's report either
    way, and in train's dir eval grows no forest and report only the sweep."""
    k, _, features, _ = table
    config = write_config(tmp_path / "search.json", k,
                          search={"n_iter": 3, "space": {"n_estimators": [2, 3, 5]}})
    trained = tmp_path / "trained"
    assert run("train", str(features), "--config", str(config), "--out", str(trained)) == 0
    expected = (trained / "eval_report.json").read_bytes()
    forests.clear()
    for command, grown in (("eval", 0), ("report", (k - 2) * 3)):
        out = trained_copy(trained, tmp_path / f"{command}-trained")
        assert run(command, str(features), "--config", str(config), "--out", str(out)) == 0
        assert len(forests) == grown
        forests.clear()
        assert (out / "eval_report.json").read_bytes() == expected
        fresh = tmp_path / f"{command}-fresh"
        assert run(command, str(features), "--config", str(config), "--out", str(fresh)) == 0
        assert len(forests) == grown + 3 * 3 + 1
        forests.clear()
        assert (fresh / "eval_report.json").read_bytes() == expected


# ------------------------------------------------------------ key fields


def edit_one_cell(features: Path, dest: Path) -> Path:
    lines = features.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 1.0)
    dest.write_text("".join(lines[:1] + [",".join(cells)] + lines[2:]))
    return dest


@pytest.mark.parametrize(
    "change", ["features", "forest", "cv_folds", "seed", "version", "search"]
)
def test_each_key_field_forces_a_fresh_cv(table, tmp_path, forests, monkeypatch, change):
    k, config, features, trained = table
    out = trained_copy(trained, tmp_path / "out")
    extra: tuple[str, ...] = ()
    folds = 3
    if change == "features":
        features = edit_one_cell(features, tmp_path / "features.csv")
    elif change == "forest":
        config = write_config(tmp_path / "config.json", k, forest={"n_estimators": 5})
    elif change == "cv_folds":
        config = write_config(tmp_path / "config.json", k, cv_folds=4)
        folds = 4
    elif change == "seed":  # the forest seed stays the trained one: only the CV seed moves
        config = write_config(tmp_path / "config.json", k, forest={"n_estimators": 4, "seed": 5})
        extra = ("--seed", "6")
    elif change == "version":
        monkeypatch.setattr(ex, "__version__", "0.0.0")
    else:  # train with a search; report cross-validates the config's forest section
        search = write_config(tmp_path / "search.json", k,
                              search={"n_iter": 2, "space": {"n_estimators": [2, 3]}})
        assert run("train", str(features), "--config", str(search), "--out", str(out)) == 0
        forests.clear()
    assert run("report", str(features), "--config", str(config), "--out", str(out), *extra) == 0
    assert len(forests) == fresh_forests(k, folds)
    assert report_bytes(out) == fresh_report(features, config, tmp_path / "fresh", *extra)


# ------------------------------------------------------------ unusable records


def corrupt(record: Path, how: str) -> None:
    doc = json.loads(record.read_text())
    if how == "truncated":
        record.write_text(record.read_text()[:40])
    elif how == "not json":
        record.write_text("cv results\n")
    elif how == "list":
        record.write_text(json.dumps([doc]))
    elif how == "report string":
        record.write_text(json.dumps({**doc, "report": "oops"}))
    elif how == "accuracy string":  # a number as text, and not the CV's number
        doc["report"]["accuracy"] = str(doc["report"]["accuracy"] + 1.0)
        record.write_text(json.dumps(doc))
    elif how == "short importances":
        doc["report"]["importances"] = doc["report"]["importances"][:-1]
        record.write_text(json.dumps(doc))
    elif how == "nested importances":  # decodes, but cannot encode back
        doc["report"]["importances"] = [doc["report"]["importances"]]
        record.write_text(json.dumps(doc))
    elif how == "fractional counts":
        doc["report"]["confusion_matrix"][0][0] += 1.5
        record.write_text(json.dumps(doc))
    else:
        record.unlink()
        if how == "directory":
            record.mkdir()


@pytest.mark.parametrize(
    "how",
    ["truncated", "not json", "list", "report string", "accuracy string",
     "short importances", "nested importances", "fractional counts", "directory", "deleted"],
)
def test_unusable_record_is_a_miss(table, tmp_path, forests, capsys, how):
    k, config, features, trained = table
    out = trained_copy(trained, tmp_path / "out")
    corrupt(out / "cv.json", how)
    assert run("report", str(features), "--config", str(config), "--out", str(out)) == 0
    assert len(forests) == fresh_forests(k)
    assert capsys.readouterr().err == ""
    assert report_bytes(out) == fresh_report(features, config, tmp_path / "fresh")


def test_record_nested_past_the_parser_is_a_miss(table, tmp_path, forests, capsys):
    k, config, features, trained = table
    out = trained_copy(trained, tmp_path / "out")
    (out / "eval_report.json").unlink()
    (out / "cv.json").write_text("[" * 100_000 + "]" * 100_000)
    assert run("report", str(features), "--config", str(config), "--out", str(out)) == 0
    assert len(forests) == fresh_forests(k)
    assert capsys.readouterr().err == ""
    assert (out / "eval_report.json").read_bytes() == (trained / "eval_report.json").read_bytes()


def test_record_holds_key_and_train_report(table):
    _, config, features, trained = table
    record = json.loads((trained / "cv.json").read_text())
    assert set(record) == {"key", "report"}
    assert set(record["key"]) == {
        "features_sha256", "forest", "cv_folds", "seed", "esdgait_version",
    }
    assert record["report"] == json.loads((trained / "eval_report.json").read_text())


def test_key_hashes_the_table_a_block_at_a_time(tmp_path):
    features = tmp_path / "features.csv"
    features.write_bytes(os.urandom(1 << 20))
    config = ex.load_config(write_config(tmp_path / "config.json", 2))
    tracemalloc.start()
    try:
        key = ex._cv_key(features, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key["features_sha256"] == hashlib.sha256(features.read_bytes()).hexdigest()
    assert peak < 250_000  # the table is 1 MB
