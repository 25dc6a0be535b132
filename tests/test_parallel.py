"""One process pool per command: artifacts identical at any --jobs, bounded
worker counts, and a killed worker reported as one error line."""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import esdgait.experiments as ex
import esdgait.io as eio
from esdgait.cli import main
from esdgait.simkit import SignalRecord

JOBS = ("1", "2", "3")


def write_config(root: Path, **overrides) -> Path:
    raw = {
        "seed": 5,
        "task": "identify_person",
        "cv_folds": 3,
        "include_categoricals": True,
        "dataset": {
            "persons": {
                "ada": {"step_frequency": 1.2, "walking_speed": 1.1},
                "ben": {"step_frequency": 1.5, "walking_speed": 1.25},
                "cal": {"step_frequency": 1.8, "walking_speed": 1.4},
            },
            "plant_types": ["pothos", "ficus"],
            "locations": ["lab", "office"],
            "samples_per_cell": 6,
        },
        "forest": {"n_estimators": 6},
    }
    raw.update(overrides)
    path = root / "config.json"
    path.write_text(json.dumps(raw))
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run(*argv: str) -> int:
    return main([*argv, "--quiet"])


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A simulated cohort plus a flat-line record that featurize must reject."""
    root = tmp_path_factory.mktemp("cohort")
    config = write_config(root)
    out = root / "sim"
    assert run("simulate", "--config", str(config), "--out", str(out)) == 0
    flat = SignalRecord(np.zeros(20_000), 10_000.0, {"person_id": "ada", "plant_type": "ficus",
                                                     "location": "lab"})
    eio.write_record(flat, out / "records" / "flat.sig.csv", out / "records" / "flat.meta.json")
    entries = json.loads((out / "dataset.json").read_text())
    entries.insert(4, {"signal_path": "records/flat.sig.csv", "meta_path": "records/flat.meta.json"})
    eio.write_manifest(out / "dataset.json", entries)
    assert run("featurize", str(out / "dataset.json"), "--config", str(config),
               "--out", str(out)) == 0
    return config, out


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records each pool's worker count
    and runs its tasks in this process."""

    def __init__(self, made: list[int], max_workers: int) -> None:
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The max_workers of every pool started, with 64 usable CPUs."""
    made: list[int] = []
    monkeypatch.setattr(ex, "ProcessPoolExecutor", lambda max_workers: FakeExecutor(made, max_workers))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    return made


# ------------------------------------------------------------ invariance


def test_simulate_identical_at_any_jobs(tmp_path):
    config = write_config(tmp_path)
    for jobs in JOBS:
        assert run("simulate", "--config", str(config), "--out", str(tmp_path / jobs),
                   "--jobs", jobs) == 0
    reference = tree_bytes(tmp_path / "1")
    assert len([name for name in reference if name.endswith((".sig.csv", ".meta.json"))]) == 36
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == reference


def test_featurize_identical_at_any_jobs(cohort, tmp_path):
    config, sim = cohort
    for jobs in JOBS:
        assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    sidecar = json.loads((tmp_path / "1" / "features.meta.json").read_text())
    assert [r["signal_path"] for r in sidecar["rejects"]] == [str(sim / "records" / "flat.sig.csv")]
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == tree_bytes(tmp_path / "1")


@pytest.mark.parametrize("command", ["train", "report", "eval"])
def test_forest_commands_identical_at_any_jobs(cohort, tmp_path, command):
    config, sim = cohort
    for jobs in JOBS:
        assert run(command, str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    assert ("cv.json" in tree_bytes(tmp_path / "1")) == (command == "train")
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == tree_bytes(tmp_path / "1")


def test_search_identical_at_any_jobs(cohort, tmp_path):
    _, sim = cohort
    config = write_config(tmp_path, search={"n_iter": 3, "space": {"n_estimators": [2, 4, 6]}})
    for jobs in JOBS:
        assert run("train", str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    assert len(json.loads((tmp_path / "1" / "search_trials.json").read_text())) == 3
    assert (tmp_path / "1" / "cv.json").is_file()
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == tree_bytes(tmp_path / "1")


# ------------------------------------------------------------ errors


def test_bad_sample_same_error_at_any_jobs(cohort, tmp_path, capsys):
    config, sim = cohort
    manifest = [
        {key: str(sim / path) for key, path in entry.items()}
        for entry in json.loads((sim / "dataset.json").read_text())
    ]
    bad = tmp_path / "bad.sig.csv"
    lines = Path(manifest[5]["signal_path"]).read_text().splitlines(keepends=True)
    lines[6] = "oops\n"
    bad.write_text("".join(lines))
    manifest[5]["signal_path"] = str(bad)
    eio.write_manifest(tmp_path / "dataset.json", manifest)
    outcomes = []
    for jobs in ("1", "2"):
        code = run("featurize", str(tmp_path / "dataset.json"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs)
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1] == (1, f"error: {bad}:7: not a sample value: 'oops'\n")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched task reaches workers by fork"
)
def test_killed_worker_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a pool, never this process
    monkeypatch.setattr(ex, "synthesize_record", lambda plan: os._exit(1))
    config = write_config(tmp_path)
    code = run("simulate", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "2")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ------------------------------------------------------------ pool count and size


@pytest.mark.parametrize("command", ["train", "report"])
def test_one_pool_per_command(cohort, tmp_path, pools, command):
    config, sim = cohort
    for jobs, made in (("1", []), ("2", [2])):
        pools.clear()
        assert run(command, str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
        assert pools == made


def test_search_and_cv_share_one_pool(cohort, tmp_path, pools):
    _, sim = cohort
    config = write_config(tmp_path, search={"n_iter": 3, "space": {"n_estimators": [2, 4, 6]}})
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path / "out"), "--jobs", "2") == 0
    assert pools == [2]


def test_workers_capped_by_tasks(cohort, tmp_path, pools):
    config, sim = cohort
    assert run("simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
               "--jobs", "50") == 0
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path / "train"), "--jobs", "50") == 0
    assert pools == [18, 4]  # 18 records; 3 folds plus the full fit


def test_workers_capped_by_cpus(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "8") == 0
    assert pools == [3]


def test_one_worker_starts_no_pool(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "4") == 0
    assert pools == []
