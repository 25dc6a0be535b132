"""One process pool per command: artifacts identical at any --jobs, bounded
worker counts, a killed worker reported as one error line, and featurize
tasks that hold one record at a time and send no samples."""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import esdgait.experiments as ex
import esdgait.io as eio
from esdgait import dsp, forest
from esdgait.cli import main
from esdgait.errors import ValidationError
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
    and runs its initializer, as its one worker, and its tasks in this process."""

    def __init__(self, made: list[int], max_workers: int, initializer=None, initargs=()) -> None:
        made.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def shutdown(self, cancel_futures=False) -> None:
        return None

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The max_workers of every pool started, with 64 usable CPUs."""
    made: list[int] = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers, **init: FakeExecutor(made, max_workers, **init),
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(ex, "_SHARED", ())  # the tables a fake worker kept go at teardown
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


def test_shake_simulate_identical_at_any_jobs(tmp_path):
    # a shake cell is one task: its records share one clean waveform, and
    # the noise-only records' level comes from a reference shake
    config = tmp_path / "shake.json"
    config.write_text(json.dumps({
        "seed": 9,
        "task": "legshake",
        "dataset": {
            "shake_frequencies": [5.0, 6.5],
            "onsets": [0.5, 1.0],
            "duration": 2.0,
            "snr_db": 6.0,
            "samples_per_cell": 3,
            "noise_only": 2,
        },
    }))
    for jobs in JOBS:
        assert run("simulate", "--config", str(config), "--out", str(tmp_path / jobs),
                   "--jobs", jobs) == 0
    reference = tree_bytes(tmp_path / "1")
    assert len([name for name in reference if name.endswith(".sig.csv")]) == 2 * 2 * 3 + 2
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
def test_forest_commands_identical_at_any_jobs(cohort, tmp_path, monkeypatch, command):
    monkeypatch.setattr(forest, "_TASK_TREES", 5)  # runs of five trees, so that a pool starts
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


@pytest.mark.parametrize("command", ["train", "report", "eval"])
def test_bootstrap_forest_commands_identical_at_any_jobs(cohort, tmp_path, monkeypatch, command):
    # three classes and bootstrap: every fold tree takes the weighted split
    # search over its fold's root rows, at one, two or three workers, in runs
    # of five trees that split fits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(forest, "_TASK_TREES", 5)
    _, sim = cohort
    config = write_config(tmp_path, forest={"n_estimators": 7, "bootstrap": True})
    for jobs in JOBS:
        assert run(command, str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == tree_bytes(tmp_path / "1")


def test_search_over_max_features_identical_at_any_jobs(cohort, tmp_path, monkeypatch):
    # each max_features value is its own lockstep batch in every run of trees
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(forest, "_TASK_TREES", 7)
    _, sim = cohort
    config = write_config(tmp_path, search={
        "n_iter": 4, "space": {"max_features": ["sqrt", "log2", "all", 3], "n_estimators": [5]},
    })
    for jobs in JOBS:
        assert run("train", str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    trials = json.loads((tmp_path / "1" / "search_trials.json").read_text())
    assert sorted(str(t["params"]["max_features"]) for t in trials) == ["3", "all", "log2", "sqrt"]
    for jobs in JOBS[1:]:
        assert tree_bytes(tmp_path / jobs) == tree_bytes(tmp_path / "1")


# ------------------------------------------------------------ errors


def append_a_sample(signal: Path, meta: Path) -> None:
    with signal.open("a") as fh:
        fh.write("1.0\n")


def double_the_rate(signal: Path, meta: Path) -> None:
    labels = json.loads(meta.read_text())
    meta.write_text(json.dumps({**labels, "sample_rate": 2 * labels["sample_rate"]}))


def rename_the_person(signal: Path, meta: Path) -> None:
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "person_id": "dan"}))


@pytest.mark.parametrize("edit", [append_a_sample, double_the_rate, rename_the_person])
def test_record_changed_between_reads_is_one_error(cohort, tmp_path, monkeypatch, capsys, edit):
    config, sim = cohort
    shutil.copytree(sim / "records", tmp_path / "records")
    shutil.copy(sim / "dataset.json", tmp_path / "dataset.json")
    signal = tmp_path / "records" / "rec_0003.sig.csv"
    scan = ex._scan_task

    def scan_then_edit(signal_path, meta_path):
        result = scan(signal_path, meta_path)
        if signal_path == str(signal):
            edit(signal, Path(meta_path))
        return result

    monkeypatch.setattr(ex, "_scan_task", scan_then_edit)
    code = run("featurize", str(tmp_path / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path / "out"))
    assert (code, capsys.readouterr().err) == (1, f"error: {signal}: changed while featurize read it\n")


def test_a_same_size_rewrite_between_reads_is_featurized_as_rewritten(cohort, tmp_path, monkeypatch):
    """A sample of a record whose scan stamped its settled sidecar changes
    in place before the second read: the row is the changed record's."""
    config, sim = cohort
    for name in ("raced", "edited"):
        shutil.copytree(sim / "records", tmp_path / name / "records")
        shutil.copy(sim / "dataset.json", tmp_path / name / "dataset.json")

    def flip_a_digit(signal: Path) -> None:
        lines = signal.read_text().splitlines(keepends=True)
        mid = len(lines) // 2  # the records start with silence
        lines[mid] = lines[mid][:4] + str((int(lines[mid][4]) + 1) % 10) + lines[mid][5:]
        signal.write_text("".join(lines))

    raced = tmp_path / "raced" / "records" / "rec_0003.sig.csv"
    flip_a_digit(tmp_path / "edited" / "records" / raced.name)
    deadline = time.monotonic() + 10
    while eio.read_signal(raced)[1] is None:  # until the scan stamps it
        assert time.monotonic() < deadline
        time.sleep(0.05)
    scan = ex._scan_task

    def scan_then_flip(signal_path, meta_path):
        result = scan(signal_path, meta_path)
        if signal_path == str(raced):
            assert result.stamp is not None
            flip_a_digit(raced)
        return result

    assert run("featurize", str(tmp_path / "edited" / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path / "edited")) == 0
    monkeypatch.setattr(ex, "_scan_task", scan_then_flip)
    assert run("featurize", str(tmp_path / "raced" / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path / "raced")) == 0
    features = [(tmp_path / name / "features.csv").read_bytes() for name in ("raced", "edited")]
    assert features[0] == features[1] != (sim / "features.csv").read_bytes()


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
def test_one_pool_per_command(cohort, tmp_path, pools, monkeypatch, command):
    monkeypatch.setattr(forest, "_TASK_TREES", 5)
    config, sim = cohort
    for jobs, made in (("1", []), ("2", [2])):
        pools.clear()
        assert run(command, str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
        assert pools == made


def test_search_and_cv_share_one_pool(cohort, tmp_path, pools, monkeypatch):
    monkeypatch.setattr(forest, "_TASK_TREES", 5)
    _, sim = cohort
    config = write_config(tmp_path, search={"n_iter": 3, "space": {"n_estimators": [2, 4, 6]}})
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path / "out"), "--jobs", "2") == 0
    assert pools == [2]


def test_workers_capped_by_tasks(cohort, tmp_path, pools, monkeypatch):
    monkeypatch.setattr(forest, "_TASK_TREES", 6)
    config, sim = cohort
    assert run("simulate", "--config", str(config), "--out", str(tmp_path / "sim"),
               "--jobs", "50") == 0
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path / "train"), "--jobs", "50") == 0
    assert pools == [18, 4]  # 18 records; 3 folds and the full fit, 6 trees each, in runs of 6


def test_workers_capped_by_cpus(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "8") == 0
    assert pools == [3]


def test_a_pool_opens_for_a_map_of_two_tasks(cohort, tmp_path, monkeypatch):
    """A CV of small forests is one run of trees, so train forks no pool at
    --jobs 2 and runs it here; a CV of default forests is four runs, and
    one pool takes them."""
    made: list[int] = []

    def counted(max_workers, **init):
        made.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers, **init)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _, sim = cohort
    for size, forest_section in (("small", {"n_estimators": 6}), ("default", {})):
        (tmp_path / size).mkdir()
        config = write_config(tmp_path / size, forest=forest_section)
        for jobs in ("1", "2"):
            assert run("train", str(sim / "features.csv"), "--config", str(config),
                       "--out", str(tmp_path / size / jobs), "--jobs", jobs) == 0
        assert tree_bytes(tmp_path / size / "2") == tree_bytes(tmp_path / size / "1")
        assert made == ([] if size == "small" else [2])


def test_one_worker_starts_no_pool(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "4") == 0
    assert pools == []


def test_cpus_counted_where_the_os_has_no_affinity(cohort, tmp_path, pools, monkeypatch):
    """Only Linux has os.sched_getaffinity; elsewhere the pool's size comes
    from os.cpu_count."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(forest, "_TASK_TREES", 5)
    config, sim = cohort
    for jobs in ("1", "2"):
        assert run("train", str(sim / "features.csv"), "--config", str(config),
                   "--out", str(tmp_path / jobs), "--jobs", jobs) == 0
    assert pools == [2]
    assert tree_bytes(tmp_path / "2") == tree_bytes(tmp_path / "1")


SPAWN_PROBE = """
import concurrent.futures, multiprocessing, os, sys
multiprocessing.set_start_method("spawn")
from esdgait.cli import main
features, config, out = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, so that --jobs 2 opens a pool
pool, opened = concurrent.futures.ProcessPoolExecutor, []

def counted(**kwargs):
    opened.append(kwargs["max_workers"])
    return pool(**kwargs)

concurrent.futures.ProcessPoolExecutor = counted
for command in ("train", "report"):
    for jobs in ("1", "2"):
        assert main([command, features, "--config", config, "--out", f"{out}/{command}{jobs}",
                     "--jobs", jobs, "--quiet"]) == 0
print(opened)
"""


def test_spawned_workers_write_the_serial_bytes(cohort, tmp_path):
    """Under the spawn start method a worker inherits nothing from the
    command: the feature tables reach it through the pool's initializer."""
    _, sim = cohort
    config = write_config(tmp_path, forest={})  # 100 trees a fit: four runs of trees, so a pool
    src = Path(ex.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_PROBE, str(sim / "features.csv"), str(config), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[2, 2]"  # one pool each for train and report
    for command in ("train", "report"):
        assert tree_bytes(tmp_path / f"{command}2") == tree_bytes(tmp_path / f"{command}1")


NO_POOL_PROBE = """
import sys
from esdgait.cli import main
config, sim, out = sys.argv[1:]
assert main(["detect", "--config", config, "--quiet", sim + "/records/rec_0000.sig.csv"]) == 0
assert main(["train", sim + "/features.csv", "--config", config, "--out", out,
             "--jobs", "1", "--quiet"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "multiprocessing"))
"""


def test_commands_that_open_no_pool_import_no_multiprocessing(cohort, tmp_path):
    """detect and a --jobs 1 train never open a pool, so they never load
    the pool's code: importing concurrent.futures.process pulls in
    multiprocessing and keeps about a megabyte of objects alive."""
    config, sim = cohort
    src = Path(ex.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", NO_POOL_PROBE, str(config), str(sim), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


NO_MASKED_ARRAYS_PROBE = """
import sys
from esdgait.cli import main
config, sim, out = sys.argv[1:]
features = sim + "/features.csv"
for argv in (["train", "--out", out + "/train"], ["eval", "--out", out + "/cv"],
             ["eval", "--holdout", "--out", out + "/holdout"],
             ["eval", "--model", out + "/train/model.rfj", "--out", out + "/model"],
             ["report", "--out", out + "/report"]):
    assert main([argv[0], features, *argv[1:], "--config", config, "--jobs", "1", "--quiet"]) == 0
print(sorted(name for name in sys.modules if (name + ".").startswith("numpy.ma.")))
"""


def test_forest_commands_import_no_masked_arrays(cohort, tmp_path):
    """train, eval and report count and split labels without numpy's set
    routines: np.unique imports numpy.ma (about 1.25 MB) on its first call."""
    config, sim = cohort
    src = Path(ex.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS_PROBE, str(config), str(sim), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------ memory


def test_featurize_holds_one_record_at_a_time(cohort, tmp_path, monkeypatch):
    config, sim = cohort
    read_signal, featurize = eio.read_signal, dsp.featurize
    alive = [0]  # arrays read_signal returned, to the scan or to read_record, still referenced
    featurized = []

    def counted_read(signal_path, *stamp):
        samples, stamp = read_signal(signal_path, *stamp)
        alive[0] += 1
        weakref.finalize(samples, lambda: alive.__setitem__(0, alive[0] - 1))
        return samples, stamp

    def checked_featurize(record, *args):
        featurized.append(alive[0])
        return featurize(record, *args)

    monkeypatch.setattr(eio, "read_signal", counted_read)
    monkeypatch.setattr(dsp, "featurize", checked_featurize)
    assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "1") == 0
    assert featurized == [1] * 19  # 18 simulated records and the flat one


def test_featurize_drops_its_mfcc_plan(cohort, tmp_path):
    """The plan (mostly the 40-row mel filterbank) lives for one command:
    run_featurize drops it when it returns and when it raises, while a
    direct dsp.mfcc call keeps it for the next."""
    config_path, sim = cohort
    config = ex.load_config(config_path)
    ex.run_featurize(sim / "dataset.json", config, tmp_path / "whole")
    assert dsp._mfcc_plan.cache_info().currsize == 0
    labels = {"person_id": "ada", "plant_type": "ficus", "location": "lab"}
    short = SignalRecord(np.ones(config.mfcc.window_size - 1), 10_000.0, labels)
    eio.write_record(short, tmp_path / "short.sig.csv", tmp_path / "short.meta.json")
    eio.write_manifest(tmp_path / "dataset.json",
                       [{"signal_path": "short.sig.csv", "meta_path": "short.meta.json"}])
    dsp.mfcc(np.ones(config.mfcc.window_size), config.mfcc)
    assert dsp._mfcc_plan.cache_info().currsize == 1
    with pytest.raises(ValidationError, match="shorter than one mfcc window"):
        ex.run_featurize(tmp_path / "dataset.json", config, tmp_path / "short")
    assert dsp._mfcc_plan.cache_info().currsize == 0


def test_no_samples_cross_the_pool(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    sizes: dict[str, list[int]] = {}

    def pickling_map(self, fn, *iterables, chunksize=1):
        # what a process pool would pickle: each task's arguments and result
        for args in zip(*iterables):
            result = fn(*args)
            sizes.setdefault(fn.__name__, []).extend(len(pickle.dumps(x)) for x in (args, result))
            yield result

    monkeypatch.setattr(FakeExecutor, "map", pickling_map)
    assert run("featurize", str(sim / "dataset.json"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "2") == 0
    assert pools == [2]
    assert max(max(task_sizes) for task_sizes in sizes.values()) < 64 * 1024
    assert {name: len(task_sizes) for name, task_sizes in sizes.items()} == {
        "_scan_task": 2 * 19, "_featurize_task": 2 * 19
    }
    # a featurize result is its values alone: the column names cross no pool
    columns = len((tmp_path / "features.csv").read_text().partition("\n")[0].split(",")) - 1
    assert max(sizes["_featurize_task"][1::2]) < 8 * columns + 512


def test_forest_tasks_are_tree_runs_and_no_fold_tree_crosses(cohort, tmp_path, pools, monkeypatch):
    config, sim = cohort
    sizes: list[tuple[int, int]] = []

    def pickling_map(self, fn, *iterables, chunksize=1):
        for args in zip(*iterables):
            result = fn(*args)
            sizes.append((len(pickle.dumps(args)), len(pickle.dumps(result))))
            yield result

    share = ex._share
    shared: list[tuple] = []  # the tables of each initializer call

    def recorded_share(tables):
        shared.append(tables)
        share(tables)

    monkeypatch.setattr(FakeExecutor, "map", pickling_map)
    monkeypatch.setattr(ex, "_share", recorded_share)
    monkeypatch.setattr(forest, "_TASK_TREES", 5)
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path), "--jobs", "2") == 0
    trees = 6 * (3 + 1)  # n_estimators for each of the 3 folds and the full fit
    assert pools == [2] and len(sizes) == -(-trees // 5)  # one task per run of 5 trees
    table = pickle.dumps(ex.dataset_from_features(*eio.read_features(sim / "features.csv")))
    assert len(table) > 8 * 1024
    # the table reaches the pool's one worker once, through its initializer
    assert [[pickle.dumps(t) for t in tables] for tables in shared] == [[table]]
    model = len(pickle.dumps(forest.load_model(tmp_path / "model.rfj").nodes))
    for args, result in sizes:
        assert args < 8 * 1024  # the table's index, and the fits' rows
        # a run's full-fit trees and fold trees' leaf distributions: less
        # than the whole model, which the fold trees would exceed
        assert result < model


def test_no_lockstep_batch_exceeds_a_task_at_jobs_1(cohort, tmp_path, monkeypatch):
    """At --jobs 1 a CV's 400 trees grow in runs of at most _TASK_TREES,
    so no fit_trees batch holds every tree of the CV at once."""
    _, sim = cohort
    config = write_config(tmp_path, forest={"n_estimators": 100})
    batches: list[int] = []
    fit_trees = forest.fit_trees

    def counted(data, params, seeds, roots=None):
        batches.append(len(seeds))
        return fit_trees(data, params, seeds, roots)

    monkeypatch.setattr(forest, "fit_trees", counted)
    assert run("train", str(sim / "features.csv"), "--config", str(config),
               "--out", str(tmp_path / "out"), "--jobs", "1") == 0
    assert sum(batches) == 100 * (3 + 1) and max(batches) <= forest._TASK_TREES
