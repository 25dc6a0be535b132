"""No package function is reached only by tests. A fresh interpreter runs
cli.main under sys.setprofile through every command on tiny configs:
simulate for each task, featurize with categoricals, train with and without
a search, eval in its three modes, eval and report in train's out dir (so
they read cv.json), detect on a file and on stdin, and train at --jobs 2
through a stand-in pool that runs its initializer and tasks in the probe's
own process, where the profile sees the code of a pool worker. Every function
defined in a package file must run, apart from ALLOWED. Only functions
compiled from a package file count, so the methods that dataclasses
generate are left out."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import esdgait

PACKAGE = Path(esdgait.__file__).resolve().parent
ALLOWED: set[str] = set()  # "module.qualname" of functions no command reaches

PROBE = r"""
import json, sys

package, runs = sys.argv[1], json.loads(sys.argv[2])
reached = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package) and code.co_name[0] != "<":
        reached.add((code.co_filename, code.co_firstlineno, code.co_name))


class InProcessPool:  # ProcessPoolExecutor's stand-in: one worker, this process
    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def map(self, fn, *iterables, chunksize):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures):
        pass


sys.setprofile(profile)
import concurrent.futures, os
from esdgait.cli import main

concurrent.futures.ProcessPoolExecutor = InProcessPool
os.sched_getaffinity = lambda pid: {0, 1}  # a --jobs 2 map of two tasks opens the pool

for argv, stdin in runs:
    if stdin is not None:
        sys.stdin = open(stdin, encoding="utf-8")
    if main([*argv, "--quiet"]) != 0:
        raise SystemExit(f"{argv} failed")
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""

WALK = {
    "seed": 3,
    "task": "identify_person",
    "cv_folds": 2,
    "include_categoricals": True,
    "dataset": {
        "persons": {
            "ada": {"step_frequency": 1.2, "walking_speed": 1.1},
            "ben": {"step_frequency": 1.5, "walking_speed": 1.25},
            "cal": {"step_frequency": 1.8, "walking_speed": 1.4},
        },
        "moods": {"happy": {"speed_factor": 1.2}, "sad": {}},
        "plant_types": ["pothos", "ficus"],
        "locations": ["lab", "office"],
        "samples_per_cell": 2,
        "start_distance": 1.2,
    },
    "mfcc": {"window_size": 1000, "hop_length": 500},
    "forest": {"n_estimators": 3, "min_samples_split": 2, "min_samples_leaf": 1},
}
SHAKE = {
    "seed": 3,
    "task": "legshake",
    "dataset": {
        "shake_frequencies": [5.5], "onsets": [1.0], "duration": 3.0,
        "samples_per_cell": 1, "snr_db": 10.0, "noise_only": 1,
    },
}


def defined_functions() -> dict[tuple, str]:
    """Every def in the package's files, keyed as PROBE reports it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        key = (str(path), const.co_firstlineno, const.co_name)
                        found[key] = f"{path.stem}.{getattr(const, 'co_qualname', const.co_name)}"
    return found


def test_every_package_function_runs_in_the_pipeline(tmp_path):
    walk, search, shake = (tmp_path / name for name in ("walk.json", "search.json", "shake.json"))
    pooled = tmp_path / "pooled.json"  # a CV of 195 trees: two runs, so two pooled tasks
    walk.write_text(json.dumps(WALK))
    pooled.write_text(json.dumps({**WALK, "forest": {**WALK["forest"], "n_estimators": 65}}))
    search.write_text(json.dumps({**WALK, "search": {"n_iter": 2, "space": {"max_depth": [2, 3]}}}))
    shake.write_text(json.dumps(SHAKE))
    w, s, trained = tmp_path / "w", tmp_path / "s", tmp_path / "trained"
    features = str(w / "features.csv")
    record = str(s / "records" / "rec_0000.sig.csv")
    runs = [
        (["simulate", "--config", str(walk), "--out", str(w)], None),
        (["featurize", str(w / "dataset.json"), "--config", str(walk), "--out", str(w)], None),
        (["train", features, "--config", str(search), "--out", str(tmp_path / "searched")], None),
        (["train", features, "--config", str(walk), "--out", str(trained)], None),
        # cv mode and report read train's cv.json
        (["eval", features, "--config", str(walk), "--out", str(trained)], None),
        (["report", features, "--config", str(walk), "--out", str(trained)], None),
        (["eval", features, "--config", str(walk), "--out", str(tmp_path / "h"), "--holdout"],
         None),
        (["eval", features, "--config", str(walk), "--out", str(tmp_path / "m"),
          "--model", str(trained / "model.rfj")], None),
        (["simulate", "--config", str(shake), "--out", str(s)], None),
        (["detect", record, "--config", str(shake)], None),
        (["detect", "-"], record),
        (["train", features, "--config", str(pooled), "--out", str(tmp_path / "p"),
          "--jobs", "2"], None),
    ]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), json.dumps(runs)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    reached = {tuple(key) for key in json.loads(done.stdout.splitlines()[-1])}
    defined = defined_functions()
    assert reached <= defined.keys(), "reached functions must key as defined ones"
    unreached = {name for key, name in defined.items() if key not in reached}
    dead = sorted(unreached - ALLOWED)
    assert not dead, f"reached only by tests, if at all: {dead}"
    assert unreached >= ALLOWED, "an allowed function now runs; take it off ALLOWED"
