"""Fuzz the input boundary: cli.main runs in-process on mutated copies of
tiny valid inputs (a config, a one-record manifest with its record pair
and sidecar, a feature table, a saved model and a detect source). Whatever
the mutation, no exception may escape, and a non-zero return is 1 or 2 with
exactly one stderr line, starting "error: ". A path that is a directory,
missing or under a file is bad input, so it returns 1. A mutated sidecar is
no input at all: featurize must succeed as if it were absent."""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdgait.io as eio
from esdgait.cli import main
from esdgait.simkit import SignalRecord

CONFIG = {
    "seed": 3,
    "task": "identify_person",
    "cv_folds": 2,
    "mfcc": {"window_size": 64, "hop_length": 32, "n_mfcc": 2, "n_mel_filters": 4},
    "forest": {"n_estimators": 3, "min_samples_split": 2, "min_samples_leaf": 1},
    "detector": {"sample_rate": 100.0},
}
# each input's file name; the manifest lists the signal and meta pair
FILES = {
    "config": "config.json", "manifest": "dataset.json", "signal": "r.sig.csv",
    "meta": "r.meta.json", "sidecar": "r.sig.csv.f8", "features": "features.csv",
    "model": "model.rfj", "source": "source.sig.csv",
}
JSON_ROLES = {"config", "manifest", "meta", "model"}
# each command with the inputs it reads, as argv templates
COMMANDS = {
    "featurize": ["featurize", "{manifest}", "--config", "{config}"],
    "train": ["train", "{features}", "--config", "{config}"],
    "eval_model": ["eval", "{features}", "--config", "{config}", "--model", "{model}"],
    "eval_holdout": ["eval", "{features}", "--config", "{config}", "--holdout"],
    "eval_cv": ["eval", "{features}", "--config", "{config}"],
    "report": ["report", "{features}", "--config", "{config}"],
    "detect": ["detect", "{source}", "--config", "{config}"],
}
ROLES = {
    name: [part[1:-1] for part in argv if part.startswith("{")]
    + (["signal", "meta", "sidecar"] if name == "featurize" else [])
    for name, argv in COMMANDS.items()
}
WRONG_VALUES = [None, True, "x", 1.5, -1, 0, [], {}, [1], {"x": 1}, float("inf")]
BAD_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The valid inputs, one file per role, in one directory."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {role: root / name for role, name in FILES.items()}
    paths["config"].write_text(json.dumps(CONFIG))
    rng = np.random.default_rng(0)
    t = np.arange(400) / 10_000.0
    samples = np.sin(2 * np.pi * 300 * t) + rng.normal(0, 0.1, t.size)
    record = SignalRecord(samples, 10_000.0, {"person_id": "ada"})
    eio.write_record(record, paths["signal"], paths["meta"])
    entry = {"signal_path": FILES["signal"], "meta_path": FILES["meta"]}
    eio.write_manifest(paths["manifest"], [entry])
    matrix = rng.normal(size=(8, 3)) + np.array([[0.0], [3.0]] * 4)
    eio.write_features(paths["features"], matrix, ("f0", "f1", "f2"), ["ada", "ben"] * 4)
    assert run_main(["train", str(paths["features"]), "--config", str(paths["config"]),
                     "--out", str(root / "trained")])[0] == 0
    shutil.move(root / "trained" / "model.rfj", paths["model"])
    shutil.rmtree(root / "trained")
    shake = np.sin(2 * np.pi * 5.5 * np.arange(300) / 100.0) * (np.arange(300) >= 100)
    paths["source"].write_text("".join(f"{v:.8e}\n" for v in shake))
    return root


@st.composite
def cases(draw):
    # the input first, so each file is mutated about as often as any other
    role = draw(st.sampled_from(sorted(FILES)))
    command = draw(st.sampled_from([c for c in sorted(COMMANDS) if role in ROLES[c]]))
    kinds = ["flip", "truncate", "bad_utf8", "directory", "missing"]
    if role != "sidecar":  # no input names the sidecar's path
        kinds.append("under_file")
    if role in JSON_ROLES:
        kinds.append("swap")
    kind = draw(st.sampled_from(kinds))
    position = draw(st.integers(0, 1 << 20))
    detail = draw(
        {
            "flip": st.integers(1, 127),  # ASCII stays ASCII: bad UTF-8 is its own kind
            "bad_utf8": st.sampled_from(BAD_UTF8),
            "swap": st.sampled_from(WRONG_VALUES),
        }.get(kind, st.none())
    )
    return command, role, kind, position, detail


def value_paths(doc, path=()):
    """Key paths of every value in a parsed JSON document, root first."""
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from value_paths(value, (*path, key))


def mutate(work: Path, role: str, kind: str, position: int, detail) -> dict[str, str]:
    """Apply one mutation to the copy of `role` in `work`; returns the argv
    paths it changes."""
    path = work / FILES[role]
    data = path.read_bytes()
    at = position % (len(data) + 1)
    if kind == "flip":
        at = position % len(data)
        path.write_bytes(data[:at] + bytes([data[at] ^ detail]) + data[at + 1:])
    elif kind == "truncate":
        path.write_bytes(data[:at])
    elif kind == "bad_utf8":
        path.write_bytes(data[:at] + detail + data[at:])
    elif kind == "swap":
        doc = json.loads(data)
        paths = list(value_paths(doc))
        # a depth first, then a value at it, so a model's many tree cells
        # do not crowd out its top-level keys
        n_depths = max(map(len, paths)) + 1
        at_depth = [p for p in paths if len(p) == position % n_depths]
        target = at_depth[position // n_depths % len(at_depth)]
        if not target:
            doc = detail
        else:
            parent = doc
            for key in target[:-1]:
                parent = parent[key]
            parent[target[-1]] = detail
        path.write_text(json.dumps(doc))
    elif kind in ("directory", "missing"):
        path.unlink()
        if kind == "directory":
            path.mkdir()
    elif role in ("signal", "meta"):  # under_file: a manifest entry names <file>/x
        entries = json.loads((work / FILES["manifest"]).read_text())
        entries[0][f"{role}_path"] += "/x"
        (work / FILES["manifest"]).write_text(json.dumps(entries))
    else:
        return {role: str(path / "x")}
    return {}


def run_main(argv: list[str]) -> tuple[int, str]:
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        return main([*argv, "--quiet"]), err.getvalue()


def copy_inputs(inputs: Path, work: Path) -> dict[str, str]:
    for name in FILES.values():
        shutil.copy(inputs / name, work / name)
    return {role: str(work / name) for role, name in FILES.items()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unmutated_inputs_succeed(inputs, tmp_path, command):
    paths = copy_inputs(inputs, tmp_path)
    argv = [part.format(**paths) for part in COMMANDS[command]]
    assert run_main([*argv, "--out", str(tmp_path / "out")]) == (0, "")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_mutated_inputs_end_in_one_error_line(inputs, case):
    command, role, kind, position, detail = case
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        work = Path(tmp)
        paths = copy_inputs(inputs, work)
        paths.update(mutate(work, role, kind, position, detail))
        argv = [part.format(**paths) for part in COMMANDS[command]]
        code, err = run_main([*argv, "--out", str(work / "out")])
        if role == "sidecar":
            # a spoiled sidecar is a miss: featurize reads the record text
            # and writes what it writes with no sidecar at all
            assert (code, err) == (0, "")
            sidecar = work / FILES["sidecar"]
            if sidecar.is_dir():
                sidecar.rmdir()
            elif sidecar.exists():
                sidecar.unlink()
            assert run_main([*argv, "--out", str(work / "text")]) == (0, "")
            features = [(work / out / "features.csv").read_bytes() for out in ("out", "text")]
            assert features[0] == features[1]
    assert code in (0, 1, 2)
    if kind in ("directory", "missing", "under_file") and role != "sidecar":
        assert code == 1, err  # a bad path is bad input
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
