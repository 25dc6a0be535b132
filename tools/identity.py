"""Check that every esdgait output is a pure function of config and seed.

    python tools/identity.py OUT

runs one fixed set of commands on this checkout's `src/` and writes every
artifact and `detect` event line under OUT, a directory that must not exist.
It exits 1 naming the first pair of outputs that must be equal and differ,
or the first command or check that fails.
To show that a change keeps every artifact, run it in a checkout of the
change and in one of its parent, then `diff -r` the two OUT trees.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))  # the library steps that no command takes run here

from esdgait import forest, io, simkit

SPAWNED = """import multiprocessing, sys
multiprocessing.set_start_method("spawn")
from esdgait.cli import main
sys.exit(main(sys.argv[1:]))"""


def first_difference(a: Path, b: Path) -> tuple[Path, Path] | None:
    """The first pair of paths under `a` and `b` that differ, or None: two
    files by their bytes, two directories as `diff -r` compares them, so an
    entry on one side only is a difference."""
    pairs = [(a, b)]
    if a.is_dir() and b.is_dir():
        names = sorted({path.relative_to(root) for root in (a, b) for path in root.rglob("*")})
        pairs = [(a / name, b / name) for name in names
                 if not ((a / name).is_dir() and (b / name).is_dir())]
    for x, y in pairs:
        if not (x.is_file() and y.is_file() and filecmp.cmp(x, y, shallow=False)):
            return x, y
    return None


def expect(holds: bool, message: str) -> None:
    """Go on if `holds`, else end the run with exit 1 and `message`."""
    if not holds:
        sys.exit(f"identity: {message}")


def same(a: Path, b: Path) -> None:
    if pair := first_difference(a, b):
        sys.exit(f"identity: {pair[0]} and {pair[1]} differ")


def python(*argv, stdin=None, stdout=None) -> None:
    """Run this Python on `argv`, importing from this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(stdin or os.devnull, "rb") as source, open(stdout or os.devnull, "wb") as sink:
        code = subprocess.run([sys.executable, *map(str, argv)], stdin=source, stdout=sink,
                              env=env).returncode
    expect(code == 0, f"python {' '.join(map(str, argv))} exited {code}")


def esdgait(command, *args, stdin=None, stdout=None) -> None:
    python("-m", "esdgait.cli", command, "--quiet", *args, stdin=stdin, stdout=stdout)


def at_jobs(out: Path, jobs: tuple[int, ...], *command) -> None:
    """Run an esdgait command into `out`N at each --jobs N; each output must equal the first."""
    for n in jobs:
        esdgait(*command, "--out", f"{out}{n}", "--jobs", n)
        same(Path(f"{out}{jobs[0]}"), Path(f"{out}{n}"))


def simulate_and_detect(out: Path) -> None:
    for name in ("legshake", "mood", "persons"):
        at_jobs(out / name / "sim", (1, 2), "simulate", "--config", CONFIGS / f"{name}.json")
    # a noiseless 5.5 Hz shake from 1.5 s, zeroed from 5 s on: its event opens, then closes
    stops = simkit.synth_legshake(5.5, 8.0, 1.5, simkit.CapacitanceModel(), simkit.ElectrodeModel())
    stops.samples[5 * 10_000:] = 0.0
    events = out / "legshake" / "events"
    io.write_record(stops, events / "stops.sig.csv", events / "stops.meta.json")
    records = out / "legshake" / "sim1" / "records"
    for record in (records / "rec_0000", records / "rec_0001", events / "stops"):
        file, piped = (events / f"{record.name}.{how}.jsonl" for how in ("file", "stdin"))
        signal = f"{record}.sig.csv"
        esdgait("detect", "--config", CONFIGS / "legshake.json", signal, stdout=file)
        esdgait("detect", "--config", CONFIGS / "legshake.json", "-", stdin=signal, stdout=piped)
        expect(file.stat().st_size > 0, f"{file} holds no event")
        same(file, piped)
    expect('"type": "close"' in (events / "stops.file.jsonl").read_text(),
           f"{events / 'stops.file.jsonl'} holds no close line")


def featurize_and_forests(base: Path, config: Path) -> Path:
    """Every command after simulate on one cohort; returns its feature table."""
    manifest = base / "sim2" / "dataset.json"
    at_jobs(base / "featurize", (1, 2), "featurize", manifest, "--config", config)
    text = base / "text"  # the records with every .f8 sidecar deleted: each text is parsed
    shutil.copytree(base / "sim2", text, ignore=shutil.ignore_patterns("*.f8"))
    esdgait("featurize", text / "dataset.json", "--config", config, "--out", text / "featurize1")
    same(base / "featurize1", text / "featurize1")
    features = base / "featurize2" / "features.csv"
    at_jobs(base / "train", (1, 2, 3), "train", features, "--config", config)
    model = base / "train1" / "model.rfj"
    at_jobs(base / "model", (1, 2), "eval", features, "--config", config, "--model", model)
    at_jobs(base / "holdout", (1, 2), "eval", features, "--config", config, "--holdout")
    for jobs in (1, 2):  # a fresh dir holds no cv.json: eval grows the CV's forests itself
        esdgait("eval", features, "--config", config, "--out", base / f"eval{jobs}", "--jobs", jobs)
        same(base / f"eval{jobs}" / "eval_report.json", base / f"train{jobs}" / "eval_report.json")
        saved = base / f"train{jobs}" / "model.rfj"
        fingerprint = json.loads(saved.read_text())["mfcc_fingerprint"]
        forest.save_model(forest.load_model(saved), base / f"resaved{jobs}.rfj", fingerprint)
        same(saved, base / f"resaved{jobs}.rfj")
    return features


def search(base: Path, features: Path) -> None:
    """A search over a forest section: each trial varies only the searched
    axis, and a CV eval and a report take the winner's CV, from cv.json in
    train's dir and from a search again in a fresh one."""
    config = {**json.loads((CONFIGS / "mood.json").read_text()),
              "forest": {"bootstrap": True, "max_depth": 6},
              "search": {"n_iter": 2, "space": {"n_estimators": [20, 40]}}}
    spec = base / "search.json"
    spec.write_text(json.dumps(config))
    at_jobs(base / "search", (1, 2), "train", features, "--config", spec)
    for command in ("eval", "report"):
        shutil.copytree(base / "search1", base / f"search1-{command}")
        for out in (base / f"search1-{command}", base / f"search-{command}"):
            esdgait(command, features, "--config", spec, "--out", out)
            same(out / "eval_report.json", base / "search1" / "eval_report.json")
    params = json.loads((base / "search1" / "model.rfj").read_text())["params"]
    expect((params["bootstrap"], params["max_depth"]) == (True, 6),
           f"{base / 'search1' / 'model.rfj'} has not the forest section's values: {params}")


def persons_report(base: Path, features: Path) -> None:
    """The six-class sweep fresh, after train, and under the spawn start method."""
    config = CONFIGS / "persons.json"
    at_jobs(base / "report", (1, 2, 3), "report", features, "--config", config)
    shutil.copytree(base / "train2", base / "train2-report")  # the sweep's last step is its cv.json
    esdgait("report", features, "--config", config, "--out", base / "train2-report", "--jobs", 2)
    for name in ("accuracy_vs_k.csv", "importance.csv", "eval_report.json"):
        same(base / "report1" / name, base / "train2-report" / name)
    for command in ("train", "report"):
        python("-c", SPAWNED, command, features, "--config", config,
               "--out", base / f"spawn-{command}", "--jobs", 2, "--quiet")
        same(base / f"{command}1", base / f"spawn-{command}")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-") or os.path.lexists(argv[0]):
        print("usage: python tools/identity.py OUT (a path that does not exist)", file=sys.stderr)
        return 2
    out = Path(argv[0])
    simulate_and_detect(out)
    for name in ("mood", "persons"):
        features = featurize_and_forests(out / name, CONFIGS / f"{name}.json")
    search(out / "mood", out / "mood" / "featurize2" / "features.csv")
    persons_report(out / "persons", features)
    print(f"identity: every pair of outputs under {out} is equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
