"""End-to-end benchmark of the esdgait toolkit.

    python3 perfbench/run.py --workload mood_serial --seed 20250801 --seconds 20 --trace 0

Run from the root of a source checkout: the toolkit is imported from
./src and the shipped configs from ./configs. Each run

* times `setup_s` in fresh interpreters (import + load_config, median of 5),
* runs whole passes of the workload until --seconds are used (always at
  least one). A pass runs the workload's stage commands in pipeline order
  through `esdgait.cli.main`, then the detector: replays of every record
  through `legshake.ShakeDetector.push` in 2500-sample chunks (a closed
  loop: one client, no think time) and `esdgait detect` on every record
  file,
* checks every artifact: digests recorded at the seed commit when that
  seed has them, and for any seed the library-push events against the
  CLI's, report's cross-validation against train's, and pass against pass,
* prints a table of every metric, then one JSON line with the end-to-end
  metrics (--trace 0) or the per-layer metrics of a traced pass (--trace 1).

With --trace 1 the run makes one untraced pass and one traced pass; the
difference of their pipeline times is the tracing overhead.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere: the box has 2 cores and
# persons_parallel already runs 2 worker processes. Set before numpy loads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import measure  # noqa: E402
from tracing import Tracer  # noqa: E402

CHUNK = 2500  # samples per detector push: 0.25 s at 10 kHz
REPLAYS_PER_PASS = 3
SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_traces"


@dataclass(frozen=True)
class Workload:
    config: str
    jobs: int
    stages: tuple[str, ...]


WORKLOADS = {
    "mood_serial": Workload(
        "configs/mood.json", 1, ("simulate", "featurize", "train", "report", "eval")
    ),
    "persons_parallel": Workload(
        "configs/persons.json", 2, ("simulate", "featurize", "train", "eval")
    ),
    "shake_stream": Workload("configs/legshake.json", 1, ("simulate",)),
}

# stage -> (digest name, file under the output dir) of each artifact it writes
ARTIFACTS = {
    "featurize": (("features.csv", "features.csv"),),
    "train": (("model.rfj", "model.rfj"), ("train:eval_report.json", "eval_report.json")),
    "report": (
        ("accuracy_vs_k.csv", "accuracy_vs_k.csv"),
        ("importance.csv", "importance.csv"),
        ("report:eval_report.json", "eval_report.json"),
    ),
    "eval": (("eval:eval_report.json", "eval_report.json"),),
}


@dataclass
class Pass:
    stage_s: dict[str, float] = field(default_factory=dict)
    detect_cli_s: float = 0.0
    push_s: list[float] = field(default_factory=list)
    pushed: int = 0  # samples pushed through the library detector
    digests: dict[str, str] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=lambda: {"open": 0, "close": 0})

    @property
    def pipeline_s(self) -> float:
        """Time from config to last artifact: every stage, plus detect."""
        return sum(self.stage_s.values()) + self.detect_cli_s


@dataclass
class Stream:
    config: object
    paths: list[str]
    signals: list
    cli_lines: list[list[str]]
    replays: list[tuple[str, int, list[str]]] = field(default_factory=list)  # op, record, events


class Run:
    def __init__(self, root: Path, name: str, seed: int, esdgait) -> None:
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.esdgait = esdgait
        self.config = str(root / self.workload.config)
        self.out = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.ops = measure.OpCounter()
        golden = json.loads((HERE / "digests.json").read_text())
        self.golden = golden.get(name, {}).get(str(seed))
        self.reference: dict[str, str] | None = None  # first pass's digests

    # -- one operation ---------------------------------------------------

    def command(self, argv: list[str]) -> tuple[str, float, str]:
        """Run one esdgait command in-process; returns (op, seconds, stdout)."""
        op = self.ops.attempt()
        out = stdio.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.esdgait.cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.ops.fail(op, f"{argv[0]} exited with {code}")
        return op, elapsed, out.getvalue()

    def stage_argv(self, stage: str) -> list[str]:
        out = str(self.out)
        extra = {
            "simulate": [],
            "featurize": [f"{out}/dataset.json"],
            "train": [f"{out}/features.csv"],
            "report": [f"{out}/features.csv"],
            "eval": ["--model", f"{out}/model.rfj", f"{out}/features.csv"],
        }[stage]
        return [
            stage, "--config", self.config, "--seed", str(self.seed), "--out", out,
            "--jobs", str(self.workload.jobs), "--quiet", *extra,
        ]

    # -- one pass --------------------------------------------------------

    def run_pass(self) -> Pass:
        """Stage commands in pipeline order, with the detector sampled after
        each one: the box's speed drifts over seconds, so detector samples
        spread over the whole pass are steadier than one burst at its end."""
        gc.collect()
        result = Pass()
        producers: dict[str, str] = {}
        stages = self.workload.stages
        replays = -(-REPLAYS_PER_PASS // len(stages))  # ceil: at least 3 per pass
        stream: Stream | None = None
        for point, stage in enumerate(stages):
            op, elapsed, _ = self.command(self.stage_argv(stage))
            result.stage_s[stage] = elapsed
            for name, rel in ARTIFACTS.get(stage, ()):
                path = self.out / rel
                result.digests[name] = measure.sha256_file(path) if path.exists() else "missing"
                producers[name] = op
            if stream is None:
                stream = self.load_stream()
            # each record file goes through `esdgait detect` once per pass
            for index in range(point, len(stream.paths), len(stages)):
                producers.setdefault("detect_events", self.detect_cli(result, stream, index))
            for _ in range(replays):
                self.replay_all(result, stream)
        if "report" in stages:
            # report's final sweep step reruns exactly train's cross-validation
            if result.digests["report:eval_report.json"] != result.digests["train:eval_report.json"]:
                self.ops.fail(producers["report:eval_report.json"], "report CV != train CV")
        event_lines = [line for lines in stream.cli_lines for line in lines]
        result.digests["detect_events"] = measure.sha256_text("\n".join(event_lines))
        count_events(result.events, event_lines)
        for op, index, lines in stream.replays:
            if lines != stream.cli_lines[index]:
                self.ops.fail(op, "library events != CLI events")
            count_events(result.events, lines)
        self.check_digests(result, producers)
        return result

    def load_stream(self) -> Stream:
        """The simulated records as detector input: paths for the CLI,
        sample arrays for library pushes."""
        esd = self.esdgait
        entries = esd.io.read_manifest(self.out / "dataset.json")
        return Stream(
            config=esd.experiments.load_config(self.config, self.seed).detector,
            paths=[e["signal_path"] for e in entries],
            signals=[esd.io.read_record(e["signal_path"], e["meta_path"]).samples for e in entries],
            cli_lines=[[] for _ in entries],
        )

    def detect_cli(self, result: Pass, stream: Stream, index: int) -> str:
        argv = ["detect", "--config", self.config, "--seed", str(self.seed), "--quiet",
                stream.paths[index]]
        op, elapsed, stdout = self.command(argv)
        result.detect_cli_s += elapsed
        stream.cli_lines[index] = stdout.splitlines()
        return op

    def replay_all(self, result: Pass, stream: Stream) -> None:
        for index, signal in enumerate(stream.signals):
            op = self.ops.attempt()
            detector = self.esdgait.legshake.ShakeDetector(stream.config)
            try:
                lines, pushes = replay(detector, signal)
            except Exception as exc:  # a crash is a failed op, not a crashed run
                self.ops.fail(op, f"push raised {type(exc).__name__}: {exc}")
                continue
            stream.replays.append((op, index, lines))
            result.push_s.extend(pushes)
            result.pushed += signal.size

    def check_digests(self, result: Pass, producers: dict[str, str]) -> None:
        for reference, why in ((self.golden, "seed-commit digest"), (self.reference, "first pass")):
            if reference is None:
                continue
            for name in measure.digest_mismatches(result.digests, reference):
                self.ops.fail(producers.get(name, "op0"), f"{name} differs from {why}")
        if self.reference is None:
            self.reference = dict(result.digests)


def count_events(counts: dict[str, int], lines: list[str]) -> None:
    for line in lines:
        counts[json.loads(line)["type"]] += 1


def replay(detector, signal) -> tuple[list[str], list[float]]:
    """Push one record chunk by chunk; returns the event lines `esdgait
    detect` prints for the same stream, and each push's latency."""
    lines: list[str] = []
    pushes: list[float] = []
    closed = 0
    for begin in range(0, signal.size, CHUNK):
        chunk = signal[begin : begin + CHUNK]
        start = time.perf_counter()
        opened = detector.push(chunk)
        pushes.append(time.perf_counter() - start)
        lines += [json.dumps({"type": "open", **event.to_dict()}) for event in opened]
        while closed < len(detector.events) and detector.events[closed].offset is not None:
            lines.append(json.dumps({"type": "close", **detector.events[closed].to_dict()}))
            closed += 1
    return lines, pushes


def setup_seconds(root: Path, config: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters importing esdgait and loading the config."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import esdgait; "
        "from esdgait import experiments; experiments.load_config(sys.argv[2], int(sys.argv[3]))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(root / "src"), config, str(seed)],
            check=True, cwd=root,
        )
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Largest peak RSS of the run process and of any child it waited for.

    Not their sum: forked pool workers count the parent's pages they share.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    """The gated metrics: the ones that stay within a 0.25 bound across runs
    on a shared 2-vCPU box whose speed drifts by up to 2x."""
    return {
        "setup_s": (measure.median(setup), "s"),
        "pipeline_s": (measure.median([p.pipeline_s for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def detector_table(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Detector metrics, printed but not gated: across ten runs their spread
    reached 0.24-0.26 (throughput, detect_cli_s) and 0.35 (push p50, which
    flips between the box's fast and slow phases, 0.28 vs 0.45 ms); one
    run's push p99 read 5.2 ms against 0.6 ms. p99 becomes the highest
    percentile leaving 10 pushes above it when there are fewer than 1000."""
    pushes = [s for p in passes for s in p.push_s]
    tail = measure.tail_percentile(len(pushes))
    return {
        "detect_samples_per_s": (sum(p.pushed for p in passes) / sum(pushes), "samples/s"),
        "detect_push_ms_p50": (measure.percentile(pushes, 50) * 1e3, "ms"),
        "detect_push_ms_p99": (measure.percentile(pushes, tail) * 1e3, "ms"),
        "detect_pushes": (len(pushes), "count"),
        "detect_push_tail_percentile": (tail, "%"),
    }


def stage_table(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Per-stage wall times, including the stages not every workload has."""
    table = {
        f"{stage}_s": (measure.median([p.stage_s[stage] for p in passes]), "s")
        for stage in passes[0].stage_s
    }
    table["detect_cli_s"] = (measure.median([p.detect_cli_s for p in passes]), "s")
    table["pipeline_s"] = (measure.median([p.pipeline_s for p in passes]), "s")
    return table


def print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:16.6g} {unit}")


def load_toolkit(root: Path):
    init = root / "src" / "esdgait" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of an esdgait checkout")
    sys.path.insert(0, str(root / "src"))
    import esdgait
    import esdgait.cli
    import esdgait.experiments

    if Path(esdgait.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported esdgait from {esdgait.__file__}, not {init}")
    return esdgait


def default_seed(root: Path, name: str) -> int:
    return int(json.loads((root / WORKLOADS[name].config).read_text())["seed"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the config seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    esdgait = load_toolkit(root)
    seed = default_seed(root, args.workload) if args.seed is None else args.seed
    run = Run(root, args.workload, seed, esdgait)
    print(f"workload {args.workload} seed {seed} jobs {run.workload.jobs} "
          f"threads {json.dumps(THREAD_ENV, sort_keys=True)} "
          f"golden digests {'yes' if run.golden else 'no (invariant checks only)'}")
    try:
        if args.trace:
            metrics = traced_run(run)
        else:
            metrics = measured_run(run, args.seconds)
    finally:
        shutil.rmtree(run.out, ignore_errors=True)
    print(f"ops attempted {run.ops.attempted} failed {run.ops.failed} "
          f"error_rate {run.ops.error_rate:.6g}")
    for op, reasons in sorted(run.ops.failures.items()):
        print(f"  FAILED {op}: {'; '.join(reasons)}")
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def measured_run(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    setup = setup_seconds(run.root, run.config, run.seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes.append(run.run_pass())
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            break
    metrics = end_to_end(passes, setup)
    print(f"passes {len(passes)}")
    print_table("stages, median over passes (gated as their sum, pipeline_s)", stage_table(passes))
    print_table("detector (not gated)", detector_table(passes))
    print_table("end-to-end (gated)", metrics)
    print("digests " + json.dumps(passes[0].digests, sort_keys=True))
    return metrics


def traced_run(run: Run) -> dict[str, tuple[float, str]]:
    untraced = run.run_pass()
    trace_dir = run.root / TRACE_DIR
    spool = run.out / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{run.name}-{run.seed}-{os.getpid()}", spool)
    tracer.install(run.esdgait, layers.TAGS)
    try:
        traced = run.run_pass()
    finally:
        tracer.uninstall()
    workers = tracer.collect()
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"{run.name}-{run.seed}.jsonl"
    tracer.write(trace_path)
    metrics, notes = layers.per_layer(tracer.spans, tracer.timers, traced.events, workers)
    detector = detector_table([traced])
    metrics["legshake.push_ms_p50"] = detector["detect_push_ms_p50"]
    metrics["legshake.push_ms_p99"] = detector["detect_push_ms_p99"]
    metrics["trace.overhead_s"] = (traced.pipeline_s - untraced.pipeline_s, "s")
    print_table("stages, untraced pass", stage_table([untraced]))
    print_table("stages, traced pass", stage_table([traced]))
    print_table("per-layer (traced pass)", metrics)
    for note in notes:
        print(f"  note: {note}")
    print(f"spans {len(tracer.spans)} from {workers} worker process(es) -> {trace_path}")
    print("digests " + json.dumps(traced.digests, sort_keys=True))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
