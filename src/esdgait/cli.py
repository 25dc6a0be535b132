"""Command-line interface for the toolkit.

Subcommands cover the whole pipeline: simulate a cohort, featurize it,
train and evaluate a forest, produce report CSVs, and run the streaming
leg-shake detector over a file or stdin. Flags beat config values, which
beat built-in defaults. Exit codes: 0 success, 1 invalid input or config,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import experiments, io, legshake
from .errors import ToolkitError, ValidationError

log = logging.getLogger("esdgait")

# physical lines of the signal stream parsed at a time, and samples per
# detector push; any value gives identical events, this one bounds memory
_DETECT_CHUNK_LINES = 2500


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="experiment config JSON")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--out", default=".", help="output directory (default: .)")
    shared.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes of the command's one pool: records for simulate and "
        "featurize, whole forests for train, eval and report; results are identical "
        "for any value",
    )
    shared.add_argument("--quiet", action="store_true", help="suppress progress logging")

    parser = argparse.ArgumentParser(
        prog="esdgait",
        description="Synthetic ESD gait sensing: simulate, featurize, train, evaluate, report, detect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[shared], help="synthesize a cohort into signal records + manifest")

    p = sub.add_parser("featurize", parents=[shared], help="extract one MFCC feature row per record")
    p.add_argument("manifest", help="dataset.json written by simulate")

    p = sub.add_parser("train", parents=[shared], help="cross-validate and fit a forest on a feature table")
    p.add_argument("features", help="features.csv written by featurize")

    p = sub.add_parser("eval", parents=[shared], help="evaluate a feature table")
    p.add_argument("features", help="features.csv written by featurize")
    p.add_argument("--model", help="score this saved model instead of cross-validating")
    p.add_argument("--holdout", action="store_true", help="stratified 80/20 split instead of cross-validation")

    p = sub.add_parser("report", parents=[shared], help="accuracy-vs-class-count sweep and feature ranking")
    p.add_argument("features", help="features.csv written by featurize")

    p = sub.add_parser("detect", parents=[shared], help="stream leg-shake events as JSON lines")
    p.add_argument("source", help="signal file of one sample per line, or - for stdin")
    return parser


def _require_config(args) -> experiments.ExperimentConfig:
    if not args.config:
        raise ValidationError(f"{args.command} requires --config")
    return experiments.load_config(args.config, seed_override=args.seed)


def cmd_simulate(args) -> None:
    config = _require_config(args)
    manifest = experiments.run_simulate(config, args.out, jobs=args.jobs, quiet=args.quiet)
    print(manifest)


def cmd_featurize(args) -> None:
    config = _require_config(args)
    features, rejects = experiments.run_featurize(
        args.manifest, config, args.out, jobs=args.jobs, quiet=args.quiet
    )
    if rejects:
        log.warning("rejects: %s", json.dumps(rejects))
    print(features)


def cmd_train(args) -> None:
    config = _require_config(args)
    report, model_path, report_path = experiments.run_train(
        args.features, config, args.out, jobs=args.jobs, quiet=args.quiet
    )
    if not args.quiet:
        log.info("cohens kappa %.4f, auroc %.4f", report.cohens_kappa, report.auroc)
    print(model_path)
    print(report_path)


def cmd_eval(args) -> None:
    config = _require_config(args)
    report, report_path = experiments.run_eval(
        args.features,
        config,
        args.out,
        model_path=args.model,
        holdout=args.holdout,
        jobs=args.jobs,
        quiet=args.quiet,
    )
    if not args.quiet:
        log.info("cohens kappa %.4f, auroc %.4f", report.cohens_kappa, report.auroc)
    print(report_path)


def cmd_report(args) -> None:
    config = _require_config(args)
    experiments.run_report(args.features, config, args.out, jobs=args.jobs, quiet=args.quiet)
    out = args.out.rstrip("/")
    print(f"{out}/accuracy_vs_k.csv")
    print(f"{out}/importance.csv")


def _signal_lines(source: str):
    """Lines of the signal; bytes that are not UTF-8 come through as lone
    surrogates, so the parser can name their line."""
    if source == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        yield from sys.stdin
        return
    with io.open_text(source, errors="surrogateescape") as handle:
        yield from handle


def _parse_lines(lines: list[str], line_no: int, source: str):
    """Parse a chunk line by line after np.array refused it: blank lines are
    skipped and the first bad value stops the chunk. Returns the values
    before it and the ValidationError to raise, or None; `line_no` is the
    number of lines before the chunk."""
    values = []
    for line_no, line in enumerate(lines, start=line_no + 1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            try:
                text.encode("utf-8")
                reason = f"not a sample value: {text!r}"
            except UnicodeEncodeError:  # a surrogate stands for a byte that is not UTF-8
                reason = "not valid UTF-8"
            return np.array(values), ValidationError(f"{source}:{line_no}: {reason}")
    return np.array(values), None


def _event_line(kind: str, event: legshake.ShakeEvent) -> str:
    payload = {"type": kind, **event.to_dict()}
    return json.dumps(payload)


def cmd_detect(args) -> None:
    if args.config:
        config = experiments.load_config(args.config, seed_override=args.seed).detector
    else:
        config = legshake.DetectorConfig()
    detector = legshake.ShakeDetector(config)
    closed_reported = 0

    def report_closures() -> None:
        nonlocal closed_reported
        while closed_reported < len(detector.events):
            event = detector.events[closed_reported]
            if event.offset is None:
                break
            print(_event_line("close", event), flush=True)
            closed_reported += 1

    def push(samples: np.ndarray) -> None:
        for event in detector.push(samples):
            print(_event_line("open", event), flush=True)
        report_closures()

    source = "<stdin>" if args.source == "-" else args.source
    lines = _signal_lines(args.source)
    pending = np.empty(0)
    line_no = 0
    while chunk := list(itertools.islice(lines, _DETECT_CHUNK_LINES)):
        try:
            values, error = np.array(chunk, dtype=float), None
        except ValueError:  # a blank line or a bad value somewhere in the chunk
            values, error = _parse_lines(chunk, line_no, source)
        line_no += len(chunk)
        # pushes hold _DETECT_CHUNK_LINES samples each, whatever the blank
        # lines, so events print in the same order as a per-line reader's
        pending = np.concatenate([pending, values])
        while pending.size >= _DETECT_CHUNK_LINES:
            push(pending[:_DETECT_CHUNK_LINES])
            pending = pending[_DETECT_CHUNK_LINES:]
        if error is not None:
            raise error
    if pending.size:
        push(pending)
    if not args.quiet:
        log.info("events: %d", len(detector.events))


_COMMANDS = {
    "simulate": cmd_simulate,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
    "detect": cmd_detect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        force=True,
    )
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ToolkitError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
