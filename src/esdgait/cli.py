"""Command-line interface for the toolkit.

Subcommands cover the whole pipeline: simulate a cohort, featurize it,
train and evaluate a forest, produce report CSVs, and run the streaming
leg-shake detector over a file or stdin. Flags beat config values, which
beat built-in defaults. Exit codes: 0 success, also when the reader closes
stdout early; 1 invalid input or config; 2 runtime failure; 130 interrupted.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import logging
import os
import sys

from . import experiments, io, legshake
from .errors import ToolkitError, ValidationError

log = logging.getLogger("esdgait")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="experiment config JSON")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--out", default=".", help="output directory (default: .)")
    shared.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes of the command's one pool: records for simulate and "
        "featurize, fixed runs of the forests' trees, taken in turn, for train, "
        "eval and report; results are identical for any value",
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
    manifest = experiments.run_simulate(config, args.out, jobs=args.jobs)
    print(manifest)


def cmd_featurize(args) -> None:
    config = _require_config(args)
    features, rejects = experiments.run_featurize(args.manifest, config, args.out, jobs=args.jobs)
    if rejects:
        log.warning("rejects: %s", json.dumps(rejects))
    print(features)


def cmd_train(args) -> None:
    config = _require_config(args)
    report, model_path, report_path = experiments.run_train(
        args.features, config, args.out, jobs=args.jobs
    )
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
    )
    log.info("cohens kappa %.4f, auroc %.4f", report.cohens_kappa, report.auroc)
    print(report_path)


def cmd_report(args) -> None:
    config = _require_config(args)
    experiments.run_report(args.features, config, args.out, jobs=args.jobs)
    out = args.out.rstrip("/")
    print(f"{out}/accuracy_vs_k.csv")
    print(f"{out}/importance.csv")


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
    stdin = args.source == "-"
    chunks = io.sample_chunks(sys.stdin, "<stdin>") if stdin else io.open_signal(args.source)[0]
    for samples in chunks:
        for event in detector.push(samples):
            print(_event_line("open", event), flush=True)
        while closed_reported < len(detector.events):
            event = detector.events[closed_reported]
            if event.offset is None:
                break
            print(_event_line("close", event), flush=True)
            closed_reported += 1
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
    if args.seed is not None and args.seed < 0:  # checked here, so no config file is blamed
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args)
        sys.stdout.flush()  # here, not at exit, so that a closed stdout is caught below
    except BrokenPipeError:  # the reader has all it wants: end quietly, and send
        # what is left in stdout's buffer to devnull, where the exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ToolkitError, concurrent.futures.BrokenExecutor, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
