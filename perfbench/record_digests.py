"""Record the artifact digests that run.py checks against.

    python3 perfbench/record_digests.py --seeds 20250801 [--workloads ...]

Run from the root of a checkout of the commit whose outputs are the
reference. Each seed gets one pass per workload; for every workload with
jobs > 1 the same pass is repeated at --jobs 1 and the digests must be
equal (outputs are byte-identical at any --jobs). The digests are merged
into perfbench/digests.json. Recording again is only right when a change
means to alter the output bytes; otherwise a mismatch is a bug to fix.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run as bench


def record(root: Path, esdgait, name: str, seed: int) -> dict[str, str]:
    runs = [bench.Run(root, name, seed, esdgait)]
    if runs[0].workload.jobs > 1:
        serial = bench.Run(root, name, seed, esdgait)
        serial.workload = dataclasses.replace(serial.workload, jobs=1)
        serial.out = serial.out.with_name(serial.out.name + "-jobs1")
        runs.append(serial)
    digests = []
    for one in runs:
        one.golden = None
        try:
            digests.append(one.run_pass().digests)
        finally:
            shutil.rmtree(one.out, ignore_errors=True)
        if one.ops.failed:
            raise SystemExit(f"error: {name} seed {seed}: {one.ops.failures}")
    if any(d != digests[0] for d in digests):
        raise SystemExit(f"error: {name} seed {seed}: digests differ between --jobs values")
    return digests[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=sorted(bench.WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    esdgait = bench.load_toolkit(root)
    path = bench.HERE / "digests.json"
    table = json.loads(path.read_text())
    for name in args.workloads:
        for seed in args.seeds:
            table.setdefault(name, {})[str(seed)] = record(root, esdgait, name, seed)
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} digests", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
