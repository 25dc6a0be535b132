"""Small measurement helpers shared by the benchmark and its self-tests.

Everything here is plain arithmetic on numbers the benchmark already took,
so it can be checked without running the toolkit (see selftest.py).
"""

from __future__ import annotations

import hashlib
import math
import statistics

# a tail percentile is reported only with at least this many samples above it
TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, want: float = 99.0, beyond: int = TAIL_SAMPLES) -> float:
    """The highest percentile <= want that leaves `beyond` samples above it
    under nearest rank; 0 (the minimum) when no percentile does."""
    if n <= beyond:
        return 0.0
    return min(want, 100.0 * (n - beyond) / n)


def median(values) -> float:
    return float(statistics.median(values))


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`.

    Intervals may overlap (children that ran in parallel worker processes)
    and may stick out of [start, end]; each point counts once.
    """
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if min(end, e) > max(start, s)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, child_intervals)


class OpCounter:
    """Counts operations (one stage command or one detect call) and the
    ones that failed: non-zero exit, exception or digest mismatch.

    An operation that fails several checks still counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def attempt(self) -> str:
        self.attempted += 1
        return f"op{self.attempted}"

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_mismatches(actual: dict, expected: dict) -> list[str]:
    """Names whose digest differs from the expected one; a name missing on
    either side is a mismatch too."""
    return sorted(name for name in set(actual) | set(expected) if actual.get(name) != expected.get(name))
