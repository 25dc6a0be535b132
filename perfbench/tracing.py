"""Spans around the toolkit's public functions, installed from outside.

The tracer replaces each public module-level function of the traced
modules (plus `ShakeDetector.push`) with a wrapper that records a span:
name, start, end, parent span and run id. Calls between modules go
through module attributes, so they hit the wrappers too. Spans stay in
memory and are written when the run ends.

Worker processes forked by a process pool inherit the wrappers. A span
that ends in a worker is buffered there and appended to a file of that
worker's own in `spool_dir` whenever the worker's outermost span ends;
`collect` merges those files and says how many workers reported.
Workers started another way (spawn, forkserver) import the toolkit
unwrapped, so their calls are not observed at all.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from pathlib import Path

TRACED_MODULES = ("simkit", "io", "dsp", "forest", "legshake", "experiments", "cli")

# private hot paths timed by call count and total time only (no span each:
# split search runs some 10^5 times per train)
TIMED_PRIVATE = (("forest", "_best_split_for_feature"),)


class Tracer:
    def __init__(self, run_id: str, spool_dir) -> None:
        self.run_id = run_id
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        # "name@innermost open span id" -> [calls, seconds]
        self.timers: dict[str, list[float]] = {}
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._stack: list[str] = []
        self._is_worker = False
        self._worker_depth = 0  # stack depth inherited at fork
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _in_worker(self) -> bool:
        pid = os.getpid()
        if pid != self._pid:
            # first call in a forked worker: drop the parent's copy
            self._pid = pid
            self._worker_depth = len(self._stack)
            self._is_worker = True
            self.spans = []
            self.timers = {}
        return self._is_worker

    def _flush_worker(self) -> None:
        path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if self.timers:
                fh.write(json.dumps({"timers": self.timers}) + "\n")
        self.spans = []
        self.timers = {}

    def span(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = self._in_worker()
            span_id = f"{os.getpid()}-{next(self._ids)}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                    "pid": os.getpid(),
                }
                if tag is not None:
                    record.update(tag(args, kwargs, result))
                self.spans.append(record)
                if in_worker and len(self._stack) == self._worker_depth:
                    self._flush_worker()

        return wrapper

    def timer(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_worker()
            start = time.perf_counter()
            key = f"{name}@{self._stack[-1] if self._stack else None}"
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self.timers.setdefault(key, [0, 0.0])
                slot[0] += 1
                slot[1] += time.perf_counter() - start

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package, tags: dict) -> None:
        """Wrap every public function defined in the traced modules.

        tags maps a span name to fn(args, kwargs, result) -> dict of extra
        fields (counts) stored on that span.
        """
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                self._patch(module, attr, self.span(name, fn, tags.get(name)))
        detector = package.legshake.ShakeDetector
        name = "legshake.ShakeDetector.push"
        self._patch(detector, "push", self.span(name, detector.push, tags.get(name)))
        for short, attr in TIMED_PRIVATE:
            module = getattr(package, short)
            self._patch(module, attr, self.timer(f"{short}.{attr}", getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def collect(self) -> int:
        """Merge spans and timers spooled by worker processes; returns the
        number of worker processes that reported."""
        workers = 0
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            workers += 1
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    entry = json.loads(line)
                    if "timers" in entry:
                        for name, (calls, seconds) in entry["timers"].items():
                            slot = self.timers.setdefault(name, [0, 0.0])
                            slot[0] += calls
                            slot[1] += seconds
                    else:
                        self.spans.append(entry)
            path.unlink()
        return workers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"timers": self.timers}) + "\n")
