"""Self-tests for the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Needs neither the toolkit nor numpy; the file is named so that the
toolkit's pytest run does not collect it.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
from layers import Spans  # noqa: E402


def samples_beyond(values, p: float) -> int:
    cut = measure.percentile(values, p)
    return sum(1 for v in values if v > cut)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 99), 99)
        self.assertEqual(measure.percentile(values, 100), 100)
        self.assertEqual(measure.percentile([7.0], 99), 7.0)

    def test_p99_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1000)]
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(samples_beyond(values, 99.0), 10)

    def test_tail_falls_back_below_p99_for_few_samples(self):
        for n in (11, 50, 200, 999):
            values = [float(v) for v in range(n)]
            p = measure.tail_percentile(n)
            self.assertLess(p, 99.0)
            self.assertEqual(samples_beyond(values, p), 10, n)
        self.assertEqual(measure.tail_percentile(10), 0.0)

    def test_more_samples_keep_p99(self):
        for n in (1000, 1234, 20000):
            values = [float(v) for v in range(n)]
            self.assertEqual(measure.tail_percentile(n), 99.0)
            self.assertGreaterEqual(samples_beyond(values, 99.0), 10)


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertAlmostEqual(measure.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]), 7.0)

    def test_overlapping_children_count_once(self):
        # two pool workers running at once under one parent span
        self.assertAlmostEqual(measure.self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 7.0)]), 4.0)

    def test_children_clipped_to_parent(self):
        self.assertAlmostEqual(measure.self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]), 0.5)
        self.assertAlmostEqual(measure.self_time(2.0, 4.0, [(5.0, 6.0)]), 2.0)

    def test_span_tree(self):
        spans = [
            {"id": "a", "name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
            {"id": "b", "name": "experiments.run_train", "start": 1.0, "end": 9.0, "parent": "a"},
            {"id": "c", "name": "forest.fit_forest", "start": 2.0, "end": 8.0, "parent": "b"},
            {"id": "d", "name": "forest.fit_tree", "start": 2.0, "end": 5.0, "parent": "c"},
            {"id": "e", "name": "forest.fit_tree", "start": 3.0, "end": 6.0, "parent": "c"},
        ]
        tree = Spans(spans)
        self.assertAlmostEqual(tree.self_total("forest.fit_forest"), 2.0)
        self.assertAlmostEqual(tree.self_total("experiments.run_train"), 2.0)
        self.assertAlmostEqual(tree.uncovered([spans[0]], "experiments.run_"), 2.0)
        self.assertAlmostEqual(tree.layer_total("forest"), 6.0)
        self.assertTrue(tree.has_ancestor("e", "experiments.run_train"))
        self.assertFalse(tree.has_ancestor("b", "forest.fit_forest"))


class ErrorRateTest(unittest.TestCase):
    def test_counts(self):
        ops = measure.OpCounter()
        self.assertEqual(ops.error_rate, 0.0)
        first = ops.attempt()
        second = ops.attempt()
        ops.attempt()
        ops.attempt()
        ops.fail(first, "exit 2")
        ops.fail(first, "digest mismatch")  # one op failing twice counts once
        ops.fail(second, "exception")
        self.assertEqual((ops.attempted, ops.failed), (4, 2))
        self.assertAlmostEqual(ops.error_rate, 0.5)


class DigestTest(unittest.TestCase):
    def test_one_flipped_byte_is_a_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            original = Path(tmp) / "features.csv"
            original.write_bytes(b"mfcc0_t0,label\n0.5,happy\n")
            copy = Path(tmp) / "copy.csv"
            shutil.copyfile(original, copy)
            expected = {"features.csv": measure.sha256_file(original)}
            self.assertEqual(
                measure.digest_mismatches({"features.csv": measure.sha256_file(copy)}, expected), []
            )
            data = bytearray(copy.read_bytes())
            data[len(data) // 2] ^= 0x01
            copy.write_bytes(bytes(data))
            self.assertEqual(
                measure.digest_mismatches({"features.csv": measure.sha256_file(copy)}, expected),
                ["features.csv"],
            )

    def test_missing_artifact_is_a_mismatch(self):
        self.assertEqual(measure.digest_mismatches({}, {"model.rfj": "00"}), ["model.rfj"])
        self.assertEqual(measure.digest_mismatches({"model.rfj": "00"}, {}), ["model.rfj"])


if __name__ == "__main__":
    unittest.main()
