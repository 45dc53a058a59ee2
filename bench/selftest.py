"""Proof that each of the benchmark's output checks can fail.

    python3 bench/selftest.py

Feeds deliberately perturbed outputs to the check of every workload and
asserts that they are counted as failed: logits or a decoded map moved by
1e-6, a flipped label, a run that does not reproduce its first pass, a
report with one byte altered, and a verification that exits 1.  Also
checks that BENCHMARK.json lists exactly the metrics that run.py prints.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

from checks import ShiftResult, check_group, check_report
import run
from spans import PER_LAYER_UNITS

eqvit = run.import_package()


class _Perturbed:
    """Model stand-in that moves one head's outputs by 1e-6 on chosen calls."""

    def __init__(self, model, head: str, calls=None):
        self.model = model
        self.head = head
        self.calls = calls
        self.count = 0

    def _bump(self, head: str, value):
        if head != self.head:
            return value
        self.count += 1
        return value + 1e-6 if self.calls is None or self.count in self.calls else value

    def classify(self, x):
        logits, label, trace = self.model.classify(x)
        return self._bump("classify", logits), label, trace

    def encode_decode(self, x):
        decoded, trace = self.model.encode_decode(x)
        return self._bump("decode", decoded), trace


class ForwardChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stream = run.ForwardStream(eqvit, "forward-1d", seed=3)
        # Group 0 is noise, so it is tie-free; run it once for real outputs.
        cls.results = []
        for shift, x in cls.stream.pool[0]:
            logits, label, trace = cls.stream.model.classify(x)
            decoded, dtrace = cls.stream.model.encode_decode(x)
            cls.results.append(
                ShiftResult(shift, logits, label, decoded, trace.any_tied or dtrace.any_tied)
            )

    def test_clean_group_passes(self):
        self.assertEqual(check_group(self.results), "pass")

    def test_perturbed_logits_fail(self):
        bad = dataclasses.replace(self.results[2], logits=self.results[2].logits + 1e-6)
        self.assertEqual(check_group([*self.results[:2], bad, *self.results[3:]]), "fail")

    def test_perturbed_map_fails(self):
        decoded = self.results[1].decoded.copy()
        decoded[5, 0] += 1e-6
        bad = dataclasses.replace(self.results[1], decoded=decoded)
        self.assertEqual(check_group([self.results[0], bad, *self.results[2:]]), "fail")

    def test_unrotated_map_fails(self):
        bad = dataclasses.replace(self.results[1], shift=tuple(s + 1 for s in self.results[1].shift))
        self.assertEqual(check_group([self.results[0], bad, *self.results[2:]]), "fail")

    def test_flipped_label_fails(self):
        bad = dataclasses.replace(self.results[3], label=self.results[3].label + 1)
        self.assertEqual(check_group([*self.results[:3], bad]), "fail")

    def test_nan_fails(self):
        bad = dataclasses.replace(self.results[1], logits=np.full_like(self.results[1].logits, np.nan))
        self.assertEqual(check_group([self.results[0], bad, *self.results[2:]]), "fail")

    def test_tied_group_is_not_asserted(self):
        bad = dataclasses.replace(self.results[1], logits=self.results[1].logits + 1.0, tied=True)
        self.assertEqual(check_group([self.results[0], bad, *self.results[2:]]), "tied")

    def test_stream_counts_a_perturbed_shift(self):
        stream = run.ForwardStream(eqvit, "forward-1d", seed=3)
        stream.model = _Perturbed(stream.model, "classify", calls={2})
        stream.step()
        self.assertEqual((stream.attempted, stream.failed), (1, 1))

    def test_stream_counts_a_pass_that_does_not_repeat(self):
        stream = run.ForwardStream(eqvit, "forward-1d", seed=3)
        for _ in stream.pool:
            stream.step()
        self.assertEqual(stream.failed, 0)
        # Slot 2 holds an impulse, so its group is tied and not asserted:
        # only the bit-for-bit repeat check can catch the moved maps.
        stream.model = _Perturbed(stream.model, "decode")
        tied = stream.tied
        stream.next_group = len(stream.pool) + 2
        stream.step()
        self.assertEqual((stream.tied - tied, stream.failed), (1, 1))


class VerifyChecks(unittest.TestCase):
    REPORT = b'{"suites": [{"name": "claim1", "failures": 0}]}\n'

    def test_report_checks(self):
        altered = bytearray(self.REPORT)
        altered[10] ^= 1
        self.assertTrue(check_report(0, self.REPORT, None))
        self.assertTrue(check_report(0, self.REPORT, self.REPORT))
        self.assertFalse(check_report(0, bytes(altered), self.REPORT))
        self.assertFalse(check_report(1, self.REPORT, None))

    def test_verification_counts_an_altered_report(self):
        calls = []

        class FakeCli:
            @staticmethod
            def main(argv):
                calls.append(argv)
                # The third suite of the second round writes one byte off.
                altered = len(calls) == len(eqvit.harness.SUITES) + 3
                report = self.REPORT.replace(b"0", b"1") if altered else self.REPORT
                Path(argv[argv.index("--out") + 1]).write_bytes(report)
                return 0

        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as tmp:
            w = run.Verification(eqvit, 0, Path(tmp))
            w.cli = FakeCli
            w.run_round()
            w.run_round()
        self.assertEqual((w.attempted, w.failed), (2, 1))

    def test_verification_counts_a_failing_suite(self):
        class FakeCli:
            @staticmethod
            def main(argv):
                Path(argv[argv.index("--out") + 1]).write_bytes(b"{}")
                return 1 if "claim2" in argv else 0

        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as tmp:
            w = run.Verification(eqvit, 0, Path(tmp))
            w.cli = FakeCli
            w.run_round()
        self.assertEqual((w.attempted, w.failed), (1, 1))


class BenchmarkJson(unittest.TestCase):
    def test_metrics_match_what_run_prints(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in doc[key]}, units)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    sys.exit(unittest.main())
