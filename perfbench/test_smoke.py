"""Smoke test of the benchmark at toy size.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced with a handful of operations, checks
that the emitted metric names are exactly those declared in BENCHMARK.json,
and that a deliberately wrong reference answer shows up as failed checks.
"""

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TOY = run.Sizes(min_ops=workloads.DIGEST_OPS, setup_reps=1, cli_reps=1, ladder_reps=1)


def flipped_answer(original):
    def answer(self, op, key, x):
        expected, certificate = original(self, op, key, x)
        return not expected, certificate
    return answer


WRONG_REFERENCES = {
    "atlas": lambda: mock.patch.dict(workloads.FROZEN_DIGESTS, {"atlas": "0" * 64}),
    "tower": lambda: mock.patch.dict(workloads.FROZEN_DIGESTS, {"tower": "0" * 64}),
    "member": lambda: mock.patch.object(workloads.Member, "answer",
                                        flipped_answer(workloads.Member.answer)),
    "chars": lambda: mock.patch.object(workloads, "expected_product",
                                       lambda characters, a, b: object()),
}


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def declared_names(self, key):
        return {m["name"] for m in self.declared[key]}

    def test_declared_workloads_exist(self):
        self.assertEqual(self.declared_names("workloads"), set(workloads.WORKLOADS))

    def test_metric_names_match_declaration(self):
        for name in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(name, 0, 0.1, trace, TOY)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], TOY.min_ops)
                    self.assertEqual(set(result["metrics"]), self.declared_names(key))
                    units = {m["name"]: m["unit"] for m in self.declared[key]}
                    for metric, value in result["metrics"].items():
                        self.assertEqual(value["unit"], units[metric], metric)

    def test_wrong_reference_raises_failed_frac(self):
        for name, patch in WRONG_REFERENCES.items():
            with self.subTest(workload=name), patch():
                result = run.run(name, 0, 0.1, False, TOY)
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
