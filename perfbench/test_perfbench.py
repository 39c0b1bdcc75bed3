#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Smoke-runs every workload untraced and traced, checking that each metric
BENCHMARK.json names is printed with its unit, and plants bad outputs
(wrong plan digest, infinite cost, unexpected diagnostic code) that must
trip their checks. Takes a few minutes: each partition run completes one
round over its five rows.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seconds=1, plant=None):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "7",
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class Smoke(unittest.TestCase):
    def check_metrics(self, workload, trace, listed):
        code, result, out = run(workload, trace=trace)
        self.assertEqual(code, 0, out)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in listed))
        for m in listed:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
        return got

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                got = self.check_metrics(w, 0, SPEC["end_to_end"])
                for name, m in got.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                got = self.check_metrics(w, 1, SPEC["per_layer"])
                self.assertGreater(got["trace.overhead_ratio"]["value"], 0)


class Planted(unittest.TestCase):
    def assert_trips(self, workload, plant):
        code, result, out = run(workload, seconds=0, plant=plant)
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"], out)
        self.assertGreaterEqual(result["failed"], 1, out)
        self.assertIn("CHECK FAILED", out)

    def test_partition_unexpected_diagnostic(self):
        self.assert_trips("partition", "diag")

    def test_partition_wrong_digest(self):
        self.assert_trips("partition", "digest")

    def test_partition_inf_estimate(self):
        self.assert_trips("partition", "inf")

    def test_search_inf_cost(self):
        self.assert_trips("search", "inf")

    def test_serve_wrong_digest(self):
        self.assert_trips("serve", "digest")


if __name__ == "__main__":
    unittest.main(verbosity=2)
