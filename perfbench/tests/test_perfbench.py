#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root:  python3 perfbench/tests/test_perfbench.py
The first test run builds the benchmark (see perfbench/run.py).
"""
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"
ROOT = RUN.parent.parent


def bench(*args, env=None):
    """Runs the benchmark; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


def short_run(seed, env=None):
    return bench("--workload", "dispatch_floor", "--seed", str(seed), "--seconds", "0.3",
                 "--trace", "0", env=env)


class PerfbenchTest(unittest.TestCase):
    def test_kernel_names_call_their_own_algorithms(self):
        code, out = bench("--self-test", "names")
        self.assertEqual(code, 0, out)
        self.assertIn("names: ok", out)
        self.assertEqual(len(re.findall(r"^name ", out, re.M)), 8)

    def test_check_rejects_a_call_that_did_no_work(self):
        code, out = bench("--self-test", "verify")
        self.assertEqual(code, 0, out)
        self.assertIn("verify: ok", out)
        self.assertEqual(len(re.findall(r"^verify \S+ +reference passes, skipped call rejected$",
                                        out, re.M)), 8)

    def test_injected_faults_count_as_failures(self):
        env = dict(os.environ, PSTLB_FAULT="throw:0.3")
        code, out = short_run(5, env)
        self.assertNotEqual(code, 0)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        error_frac = float(re.search(r"^metric error_frac = (\S+)", out, re.M).group(1))
        self.assertGreater(error_frac, 0)

    def test_seed_determines_inputs(self):
        def input_hash(seed):
            code, out = short_run(seed)
            self.assertEqual(code, 0, out)
            return re.search(r"^input_hash=([0-9a-f]+)$", out, re.M).group(1)

        first = input_hash(7)
        self.assertEqual(first, input_hash(7))
        self.assertNotEqual(first, input_hash(8))

    def test_result_line_has_every_end_to_end_metric(self):
        code, out = short_run(9)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        # The two fresh-process set-ups ran and reported back.
        self.assertRegex(out, r"(?m)^metric setup_s = \S+ s \(median of 3 set-ups")


if __name__ == "__main__":
    unittest.main()
