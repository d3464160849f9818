"""Fast checks of the benchmark harness itself (a few seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import unittest

import run
import spans

SMALL = "verify --theorem thm2.5 --n 5 --k 2 --workers 1"
POOLED = "verify --theorem thm2.5 --n-range 4:6 --k 2 --workers 2"


def record(case: str) -> dict:
    code, _, _, _, output = run.run_process(
        [sys.executable, "-m", "sievelab.cli"] + case.split(), run.case_env(0))
    return {"exit": code, "sha256": hashlib.sha256(output).hexdigest()}


class HarnessTest(unittest.TestCase):

    def test_digest_mismatch_is_detected(self):
        expected = record(SMALL)
        self.assertIsNone(run.run_case(SMALL, expected, 1).failure)
        wrong = dict(expected, sha256="0" * 64)
        failure = run.run_case(SMALL, wrong, 1).failure
        self.assertIn("digest", failure)

    def test_nonzero_exit_counts_as_failed(self):
        usage_error = "verify --theorem thm2.5 --n 5 --workers 1"  # no --k
        result = run.run_case(usage_error, {"exit": 0, "sha256": ""}, 1)
        self.assertEqual(result.exit_code, 2)
        self.assertIn("exit code 2", result.failure)

    def test_failing_check_is_not_a_pass(self):
        # the printed variant of thm1.1-2 fails at n=5, k=2 and exits 1
        case = "verify --theorem thm1.1-2 --n 5 --k 2 --workers 1"
        expected = record(case)
        self.assertEqual(expected["exit"], 1)
        self.assertIn("all_pass", run.run_case(case, expected, 1).failure)

    def test_pool_worker_spans_are_collected(self):
        result = run.run_case(POOLED, record(POOLED), 1, traced=True)
        self.assertIsNone(result.failure)
        self.assertGreaterEqual(result.spans["worker_files"], 1)
        self.assertEqual(result.spans["totals"]["cli.task"][0], 3)
        self.assertEqual(result.spans["enumerated"],
                         {"A/4/2": 20, "A/5/2": 50, "A/6/2": 105})
        # without the workers' files the cross-check fails
        directory = run.WORK_DIR / "spans"
        for name in os.listdir(directory):
            if name != "case":
                os.remove(directory / name)
        main_only = spans.load_spans(str(directory / "case"))
        self.assertIsNotNone(run.cross_check(POOLED.split(), result.output,
                                             main_only))

    def test_fails_without_sources(self):
        bare = run.WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-grid",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True,
            timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
