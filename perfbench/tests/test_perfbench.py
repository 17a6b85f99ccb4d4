"""Tests of the benchmark itself: the correctness gate, its negative
control, and (inside --check) the span self-time arithmetic.

  python3 -m unittest discover -s perfbench/tests

Each test goes through perfbench/run.py, which builds the binary first.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900, check=False)


def check_counts(stdout):
    """{workload: (attempted, failed)} from a --check run."""
    return {m[0]: (int(m[1]), int(m[2])) for m in re.findall(
        r"^(\w+): (\d+) operations, (\d+) failed$", stdout, re.M)}


class PerfbenchTest(unittest.TestCase):
    def test_quick_check_has_no_failed_operation(self):
        done = run("--check")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIn("span self-time selftest: ok", done.stdout)
        counts = check_counts(done.stdout)
        self.assertEqual(len(counts), 4)
        for workload, (attempted, failed) in counts.items():
            self.assertGreater(attempted, 0, workload)
            self.assertEqual(failed, 0, workload)

    def test_negative_control_reports_failed_operations(self):
        # One container byte (file_rlnc) or one coded payload byte (the
        # others) is corrupted: every workload must count it as a failed
        # operation.
        done = run("--check", "--inject-fault")
        self.assertEqual(done.returncode, 1)
        counts = check_counts(done.stdout)
        self.assertEqual(len(counts), 4)
        for workload, (_, failed) in counts.items():
            self.assertGreaterEqual(failed, 1, workload)

    def test_failed_run_reports_no_throughput(self):
        done = run("--workload", "segment_stream", "--seconds", "0.5",
                   "--inject-fault")
        self.assertEqual(done.returncode, 1)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})


if __name__ == "__main__":
    unittest.main()
