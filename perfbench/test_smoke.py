"""A short smoke of each workload end to end through run.py.

    python3 -m unittest discover -s perfbench -p 'test_smoke.py'

Run from the repository root. It builds the benchmark (first time: a
few minutes) and runs each workload for five seconds of measurement.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


class WorkloadSmokeTest(unittest.TestCase):
    """Each workload end to end through run.py, briefly."""

    @classmethod
    def setUpClass(cls):
        import run
        os.chdir(ROOT)
        os.makedirs(run.BUILD_DIR, exist_ok=True)
        run.build(os.cpu_count() or 1)

    def run_workload(self, workload):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "5", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_snark_sweep(self):
        self.run_workload("snark-sweep")

    def test_stark_sweep(self):
        self.run_workload("stark-sweep")

    def test_serve_mix(self):
        self.run_workload("serve-mix")


if __name__ == "__main__":
    unittest.main()
