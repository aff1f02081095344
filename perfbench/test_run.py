#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_run.py

They build the checkout, run every workload in smoke mode (tiny sizes,
traced and untraced), check that the traced run's counters repeat exactly
for a given seed, and check that a directory holding only the benchmark
fails cleanly without printing a result.
"""

import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def counter_lines(out):
    return [l for l in out.splitlines() if l.strip().startswith("counters")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_smoke(self):
        r = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                            "--smoke"], cwd=run.ROOT, capture_output=True,
                           text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stdout.count(": ok"), 6, r.stdout)

    def test_traced_counters_repeat(self):
        for w in ("read-miss", "evolve"):
            outs = []
            for _ in range(2):
                r = subprocess.run(
                    [run.BENCH, "--workload", w, "--seed", "7", "--seconds",
                     "2", "--trace", "1", "--smoke", "--gomsm", run.GOMSM,
                     "--workdir", run.WORKDIR],
                    cwd=run.ROOT, capture_output=True, text=True)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                outs.append(counter_lines(r.stdout))
            self.assertTrue(outs[0])
            # the single-connection counters repeat exactly; the
            # two-connection ones are timed and may not
            self.assertEqual(outs[0][0], outs[1][0], w)

    def test_bare_directory_fails(self):
        bare = os.path.join(run.WORKDIR + "-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "read-hot",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn("{", r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
