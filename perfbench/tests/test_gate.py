"""Self-tests of the benchmark's gates.

Run from the root of a weakrace checkout:

    python3 perfbench/tests/test_gate.py

- a run against the committed digests of the default seed passes;
- the same run against a copy with one digest flipped reports
  correct=false and exits non-zero;
- the reference kernel's slice time does not move when the benchmark
  process holds a large live heap;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, "_perfbench_build")
WORKLOAD = "verify-random"  # the quickest workload


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
         "--trace", "0"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Gate(unittest.TestCase):
    def test_committed_digests_pass(self):
        p = bench()
        self.assertEqual(p.returncode, 0, p.stderr)
        r = result(p)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertEqual(r["metrics"]["correct_ratio"]["value"], 1)

    def test_flipped_digest_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            name = WORKLOAD + ".seed1"
            with open(os.path.join(ROOT, "perfbench", "expected", name)) as f:
                lines = f.read().splitlines()
            ident, digest = lines[0].split()
            flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            lines[0] = ident + " " + flipped
            with open(os.path.join(tmp, name), "w") as f:
                f.write("\n".join(lines) + "\n")
            p = bench("--expected-dir", tmp)
        self.assertNotEqual(p.returncode, 0)
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertLess(r["metrics"]["correct_ratio"]["value"], 1)

    def test_kernel_ignores_benchmark_heap(self):
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--kernel-heap-check"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_refuses_without_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"))
            p = bench(cwd=tmp)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
