#!/usr/bin/env python3
"""Self-tests of the scheduler benchmark.

    python3 perfbench/test_bench.py

Builds the harness (as run.py does), then checks:
  * the reference Algorithm 1 on its hand-worked topology;
  * strict input: unknown flags or workloads, malformed or non-positive
    sizes exit 2 without a result;
  * the smoke mode: every workload, untraced and traced, with all of its
    correctness checks, prints a clean result whose metrics are exactly
    the ones BENCHMARK.json declares;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py
    fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, imported for build())

BUILD = None


def setUpModule():
    global BUILD
    BUILD = run.build()


def harness(*args, timeout=120):
    return subprocess.run(
        [os.path.join(BUILD, "perfbench_harness"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout, check=False)


class ReferenceTest(unittest.TestCase):
    def test_hand_worked_topology(self):
        done = subprocess.run([os.path.join(BUILD, "perfbench_reference_test")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)


class StrictInputTest(unittest.TestCase):
    GOOD = ["--workload", "serve_small_mt", "--seed", "1", "--seconds", "1",
            "--trace", "0"]

    def assert_refused(self, args):
        done = harness(*args)
        self.assertEqual(done.returncode, 2, (args, done.stderr))
        self.assertEqual(done.stdout, "", args)
        self.assertIn("perfbench_harness:", done.stderr)

    def test_unknown_flag(self):
        self.assert_refused(self.GOOD + ["--help"])
        self.assert_refused(self.GOOD + ["--threads=3"])

    def test_unknown_workload(self):
        self.assert_refused(["--workload", "serve_cold", *self.GOOD[2:]])

    def test_bad_sizes(self):
        for seconds in ("0", "-1", "nan", "1x", ""):
            self.assert_refused(self.GOOD[:4] + ["--seconds", seconds] +
                                self.GOOD[6:])
        self.assert_refused(self.GOOD[:2] + ["--seed", "-3"] + self.GOOD[4:])
        self.assert_refused(self.GOOD[:6] + ["--trace", "2"])

    def test_missing_argument(self):
        self.assert_refused(self.GOOD[:6])
        self.assert_refused(self.GOOD[:-1])

    def test_run_py_refuses_too(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


class SmokeTest(unittest.TestCase):
    def run_smoke(self, workload, trace):
        done = harness("--workload", workload, "--seed", "7", "--seconds",
                       "0.3", "--trace", str(trace), "--smoke", timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return result

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.run_smoke(workload, trace)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = tempfile.mkdtemp(dir=os.path.dirname(BUILD))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_small_mt", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                check=False, env={**os.environ, "CARGO_TARGET_DIR": ""})
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
