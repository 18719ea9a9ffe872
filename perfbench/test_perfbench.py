#!/usr/bin/env python3
"""Self-tests of the rimarket benchmark.

    python3 perfbench/test_perfbench.py

Checks that the metric catalogue compiled into the benchmark binary matches
BENCHMARK.json, that every workload fails (non-zero exit, "correct": false)
when one of its expected answers is corrupted, that a clean run passes, and
that the benchmark refuses to run without the library sources.  Runs take
about a minute, most of it the sweeps' single passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("paper-sweep", "population-sweep", "serve-read", "serve-mixed")


def run_bench(workload, *extra, cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class CatalogueTest(unittest.TestCase):
    def test_binary_metrics_match_benchmark_json(self):
        # A clean short run builds the binary if needed.
        self.assertEqual(run_bench("serve-read").returncode, 0)
        binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                              "rimarket_perfbench")
        listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                                check=True).stdout.splitlines()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        expected = [f"end_to_end {m['name']} {m['unit']}" for m in spec["end_to_end"]]
        expected += [f"per_layer {m['name']} {m['unit']}" for m in spec["per_layer"]]
        self.assertEqual(listed, expected)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


class CorrectnessCheckTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result = run_bench("serve-mixed")
        self.assertEqual(result.returncode, 0, result.stderr)
        summary = last_json(result.stdout)
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)
        self.assertGreater(summary["attempted"], 0)

    def test_corrupted_expected_answer_fails_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload, "--corrupt-expected")
                self.assertNotEqual(result.returncode, 0)
                self.assertFalse(last_json(result.stdout)["correct"])
                self.assertIn("CHECK FAILED", result.stderr)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve-read", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60, env=env)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
