#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size run of every workload, untraced
and traced, must print exactly the metric names and units BENCHMARK.json
declares, with no failed operation or check.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, declared):
        done = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(result["failed"], 0, done.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(result["correct"], done.stderr)
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        self.assertEqual(got, [(m["name"], m["unit"]) for m in declared])
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result["metrics"]

    def test_every_workload_prints_the_declared_metrics(self):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"], trace=0):
                metrics = self.check(workload["name"], 0, BENCH["end_to_end"])
                for name in ("circuits_per_s", "requests_per_s", "latency_p50_ms",
                             "peak_rss_mib", "setup_s"):
                    self.assertGreater(metrics[name]["value"], 0, name)
            with self.subTest(workload=workload["name"], trace=1):
                self.check(workload["name"], 1, BENCH["per_layer"])

    def test_warm_runs_only_read_the_cache(self):
        metrics = self.check("flow_mul8_warm", 1, BENCH["per_layer"])
        self.assertEqual(metrics["approxfpgas.cache.hit_rate"]["value"], 1.0)
        self.assertEqual(metrics["afp_runtime.asic_synths"]["value"], 0)

    def test_bad_arguments_fail_without_a_result(self):
        done = run("--workload", "no_such_workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
