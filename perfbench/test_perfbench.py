#!/usr/bin/env python3
"""Tests of the benchmark driver on its reduced-size inputs (--size small).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the driver the way run.py does, then checks for every workload in
BENCHMARK.json that both modes print exactly the listed metrics with their
units, pass their output checks, and that the same seed reproduces the
modeled metrics, counts and outputs bit for bit while another seed does not.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# fig8-spmspv, the paper's Fig-8 input, is runnable but left out of
# BENCHMARK.json as unsteady (see README.md); it is tested all the same.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["fig8-spmspv"]
BINARY = None


def drive(workload, seed=1, trace=0):
    r = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "small",
         "--out", os.path.join(run.build_dir(), "test-out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    return r.returncode, r.stdout


def units(metric_list):
    return {m["name"]: m["unit"] for m in metric_list}


class PerfbenchTest(unittest.TestCase):
    def check_result(self, workload, trace, expected):
        code, out = drive(workload, trace=trace)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(w, 0, units(BENCH["end_to_end"]))
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(w, 1, units(BENCH["per_layer"]))
                # Tiny inputs leave more of each op to loop overhead than
                # the full-size 90% bar allows.
                self.assertGreater(metrics["bench.layer_span_coverage"]["value"], 0.5)
                self.assertLessEqual(metrics["bench.layer_span_coverage"]["value"], 1.0)

    def test_same_seed_is_bit_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run.parse(drive(w, seed=7)[1])
                b = run.parse(drive(w, seed=7)[1])
                self.assertEqual(a[1], b[1])
                for name in run.MODELED:
                    self.assertEqual(a[0]["metrics"][name], b[0]["metrics"][name])

    def test_seed_changes_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(run.parse(drive(w, seed=1)[1])[1],
                                    run.parse(drive(w, seed=2)[1])[1])

    def test_unknown_workload_fails_without_result(self):
        code, out = drive("no-such-workload")
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
