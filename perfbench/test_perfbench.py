#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that a tiny-size run of
every workload prints every metric of BENCHMARK.json with its unit, that
the deterministic dist-sim run repeats its exact counts, and that the tour
validator rejects a corrupted tour and a non-permutation.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def driver(workload, trace, seed=3):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    provenance = next(json.loads(line)["provenance"] for line in lines
                      if line.startswith('{"provenance"'))
    return provenance, json.loads(lines[-1])


class WorkloadSmoke(unittest.TestCase):
    def check(self, workload, trace, spec_key):
        _, result = driver(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if spec_key == "end_to_end":
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, "end_to_end")
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], 1, "per_layer")

    def test_dist_sim_exact_counts_repeat(self):
        first, a = driver("dist-sim", 0, seed=11)
        second, b = driver("dist-sim", 0, seed=11)
        exact = {k: v for k, v in first["info"].items() if k.startswith("exact.")}
        self.assertTrue(exact)
        self.assertEqual(exact, {k: v for k, v in second["info"].items()
                                 if k.startswith("exact.")})
        for key in ("excess_pct", "construct_excess_pct"):
            self.assertEqual(a["metrics"][key]["value"], b["metrics"][key]["value"])


class Validator(unittest.TestCase):
    def test_validator_rejects_bad_tours(self):
        exe = os.path.join(run.build_dir(), "perfbench_validator_test")
        done = subprocess.run([exe], capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)


class SpecShape(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    DRIVER = run.build()
    subprocess.run(["cmake", "--build", run.build_dir(), "--target",
                    "perfbench_validator_test"], check=True,
                   stdout=sys.stderr)
    unittest.main()
