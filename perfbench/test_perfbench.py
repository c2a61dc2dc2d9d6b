#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py    (from the repo root)

Builds the benchmark like run.py does, runs its C++ tests (percentile
sample-count rule, counter deltas, stage-sum identity, determinism) and
checks, from the Python side: the metric JSON round trip, the strict CLIs,
and that BENCHMARK.json and layer_map.json agree.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the module under test)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class BuiltBinaries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(["perfbench", "perfbench_test"])

    def test_cpp_tests_pass(self):
        proc = subprocess.run([str(self.bdir / "perfbench_test")], stdout=subprocess.PIPE,
                              text=True, timeout=300, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("0 of 5 tests failed", proc.stdout)

    def test_metric_json_round_trip(self):
        # The C++ side prints doubles at round-trip precision; parsing must
        # give back exactly the values it started from.
        proc = subprocess.run([str(self.bdir / "perfbench_test"), "--json-sample"],
                              stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        parsed = json.loads(proc.stdout)
        expected = [0.1 + 0.2, 1.0 / 3.0, 78.53125, 1e-9, 123456789.123456789, 0.0, 1.0,
                    2.5e300]
        self.assertEqual([parsed[f"m{i}"]["value"] for i in range(len(expected))], expected)
        self.assertEqual([parsed[f"m{i}"]["samples"] for i in range(len(expected))],
                         list(range(1, len(expected) + 1)))
        # And run.py's own output line survives a second trip unchanged.
        line = json.dumps({"metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                       for k, v in parsed.items()}})
        self.assertEqual(json.loads(line)["metrics"]["m0"]["value"], 0.1 + 0.2)

    def test_binary_rejects_bad_flags(self):
        binary = str(self.bdir / "perfbench")
        good = ["--workload", "fanin_rpc", "--seed", "1", "--seconds", "1", "--trace", "0"]
        for bad in (good + ["--sed", "1"],           # misspelled key
                    good[:-2],                        # missing --trace
                    good + ["--seed", "2"],           # duplicate
                    ["--workload", "fanin"] + good[2:],
                    good[:6] + ["--trace", "2"],
                    good[:4] + ["--seconds", "0"] + good[6:]):
            proc = subprocess.run([binary, *bad], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=30, check=False)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "", bad)

    def test_binary_help_does_not_run(self):
        proc = subprocess.run([str(self.bdir / "perfbench"), "--help"],
                              stdout=subprocess.PIPE, text=True, timeout=10, check=False)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("usage:", proc.stdout)


class Cli(unittest.TestCase):
    def run_py(self, *argv):
        return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=30, check=False)

    def test_help_does_not_run(self):
        proc = self.run_py("--help")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("--workload", proc.stdout)

    def test_unknown_and_misspelled_flags_are_rejected(self):
        base = ["--workload", "fanin_rpc", "--seed", "1", "--seconds", "1", "--trace", "0"]
        for argv in (base + ["--seeed", "2"], base + ["--work", "x"],
                     ["--workload", "fanin"] + base[2:], base[:6] + ["--trace", "yes"],
                     base + ["--spans-out", "x.json"]):
            proc = self.run_py(*argv)
            self.assertEqual(proc.returncode, 2, argv)
            self.assertEqual(proc.stdout, "", argv)


class Spec(unittest.TestCase):
    def test_layer_map_covers_every_per_layer_metric_once(self):
        layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
        mapped = [m for group in layer_map["layers"] for m in group["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in SPEC["per_layer"]))
        self.assertEqual(len(mapped), len(set(mapped)))
        targets = {m["name"] for m in SPEC["end_to_end"]}
        targets |= {m["name"] for m in layer_map["workload_metrics"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for group in layer_map["layers"]:
            self.assertTrue(group["moves"], group["layer"])
            for metric, workload in group["moves"]:
                self.assertIn(metric, targets, group["layer"])
                self.assertIn(workload, workloads, group["layer"])

    def test_workloads_match_the_cli(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)

    def test_setup_metric_is_declared(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


if __name__ == "__main__":
    unittest.main()
