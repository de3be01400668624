#!/usr/bin/env python3
"""The benchmark's own tests: smoke-sized runs of every workload.

    python3 wpbench/test_wpbench.py        # from the repository root

Each test drives wpbench/run.py with --smoke (tiny inputs, one-second
runs), so the whole file takes about a minute once the build exists.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload, seed, trace=0):
    """Runs one smoke-sized workload; returns (exit code, record, result)."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "wpbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return out.returncode, record, json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_runs_and_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, record, result = run(workload, seed=1)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(all(record["checks"].values()))
                for key in ("nproc", "cpu_model", "compiler", "build_type",
                            "wp_tracing"):
                    self.assertIn(key, record["fingerprint"])

    def test_metrics_match_the_declared_names_and_units(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            for name in declared:
                self.assertRegex(name, NAME)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run(workload, seed=2, trace=trace)
                    self.assertEqual(code, 0)
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_traced_runs_add_up_and_keep_layers_apart(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, record, result = run(workload, seed=3, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(
                    record["checks"]["layer self times add up to each request"])
                self.assertTrue((ROOT / record["span_file"]).is_file())
                present = {name for name, m in record["metrics"].items()
                           if m["present"]}
                svc = {name for name in present if name.startswith("svc.")}
                if workload == "fabric-floorplan":
                    self.assertTrue(svc)
                else:
                    self.assertFalse(svc)
                if workload == "anneal-area-1024":
                    self.assertEqual(
                        result["metrics"]["graph.oracle_ms"]["value"], 0)

    def test_same_seed_same_digest_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, a = run(workload, seed=11)
                _, again, _ = run(workload, seed=11)
                _, other, b = run(workload, seed=12)
                self.assertEqual(first["results_digest"],
                                 again["results_digest"])
                self.assertEqual(first["simulated"], again["simulated"])
                self.assertNotEqual(first["results_digest"],
                                    other["results_digest"])
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))


if __name__ == "__main__":
    unittest.main()
