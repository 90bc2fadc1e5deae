#!/usr/bin/env python3
"""Smoke test of the benchmark binary.

Runs every workload at a tiny scale, untraced and traced, and checks that
each metric BENCHMARK.json names is printed in the table and in the final
JSON line with its unit, that the gate passes and that nothing failed.

    python3 perfbench/tests/smoke_test.py --binary BUILD/perfbench [--work-dir DIR]
"""
import argparse
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_CHILD = ["core.static.ms", "analysis.decompile.ms", "monkey.fuzz.ms",
            "apk.parses_per_app", "runner.attempt.ms_p50"]


class Smoke(unittest.TestCase):
    binary = None
    work_dir = None

    def run_bench(self, workload, trace):
        command = [self.binary, "--workload", workload, "--seed", "3",
                   "--seconds", "0.2", "--trace", str(trace), "--scale", "0.004",
                   "--work-dir", str(self.work_dir),
                   "--golden", str(ROOT / "perfbench" / "golden.txt")]
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=170, check=False)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check(self, workload, trace):
        table, result = self.run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        rows = {line.split()[0]: line.split() for line in table if line.startswith("  ")}
        self.assertEqual(rows["failed_ratio"][1:3], ["0", "ratio"])
        metrics = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            with self.subTest(metric=name):
                value = result["metrics"][name]
                self.assertEqual(value["unit"], unit)
                self.assertIsInstance(value["value"], (int, float))
                self.assertEqual(rows[name][2], unit)
        if trace and workload == "campaign":
            for name in IN_CHILD:
                self.assertEqual(rows[name][1], "absent", name)
                self.assertEqual(result["metrics"][name]["value"], -1)


def add_cases():
    for workload in WORKLOADS:
        for trace in (0, 1):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(Smoke, f"test_{workload}_trace{trace}", case)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_build" / "smoke-work"))
    args, rest = parser.parse_known_args()
    Smoke.binary = args.binary
    Smoke.work_dir = pathlib.Path(args.work_dir)
    add_cases()
    unittest.main(argv=[sys.argv[0], *rest], verbosity=2)


if __name__ == "__main__":
    main()
