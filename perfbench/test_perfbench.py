#!/usr/bin/env python3
"""The benchmark's own tests, on tiny instances and one-second windows.

    python3 perfbench/test_perfbench.py

Builds the runner if needed (see run.py), then checks that every metric
BENCHMARK.json names is emitted with its unit on every workload, that the
runner really measures each per-layer metric on the workloads
perfbench/metrics.json says it applies to, that a wrong expected answer
and a served ack that disagrees with the serial replay are reported as
failures, and that compare.py flags a regression and a rise in failures.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))
APPLIES = load(os.path.join(HERE, "metrics.json"))["per_layer"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace=0, *extra):
    """Runs run.py in tiny mode; returns (final line, full runner record)."""
    with tempfile.TemporaryDirectory() as tmp:
        records = os.path.join(tmp, "records.jsonl")
        env = dict(os.environ, PERFBENCH_RECORDS=records)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--tiny", *extra],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            raise AssertionError("run.py failed:\n" + done.stderr[-3000:])
        final = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(open(records).read().splitlines()[-1])
    return final, record


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        names = [m["name"] for m in BENCHMARK["end_to_end"] +
                 BENCHMARK["per_layer"]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))
        self.assertEqual({m["name"] for m in BENCHMARK["per_layer"]},
                         set(APPLIES))
        for entry in APPLIES.values():
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS))


class EmissionTest(unittest.TestCase):
    def check(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            final, record = run(workload, trace)
            self.assertTrue(final["correct"], record["result"]["failures"])
            self.assertEqual(final["failed"], 0)
            self.assertGreaterEqual(final["attempted"], 1)
            self.assertEqual(set(final), {"correct", "attempted", "failed",
                                          "metrics"})
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            self.assertEqual(set(final["metrics"]), set(declared))
            emitted = record["result"]["metrics"]
            for name, unit in declared.items():
                self.assertEqual(final["metrics"][name]["unit"], unit, name)
                applies = (key == "end_to_end" or
                           workload in APPLIES[name]["workloads"])
                if applies:
                    self.assertIn(name, emitted, "%s not measured" % name)
                    self.assertEqual(emitted[name]["unit"], unit, name)
            if key == "end_to_end":
                for name in ("solve_s", "ops_per_s", "setup_s",
                             "peak_rss_mb"):
                    self.assertGreater(final["metrics"][name]["value"], 0)

    def test_cold_spatial(self):
        self.check("cold_spatial")

    def test_cold_milp(self):
        self.check("cold_milp")

    def test_symgd_full(self):
        self.check("symgd_full")

    def test_serve_edits(self):
        self.check("serve_edits")


class FailureTest(unittest.TestCase):
    def test_wrong_expected_answer_fails(self):
        final, record = run("cold_spatial", 0, "--expect-error", "999")
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], final["attempted"])
        self.assertIn("expected 999", record["result"]["failures"][0])

    def test_serve_ack_mismatch_fails(self):
        final, record = run("serve_edits", 0, "--corrupt-ack")
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], 1)
        self.assertIn("serial replay", record["result"]["failures"][0])


def fake_record(workload, value, failed=0, attempted=10):
    metrics = {m["name"]: {"value": value if m["name"] == "solve_s" else 1.0,
                           "unit": m["unit"], "samples": 5}
               for m in BENCHMARK["end_to_end"]}
    return {"metadata": {"workload": workload, "trace": 0, "tiny": False},
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
            "problems": []}


class CompareTest(unittest.TestCase):
    def report(self, parent, change):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, records in (("p", parent), ("c", change)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    f.writelines(json.dumps(r) + "\n" for r in records)
                paths.append(path)
            with open(os.devnull, "w") as devnull:
                stdout, sys.stdout = sys.stdout, devnull
                try:
                    return compare.report(paths[0], paths[1], BENCHMARK)
                finally:
                    sys.stdout = stdout

    def test_same_results_pass(self):
        runs = [fake_record("w", 1.0 + 0.01 * i) for i in range(10)]
        self.assertTrue(self.report(runs, runs))

    def test_regression_fails(self):
        parent = [fake_record("w", 1.0 + 0.01 * i) for i in range(10)]
        change = [fake_record("w", 2.0 + 0.01 * i) for i in range(10)]
        self.assertFalse(self.report(parent, change))

    def test_improvement_passes(self):
        parent = [fake_record("w", 2.0 + 0.01 * i) for i in range(10)]
        change = [fake_record("w", 1.0 + 0.01 * i) for i in range(10)]
        label, win = compare.verdict([2.0 + 0.01 * i for i in range(10)],
                                     [1.0 + 0.01 * i for i in range(10)],
                                     "lower", 0.25)
        self.assertEqual((label, win), ("improved", 1.0))
        self.assertTrue(self.report(parent, change))

    def test_noisy_parent_is_unresolved(self):
        label, _ = compare.verdict([1.0, 2.0, 1.0, 2.0], [1.1, 1.9, 1.2, 1.8],
                                   "lower", 0.1)
        self.assertEqual(label, "unresolved")

    def test_rising_failures_fail(self):
        parent = [fake_record("w", 1.0) for _ in range(4)]
        change = [fake_record("w", 1.0, failed=1) for _ in range(4)]
        self.assertFalse(self.report(parent, change))


if __name__ == "__main__":
    unittest.main()
