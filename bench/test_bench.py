"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction

import program
import run
from tracing import NULL
from workloads import TINY, WORKLOADS, Op, Workload, check_cli, check_search

from freeset_lab.funcgraph import FiniteFunction, Subset
from freeset_lab.rosenthal import function_to_matrix, verify_fragmentation


class TinyRuns(unittest.TestCase):
    def test_each_workload_timed(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                out = run.timed_run(cls, 5, 0.01, TINY)
                self.assertEqual(out["failures"], [])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 2)
                self.assertEqual(set(out["metrics"]), set(run.END_TO_END))
                self.assertTrue(all(v > 0 for v in out["metrics"].values()))

    def test_each_workload_traced(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                out = run.traced_run(cls, 5, TINY)
                self.assertEqual(out["failures"], [])
                self.assertEqual(set(out["metrics"]), set(run.per_layer_units(TINY)))

    def test_structured_replay_reaches_case_two(self):
        out = run.traced_run(WORKLOADS["structured"], 5, TINY)
        self.assertGreater(out["metrics"]["involutions.case2_ratio"], 0)


class PlantedFailures(unittest.TestCase):
    def test_report_with_ok_false(self):
        self.assertTrue(check_cli(0, json.dumps({"ok": False})))

    def test_wrong_exit_code(self):
        self.assertTrue(check_cli(1, json.dumps({"ok": True})))

    def test_not_json(self):
        self.assertTrue(check_cli(0, "Traceback (most recent call last):"))

    def test_batch_short_of_count(self):
        doc = {"ok": True, "result": {"passed": 3}, "instances": [{}] * 4}
        self.assertTrue(check_cli(0, json.dumps(doc), count=4))
        doc["result"]["passed"] = 4
        self.assertEqual(check_cli(0, json.dumps(doc), count=4), [])

    def test_non_free_set(self):
        fn = FiniteFunction((1, 2, 3, 0))
        matrix = function_to_matrix(fn)
        bad = Subset(4, (0, 1))  # 0 -> 1 stays inside the set
        self.assertTrue(check_search(bad, verify_fragmentation(matrix, bad, Fraction(1))))

    def test_fragmenting_set_other_than_the_oracle(self):
        fn = FiniteFunction((1, 2, 3, 0))
        matrix = function_to_matrix(fn)
        found, oracle = Subset(4, (1, 3)), Subset(4, (0, 2))
        verdict = verify_fragmentation(matrix, found, Fraction(1))
        self.assertEqual(check_search(found, verdict), [])
        self.assertTrue(check_search(found, verdict, oracle))

    def test_timed_run_counts_a_planted_failure(self):
        class Planted(Workload):
            name = "planted"
            round_s = 1.0

            def setup(self, tr=NULL):
                self.ops = [
                    Op("good", lambda tr: (0, json.dumps({"ok": True})), lambda res: check_cli(*res)),
                    Op("bad", lambda tr: (0, json.dumps({"ok": False})), lambda res: check_cli(*res)),
                ]

            def round(self, r):
                return self.ops

        out = run.timed_run(Planted, 1, 1.0, TINY)
        self.assertEqual(out["failed"], 1)
        self.assertEqual(out["attempted"], 3)
        self.assertEqual(out["metrics"]["verified_ratio"], 2 / 3)


class Statistics(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        for n, p in ((12, 0.5), (24, 0.5), (95, 0.75), (180, 0.9), (480, 0.95), (5000, 0.99)):
            self.assertEqual(run.tail_percentile(n), p)

    def test_speed_scale_takes_wall_time_to_reference_speed(self):
        took, scale = run.speed_scale(lambda: time.sleep(0.02), 0.01)
        self.assertGreaterEqual(took, 0.02)
        self.assertAlmostEqual(scale, 0.01 / took)

    def test_quantile(self):
        self.assertEqual(run.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(run.quantile([1, 2, 3, 5], 1.0), 5)
        self.assertEqual(run.quantile([7], 0.99), 7)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
        from workloads import FULL

        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units(FULL))

    def test_refuses_a_checkout_without_sources(self):
        bare = program.WORK / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(program.ROOT / "bench", bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(program.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "structured", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
