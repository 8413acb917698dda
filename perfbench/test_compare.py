#!/usr/bin/env python3
"""Self-tests for the benchmark's result comparison (compare.py).

    python3 perfbench/test_compare.py

Builds synthetic result sets shaped like run.py's output and checks that the
gates in BENCHMARK.json catch a 30% slowdown and a one-event change, and pass
run-to-run noise.
"""
import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = compare.load_benchmark()
SEEDS = range(1, 11)


def result_set(workload="seren-study", scale=None, exact_bump=None):
    """Ten seeds of trace-0 and trace-1 runs; `scale` multiplies one
    end-to-end metric, `exact_bump` adds 1 to one exact count."""
    runs = []
    for seed in SEEDS:
        jitter = 1 + 0.002 * ((seed * 7) % 5 - 2)  # +-0.4% run-to-run noise
        e2e = {m["name"]: {"value": 10.0 * jitter, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
        e2e["replica_pass_ratio"]["value"] = 1.0
        layer = {"sim.events": {"value": 168000.0 + seed, "unit": "count"},
                 "sim.drain_ms": {"value": 15.0 * jitter, "unit": "ms"}}
        if scale:
            name, factor = scale
            e2e[name]["value"] *= factor
        if exact_bump:
            layer[exact_bump]["value"] += 1
        for trace, metrics in ((0, e2e), (1, layer)):
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "result": {"correct": True, "attempted": 80, "failed": 0,
                                    "metrics": copy.deepcopy(metrics)}})
    return runs


class CompareTest(unittest.TestCase):
    def test_identical_sets_pass(self):
        self.assertEqual(compare.compare(result_set(), result_set(), BENCH), [])

    def test_thirty_percent_slower_replica_fails_its_bound(self):
        failures = compare.compare(
            result_set(), result_set(scale=("replica_cpu_ms_p50", 1.30)), BENCH)
        self.assertEqual(len(failures), 1)
        self.assertIn("replica_cpu_ms_p50", failures[0])

    def test_faster_replica_passes(self):
        self.assertEqual(compare.compare(
            result_set(), result_set(scale=("replica_cpu_ms_p50", 0.70)), BENCH), [])

    def test_one_more_event_fails_as_exact(self):
        failures = compare.compare(
            result_set(), result_set(exact_bump="sim.events"), BENCH)
        self.assertEqual(len(failures), len(SEEDS))
        self.assertTrue(all("sim.events" in f and "exact" in f for f in failures))

    def test_timed_layer_metric_is_not_exact(self):
        new = result_set()
        for r in new:
            if r["trace"] == 1:
                r["result"]["metrics"]["sim.drain_ms"]["value"] *= 1.5
        self.assertEqual(compare.compare(result_set(), new, BENCH), [])

    def test_lower_pass_ratio_fails(self):
        failures = compare.compare(
            result_set(), result_set(scale=("replica_pass_ratio", 0.5)), BENCH)
        self.assertTrue(any("replica_pass_ratio" in f for f in failures))

    def test_incorrect_run_fails(self):
        new = result_set()
        new[0]["result"]["correct"] = False
        new[0]["result"]["failed"] = 1
        failures = compare.compare(result_set(), new, BENCH)
        self.assertEqual(len(failures), 1)
        self.assertIn("incorrect", failures[0])

    def test_every_bound_is_below_thirty_percent(self):
        for m in BENCH["end_to_end"]:
            self.assertLess(m["bound"], 0.30, m["name"])

    def test_spread_matches_statistics_quantiles(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
