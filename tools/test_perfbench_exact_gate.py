#!/usr/bin/env python3
"""Self-tests for the exact-counter gate (perfbench_exact_gate.py).

    python3 tools/test_perfbench_exact_gate.py

Builds synthetic traced result sets, one run per BENCHMARK.json workload,
and checks that the gate passes an identical set and fails a changed exact
count, a missing workload, an untraced run and an incorrect run.
"""
import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_exact_gate as gate_mod  # noqa: E402

BENCH = gate_mod.compare.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def result_set():
    return [{"workload": w, "seed": 1, "trace": 1,
             "result": {"correct": True, "attempted": 8, "failed": 0,
                        "metrics": {"sim.events": {"value": 84237.0, "unit": "count"},
                                    "sim.drain_ms": {"value": 13.0, "unit": "ms"}}}}
            for w in WORKLOADS]


class GateTest(unittest.TestCase):
    def test_identical_sets_pass(self):
        self.assertEqual(gate_mod.gate(result_set(), result_set(), BENCH), [])

    def test_timings_are_not_gated(self):
        new = result_set()
        new[0]["result"]["metrics"]["sim.drain_ms"]["value"] *= 3
        self.assertEqual(gate_mod.gate(result_set(), new, BENCH), [])

    def test_one_more_event_fails(self):
        new = result_set()
        new[2]["result"]["metrics"]["sim.events"]["value"] += 1
        failures = gate_mod.gate(result_set(), new, BENCH)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim.events", failures[0])

    def test_missing_workload_fails_either_side(self):
        for side in ("expected", "new"):
            sets = {"expected": result_set(), "new": result_set()}
            del sets[side][1]
            failures = gate_mod.gate(sets["expected"], sets["new"], BENCH)
            self.assertEqual(len(failures), 1, failures)
            self.assertIn("missing", failures[0])
            self.assertIn(WORKLOADS[1], failures[0])

    def test_untraced_run_fails(self):
        new = copy.deepcopy(result_set())
        new[0]["trace"] = 0
        self.assertTrue(any("untraced" in f for f in gate_mod.gate(result_set(), new, BENCH)))

    def test_incorrect_run_fails(self):
        new = result_set()
        new[3]["result"]["correct"] = False
        self.assertTrue(any("incorrect" in f for f in gate_mod.gate(result_set(), new, BENCH)))


if __name__ == "__main__":
    unittest.main()
