#!/usr/bin/env python3
"""Gate the world-replica benchmark's exact counters against an expectation.

    python3 perfbench/compare.py sweep --seeds 1 --trace 1 --seconds 2 \\
        --out perfbench-exact.jsonl
    python3 tools/perfbench_exact_gate.py tools/perfbench_exact_seed1.jsonl \\
        perfbench-exact.jsonl

Both files are traced (`--trace 1`) result sets of `compare.py sweep`. The
gate fails (exit 1) when any run is untraced, when a BENCHMARK.json workload
is missing from either file for a seed that file ran, or when
`compare.py compare` fails: an exact count (events, drain allocations,
snapshot bytes, simulated outcomes) differs, or a run in NEW is incorrect.
Traced runs carry no end-to-end metrics, so no wall-clock figure from the
machine that wrote the expectation is compared. A change that means to alter
behaviour re-captures the expectation with the sweep above.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402


def coverage_failures(label, runs, workloads):
    """Untraced runs, and (workload, seed) pairs missing from `runs`."""
    failures = ["%s: %s seed %s is untraced" % (label, r["workload"], r["seed"])
                for r in runs if r["trace"] != 1]
    seeds = sorted({r["seed"] for r in runs})
    if not seeds:
        failures.append("%s: no runs" % label)
    have = {(r["workload"], r["seed"]) for r in runs}
    for seed in seeds:
        for w in workloads:
            if (w, seed) not in have:
                failures.append("%s: workload %s missing for seed %s" % (label, w, seed))
    return failures


def gate(expected, new, bench):
    """Returns the list of failures; empty when NEW matches EXPECTED."""
    workloads = [w["name"] for w in bench["workloads"]]
    failures = (coverage_failures("expected", expected, workloads) +
                coverage_failures("new", new, workloads))
    if {r["seed"] for r in expected} != {r["seed"] for r in new}:
        failures.append("seed sets differ: expected %s, new %s" % (
            sorted({r["seed"] for r in expected}), sorted({r["seed"] for r in new})))
    return failures + compare.compare(expected, new, bench)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    failures = gate(compare.load(argv[1]), compare.load(argv[2]),
                    compare.load_benchmark())
    for f in failures:
        print("FAIL " + f)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
