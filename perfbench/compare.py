#!/usr/bin/env python3
"""Result sets of the world-replica benchmark: record, check spread, compare.

    python3 perfbench/compare.py sweep --out runs.jsonl [--workloads a,b]
                                       [--seeds 1-10] [--trace 0] [--seconds S]
    python3 perfbench/compare.py spread runs.jsonl
    python3 perfbench/compare.py compare base.jsonl new.jsonl

A result set is a JSON-lines file, one run per line:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": <run.py's JSON>}

`spread` prints, per workload and end-to-end metric, the median and the
interquartile range as a share of the median, against the metric's bound in
BENCHMARK.json. `compare` fails (exit 1) when NEW is worse than BASE by more
than a bound on any workload's median, when an exact per-layer count differs
on any (workload, seed) both sets ran, or when a run in NEW is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Per-layer metrics that are a deterministic function of the seed: simulated
# outcomes and counts of work. Any change at all is a finding.
EXACT = {
    "trace.jobs", "sim.events", "sim.drain_allocs", "snap.bytes",
    "sched.unstarted", "sched.busy_fraction", "sched.eval_delay_p50_s",
    "failure.firings", "failure.kills", "failure.victim_ratio",
    "failure.kills_per_1k_gpu_days", "recovery.localizations",
    "recovery.goodput", "domain.outages", "domain.jobs_killed",
    "serve.offered", "serve.completed_ratio", "serve.slo_attainment",
    "serve.ttft_p99_s", "infra_gpu_share_err_pts", "infra_count_share_err_pts",
}


def load_benchmark(path=BENCHMARK):
    with open(path) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(runs, workload, metric, trace=0):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def spread(vals):
    """Interquartile range over the median, as statistics.quantiles gives it."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base` (<= 0: not worse)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def compare(base_runs, new_runs, bench):
    """Returns the list of failures; empty when NEW passes against BASE."""
    failures = []
    for r in new_runs:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            failures.append("%s seed %s trace %s: incorrect run (%d of %d failed)"
                            % (r["workload"], r["seed"], r["trace"],
                               res["failed"], res["attempted"]))
    workloads = sorted({r["workload"] for r in new_runs})
    for w in workloads:
        for m in bench["end_to_end"]:
            b, n = values(base_runs, w, m["name"]), values(new_runs, w, m["name"])
            if not b or not n:
                continue
            worse = worse_by(m, statistics.median(b), statistics.median(n))
            if worse > m["bound"]:
                failures.append("%s %s: median %.6g -> %.6g, %.1f%% worse (bound %.0f%%)"
                                % (w, m["name"], statistics.median(b),
                                   statistics.median(n), 100 * worse, 100 * m["bound"]))
    base_by_key = {(r["workload"], r["seed"], r["trace"]): r for r in base_runs}
    for r in new_runs:
        base = base_by_key.get((r["workload"], r["seed"], r["trace"]))
        if base is None:
            continue
        for name in sorted(EXACT):
            b = base["result"]["metrics"].get(name)
            n = r["result"]["metrics"].get(name)
            if b is not None and n is not None and b["value"] != n["value"]:
                failures.append("%s seed %s %s: exact count %r -> %r"
                                % (r["workload"], r["seed"], name, b["value"], n["value"]))
    return failures


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_sweep(a, bench):
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    with open(a.out, "a") as out:
        for w in names:
            for seed in seeds_arg(a.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(a.trace)],
                    stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
                    return 1
                record = {"workload": w, "seed": seed, "trace": a.trace,
                          "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print("%s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in record["result"]["metrics"].items()
                    if a.trace or k in {m["name"] for m in bench["end_to_end"]})))
    return 0


def cmd_spread(a, bench):
    runs = load(a.runs)
    status = 0
    for w in sorted({r["workload"] for r in runs if r["trace"] == 0}):
        for m in bench["end_to_end"]:
            vals = values(runs, w, m["name"])
            if len(vals) < 2:
                continue
            s = spread(vals)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"]:
                flag, status = "  OVER BOUND", 1
            elif m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("%-16s %-20s n=%-3d median %-12.6g spread %6.2f%% (bound %4.0f%%)%s"
                  % (w, m["name"], len(vals), statistics.median(vals), 100 * s,
                     100 * m["bound"], flag))
    return status


def cmd_compare(a, bench):
    failures = compare(load(a.base), load(a.new), bench)
    for f in failures:
        print("FAIL " + f)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep", help="run the benchmark over workloads and seeds")
    s.add_argument("--out", required=True)
    s.add_argument("--workloads", default="")
    s.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    sp = sub.add_parser("spread", help="run-to-run spread of a result set")
    sp.add_argument("runs")
    c = sub.add_parser("compare", help="gate NEW against BASE")
    c.add_argument("base")
    c.add_argument("new")
    a = p.parse_args(argv)
    bench = load_benchmark()
    return {"sweep": cmd_sweep, "spread": cmd_spread, "compare": cmd_compare}[a.cmd](a, bench)


if __name__ == "__main__":
    sys.exit(main())
