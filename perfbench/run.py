#!/usr/bin/env python3
"""World-replica benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the AcmeSim libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one measurement. Build output goes
to stderr; the benchmark's last stdout line is its JSON result. With
--trace 1 the traced run's spans are written as Perfetto-loadable JSON under
<build dir>/traces/.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    built = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                           stdout=sys.stderr)
    return os.path.join(out, "perfbench") if built.returncode == 0 else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=min(3 * a.seconds + 60, 170))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
