#!/usr/bin/env python3
"""Build the perfbench harness from this checkout and run one workload.

    python3 perfbench/run.py --workload eval_search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The harness and the autophase library are
compiled from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The harness prints a
human-readable summary and, as the last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. That line is checked
against BENCHMARK.json's metric names before it is passed on. Per-run
reports and traces are written under the build directory's runs/.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure and build; returns False when the sources are missing or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ir", "module.hpp")):
        print("perfbench: no autophase sources under %s/src" % ROOT, file=sys.stderr)
        return False
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", jobs],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
                return False
    return True


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")

    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    command = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", runs,
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %ds" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode

    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        sys.stderr.write(proc.stdout)
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
