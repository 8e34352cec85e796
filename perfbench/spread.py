#!/usr/bin/env python3
"""Run a perfbench workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_mix --seeds 1-10
    python3 perfbench/spread.py --workload eval_search --seeds 1-3 --trace 1 --repeat

For every metric the script prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median: the figure BENCHMARK.json's bounds are judged against. With
--repeat each seed runs twice and every metric tagged "exact" in the run
reports must read the same both times; a mismatch exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        sys.exit("seed %d: run failed (exit %d)" % (seed, proc.returncode))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    report_path = os.path.join(ROOT, base, "perfbench", "runs",
                               "report-%s-seed%d-trace%d.json" % (args.workload, seed, args.trace))
    with open(report_path) as f:
        report = json.load(f)
    if not result["correct"] or result["failed"] != 0:
        sys.exit("seed %d: incorrect result (%d failed)" % (seed, result["failed"]))
    return result, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    values = {}
    mismatches = []
    for seed in parse_seeds(args.seeds):
        result, report = run(args, seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.repeat:
            again, _ = run(args, seed)
            for name, metric in report["metrics"].items():
                if metric["kind"] == "exact" and again["metrics"][name]["value"] != metric["value"]:
                    mismatches.append("seed %d %s: %r then %r" % (
                        seed, name, metric["value"], again["metrics"][name]["value"]))
        print("seed %d done" % seed, file=sys.stderr)

    print("%-28s %14s %10s  %s" % ("metric", "median", "iqr/med", "values"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / median if median else 0.0
        print("%-28s %14.6g %10.4f  %s" % (name, median, spread,
                                           " ".join("%.4g" % v for v in vals)))
    for line in mismatches:
        print("EXACT MISMATCH " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
