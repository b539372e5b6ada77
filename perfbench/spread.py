#!/usr/bin/env python3
"""Measure run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs N] [--first-seed S] [WORKLOAD ...]

Runs each workload N times (default 10) through run.py, each with its
own seed, and prints for every end-to-end metric its unit, its median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.  A
spread above a third of the bound is flagged.  With --runs 1 it prints
each metric's value.  Exits 1 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    status = 0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                status = 1
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            vs = values.get(m["name"], [])
            if len(vs) < 2:
                for v in vs:
                    print("%-15s %-14s %-12.6g %s" % (w, m["name"], v, m["unit"]))
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print("%-15s %-14s median %-12.6g %-6s spread %.4f bound %.2f%s"
                  % (w, m["name"], med, m["unit"], spread, m["bound"], flag))
            print("    runs: " + " ".join("%.6g" % v for v in vs))
        sys.stdout.flush()
    sys.exit(status)


if __name__ == "__main__":
    main()
