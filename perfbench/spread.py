#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's median and its
spread: the distance between the first and third quartile as a share of the median.

    python3 perfbench/spread.py WORKLOAD [SEEDS [SECONDS [TRACE]]]
"""

import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    workload = sys.argv[1]
    seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    seconds = sys.argv[3] if len(sys.argv) > 3 else "10"
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    values = {}
    for seed in range(1, seeds + 1):
        out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", trace],
                             capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:<30} median {median:<14.6g} spread {spread:.4f}  "
              + " ".join(f"{v:.4g}" for v in series))


if __name__ == "__main__":
    main()
