#!/usr/bin/env python3
"""Steadiness study: run one workload with several seeds, summarize.

    python3 perfbench/steady.py --workload W [--runs 10] [--seconds 55]

Runs `perfbench/run.py --trace 0` once per seed 1..runs and prints,
for every end-to-end metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median, which BENCHMARK.json's bounds are judged against.
Also prints the failed/attempted share of every run, which must be
identical across runs. The raw results go to stderr as they arrive.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args()

    values = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(json.dumps(result), file=sys.stderr, flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed the checker")
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, "
          f"failed share {sorted(shares)}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}")


if __name__ == "__main__":
    main()
