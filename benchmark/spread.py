#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs BENCHMARK.json's command N times per workload, each time with another
seed, and prints for each metric the distance between the first and third
quartile of its N values as a share of their median, next to the metric's
bound. A benchmark is steady when every spread (setup_s aside) is below a
third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...] [--save FILE]

Run it from the repository root. --save keeps every run's values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    values = {}  # workload -> metric -> [value per run]
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            started = time.monotonic()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - started
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed, correct={result['correct']}")
            if set(result["metrics"]) != set(defs):
                sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)

    worst = 0.0
    print(f"{'workload':<18} {'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}  of bound")
    for workload, per_metric in values.items():
        for name, vals in per_metric.items():
            bound = defs[name].get("bound")
            if len(vals) < 2 or any(v is None for v in vals):
                print(f"{workload:<18} {name:<28} {'-':>14} {'-':>8}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            share = f"{spread / bound:6.2f}" if bound else "     -"
            flag = ""
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  <-- above a third" if spread > bound / 3 else ""
            print(f"{workload:<18} {name:<28} {med:>14.4f} {spread:>8.4f} "
                  f"{bound if bound else '-':>6}  {share}{flag}")
    if args.trace == 0:
        print(f"worst spread is {worst:.2f} of its bound")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
