#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py <workload> [--seeds 1,2,...] [--seconds S] [--trace 0|1]

For every metric of the result lines it prints the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the first and third quartile as a share of the median.
The bound in BENCHMARK.json is printed beside each end-to-end metric.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in line.items() if k in bounds), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bounds.get(k, '')}")


if __name__ == "__main__":
    main()
