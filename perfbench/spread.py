#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed 1..N for each
workload (tracing off) and prints, per metric, the median, the quartiles and the
spread (Q3 - Q1) / median next to the metric's bound. Run it from the
repository root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 5 --workload serve-zipf
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", help="default: all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            last = proc.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {last}", file=sys.stderr)
        print(f"\n{w} ({args.seeds} seeds)")
        print(f"{'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"{name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {bounds[name]:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
