#!/usr/bin/env python3
"""Noise study: runs one workload at several seeds and reports the spread.

Run from the repository root:

    python3 perfbench/noise.py --workload mc_validation --runs 10 --seconds 20

For every metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound from `BENCHMARK.json`. Seeds are `first-seed`,
`first-seed + 1`, ... Runs are sequential, so they do not disturb each
other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=900,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{out.stdout}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                          if k in bounds or args.trace), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
              f"{'' if bound is None else format(bound, '>7.2f')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
