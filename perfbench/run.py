#!/usr/bin/env python3
"""Builds and runs the TERSE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mc_validation --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the named workload in its own process.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Without `--workload`, every
workload runs in turn, each in its own process. The workload names and
the default `--seconds` (`run_seconds`) come from `BENCHMARK.json`.

Exit status: the workload's own (0 when every output check passed), or 3
when the benchmark cannot be built, in which case no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "perfbench")

    status = 0
    for name in [args.workload] if args.workload else workloads:
        run = subprocess.run(
            [binary, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, env=env, timeout=RUN_TIMEOUT_S,
        )
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
