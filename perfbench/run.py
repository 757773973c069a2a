#!/usr/bin/env python3
"""Build and run the dagwave served-path benchmark.

    python3 perfbench/run.py --workload churn_many --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), pins the rayon
pool to at most two threads, runs one workload and relays its output; the
last stdout line is the JSON result. Exits non-zero, without a result,
when the build or the run fails. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn_many", "snapshot_read", "dup_hotspot")
# Longest one run may take once built; the build itself is not bounded.
# dup_hotspot is not registered in BENCHMARK.json: its traced run replays
# several multi-second refreshes and may take minutes.
RUN_TIMEOUT_S = 170
HOTSPOT_TIMEOUT_S = 600
MAX_POOL = 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    nproc = len(os.sched_getaffinity(0))
    env["RAYON_NUM_THREADS"] = str(max(1, min(nproc, MAX_POOL)))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "dagwave-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = HOTSPOT_TIMEOUT_S if args.workload == "dup_hotspot" else RUN_TIMEOUT_S
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
