#!/usr/bin/env python3
"""Runs one hcc-mf benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package from source (into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's inputs for the seed in a separate
process, then runs the workload in a fresh process so that its peak memory
excludes input generation. Everything is written under `.bench_out/`.

The last line of standard output is the one-line JSON result. Any failure
to build, generate or run exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-compute", "train-wire", "serve-topk")
BUILD_TIMEOUT_S = 850
# Every non-building run must end within 180 s; leave a margin.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = ROOT / "perfbench" / "Cargo.toml"
    build_cmd = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", str(manifest)]
    try:
        build = subprocess.run(build_cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build: {e}")
    if build.returncode != 0:
        return fail(f"build failed with code {build.returncode}")
    exe = target / "release" / "perfbench"

    start = time.monotonic()
    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        gen = subprocess.run([str(exe), "gen", *common, "--out", str(inputs)],
                             cwd=ROOT, stdout=sys.stderr, timeout=RUN_BUDGET_S)
        if gen.returncode != 0:
            return fail(f"input generation failed with code {gen.returncode}")
        left = RUN_BUDGET_S - (time.monotonic() - start)
        res = subprocess.run(
            [str(exe), "run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--input", str(inputs), "--out", str(work)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(left, 1))
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"workload: {e}")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        return fail(f"workload failed with code {res.returncode}")
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
