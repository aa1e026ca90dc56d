#!/usr/bin/env python3
"""Build and run the ACIR wall-clock benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 30 --trace 0

Builds the `acir-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload in
one process with `ACIR_THREADS=2` and `MALLOC_ARENA_MAX=1`. The binary's
standard output is passed through; its last line is the JSON result.
With `--trace 1` the spans are also written to
`<target dir>/perfbench/spans-<workload>-<seed>.jsonl`. Exits non-zero,
without a result, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run measures for --seconds, plus set-up and output checks.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["serve_read", "serve_write", "fiedler"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["ACIR_THREADS"] = "2"
    # One malloc arena: with glibc's per-thread arenas the peak RSS of the
    # same serve_write op stream varied by ±8% from run to run (which
    # arena each worker thread's allocations landed in); with one, ±1%.
    env["MALLOC_ARENA_MAX"] = "1"
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target

    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(target / "release" / "acir-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = target / "perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
