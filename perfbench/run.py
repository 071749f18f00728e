#!/usr/bin/env python3
"""Builds the iq end-to-end benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_in --seed 1 --seconds 10 --trace 0

The benchmark is compiled from ../src with its own CMake project
(perfbench/CMakeLists.txt) into .bench_build/ at the checkout root; the first
run configures and builds, later runs rebuild only what changed. Build output
goes to stderr. The benchmark's report goes to stdout, and its last line is the
JSON result. With --trace 1 the spans of the traced run are also written, as
Chrome trace-event JSON, to .bench_build/traces/<workload>-seed<seed>.json.

Exits non-zero without printing a result when the library sources, the
toolchain or the build are missing or broken, or when the benchmark fails.
"""

import argparse
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve_in", "build_ac", "churn_co")
BUILD_TIMEOUT_S = 1500
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "iq_perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "iq_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources not found at", root / "src",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_build"
    try:
        binary = build(bench_dir, out_dir / "perfbench")
    except (OSError, subprocess.SubprocessError) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 2

    traces = out_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if proc.returncode != 0:
        # Keep the report for diagnosis, but never let a failed run's output
        # end in something that reads as a result.
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
