#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload of it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (CMake, Release), which
compiles the cio libraries from src/, into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set. Build output goes to standard
error. Standard output carries the workload's report and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The script exits
non-zero without that line when the build or the run fails, or when the
result does not match the metric tables of BENCHMARK.json. A run that fails
a correctness check prints "correct": false with no metrics and exits 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds perfbench when needed and returns the binary's path."""
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_command = ["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs]
    if subprocess.run(compile_command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def load_tables(trace):
    """Workload names and the expected metric -> unit table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in table})


def main():
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads, expected = load_tables(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        fail(f"no result line (exit code {proc.returncode})")
    if not result["correct"] or proc.returncode != 0:
        print(json.dumps(result))
        fail("a correctness check failed; see the check lines above")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if (entry.get("unit") != expected[name] or
                not isinstance(value, (int, float)) or
                not math.isfinite(value)):
            fail(f"malformed metric {name}: {entry}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
