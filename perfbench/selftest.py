#!/usr/bin/env python3
"""The benchmark's own test: determinism per seed, correctness across seeds.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seconds S] [workload ...]

For each workload (all four by default) two untraced runs of one seed must
print identical modeled figures and module counters (the `sim` report
lines), and a traced run of a second seed must pass every correctness
check, including its own comparison against its untraced twin. Exits 1
when any workload fails.
"""

import argparse
import json
import subprocess
import sys

import run as bench

WORKLOADS = ("echo-small", "stream-bulk", "echo-fault", "store-mixed")


def run_once(binary, workload, seed, seconds, trace):
    """Returns (correct, {sim figure: text}, [failed check lines])."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    sims = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "sim":
            sims[fields[1]] = fields[2]
    failed = [line for line in lines
              if line.startswith("check") and "FAILED" in line]
    try:
        correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
    except (IndexError, ValueError, KeyError):
        correct = False
    return correct, sims, failed


def main():
    parser = argparse.ArgumentParser(
        description="Determinism self-test of the repository benchmark.")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()

    binary = bench.build()
    all_ok = True
    for workload in args.workloads:
        ok_a, first, failed_a = run_once(binary, workload, 11, args.seconds, 0)
        ok_b, second, failed_b = run_once(binary, workload, 11, args.seconds, 0)
        ok_c, _, failed_c = run_once(binary, workload, 12, args.seconds, 1)
        differing = sorted(name for name in set(first) | set(second)
                           if first.get(name) != second.get(name))
        problems = []
        if not (ok_a and ok_b):
            problems.append("seed 11 failed: " + "; ".join(failed_a + failed_b))
        if not first:
            problems.append("no modeled figures printed")
        if differing:
            problems.append("modeled figures differ between two runs of "
                            "seed 11: " + ", ".join(differing[:10]))
        if not ok_c:
            problems.append("traced run of seed 12 failed: " +
                            "; ".join(failed_c))
        if problems:
            all_ok = False
            print(f"{workload}: FAILED")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{workload}: ok ({len(first)} modeled figures identical "
                  "across two runs of seed 11; traced run of seed 12 correct)")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
