#!/usr/bin/env python3
"""Compares two revisions on the repository benchmark (perfbench).

Usage, from the repository root:

    python3 tools/ab_perfbench.py --parent HEAD~1 --change . \\
        [--workloads echo-small,store-mixed] [--seeds 1-10,11] \\
        [--workdir .bench_build/ab]
    python3 tools/ab_perfbench.py --sweep --change . \\
        --workloads echo-fault --seeds 1-90

`--parent` and `--change` each name a git revision, exported with
`git archive` (no checkout, no worktree) into a directory named after its
commit, or a directory holding a source tree, used as it is. Each side is
built once, with its own CARGO_TARGET_DIR under the work directory, keyed
like its source; the build's output is kept next to it in build.log.
Every run lasts BENCHMARK.json's run_seconds. The runs
are interleaved pairs: for every workload and seed, both sides run the
same seed back to back, the parent first on odd seeds and the change first
on even ones.

With `--sweep` there is no parent: only `--change` is built, it runs once
per workload and seed, and the report is one line per run, its correctness
and its failed / attempted operations. The script then exits 1 if any run
failed its check or printed no result.

For each workload and end-to-end metric of BENCHMARK.json the report gives
the parent's median [Q1-Q3], the change's median, the pairs the change
wins, loses and ties, and a verdict. Medians come from the runs that
passed their correctness check; a pair in which either side failed it
counts as a loss.

  better      the change wins at least nine tenths of all pairs (ties count
              for neither), the medians differ by more than the parent's
              interquartile range, and the change fails no larger share of
              its operations than the parent;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's interquartile range, relative to its median, is
              wider than the bound, unless every change run reads better
              than every parent run;
  same        otherwise.

Above the tables, one line names the CPU features the crypto kernels pick
from (src/crypto/kernel.h) as present or absent, read from /proc/cpuinfo,
or unknown where that file cannot be read: a host-time figure means little
without them. Below it, report only, each side's build gives the compiler
warnings it printed and the sources it compiled (a build that reused an
earlier one compiles none, and its count covers nothing), so a warning that
only the Release build prints shows in every report. The report also gives
failed and attempted operations per side, the runs that failed a
correctness check, and per workload on how many pairs the two
sides printed byte-identical `sim` blocks (the modeled figures, which a
change that moves host time only must leave alone), with the first
differing line of every pair that did not. A last table reports, per
workload, the host-time figure every run prints as a note,
`wall_ops_per_s` (higher is better): the parent's median [Q1-Q3], the
change's median and wins/losses/ties over the pairs that passed their
checks, with no verdict, since the figure is not a gated metric. The
script only reads and reports: it never edits perfbench/ or
BENCHMARK.json.
"""

import argparse
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CPUINFO = "/proc/cpuinfo"
CPU_FEATURES = ("sha_ni", "avx2", "avx512f", "avx512vl", "avx512ifma")


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def export_side(spec, workdir):
    """Returns (source tree, key) for `spec`: a directory, or a revision
    exported into <workdir>/<commit>/src. The key names the side's build
    directory, so a different revision or directory never reuses it."""
    if os.path.isdir(spec):
        tree = os.path.abspath(spec)
        return tree, "dir-" + hashlib.sha1(tree.encode()).hexdigest()[:12]
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", spec + "^{commit}"],
        stdout=subprocess.PIPE, check=True, text=True).stdout.strip()
    tree = os.path.join(workdir, commit, "src")
    if os.path.isdir(tree):
        return tree, commit  # exported on an earlier invocation
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             stdout=subprocess.PIPE, check=True).stdout
    partial = tree + ".partial"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(partial)
    os.rename(partial, tree)
    return tree, commit


BUILD_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.build()
"""


def build_side(name, tree, key, workdir):
    """Builds the side's perfbench once, through its own run.py, keeping
    everything the build printed in <workdir>/<key>/build.log. Returns
    (target directory, build log)."""
    target_dir = os.path.join(workdir, key, "target")
    build_log = os.path.join(workdir, key, "build.log")
    os.makedirs(os.path.dirname(build_log), exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    with open(build_log, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_SCRIPT,
             os.path.join(tree, "perfbench", "run.py")],
            env=env, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.exit(f"building {name} failed; its output is in {build_log}")
    return target_dir, build_log


def build_summary(text):
    """(compiler warnings, sources compiled) in a build's output."""
    lines = text.splitlines()
    return (sum(1 for line in lines if ": warning: " in line),
            sum(1 for line in lines
                if re.search(r"Building (C|CXX) object ", line)))


def run_once(tree, target_dir, workload, seed, seconds):
    """One perfbench run, read by parse_output."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    return parse_output(proc.stdout)


def parse_output(stdout):
    """A run's result line, or None when it printed none, its `sim` lines
    in the order printed, and its `wall_ops_per_s` note (None when it
    printed none)."""
    lines = stdout.splitlines()
    sims = [line for line in lines if line.startswith("sim ")]
    wall = next((float(line.split()[2]) for line in lines
                 if line.split()[:2] == ["note", "wall_ops_per_s"]), None)
    for line in reversed(lines):
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and "correct" in result:
            return result, sims, wall
    return None, sims, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tally(pairs, better):
    """(wins, losses, ties) of the change over `pairs`, which holds (p, c)
    per seed, or None where either side has no value (a loss)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for pair in pairs if pair and sign * (pair[1] - pair[0]) > 0)
    ties = sum(1 for pair in pairs if pair and pair[1] == pair[0])
    return wins, len(pairs) - wins - ties, ties


def verdict(parent, change, pairs, better, bound, fails_more):
    """The verdict rules of the module docstring. `pairs` holds (p, c) per
    seed, or None where either side failed its check."""
    sign = -1.0 if better == "lower" else 1.0
    wins, losses, ties = tally(pairs, better)
    if not parent or not change:
        return wins, losses, ties, "unresolved"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return wins, losses, ties, "unresolved"
    if pm and sign * (cm - pm) / abs(pm) < -bound:
        return wins, losses, ties, "worse"
    if (wins >= 0.9 * len(pairs) and sign * (cm - pm) > 0 and
            abs(cm - pm) > p3 - p1 and not fails_more):
        return wins, losses, ties, "better"
    return wins, losses, ties, "same"


def fmt(value):
    if abs(value) < 1:
        return f"{value:.4f}"
    return f"{value:,.2f}" if abs(value) < 1000 else f"{value:,.0f}"


def side_runs(runs, workload, side):
    return [r for r in runs if r["workload"] == workload and r["side"] == side]


def operations(runs, workload, side):
    """(failed, attempted) operations over the side's runs."""
    results = [r["result"] for r in side_runs(runs, workload, side)
               if r["result"]]
    return (sum(r.get("failed", 0) for r in results),
            sum(r.get("attempted", 0) for r in results))


def failed_share(runs, workload, side):
    failed, attempted = operations(runs, workload, side)
    return failed / attempted if attempted else 0.0


def by_seed(runs, workload):
    """{seed: {side: run}} for one workload."""
    table = {}
    for r in runs:
        if r["workload"] == workload:
            table.setdefault(r["seed"], {})[r["side"]] = r
    return table


def paired_values(runs, workload, seeds, read):
    """({side: values}, pairs) of `read(run)` over the runs that passed
    their correctness check; a pair lacking either value is None."""
    table = by_seed(runs, workload)
    values = {"parent": [], "change": []}
    pairs = []
    for seed in seeds:
        got = {}
        for side in ("parent", "change"):
            run = table.get(seed, {}).get(side, {})
            result = run.get("result")
            value = read(run) if result and result.get("correct") else None
            if value is not None:
                got[side] = value
                values[side].append(value)
        pairs.append((got["parent"], got["change"])
                     if len(got) == 2 else None)
    return values, pairs


def median_cells(values):
    """The parent median [Q1-Q3] and change median report cells."""
    if not values["parent"] or not values["change"]:
        return "- | -"
    p1, pm, p3 = quartiles(values["parent"])
    cm = statistics.median(values["change"])
    return f"{fmt(pm)} [{fmt(p1)}-{fmt(p3)}] | {fmt(cm)}"


def metric_rows(runs, workload, seeds, metrics):
    """One report row per end-to-end metric: (name, parent median [Q1-Q3]
    and change median cells, wins, losses, ties, verdict)."""
    fails_more = (failed_share(runs, workload, "change") >
                  failed_share(runs, workload, "parent"))
    rows = []
    for metric in metrics:
        name = metric["name"]
        values, pairs = paired_values(
            runs, workload, seeds,
            lambda run: run["result"]["metrics"][name]["value"])
        wins, losses, ties, decision = verdict(
            values["parent"], values["change"], pairs, metric["better"],
            metric["bound"], fails_more)
        rows.append((name, median_cells(values), wins, losses, ties,
                     decision))
    return rows


def host_row(runs, workload, seeds):
    """The report-only `wall_ops_per_s` row: (cells, wins, losses, ties)."""
    values, pairs = paired_values(runs, workload, seeds,
                                  lambda run: run.get("wall_ops_per_s"))
    return (median_cells(values), *tally(pairs, "higher"))


def sim_identity(runs, workload, seeds):
    """(pairs in which both runs printed a result line and byte-identical
    `sim` blocks, and for every other pair (seed, parent's line, change's
    line) at the first line where they differ; a run without a result line
    has no lines, and a missing line reads "(none)")."""
    table = by_seed(runs, workload)
    identical = 0
    differences = []
    for seed in seeds:
        pair = [table.get(seed, {}).get(side) for side in ("parent", "change")]
        complete = all(r and r["result"] for r in pair)
        parent, change = (r["sim"] if r and r["result"] else [] for r in pair)
        if complete and parent == change:
            identical += 1
            continue
        at = next((i for i, (p, c) in enumerate(zip(parent, change))
                   if p != c), min(len(parent), len(change)))
        differences.append((seed,
                            parent[at] if at < len(parent) else "(none)",
                            change[at] if at < len(change) else "(none)"))
    return identical, differences


def cpu_features(path=CPUINFO):
    """One line naming each of CPU_FEATURES present or absent, from the
    first `flags` line of `path`, or unknown when it cannot be read."""
    try:
        with open(path) as f:
            flags = next((line.split(":", 1)[1].split() for line in f
                          if line.startswith("flags")), [])
    except OSError:
        return "cpu features: " + ", ".join(
            f"{name} unknown" for name in CPU_FEATURES)
    return "cpu features: " + ", ".join(
        f"{name} {'present' if name in flags else 'absent'}"
        for name in CPU_FEATURES)


def print_sweep(runs):
    """Prints one row per run of a sweep; returns whether every run
    printed a result and passed its check."""
    print("| workload | seed | correct | failed / attempted operations |")
    print("|---|---|---|---|")
    passed = 0
    for r in runs:
        result = r["result"]
        correct = bool(result and result["correct"])
        passed += correct
        counts = (f"{result['failed']:,} / {result['attempted']:,}"
                  if result else "no result")
        print(f"| {r['workload']} | {r['seed']} | "
              f"{'yes' if correct else 'NO'} | {counts} |")
    print(f"{passed} of {len(runs)} runs passed their check")
    return passed == len(runs)


def print_report(runs, workloads, seeds, metrics, cpuinfo=CPUINFO,
                 builds=None):
    """`builds` maps each side to (warnings, sources compiled, build log);
    without it the build table is left out."""
    print(cpu_features(cpuinfo))
    print()
    if builds:
        print("| side | compiler warnings, report only | sources compiled | "
              "build log |")
        print("|---|---|---|---|")
        for side in ("parent", "change"):
            warnings, compiled, build_log = builds[side]
            print(f"| {side} | {warnings} | {compiled} | {build_log} |")
        print()
    print(f"| workload | metric | parent median [Q1-Q3] | change median | "
          f"wins/losses/ties | verdict |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        for name, cells, wins, losses, ties, decision in metric_rows(
                runs, workload, seeds, metrics):
            print(f"| {workload} | {name} | {cells} | "
                  f"{wins}/{losses}/{ties} | {decision} |")

    print()
    print("| workload | side | failed / attempted operations | "
          "runs failing a check |")
    print("|---|---|---|---|")
    for workload in workloads:
        for side in ("parent", "change"):
            failed, attempted = operations(runs, workload, side)
            bad = [str(r["seed"]) for r in side_runs(runs, workload, side)
                   if r["result"] is None or not r["result"]["correct"]]
            print(f"| {workload} | {side} | {failed:,} / {attempted:,} | "
                  f"{', '.join(bad) or '-'} |")

    print()
    print("| workload | pairs with byte-identical sim blocks |")
    print("|---|---|")
    differences = []
    for workload in workloads:
        identical, differ = sim_identity(runs, workload, seeds)
        print(f"| {workload} | {identical} / {len(seeds)} |")
        differences.extend((workload, *d) for d in differ)
    for workload, seed, parent, change in differences:
        print(f"{workload} seed {seed}: first differing sim line: "
              f"parent `{parent}`, change `{change}`")

    print()
    print("| workload | host time, report only | parent median [Q1-Q3] | "
          "change median | wins/losses/ties |")
    print("|---|---|---|---|---|")
    for workload in workloads:
        cells, wins, losses, ties = host_row(runs, workload, seeds)
        print(f"| {workload} | wall_ops_per_s | {cells} | "
              f"{wins}/{losses}/{ties} |")


def main():
    parser = argparse.ArgumentParser(
        description="A/B pairs of the repository benchmark.")
    parser.add_argument("--parent")
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workdir",
                        default=os.path.join(ROOT, ".bench_build", "ab"))
    parser.add_argument("--sweep", action="store_true",
                        help="run only --change, once per seed")
    args = parser.parse_args()
    if not args.sweep and args.parent is None:
        parser.error("--parent is required unless --sweep is given")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)

    sides = {}
    builds = {}
    specs = (("change", args.change),) if args.sweep else (
        ("parent", args.parent), ("change", args.change))
    for name, side_spec in specs:
        tree, key = export_side(side_spec, workdir)
        log(f"building {name} ({side_spec}) in {tree}")
        target_dir, build_log = build_side(name, tree, key, workdir)
        sides[name] = (tree, target_dir)
        with open(build_log, errors="replace") as f:
            builds[name] = (*build_summary(f.read()), build_log)
        log(f"built {name}: {builds[name][0]} compiler warnings in "
            f"{builds[name][1]} sources compiled, output in {build_log}")

    runs = []
    for workload in workloads:
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            if args.sweep:
                order = ("change",)
            for name in order:
                tree, target_dir = sides[name]
                result, sims, wall = run_once(tree, target_dir, workload,
                                              seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": name,
                             "result": result, "sim": sims,
                             "wall_ops_per_s": wall})
                status = ("no result" if result is None else
                          "ok" if result["correct"] else "FAILED check")
                log(f"{workload} seed {seed} {name}: {status}")

    if args.sweep:
        print(cpu_features())
        print()
        sys.exit(0 if print_sweep(runs) else 1)
    print_report(runs, workloads, seeds, metrics, builds=builds)


if __name__ == "__main__":
    main()
