#!/usr/bin/env python3
"""Tests tools/ab_perfbench.py's report on canned pairs of runs.

Usage, from the repository root:

    python3 tools/ab_perfbench_test.py

No build and no benchmark run: every run below is a hand-written result
line plus `sim` lines, as run_once returns them, and the build log is a
canned compiler output.
"""

import contextlib
import importlib.util
import io
import os
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "ab_perfbench", os.path.join(HERE, "ab_perfbench.py"))
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}
SEEDS = list(range(1, 11))


def run(seed, side, value, correct=True, failed=0, sim=None, wall=None):
    result = {"correct": correct, "attempted": 1000, "failed": failed,
              "metrics": ({"peak_rss_mb": {"value": value, "unit": "MB"}}
                          if correct else {})}
    return {"workload": "w", "seed": seed, "side": side, "result": result,
            "sim": sim if sim is not None else ["sim    sim_p50_us 10"],
            "wall_ops_per_s": wall}


def pairs_of(parent_values, change_values, **change_kwargs):
    runs = []
    for seed, p, c in zip(SEEDS, parent_values, change_values):
        runs.append(run(seed, "parent", p))
        runs.append(run(seed, "change", c, **change_kwargs))
    return runs


def row(runs):
    """(wins, losses, ties, verdict) of the one metric."""
    (_, _, wins, losses, ties, decision), = ab.metric_rows(
        runs, "w", SEEDS, [RSS])
    return wins, losses, ties, decision


PARENT = [100.0, 100.2, 99.8, 100.1, 99.9, 100.0, 100.3, 99.7, 100.0, 100.1]


class VerdictTest(unittest.TestCase):
    def test_better(self):
        change = [v - 30 for v in PARENT]
        self.assertEqual(row(pairs_of(PARENT, change)), (10, 0, 0, "better"))

    def test_worse(self):
        change = [v * 1.5 for v in PARENT]
        self.assertEqual(row(pairs_of(PARENT, change)), (0, 10, 0, "worse"))

    def test_unresolved_when_a_side_spreads_wider_than_the_bound(self):
        change = [60.0, 140.0, 60.0, 140.0, 60.0, 140.0, 60.0, 140.0, 60.0,
                  140.0]
        self.assertEqual(row(pairs_of(PARENT, change))[3], "unresolved")

    def test_same(self):
        self.assertEqual(row(pairs_of(PARENT, PARENT)), (0, 0, 10, "same"))

    def test_nine_wins_in_ten_are_enough_and_eight_are_not(self):
        change = [v - 30 for v in PARENT]
        change[0] = PARENT[0] + 1
        self.assertEqual(row(pairs_of(PARENT, change)), (9, 1, 0, "better"))
        change[1] = PARENT[1] + 1
        self.assertEqual(row(pairs_of(PARENT, change))[3], "same")

    def test_a_pair_with_a_failed_side_is_a_loss(self):
        runs = pairs_of(PARENT, [v - 30 for v in PARENT])
        runs[1] = run(1, "change", 0, correct=False)
        wins, losses, ties, decision = row(runs)
        self.assertEqual((wins, losses, ties), (9, 1, 0))
        self.assertEqual(decision, "better")
        runs[3] = run(2, "change", 0, correct=False)
        self.assertEqual(row(runs), (8, 2, 0, "same"))

    def test_a_larger_failed_share_blocks_better(self):
        runs = pairs_of(PARENT, [v - 30 for v in PARENT], failed=1)
        self.assertEqual(row(runs), (10, 0, 0, "same"))
        # The same share on both sides does not block it.
        for r in runs:
            r["result"]["failed"] = 1
        self.assertEqual(row(runs)[3], "better")


class SimIdentityTest(unittest.TestCase):
    def test_counts_identical_pairs_and_names_the_first_differing_line(self):
        block = ["sim    sim_p50_us 10", "sim    sim_p99_us 20"]
        runs = []
        for seed in SEEDS:
            change = list(block)
            if seed == 4:
                change[1] = "sim    sim_p99_us 21"
            runs.append(run(seed, "parent", 1.0, sim=block))
            runs.append(run(seed, "change", 1.0, sim=change))
        identical, differences = ab.sim_identity(runs, "w", SEEDS)
        self.assertEqual(identical, 9)
        self.assertEqual(differences, [
            (4, "sim    sim_p99_us 20", "sim    sim_p99_us 21")])

    def test_a_missing_line_or_run_is_a_difference(self):
        block = ["sim    a 1", "sim    b 2"]
        runs = [run(1, "parent", 1.0, sim=block),
                run(1, "change", 1.0, sim=block[:1]),
                run(2, "parent", 1.0, sim=block),
                run(3, "parent", 1.0, sim=[]),
                run(3, "change", 1.0, sim=[])]
        runs[-1]["result"] = None  # printed no result line
        identical, differences = ab.sim_identity(runs, "w", [1, 2, 3])
        self.assertEqual(identical, 0)
        self.assertEqual(differences, [(1, "sim    b 2", "(none)"),
                                       (2, "sim    a 1", "(none)"),
                                       (3, "(none)", "(none)")])

    def test_report_prints_the_count(self):
        runs = pairs_of(PARENT, PARENT)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ab.print_report(runs, ["w"], SEEDS, [RSS])
        self.assertIn("| w | 10 / 10 |", out.getvalue())
        self.assertNotIn("first differing sim line", out.getvalue())


class HostRowTest(unittest.TestCase):
    def test_parse_output_keeps_the_wall_ops_note(self):
        stdout = "\n".join([
            "check  echoes_in_order ok",
            "note   wall_ops_per_s                       24321.5 ops/s",
            "sim    sim_p50_us 10",
            '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}'])
        result, sims, wall = ab.parse_output(stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(sims, ["sim    sim_p50_us 10"])
        self.assertEqual(wall, 24321.5)
        self.assertEqual(ab.parse_output("sim    a 1\n")[2], None)

    def test_reports_medians_and_tallies_without_a_verdict(self):
        runs = []
        for seed in SEEDS:
            runs.append(run(seed, "parent", 1.0, wall=20000.0 + 100 * seed))
            runs.append(run(seed, "change", 1.0,
                            wall=10000.0 if seed == 3 else 30000.0))
        cells, wins, losses, ties = ab.host_row(runs, "w", SEEDS)
        self.assertEqual(cells, "20,550 [20,325-20,775] | 30,000")
        self.assertEqual((wins, losses, ties), (9, 1, 0))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ab.print_report(runs, ["w"], SEEDS, [RSS])
        self.assertIn("| w | wall_ops_per_s | 20,550 [20,325-20,775] | "
                      "30,000 | 9/1/0 |\n", out.getvalue())

    def test_a_missing_note_or_a_failed_check_is_a_loss(self):
        runs = []
        for seed in SEEDS:
            runs.append(run(seed, "parent", 1.0, wall=20000.0))
            runs.append(run(seed, "change", 1.0, wall=30000.0))
        runs[1]["wall_ops_per_s"] = None
        runs[3] = run(2, "change", 0, correct=False, wall=30000.0)
        self.assertEqual(ab.host_row(runs, "w", SEEDS)[1:], (8, 2, 0))


class CpuFeaturesTest(unittest.TestCase):
    def test_names_each_feature_present_or_absent(self):
        with tempfile.NamedTemporaryFile("w", suffix=".cpuinfo") as f:
            f.write("processor\t: 0\n"
                    "flags\t\t: fpu sse2 avx2 sha_ni avx512f avx512vl\n"
                    "processor\t: 1\n"
                    "flags\t\t: fpu sse2\n")
            f.flush()
            line = ab.cpu_features(f.name)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                ab.print_report(pairs_of(PARENT, PARENT), ["w"], SEEDS, [RSS],
                                cpuinfo=f.name)
        self.assertEqual(line, "cpu features: sha_ni present, avx2 present, "
                               "avx512f present, avx512vl present, "
                               "avx512ifma absent")
        self.assertTrue(out.getvalue().startswith(line + "\n\n| workload"))

    def test_a_missing_file_reads_unknown(self):
        with tempfile.TemporaryDirectory() as directory:
            line = ab.cpu_features(os.path.join(directory, "cpuinfo"))
        self.assertEqual(line, "cpu features: sha_ni unknown, avx2 unknown, "
                               "avx512f unknown, avx512vl unknown, "
                               "avx512ifma unknown")


GCC_LOG = """\
[ 10%] Building CXX object CMakeFiles/cio.dir/src/crypto/hkdf.cc.o
In file included from /usr/include/c++/12/vector:64,
                 from src/crypto/hkdf.cc:1:
In member function 'void std::vector<_Tp, _Alloc>::_M_realloc_insert()',
/usr/include/c++/12/bits/stl_algobase.h:431:30: warning: writing 1 byte into \
a region of size 0 [-Wstringop-overflow=]
/usr/include/c++/12/bits/new_allocator.h:137:55: note: at offset 1 into \
destination object of size 1 allocated by 'operator new'
[ 20%] Building C object CMakeFiles/cio.dir/src/base/clock.c.o
[ 30%] Building CXX object CMakeFiles/cio.dir/src/tls/record.cc.o
src/tls/record.cc:14:8: warning: array subscript 5 is outside array bounds \
[-Warray-bounds]
[100%] Built target perfbench
"""


class BuildTest(unittest.TestCase):
    def test_counts_warnings_and_compiled_sources(self):
        self.assertEqual(ab.build_summary(GCC_LOG), (2, 3))
        self.assertEqual(ab.build_summary("[100%] Built target perfbench\n"),
                         (0, 0))

    def test_report_prints_each_sides_build(self):
        builds = {"parent": (*ab.build_summary(GCC_LOG), "p/build.log"),
                  "change": (0, 3, "c/build.log")}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ab.print_report(pairs_of(PARENT, PARENT), ["w"], SEEDS, [RSS],
                            builds=builds)
        self.assertIn("| parent | 2 | 3 | p/build.log |\n"
                      "| change | 0 | 3 | c/build.log |\n", out.getvalue())


class SweepTest(unittest.TestCase):
    def sweep(self, runs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ok = ab.print_sweep(runs)
        return ok, out.getvalue()

    def test_every_run_passing_is_a_pass(self):
        runs = [run(seed, "change", 10.0, failed=0) for seed in (1, 2)]
        ok, text = self.sweep(runs)
        self.assertTrue(ok)
        self.assertIn("| w | 1 | yes | 0 / 1,000 |", text)
        self.assertIn("2 of 2 runs passed their check", text)

    def test_a_failed_check_or_a_missing_result_fails_the_sweep(self):
        runs = [run(1, "change", 10.0),
                run(2, "change", 10.0, correct=False, failed=7),
                dict(run(3, "change", 10.0), result=None)]
        ok, text = self.sweep(runs)
        self.assertFalse(ok)
        self.assertIn("| w | 2 | NO | 7 / 1,000 |", text)
        self.assertIn("| w | 3 | NO | no result |", text)
        self.assertIn("1 of 3 runs passed their check", text)


if __name__ == "__main__":
    unittest.main()
