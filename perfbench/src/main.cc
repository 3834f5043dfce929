// perfbench: runs one workload of the repository benchmark for one seed and
// prints a report that ends in one JSON result line.
//
//   perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//
// Workloads: echo-small, stream-bulk and echo-fault (src/serve and src/cio
// on the in-process fabric) and store-mixed (src/blockio). --trace 0
// reports the end-to-end metrics; --trace 1 runs the untraced and the
// traced run of the same seed and reports the per-layer metrics.
// perfbench/run.py builds this binary and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args& args) {
  if (argc % 2 != 1) {
    return false;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
      continue;
    } else {
      return false;
    }
    if (value.empty() || *end != '\0') {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && args.seconds <= 600;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "[--seconds <s>] [--trace 0|1]\n");
    return 2;
  }
  perfbench::Report report;
  perfbench::Values values;
  if (!perfbench::RunEchoWorkload(args, report, values) &&
      !perfbench::RunStoreWorkload(args, report, values)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::span<const perfbench::MetricDef> table =
      args.trace ? std::span<const perfbench::MetricDef>(perfbench::kPerLayer)
                 : std::span<const perfbench::MetricDef>(perfbench::kEndToEnd);
  for (const perfbench::MetricDef& def : table) {
    const auto it = values.find(def.name);
    const double value = it == values.end() ? 0.0 : it->second;
    // End-to-end metrics are never 0: a missing one means a broken run.
    if (!std::isfinite(value) || (!args.trace && value <= 0)) {
      report.Check(std::string("metric.") + def.name + ".measured", false,
                   "value " + std::to_string(value));
    }
    report.Metric(def.name, std::isfinite(value) ? value : 0.0, def.unit);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
