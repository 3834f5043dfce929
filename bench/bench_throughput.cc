// End-to-end throughput and per-message latency across stack profiles and
// message sizes (TCP + TLS, modeled clock). Complements fig5_design_space
// with the size sweep.
//
// Two arms per (profile, size) cell:
//   throughput  — burst submission (8 messages per round: the first
//                 rings its own doorbell, the other 7 share the next
//                 poll's): the async SQ/CQ batching shape.
//   latency     — one message per round: a load shape, not a config
//                 flag. Nothing queues behind a message, so the dual-
//                 boundary engine's early doorbell (the first send after a
//                 Poll() rings at once) carries every message alone.
// `--mode=latency|throughput` restricts the run to one arm; default is both.
//
// `--json <path>` additionally writes the table as a JSON array, one object
// per (profile, size, mode) cell — the bench-trajectory format consumed by
// tools/run_bench.sh to track datapath performance across revisions.
//
// `--profile <path>` runs an additional profiled pass (the four Figure-5
// profile corners, 4096-byte messages, throughput shape) with an in-sim
// cycle-accounting registry attached to each side, and writes the per-stage
// attribution rows — {profile, arm, probe} keyed, arms throughput-tx
// (client node) and throughput-rx (server node) — as a JSON array.
// Deterministic: the profile is measured on the simulated clock, so two
// runs produce byte-identical files.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/prof/profiler.h"

namespace {

struct Row {
  std::string profile;
  std::string mode;
  size_t size = 0;
  bool ok = false;
  double msgs_per_sec = 0.0;
  double gbit_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

void WriteJson(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"profile\": \"%s\", \"mode\": \"%s\", \"msg_size\": %zu, "
                 "\"ok\": %s, \"msgs_per_sec\": %.1f, \"gbit_per_sec\": %.4f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
                 r.profile.c_str(), r.mode.c_str(), r.size,
                 r.ok ? "true" : "false", r.msgs_per_sec, r.gbit_per_sec,
                 r.p50_us, r.p99_us, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// Profiled pass: one linked pair per Figure-5 corner, 4096-byte messages in
// the burst (throughput) shape, a registry on each node. Both sides of the
// transfer are interesting — the client pays the submit/seal path, the
// server pays harvest/open — so each emits its own arm.
void RunProfiledPass(const char* path) {
  using namespace cio;  // NOLINT
  const StackProfile kCorners[] = {
      StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
      StackProfile::kHardenedVirtio, StackProfile::kDualBoundary};
  std::string out = "[";
  bool first = true;
  std::printf("== profiled pass (4096B, throughput shape) ==\n");
  for (StackProfile profile : kCorners) {
    cioprof::ProfRegistry client_reg;
    cioprof::ProfRegistry server_reg;
    StackConfig client = ciobench::MakeNode(profile, 1);
    StackConfig server = ciobench::MakeNode(profile, 2);
    client.profiler = &client_reg;
    server.profiler = &server_reg;
    LinkedPair pair(client, server);
    if (!pair.Establish()) {
      std::printf("%-18s establish failed (profiled pass)\n",
                  std::string(StackProfileName(profile)).c_str());
      continue;
    }
    // Establishment noise out of the profile: measure steady state only.
    client_reg.Reset();
    server_reg.Reset();
    auto result = ciobench::BurstTransfer(pair, 200, 4096, 8);
    std::printf("%-18s profiled: %s, tx unattributed %.1f%%, "
                "rx unattributed %.1f%%\n",
                std::string(StackProfileName(profile)).c_str(),
                result.ok ? "ok" : "INCOMPLETE",
                client_reg.unattributed_pct(), server_reg.unattributed_pct());
    client_reg.AppendJsonRows(&out, StackProfileName(profile),
                              "throughput-tx", &first);
    server_reg.AppendJsonRows(&out, StackProfileName(profile),
                              "throughput-rx", &first);
  }
  out += "\n]\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cio;  // NOLINT
  const char* json_path = nullptr;
  const char* profile_path = nullptr;
  bool run_throughput = true;
  bool run_latency = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--mode=throughput") == 0) {
      run_latency = false;
    } else if (std::strcmp(argv[i], "--mode=latency") == 0) {
      run_throughput = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--mode=latency|throughput] [--json <path>] "
                   "[--profile <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const size_t kSizes[] = {256, 1400, 4096, 16384};
  std::vector<Row> rows;
  std::printf("== throughput / latency (modeled) ==\n");
  std::printf("%-18s %-10s %8s %12s %12s %10s %10s\n", "profile", "mode",
              "msg size", "msgs/s", "Gbit/s", "p50 us", "p99 us");
  std::printf("%s\n", std::string(88, '-').c_str());
  for (StackProfile profile : AllStackProfiles()) {
    for (size_t size : kSizes) {
      for (int arm = 0; arm < 2; ++arm) {
        const bool latency_arm = arm == 1;
        if (latency_arm ? !run_latency : !run_throughput) {
          continue;
        }
        const char* mode = latency_arm ? "latency" : "throughput";
        LinkedPair pair(ciobench::MakeNode(profile, 1),
                        ciobench::MakeNode(profile, 2));
        if (!pair.Establish()) {
          std::printf("%-18s %-10s %8zu  establish failed\n",
                      std::string(StackProfileName(profile)).c_str(), mode,
                      size);
          rows.push_back({std::string(StackProfileName(profile)), mode, size,
                          false, 0.0, 0.0, 0.0, 0.0});
          continue;
        }
        size_t count = size >= 16384 ? 100 : 200;
        auto result =
            ciobench::BurstTransfer(pair, count, size, latency_arm ? 1 : 8);
        std::printf("%-18s %-10s %8zu %12.0f %12.3f %10.1f %10.1f%s\n",
                    std::string(StackProfileName(profile)).c_str(), mode, size,
                    result.MsgPerSec(), result.GbitPerSec(), result.p50_us,
                    result.p99_us, result.ok ? "" : "  (incomplete)");
        rows.push_back({std::string(StackProfileName(profile)), mode, size,
                        result.ok, result.MsgPerSec(), result.GbitPerSec(),
                        result.p50_us, result.p99_us});
      }
    }
  }
  if (json_path != nullptr) {
    WriteJson(json_path, rows);
  }
  if (profile_path != nullptr) {
    RunProfiledPass(profile_path);
  }
  return 0;
}
