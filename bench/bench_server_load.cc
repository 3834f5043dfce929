// Open-loop load harness for the multi-tenant confidential server.
//
// For each of the four Figure-5 profile corners, 64 clients each run a
// deterministic open-loop arrival schedule (SimClock-driven: arrivals do
// NOT wait for completions) of fixed-size echo requests against one
// ConfidentialServer. Reported per profile:
//
//   * throughput — echoes completed per simulated second,
//   * fairness   — min/max per-client goodput rate (deficit round-robin
//                  should keep this near 1; the gate is >= 0.5),
//   * latency    — p50/p95/p99 from *scheduled arrival* to echo receipt
//                  (open-loop: queueing during recovery counts against us).
//
// Two arms. The fault-free arm runs every profile on the same schedule, so
// the profiles compare like for like. The fault arm runs the dual-boundary
// profile again through the fault matrix mid-transfer — a 12 ms link kill
// (past the TCP retry budget, so every connection dies and must reconnect
// + reattach) followed by a stalled-counter window — and must still
// complete with ZERO lost messages. A separate admission probe per profile
// verifies rejections beyond the connection cap are orderly: typed
// client-side failure, no crash, table bounded.
//
// Exit code is the gate (CI runs this in both plain and sanitizer jobs):
// non-zero when any row fails establishment, completion, fairness,
// zero-loss, or orderly admission. `--json <path>` writes BENCH_server.json:
// one row per profile for the fault-free arm, plus the fault arm's row,
// keyed by its `"arm": "fault"` identity field.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/prof/profiler.h"
#include "src/serve/harness.h"

namespace {

using cio::StackProfile;
using cioserve::MultiClientWorld;

constexpr size_t kClients = 64;
constexpr size_t kMessagesPerClient = 16;
constexpr size_t kMessageBytes = 512;
constexpr uint64_t kArrivalIntervalNs = 250'000;  // per client
constexpr uint64_t kClientStaggerNs = 5'000;

struct Row {
  StackProfile kind = StackProfile::kDualBoundary;
  std::string profile;
  bool faults = false;  // the fault arm (kill + stall window mid-transfer)
  bool established = false;
  bool completed = false;
  bool zero_lost = false;
  bool admission_orderly = false;
  double throughput_msgs_per_sec = 0.0;
  double fairness = 0.0;  // min/max per-client goodput rate
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  uint64_t lost = 0;
  uint64_t recovered = 0;
  uint64_t rejected_admission = 0;
  uint64_t fault_events = 0;
  // Fault arm: modeled ms from the kill until each client's channel was
  // last Ready() again, and until its last echo — first and last client.
  // Fairness (slowest / fastest client) follows from these spreads.
  double recovered_first_ms = 0.0;
  double recovered_last_ms = 0.0;
  double finished_first_ms = 0.0;
  double finished_last_ms = 0.0;
  size_t reconnected = 0;  // clients whose channel died and came back
  // Profiled runs: when the profile window opened (the load schedule's
  // start) and how many L2 frames the server had received when
  // EstablishAll returned, when the window opened, and by the end of the
  // run (dual-boundary only; 0 without an L2 ring).
  double profile_start_us = 0.0;
  uint64_t established_l2_rx = 0;
  uint64_t profile_start_l2_rx = 0;
  uint64_t l2_rx_total = 0;

  bool Ok() const {
    return established && completed && zero_lost && admission_orderly &&
           fairness >= 0.5;
  }
};

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) {
    return 0.0;
  }
  size_t index = static_cast<size_t>(q * static_cast<double>(
                                             sorted_us.size() - 1));
  return sorted_us[index];
}

// The 64-client open-loop echo run (through the fault matrix when
// `row.faults`). When `prof` is non-null it is attached to the server node
// and reset when the load schedule starts, so the profile covers the
// steady-state load (including any fault matrix) and none of the handshake
// storm, whose last frames are still in flight when EstablishAll returns.
void RunLoadPoint(Row& row, cioprof::ProfRegistry* prof = nullptr) {
  const StackProfile profile = row.kind;
  MultiClientWorld::Options options;
  options.profile = profile;
  options.num_clients = kClients;
  options.seed = 8800 + static_cast<uint64_t>(profile);
  options.server_config.max_connections = kClients;
  options.server_config.reattach_timeout_ns = 2'000'000'000;
  options.server_profiler = prof;
  MultiClientWorld world(options);
  if (!world.EstablishAll(120000)) {
    return;
  }
  row.established = true;
  const cio::L2Transport* server_l2 = world.server_node->l2_transport();
  auto l2_received = [&] {
    return server_l2 != nullptr ? server_l2->stats().frames_received : 0;
  };
  row.established_l2_rx = l2_received();

  // Deterministic open-loop schedule: client i's m-th request is DUE at
  // start + i*stagger + m*interval, no matter what the server or the host
  // is doing at that moment.
  const uint64_t start_ns = world.clock.now_ns() + 100'000;
  struct ClientState {
    size_t offered = 0;    // next message index to offer
    size_t accepted = 0;   // messages the channel took so far
    size_t echoed = 0;
    std::deque<uint64_t> in_flight_due_ns;  // FIFO: delivery is in-order
    uint64_t last_echo_ns = 0;
  };
  std::vector<ClientState> state(kClients);
  std::vector<double> latencies_us;
  latencies_us.reserve(kClients * kMessagesPerClient);
  ciobase::Buffer payload(kMessageBytes, 0x42);

  const bool with_faults = row.faults;
  // Mid-transfer: after ~a third of the schedule has fired.
  const uint64_t fault1_ns =
      start_ns + kMessagesPerClient / 3 * kArrivalIntervalNs;
  bool fault1_armed = with_faults;
  bool fault2_armed = with_faults;
  bool prof_armed = prof != nullptr;

  auto all_done = [&] {
    for (size_t i = 0; i < kClients; ++i) {
      if (state[i].echoed < kMessagesPerClient ||
          !world.clients[i]->Ready()) {
        return false;
      }
    }
    return true;
  };

  for (int round = 0; round < 400000 && !all_done(); ++round) {
    uint64_t now = world.clock.now_ns();
    if (prof_armed && now >= start_ns) {
      prof_armed = false;
      prof->Reset();
      row.profile_start_us = static_cast<double>(now) / 1e3;
      row.profile_start_l2_rx = l2_received();
    }
    if (fault1_armed && now >= fault1_ns) {
      fault1_armed = false;
      world.server_node->adversary().InjectFault(
          {ciohost::FaultStrategy::kLinkKill, now, 12'000'000});
    }
    if (fault2_armed && now >= fault1_ns + 20'000'000) {
      fault2_armed = false;
      world.server_node->adversary().InjectFault(
          {ciohost::FaultStrategy::kStallCounters, now, 2'000'000});
    }
    for (size_t i = 0; i < kClients; ++i) {
      ClientState& client = state[i];
      // Open-loop arrivals: everything due by now is offered; the latency
      // clock for each message started at its due time regardless of when
      // the (possibly recovering) channel accepts it.
      while (client.offered < kMessagesPerClient &&
             now >= start_ns + i * kClientStaggerNs +
                        client.offered * kArrivalIntervalNs) {
        ++client.offered;
      }
      while (client.accepted < client.offered &&
             world.clients[i]->Ready() &&
             world.clients[i]->SendMessage(payload).ok()) {
        client.in_flight_due_ns.push_back(start_ns + i * kClientStaggerNs +
                                          client.accepted *
                                              kArrivalIntervalNs);
        ++client.accepted;
      }
      while (world.clients[i]->ReceiveMessage().ok()) {
        if (!client.in_flight_due_ns.empty()) {
          uint64_t due = client.in_flight_due_ns.front();
          client.in_flight_due_ns.pop_front();
          latencies_us.push_back(
              static_cast<double>(now - std::min(due, now)) / 1000.0);
        }
        ++client.echoed;
        client.last_echo_ns = now;
      }
    }
    world.EchoRound();
    world.Pump();
  }

  row.completed = all_done();
  row.l2_rx_total = l2_received();
  uint64_t lost = 0;
  for (auto& client : world.clients) {
    lost += client->recovery_stats().messages_lost;
  }
  row.lost = lost;
  row.zero_lost = lost == 0;
  row.recovered = world.server->stats().recovered;
  row.fault_events = world.server_node->adversary().fault_events();
  if (with_faults) {
    std::vector<double> recovered_ms;
    std::vector<double> finished_ms;
    for (size_t i = 0; i < kClients; ++i) {
      uint64_t ready = world.clients[i]->recovery_stats().last_recovery_ns;
      if (ready > fault1_ns) {
        recovered_ms.push_back(static_cast<double>(ready - fault1_ns) / 1e6);
      }
      finished_ms.push_back(
          static_cast<double>(state[i].last_echo_ns - fault1_ns) / 1e6);
    }
    std::sort(recovered_ms.begin(), recovered_ms.end());
    std::sort(finished_ms.begin(), finished_ms.end());
    row.reconnected = recovered_ms.size();
    if (!recovered_ms.empty()) {
      row.recovered_first_ms = recovered_ms.front();
      row.recovered_last_ms = recovered_ms.back();
    }
    row.finished_first_ms = finished_ms.front();
    row.finished_last_ms = finished_ms.back();
  }

  if (row.completed) {
    uint64_t first_due = start_ns;
    uint64_t last_echo = 0;
    double min_rate = 0.0;
    double max_rate = 0.0;
    for (size_t i = 0; i < kClients; ++i) {
      last_echo = std::max(last_echo, state[i].last_echo_ns);
      uint64_t first = start_ns + i * kClientStaggerNs;
      double span_s =
          static_cast<double>(state[i].last_echo_ns - first) / 1e9;
      double rate = span_s > 0
                        ? static_cast<double>(kMessagesPerClient) / span_s
                        : 0.0;
      min_rate = i == 0 ? rate : std::min(min_rate, rate);
      max_rate = i == 0 ? rate : std::max(max_rate, rate);
    }
    double total_s = static_cast<double>(last_echo - first_due) / 1e9;
    row.throughput_msgs_per_sec =
        total_s > 0
            ? static_cast<double>(kClients * kMessagesPerClient) / total_s
            : 0.0;
    row.fairness = max_rate > 0 ? min_rate / max_rate : 0.0;
    std::sort(latencies_us.begin(), latencies_us.end());
    row.p50_us = Percentile(latencies_us, 0.50);
    row.p95_us = Percentile(latencies_us, 0.95);
    row.p99_us = Percentile(latencies_us, 0.99);
  }
}

// Small over-capacity probe: 6 clients race for 4 slots. Rejections must
// be typed client-side failures, the table must stay at the cap, and the
// admitted majority must keep working.
void RunAdmissionProbe(Row& row) {
  const StackProfile profile = row.kind;
  MultiClientWorld::Options options;
  options.profile = profile;
  options.num_clients = 6;
  options.server_config.max_connections = 4;
  options.seed = 9900 + static_cast<uint64_t>(profile);
  MultiClientWorld world(options);
  if (!world.server->Start().ok()) {
    return;
  }
  for (auto& client : world.clients) {
    if (!client->Connect(world.server_node->ip(), world.server->config().port)
             .ok()) {
      return;
    }
  }
  world.PumpUntil(
      [&] {
        size_t settled = 0;
        for (auto& client : world.clients) {
          settled += (client->Ready() || client->Failed()) ? 1 : 0;
        }
        return settled == world.clients.size();
      },
      200000);
  size_t ready = 0;
  size_t failed_typed = 0;
  for (auto& client : world.clients) {
    ready += client->Ready() ? 1 : 0;
    failed_typed += client->Failed() ? 1 : 0;
  }
  row.rejected_admission = world.server->stats().rejected_admission;
  row.admission_orderly = ready == 4 && failed_typed == 2 &&
                          world.server->active_connections() <= 4 &&
                          row.rejected_admission >= 2;
}

void WriteJson(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "  {\"profile\": \"%s\", %s\"clients\": %zu, "
        "\"messages_per_client\": %zu, \"msg_size\": %zu, \"ok\": %s, "
        "\"throughput_msgs_per_sec\": %.1f, \"fairness\": %.3f, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
        "\"lost\": %llu, \"recovered\": %llu, "
        "\"rejected_admission\": %llu, \"fault_events\": %llu}%s\n",
        r.profile.c_str(), r.faults ? "\"arm\": \"fault\", " : "",
        kClients, kMessagesPerClient, kMessageBytes,
        r.Ok() ? "true" : "false", r.throughput_msgs_per_sec, r.fairness,
        r.p50_us, r.p95_us, r.p99_us,
        static_cast<unsigned long long>(r.lost),
        static_cast<unsigned long long>(r.recovered),
        static_cast<unsigned long long>(r.rejected_admission),
        static_cast<unsigned long long>(r.fault_events),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* profile_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    }
  }

  const StackProfile kProfiles[] = {
      StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
      StackProfile::kHardenedVirtio, StackProfile::kDualBoundary};

  // The fault-free arm for every profile, then the dual-boundary fault arm.
  std::vector<Row> rows;
  for (StackProfile profile : kProfiles) {
    Row row;
    row.kind = profile;
    row.profile = std::string(cio::StackProfileName(profile));
    rows.push_back(row);
  }
  Row fault_row = rows.back();  // dual-boundary
  fault_row.faults = true;
  rows.push_back(fault_row);

  std::printf("== server load: %zu clients x %zu msgs x %zuB, open loop ==\n",
              kClients, kMessagesPerClient, kMessageBytes);
  std::printf("%-18s %-10s %10s %8s %8s %8s %8s %5s %5s %6s\n", "profile",
              "arm", "msgs/s", "fair", "p50us", "p95us", "p99us", "lost", "rec",
              "adm-rej");
  std::printf("%s\n", std::string(95, '-').c_str());

  bool all_ok = true;
  std::string profile_json = "[";
  bool profile_first = true;
  for (Row& row : rows) {
    cioprof::ProfRegistry prof;
    RunLoadPoint(row, profile_path != nullptr ? &prof : nullptr);
    if (profile_path != nullptr) {
      prof.AppendJsonRows(&profile_json, row.profile,
                          row.faults ? "server-load-fault" : "server-load",
                          &profile_first);
      if (row.kind == StackProfile::kDualBoundary) {
        // The headline question: where does the dual-boundary server's time
        // go under load? Print the flame, and gate the attribution — at
        // least 90% of in-round time must land in a named child probe.
        std::printf("\n-- dual-boundary server flame (%s) --\n",
                    row.faults ? "through the fault matrix"
                               : "fault-free steady-state load");
        std::printf("profile window from %.1f us: %llu of the run's %llu "
                    "server L2 frames received before it (%llu when "
                    "EstablishAll returned)\n",
                    row.profile_start_us,
                    static_cast<unsigned long long>(row.profile_start_l2_rx),
                    static_cast<unsigned long long>(row.l2_rx_total),
                    static_cast<unsigned long long>(row.established_l2_rx));
        std::printf("%s\n", prof.ToFlameSummary().c_str());
        if (prof.unattributed_pct() >= 10.0) {
          std::printf("profile attribution gate FAILED: "
                      "unattributed %.2f%% >= 10%%\n",
                      prof.unattributed_pct());
          all_ok = false;
        }
      }
    }
    RunAdmissionProbe(row);
    std::printf(
        "%-18s %-10s %10.0f %8.3f %8.1f %8.1f %8.1f %5llu %5llu %6llu%s\n",
        row.profile.c_str(), row.faults ? "fault" : "fault-free",
        row.throughput_msgs_per_sec, row.fairness, row.p50_us, row.p95_us,
        row.p99_us, static_cast<unsigned long long>(row.lost),
        static_cast<unsigned long long>(row.recovered),
        static_cast<unsigned long long>(row.rejected_admission),
        row.Ok() ? "" : "  FAIL");
    if (row.faults) {
      std::printf(
          "    after the kill: %zu clients reconnected, ready again "
          "%.2f-%.2f ms; last echoes %.2f-%.2f ms\n",
          row.reconnected, row.recovered_first_ms, row.recovered_last_ms,
          row.finished_first_ms, row.finished_last_ms);
    }
    if (!row.Ok()) {
      std::printf(
          "    established=%d completed=%d zero_lost=%d admission=%d "
          "fairness=%.3f\n",
          row.established, row.completed, row.zero_lost,
          row.admission_orderly, row.fairness);
      all_ok = false;
    }
  }

  if (json_path != nullptr) {
    WriteJson(json_path, rows);
  }
  if (profile_path != nullptr) {
    profile_json += "\n]\n";
    std::FILE* f = std::fopen(profile_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", profile_path);
      return 1;
    }
    std::fwrite(profile_json.data(), 1, profile_json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", profile_path);
  }
  if (!all_ok) {
    std::printf("server load gate FAILED\n");
    return 1;
  }
  std::printf("server load gate passed: %zu clients per profile fault-free, "
              "dual-boundary fault matrix zero-loss\n",
              kClients);
  return 0;
}
