// Session-lifecycle churn bench: the fleet-scale gate for attestation-gated
// admission, transparent rekeying, and cross-instance migration.
//
// Three arms, all on the dual-boundary profile, all exit-code gated:
//
//   * churn    — 64 concurrent client slots cycle connect -> attest ->
//                echo -> orderly disconnect -> reconnect until >= 10,000
//                session lifetimes have completed. Every lifetime
//                re-attests on a fresh transcript; zero messages lost;
//                every registered pool slot back in the free list at the
//                end (the park/reattach leak audit at scale). A probe
//                sub-run with forged / stale / keyless clients must be
//                rejected with EXACTLY the expected kUnauthenticated
//                count — typed, outside the leakage score.
//   * rekey    — 32 clients under closed-loop echo load with an aggressive
//                in-band rekey cadence, plus a kill-link + stalled-counter
//                fault window landing mid-key-update. Zero lost, rekeys
//                actually fired, herd recovered.
//   * migrate  — 32 clients against instance A; half the sessions are
//                sealed out through the SessionVault, shipped via the
//                confidential storage path (ConfidentialStore put/get),
//                and imported into instance B; the clients follow the
//                redirect, re-attest, and delivery stays exactly-once.
//                A bit-flipped seal and a replayed (rolled-back) seal are
//                both typed kTampered.
//
// `--json <path>` writes BENCH_session.json (one row per arm; "arm" is the
// row identity for tools/check_bench.py).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/blockio/store.h"
#include "src/serve/harness.h"
#include "src/tee/monotonic_counter.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using ciobase::StatusCode;
using cio::StackProfile;
using cioserve::ConnId;
using cioserve::MultiClientWorld;
using cioserve::SessionVault;

struct Row {
  std::string arm;
  std::string profile = std::string(
      cio::StackProfileName(StackProfile::kDualBoundary));
  bool ok = false;
  uint64_t lost = 0;
  uint64_t sessions = 0;
  uint64_t rekeys = 0;
  uint64_t migrated = 0;
  uint64_t rejected_unauthenticated = 0;
  uint64_t tamper_rejects = 0;
  double ops_per_sec = 0.0;  // arm-specific rate over simulated time
  std::string detail;        // first failed gate, for the console
};

// Message `message` of client `client`, as "c<client> m<message>". Built
// by appending: GCC 12 at -O3 reports a false -Wrestrict on
// `"c" + std::to_string(client)`.
std::string Tag(size_t client, size_t message) {
  std::string tag = "c";
  tag += std::to_string(client);
  tag += " m";
  tag += std::to_string(message);
  return tag;
}

bool Gate(Row& row, bool condition, const char* what) {
  if (!condition && row.detail.empty()) {
    row.detail = what;
  }
  return condition;
}

// Closed-loop echo: every client keeps at most one message in flight, so
// nothing outruns a resend window across faults or migrations. Returns
// true when every client got `per_client` echoes back, in order.
bool ClosedLoopEcho(MultiClientWorld& world, std::vector<size_t>& sent,
                    std::vector<size_t>& received, size_t per_client,
                    int max_rounds,
                    const std::function<void(int)>& on_round = {}) {
  std::vector<size_t> target(sent);
  for (auto& t : target) {
    t += per_client;
  }
  std::vector<bool> in_flight(world.clients.size(), false);
  for (int round = 0; round < max_rounds; ++round) {
    if (on_round) {
      on_round(round);
    }
    bool done = true;
    for (size_t i = 0; i < world.clients.size(); ++i) {
      auto& client = *world.clients[i];
      if (!in_flight[i] && sent[i] < target[i] && client.Ready()) {
        std::string payload = Tag(i, sent[i]);
        if (client.SendMessage(BufferFromString(payload)).ok()) {
          ++sent[i];
          in_flight[i] = true;
        }
      }
      for (;;) {
        auto echo = client.ReceiveMessage();
        if (!echo.ok()) {
          break;
        }
        std::string expect = Tag(i, received[i]);
        if (std::string(reinterpret_cast<const char*>(echo->data()),
                        echo->size()) != expect) {
          return false;
        }
        ++received[i];
        in_flight[i] = false;
      }
      if (received[i] < target[i]) {
        done = false;
      }
    }
    world.EchoRound();
    world.Pump();
    if (done) {
      return true;
    }
  }
  return false;
}

// --- Arm 1: 10k-session churn ------------------------------------------------

constexpr size_t kChurnSlots = 64;
constexpr size_t kChurnCycles = 160;  // 64 * 160 = 10,240 lifetimes

void RunChurnArm(Row& row) {
  row.arm = "churn";
  MultiClientWorld::Options options;
  options.num_clients = kChurnSlots;
  options.seed = 7100;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  options.server_config.max_connections = kChurnSlots;
  MultiClientWorld world(options);
  if (!Gate(row, world.EstablishAll(120000), "establish")) {
    return;
  }

  // Per-slot lifecycle state machine, all 64 slots in flight at once.
  enum class Phase { kWaitAdmit, kWaitEcho, kTeardown, kDone };
  struct Slot {
    Phase phase = Phase::kWaitAdmit;
    size_t cycles = 0;
    bool sent = false;
  };
  std::vector<Slot> slots(kChurnSlots);
  const uint64_t start_ns = world.clock.now_ns();
  uint64_t lifetimes = 0;
  Buffer payload(256, 0x5a);

  bool stuck = false;
  for (int round = 0; round < 2'000'000 && lifetimes < kChurnSlots *
       kChurnCycles && !stuck; ++round) {
    stuck = true;  // any slot making progress clears this
    for (size_t i = 0; i < kChurnSlots; ++i) {
      Slot& slot = slots[i];
      auto& client = *world.clients[i];
      switch (slot.phase) {
        case Phase::kWaitAdmit:
          if (client.Ready() && client.admitted()) {
            if (!slot.sent && client.SendMessage(payload).ok()) {
              slot.sent = true;
            }
            if (slot.sent) {
              slot.phase = Phase::kWaitEcho;
            }
          }
          break;
        case Phase::kWaitEcho:
          if (client.ReceiveMessage().ok()) {
            // Echo landed: this lifetime is complete. Orderly close.
            (void)client.Disconnect();
            slot.sent = false;
            slot.phase = Phase::kTeardown;
          }
          break;
        case Phase::kTeardown:
          // Wait for the server to fully forget this peer before the next
          // connect, so the fresh session can never reattach stale state.
          if (!world.server->ServesPeer(client.ip())) {
            ++lifetimes;
            ++slot.cycles;
            if (slot.cycles >= kChurnCycles) {
              slot.phase = Phase::kDone;
            } else if (client.Connect(world.server_node->ip(),
                                      world.server->config().port)
                           .ok()) {
              slot.phase = Phase::kWaitAdmit;
            }
          }
          break;
        case Phase::kDone:
          break;
      }
      if (slot.phase != Phase::kDone) {
        stuck = false;
      }
    }
    world.EchoRound();
    world.Pump();
  }

  row.sessions = lifetimes;
  uint64_t lost = 0;
  for (auto& client : world.clients) {
    lost += client->recovery_stats().messages_lost;
  }
  row.lost = lost;
  double span_s =
      static_cast<double>(world.clock.now_ns() - start_ns) / 1e9;
  row.ops_per_sec =
      span_s > 0 ? static_cast<double>(lifetimes) / span_s : 0.0;

  bool ok = Gate(row, lifetimes >= 10'000, "lifetimes >= 10k");
  ok &= Gate(row, lost == 0, "zero lost");
  ok &= Gate(row, world.server->stats().rejected_unauthenticated == 0,
             "no spurious rejections");
  ok &= Gate(row, world.server->stats().admitted >= lifetimes,
             "every lifetime attested");
  // Pool accounting at scale: every slot back in the free list once the
  // table is empty.
  ok &= Gate(row,
             world.PumpUntil(
                 [&] {
                   return world.server->active_connections() == 0 &&
                          world.server->parked_sessions() == 0;
                 },
                 200000),
             "table drained");
  cio::L5Channel* l5 = world.server_node->l5();
  ok &= Gate(row, l5 != nullptr && l5->free_slots() ==
                      l5->queue_config().pool_slots,
             "server pool slots balanced");
  for (auto& client : world.clients) {
    cio::L5Channel* cl5 = client->l5();
    ok &= Gate(row, cl5 != nullptr && cl5->free_slots() ==
                        cl5->queue_config().pool_slots,
               "client pool slots balanced");
  }

  // Probe sub-run: forged / stale / keyless credentials, EXACT counts.
  {
    MultiClientWorld::Options probe;
    probe.num_clients = 8;
    probe.seed = 7200;
    probe.attestation_key = BufferFromString("fleet-attestation-root");
    probe.forged_clients = {0, 1};
    probe.stale_clients = {2};
    probe.keyless_clients = {3};
    MultiClientWorld probe_world(probe);
    ok &= Gate(row, probe_world.EstablishAll(120000), "probe establish");
    row.rejected_unauthenticated =
        probe_world.server->stats().rejected_unauthenticated;
    ok &= Gate(row, row.rejected_unauthenticated == 4,
               "exactly 4 typed rejections");
    ok &= Gate(row, probe_world.server->stats().admitted == 4,
               "exactly 4 admissions");
    ok &= Gate(row, probe_world.server->stats().tampered == 0,
               "rejections outside leakage score");
  }
  row.ok = ok;
}

// --- Arm 2: rekey under load -------------------------------------------------

constexpr size_t kRekeyClients = 32;
constexpr size_t kRekeyMessages = 40;

void RunRekeyArm(Row& row) {
  row.arm = "rekey";
  MultiClientWorld::Options options;
  options.num_clients = kRekeyClients;
  options.seed = 7300;
  options.rekey_after_records = 8;
  options.server_config.max_connections = kRekeyClients;
  MultiClientWorld world(options);
  if (!Gate(row, world.EstablishAll(120000), "establish")) {
    return;
  }

  const uint64_t start_ns = world.clock.now_ns();
  std::vector<size_t> sent(kRekeyClients, 0);
  std::vector<size_t> received(kRekeyClients, 0);
  bool fault_armed = true;
  bool completed = ClosedLoopEcho(
      world, sent, received, kRekeyMessages, 600000, [&](int round) {
        // Land the fault window a third of the way in, while key updates
        // are continuously in flight across the dual boundary.
        if (fault_armed && round == 80) {
          fault_armed = false;
          uint64_t now = world.clock.now_ns();
          world.server_node->adversary().InjectFault(
              {ciohost::FaultStrategy::kLinkKill, now, 12'000'000});
          world.server_node->adversary().InjectFault(
              {ciohost::FaultStrategy::kStallCounters, now + 14'000'000,
               2'000'000});
        }
      });

  uint64_t lost = 0;
  uint64_t rekeys = 0;
  for (auto& client : world.clients) {
    lost += client->recovery_stats().messages_lost;
    rekeys += client->rekeys();
  }
  row.lost = lost;
  row.rekeys = rekeys;
  row.sessions = kRekeyClients;
  double span_s =
      static_cast<double>(world.clock.now_ns() - start_ns) / 1e9;
  row.ops_per_sec =
      span_s > 0
          ? static_cast<double>(kRekeyClients * kRekeyMessages) / span_s
          : 0.0;

  bool ok = Gate(row, completed, "completed");
  ok &= Gate(row, lost == 0, "zero lost");
  ok &= Gate(row, rekeys >= kRekeyClients, "rekeys fired");
  ok &= Gate(row, !fault_armed, "fault window landed");
  ok &= Gate(row, world.server_node->adversary().fault_events() > 0,
             "fault events");
  ok &= Gate(row, world.server->stats().recovered >= 1, "herd recovered");
  row.ok = ok;
}

// --- Arm 3: migrate half the sessions ----------------------------------------

constexpr size_t kMigrateClients = 32;

void RunMigrateArm(Row& row) {
  row.arm = "migrate";
  MultiClientWorld::Options options;
  options.num_clients = kMigrateClients;
  options.seed = 7400;
  options.second_server = true;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  options.server_config.max_connections = kMigrateClients;
  MultiClientWorld world(options);
  if (!Gate(row, world.EstablishAll(120000), "establish")) {
    return;
  }

  std::vector<size_t> sent(kMigrateClients, 0);
  std::vector<size_t> received(kMigrateClients, 0);
  bool ok = Gate(row, ClosedLoopEcho(world, sent, received, 8, 600000),
                 "pre-migration echo");

  // The fleet-shared sealing service: one vault (key + monotonic counter)
  // and one confidential store standing in for the transfer path.
  ciotee::MonotonicCounter counter;
  SessionVault vault(BufferFromString("fleet-vault-sealing-key"), &counter);
  ciobase::CostModel store_costs(&world.clock);
  ciotee::TeeMemory store_memory;
  ciotee::CompartmentManager store_compartments(&store_costs);
  ciotee::CompartmentId store_app = store_compartments.Create("app", 1 << 20);
  ciotee::CompartmentId store_io =
      store_compartments.Create("storage", 1 << 20);
  ciohost::Adversary store_adversary(4);
  ciohost::ObservabilityLog store_observability;
  cioblock::ConfidentialStore::Options store_options;
  store_options.ring.block_count = 512;
  store_options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaa");
  store_options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbb");
  cioblock::ConfidentialStore store(
      &store_memory, &store_compartments, store_app, store_io, &store_costs,
      &store_adversary, &store_observability, &world.clock, store_options);
  ok &= Gate(row, store.Format().ok(), "store format");

  // Quiesced: export every even-indexed session from instance A and ship
  // it through the storage path.
  auto conns = world.server->EstablishedConnections();
  ok &= Gate(row, conns.size() == kMigrateClients, "full table");
  std::vector<ConnId> moving;
  for (size_t i = 0; i < conns.size(); i += 2) {
    moving.push_back(conns[i]);
  }
  const uint64_t migrate_start_ns = world.clock.now_ns();
  for (size_t i = 0; i < moving.size(); ++i) {
    auto sealed = world.server->MigrateSession(
        moving[i], vault, world.server2_node->ip(),
        world.server2->config().port);
    if (!Gate(row, sealed.ok(), "migrate export")) {
      break;
    }
    ok &= Gate(row,
               store.Put("session-" + std::to_string(i), *sealed).ok(),
               "store put");
  }
  ok &= Gate(row, store.Flush().ok(), "store flush");
  row.migrated = world.server->stats().migrated_out;
  ok &= Gate(row, row.migrated == moving.size(), "half exported");

  // Tamper probe: a bit-flipped seal out of the store must be kTampered.
  {
    auto blob = store.Get("session-0");
    ok &= Gate(row, blob.ok(), "store get probe");
    if (blob.ok()) {
      Buffer corrupt = *blob;
      corrupt[corrupt.size() / 2] ^= 0x10;
      ok &= Gate(row,
                 world.server2->ImportSession(corrupt, vault).code() ==
                     StatusCode::kTampered,
                 "bit-flip typed kTampered");
      ++row.tamper_rejects;
    }
  }
  // Import the pristine seals on instance B.
  for (size_t i = 0; i < moving.size(); ++i) {
    auto blob = store.Get("session-" + std::to_string(i));
    ok &= Gate(row, blob.ok(), "store get");
    if (blob.ok()) {
      ok &= Gate(row, world.server2->ImportSession(*blob, vault).ok(),
                 "import");
    }
  }
  ok &= Gate(row, world.server2->stats().migrated_in == moving.size(),
             "half imported");
  // Rollback probe: the host re-presenting an already-imported seal (an
  // old snapshot of the fleet) must be kTampered, not a resurrection.
  {
    auto blob = store.Get("session-0");
    if (blob.ok()) {
      ok &= Gate(row,
                 world.server2->ImportSession(*blob, vault).code() ==
                     StatusCode::kTampered,
                 "rollback typed kTampered");
      ++row.tamper_rejects;
    }
  }

  // The moved clients follow the redirect and re-attest on instance B.
  ok &= Gate(row,
             world.PumpUntil(
                 [&] {
                   size_t migrated_clients = 0;
                   for (auto& client : world.clients) {
                     if (client->migrations() == 1) {
                       if (!client->Ready() || !client->admitted()) {
                         return false;
                       }
                       ++migrated_clients;
                     }
                   }
                   return migrated_clients == moving.size() &&
                          world.server2->EstablishedConnections().size() ==
                              moving.size();
                 },
                 200000),
             "redirected herd reattached");
  double migrate_s = static_cast<double>(world.clock.now_ns() -
                                         migrate_start_ns) / 1e9;
  row.ops_per_sec = migrate_s > 0
                        ? static_cast<double>(moving.size()) / migrate_s
                        : 0.0;

  // Delivery stays exactly-once across the move, on BOTH halves.
  ok &= Gate(row, ClosedLoopEcho(world, sent, received, 8, 600000),
             "post-migration echo");
  uint64_t lost = 0;
  for (auto& client : world.clients) {
    lost += client->recovery_stats().messages_lost;
  }
  row.lost = lost;
  row.sessions = kMigrateClients;
  ok &= Gate(row, lost == 0, "zero lost");
  ok &= Gate(row, world.server->parked_sessions() == 0,
             "nothing parked on A");
  row.ok = ok;
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
        "  {\"arm\": \"%s\", \"profile\": \"%s\", \"ok\": %s, "
        "\"lost\": %llu, \"sessions\": %llu, \"rekeys\": %llu, "
        "\"migrated\": %llu, \"rejected_unauthenticated\": %llu, "
        "\"tamper_rejects\": %llu, \"ops_per_sec\": %.1f}%s\n",
        r.arm.c_str(), r.profile.c_str(), r.ok ? "true" : "false",
        static_cast<unsigned long long>(r.lost),
        static_cast<unsigned long long>(r.sessions),
        static_cast<unsigned long long>(r.rekeys),
        static_cast<unsigned long long>(r.migrated),
        static_cast<unsigned long long>(r.rejected_unauthenticated),
        static_cast<unsigned long long>(r.tamper_rejects), r.ops_per_sec,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::printf("== session lifecycle churn (dual-boundary) ==\n");
  std::printf("%-10s %10s %6s %8s %8s %8s %8s %10s\n", "arm", "sessions",
              "lost", "rekeys", "migrate", "rej-auth", "tamper",
              "ops/sec");
  std::printf("%s\n", std::string(76, '-').c_str());

  std::vector<Row> rows(3);
  RunChurnArm(rows[0]);
  RunRekeyArm(rows[1]);
  RunMigrateArm(rows[2]);

  bool all_ok = true;
  for (const Row& row : rows) {
    std::printf("%-10s %10llu %6llu %8llu %8llu %8llu %8llu %10.0f%s\n",
                row.arm.c_str(),
                static_cast<unsigned long long>(row.sessions),
                static_cast<unsigned long long>(row.lost),
                static_cast<unsigned long long>(row.rekeys),
                static_cast<unsigned long long>(row.migrated),
                static_cast<unsigned long long>(row.rejected_unauthenticated),
                static_cast<unsigned long long>(row.tamper_rejects),
                row.ops_per_sec, row.ok ? "" : "  FAIL");
    if (!row.ok) {
      std::printf("    failed gate: %s\n", row.detail.c_str());
      all_ok = false;
    }
  }

  if (json_path != nullptr) {
    WriteJson(json_path, rows);
  }
  if (!all_ok) {
    std::printf("session churn gate FAILED\n");
    return 1;
  }
  std::printf(
      "session churn gate passed: %llu lifetimes, rekey-under-fault "
      "zero-loss, half-fleet migration exactly-once\n",
      static_cast<unsigned long long>(rows[0].sessions));
  return 0;
}
