// MultiClientWorld: one ConfidentialServer plus N single-socket client
// engines on one simulated fabric — the shared fixture for the server tests
// and the open-loop load benchmark.
//
// The server node and every client node assemble the SAME StackProfile, so
// a load point exercises the full profile-specific datapath on both sides
// (e.g. 64 dual-boundary clients all crossing their own L5 boundaries into
// one dual-boundary server). All nodes share one attestation-bound PSK;
// seeds are derived per node so TLS nonces never collide. Every node runs
// under cio::TuneTcpForFaultWindows, so an injected fault window ends in
// connection death and reconnect.

#ifndef SRC_SERVE_HARNESS_H_
#define SRC_SERVE_HARNESS_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/serve/server.h"

namespace cioserve {

struct MultiClientWorld {
  struct Options {
    cio::StackProfile profile = cio::StackProfile::kDualBoundary;
    size_t num_clients = 8;
    ServerConfig server_config;
    uint64_t seed = 4242;
    cionet::Fabric::Options fabric_options{};

    // Attestation-gated admission: when non-empty, every server requires a
    // transcript-bound report under this key and every client is
    // provisioned with it — except the probe clients below, which MUST be
    // rejected as typed kUnauthenticated (the negative arms).
    ciobase::Buffer attestation_key;
    std::vector<size_t> forged_clients;   // wrong signing key
    std::vector<size_t> stale_clients;    // report over a stale nonce
    std::vector<size_t> keyless_clients;  // no report at all

    // Second server instance (node id 2 + num_clients, same port) — the
    // migration target for MigrateSession/ImportSession arms.
    bool second_server = false;

    // In-band rekey thresholds, applied to every node's StackConfig
    // (0 = never; see StackConfig::rekey_after_records/bytes).
    uint64_t rekey_after_records = 0;
    uint64_t rekey_after_bytes = 0;

    // In-sim profiler attached to the FIRST server node (src/prof). One
    // registry binds to one node's clock+cost model; the load benchmark
    // profiles the server side, where the interesting contention lives.
    cioprof::ProfRegistry* server_profiler = nullptr;
  };

  ciobase::SimClock clock;
  std::unique_ptr<cionet::Fabric> fabric;
  std::unique_ptr<cio::ConfidentialNode> server_node;
  std::unique_ptr<ConfidentialServer> server;
  // Present only with Options::second_server.
  std::unique_ptr<cio::ConfidentialNode> server2_node;
  std::unique_ptr<ConfidentialServer> server2;
  std::vector<std::unique_ptr<cio::ConfidentialNode>> clients;

  explicit MultiClientWorld(const Options& options);

  // One simulation round: every server Poll, every client Poll, clock step.
  void Pump(uint64_t step_ns = 10'000);
  bool PumpUntil(const std::function<bool()>& done, int max_rounds = 60000,
                 uint64_t step_ns = 10'000);

  // Connects every client and pumps until every non-probe client is
  // Ready() (and admitted, when attestation is gated) and the first server
  // has an established connection for each; probe clients must settle as
  // denied. Starts the second server too when present.
  bool EstablishAll(int max_rounds = 60000);

  // Echo application on every server: every inbound message goes straight
  // back on its connection. Echoes that cannot go out yet (backpressure,
  // connection mid-recovery) stay queued and are retried each call, so a
  // transport fault delays an echo but never drops it. Returns messages
  // echoed this round.
  size_t EchoRound();
  size_t pending_echoes() const { return echo_queue_.size(); }

 private:
  struct PendingEcho {
    ConfidentialServer* srv;
    Incoming incoming;
  };
  bool attestation_gated_ = false;
  std::deque<PendingEcho> echo_queue_;
};

}  // namespace cioserve

#endif  // SRC_SERVE_HARNESS_H_
