#include "src/serve/harness.h"

#include <algorithm>

namespace cioserve {

namespace {

bool Contains(const std::vector<size_t>& indices, size_t i) {
  return std::find(indices.begin(), indices.end(), i) != indices.end();
}

}  // namespace

MultiClientWorld::MultiClientWorld(const Options& options) {
  fabric = std::make_unique<cionet::Fabric>(&clock, options.seed,
                                            options.fabric_options);
  ciobase::Buffer psk =
      ciobase::BufferFromString("attestation-derived-link-key-0001");
  attestation_gated_ = !options.attestation_key.empty();

  ServerConfig server_opts = options.server_config;
  if (attestation_gated_) {
    server_opts.require_attestation = true;
    server_opts.attestation_key = options.attestation_key;
  }

  // Server: node id 1 (IP 10.0.0.1). The stack-level accept backlog must
  // cover a full client herd arriving in one burst; admission control at
  // the server layer is what actually bounds the table.
  cio::StackConfig server_config =
      cio::StackConfig::DefaultsFor(options.profile, 1);
  server_config.seed = options.seed * 1000;
  server_config.psk = psk;
  server_config.rekey_after_records = options.rekey_after_records;
  server_config.rekey_after_bytes = options.rekey_after_bytes;
  server_config.accept_backlog =
      std::max<size_t>(64, options.num_clients + 8);
  server_config.profiler = options.server_profiler;
  cio::TuneTcpForFaultWindows(server_config);
  server_node = std::make_unique<cio::ConfidentialNode>(fabric.get(), &clock,
                                                        server_config);
  server = std::make_unique<ConfidentialServer>(server_node.get(), &clock,
                                                server_opts);

  // Second instance (migration target): node id 2 + num_clients, same
  // port, same ServerConfig — a fleet peer, not a different service.
  if (options.second_server) {
    cio::StackConfig config2 = cio::StackConfig::DefaultsFor(
        options.profile, static_cast<uint32_t>(2 + options.num_clients));
    config2.seed = options.seed * 1000 + 500'000;
    config2.psk = psk;
    config2.accept_backlog = server_config.accept_backlog;
    config2.rekey_after_records = options.rekey_after_records;
    config2.rekey_after_bytes = options.rekey_after_bytes;
    cio::TuneTcpForFaultWindows(config2);
    server2_node = std::make_unique<cio::ConfidentialNode>(fabric.get(),
                                                           &clock, config2);
    server2 = std::make_unique<ConfidentialServer>(server2_node.get(), &clock,
                                                   server_opts);
  }

  // Clients: node ids 2..N+1 (node id caps at 254, so <= 253 clients).
  for (size_t i = 0; i < options.num_clients; ++i) {
    cio::StackConfig client_config = cio::StackConfig::DefaultsFor(
        options.profile, static_cast<uint32_t>(2 + i));
    client_config.seed = options.seed * 1000 + 7 * (i + 1);
    client_config.psk = psk;
    client_config.rekey_after_records = options.rekey_after_records;
    client_config.rekey_after_bytes = options.rekey_after_bytes;
    if (attestation_gated_ && !Contains(options.keyless_clients, i)) {
      client_config.attestation_key =
          Contains(options.forged_clients, i)
              ? ciobase::BufferFromString("forged-attestation-key")
              : options.attestation_key;
      client_config.attest_stale_probe = Contains(options.stale_clients, i);
    }
    cio::TuneTcpForFaultWindows(client_config);
    clients.push_back(std::make_unique<cio::ConfidentialNode>(
        fabric.get(), &clock, client_config));
  }
}

void MultiClientWorld::Pump(uint64_t step_ns) {
  server->Poll();
  if (server2 != nullptr) {
    server2->Poll();
  }
  for (auto& client : clients) {
    client->Poll();
  }
  clock.Advance(step_ns);
}

bool MultiClientWorld::PumpUntil(const std::function<bool()>& done,
                                 int max_rounds, uint64_t step_ns) {
  for (int round = 0; round < max_rounds; ++round) {
    Pump(step_ns);
    if (done()) {
      return true;
    }
  }
  return false;
}

bool MultiClientWorld::EstablishAll(int max_rounds) {
  if (!server->Start().ok()) {
    return false;
  }
  if (server2 != nullptr && !server2->Start().ok()) {
    return false;
  }
  for (auto& client : clients) {
    if (!client->Connect(server_node->ip(), server->config().port).ok()) {
      return false;
    }
  }
  return PumpUntil(
      [&] {
        size_t expected = 0;
        for (auto& client : clients) {
          if (client->denied()) {
            continue;  // rejected probe: settled, not counted established
          }
          if (!client->Ready()) {
            return false;
          }
          if (attestation_gated_ && !client->admitted()) {
            return false;
          }
          ++expected;
        }
        return server->EstablishedConnections().size() == expected;
      },
      max_rounds);
}

size_t MultiClientWorld::EchoRound() {
  for (ConfidentialServer* srv : {server.get(), server2.get()}) {
    if (srv == nullptr) {
      continue;
    }
    for (;;) {
      auto incoming = srv->Receive();
      if (!incoming.ok()) {
        break;
      }
      echo_queue_.push_back(PendingEcho{srv, std::move(*incoming)});
    }
  }
  size_t echoed = 0;
  // Retry the queue in arrival order; whatever still cannot go out
  // (connection handshaking after a fault, send queue over budget) waits
  // for a later round. Connection ids survive reattach, so a parked
  // connection's echoes drain once the client reconnects.
  size_t attempts = echo_queue_.size();
  for (size_t i = 0; i < attempts; ++i) {
    PendingEcho pending = std::move(echo_queue_.front());
    echo_queue_.pop_front();
    if (pending.srv->Send(pending.incoming.conn, pending.incoming.message)
            .ok()) {
      ++echoed;
    } else {
      echo_queue_.push_back(std::move(pending));
    }
  }
  return echoed;
}

}  // namespace cioserve
