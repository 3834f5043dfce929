// Production session lifecycle: attestation-gated admission, transparent
// in-band rekeying, and cross-instance migration.
//
//   * Admission: healthy clients present transcript-bound reports and are
//     admitted; forged / stale / missing reports are typed kUnauthenticated
//     rejections (counted outside the leakage score), and the probing
//     clients fail terminally instead of burning the reconnect budget.
//   * Rekeying: key updates fire transparently from traffic thresholds —
//     no drop, no loss — including a kill-link + stalled-counter fault
//     window landing mid-key-update; both sides converge on the same
//     ratchet generation.
//   * Migration: sessions sealed out of one instance resume on a second
//     with exactly-once delivery intact; replaying an already-imported
//     seal (the host restoring an old snapshot) and bit-flipped seals are
//     typed kTampered.
//   * Fuzz: a Mutator-driven loop over the sealed blob — every mutated
//     import must fail typed, pristine imports must succeed.
//   * Pool accounting: after park/reattach churn plus orderly disconnect
//     churn, every registered pool slot is back in the free list on both
//     sides of the boundary (the park/reattach leak audit).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/fuzz/mutator.h"
#include "src/serve/harness.h"
#include "src/tee/monotonic_counter.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using ciobase::StatusCode;
using cio::StackProfile;
using namespace cioserve;  // NOLINT: test file

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

std::string ToString(const Buffer& buffer) {
  return std::string(reinterpret_cast<const char*>(buffer.data()),
                     buffer.size());
}

// Closed-loop echo driver: each client keeps at most one message in flight,
// so nothing ever outruns a resend window across faults or migrations, and
// "run returned true" means every message came back exactly once, in order.
struct EchoDriver {
  MultiClientWorld& world;
  std::vector<size_t> sent;
  std::vector<size_t> received;

  explicit EchoDriver(MultiClientWorld& w)
      : world(w), sent(w.clients.size(), 0), received(w.clients.size(), 0) {}

  bool Run(size_t per_client, int max_rounds = 120000,
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
        if (client.denied()) {
          continue;  // rejected probes do not participate
        }
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
          if (ToString(*echo) != expect) {
            return false;  // out of order / duplicate / corrupt
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
};

// --- Attestation-gated admission ---------------------------------------------

TEST(Admission, HealthyFleetAdmitted) {
  MultiClientWorld::Options options;
  options.num_clients = 4;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EXPECT_EQ(world.server->stats().admitted, 4u);
  EXPECT_EQ(world.server->stats().rejected_unauthenticated, 0u);
  for (auto& client : world.clients) {
    EXPECT_TRUE(client->admitted());
    EXPECT_FALSE(client->denied());
  }

  EchoDriver echo(world);
  EXPECT_TRUE(echo.Run(4));
}

TEST(Admission, ForgedStaleAndMissingReportsRejectedTyped) {
  MultiClientWorld::Options options;
  options.num_clients = 6;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  options.forged_clients = {1};   // wrong signing key
  options.stale_clients = {2};    // report over a stale nonce
  options.keyless_clients = {3};  // no report at all
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EXPECT_EQ(world.server->stats().admitted, 3u);
  EXPECT_EQ(world.server->stats().rejected_unauthenticated, 3u);
  // Typed rejections live OUTSIDE the leakage/tamper accounting.
  EXPECT_EQ(world.server->stats().tampered, 0u);
  EXPECT_EQ(world.server->parked_sessions(), 0u);  // nothing worth parking

  for (size_t i : {size_t{1}, size_t{2}, size_t{3}}) {
    EXPECT_TRUE(world.clients[i]->denied()) << "probe " << i;
    EXPECT_FALSE(world.clients[i]->admitted()) << "probe " << i;
    EXPECT_TRUE(world.clients[i]->Failed()) << "probe " << i;
  }
  for (size_t i : {size_t{0}, size_t{4}, size_t{5}}) {
    EXPECT_TRUE(world.clients[i]->admitted()) << "client " << i;
  }

  // The healthy majority is unaffected.
  EchoDriver echo(world);
  EXPECT_TRUE(echo.Run(4));
}

TEST(Admission, DeniedClientsEarlyMessageIsNeverDelivered) {
  // A client may send as soon as its TLS channel is up, before it answers
  // the attestation challenge; the message waits in the server's session
  // inbox. A keyless client is denied, and its connection drains shut
  // without ever surfacing that message to the application.
  MultiClientWorld::Options options;
  options.num_clients = 1;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  options.keyless_clients = {0};
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  cio::ConfidentialNode& client = *world.clients[0];
  ASSERT_TRUE(
      client.Connect(world.server_node->ip(), world.server->config().port)
          .ok());
  ASSERT_TRUE(world.PumpUntil([&] { return client.Ready(); }));
  ASSERT_FALSE(client.denied());
  ASSERT_TRUE(client.SendMessage(BufferFromString("smuggled")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    return client.denied() && world.server->active_connections() == 0;
  }));
  EXPECT_EQ(world.server->stats().rejected_unauthenticated, 1u);
  EXPECT_EQ(world.server->Receive().status().code(), StatusCode::kUnavailable);
}

TEST(Admission, ReattachAfterFaultReAttests) {
  MultiClientWorld::Options options;
  options.num_clients = 2;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(4));

  // Kill the server link past the TCP retry budget: every connection dies,
  // reconnects, reattaches — and must attest AGAIN on the new transcript.
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, world.clock.now_ns(), 12'000'000});
  ASSERT_TRUE(echo.Run(8));

  EXPECT_GE(world.server->stats().recovered, 1u);
  EXPECT_GE(world.server->stats().admitted,
            2u + world.server->stats().recovered);
  for (auto& client : world.clients) {
    EXPECT_TRUE(client->admitted());
    EXPECT_EQ(client->recovery_stats().messages_lost, 0u);
  }
}

// --- Acknowledged resend windows -----------------------------------------------

// Echo traffic carries every ack on a frame it sends anyway: no standalone
// kAck goes out, and a window holds only what its peer has not delivered.
TEST(AckedWindow, SteadyEchoSendsNoStandaloneAckAndHoldsWhatIsInFlight) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 8;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  constexpr size_t kInFlight = 2;
  constexpr size_t kPerClient = 40;
  const size_t n = world.clients.size();
  std::vector<size_t> sent(n, 0);
  std::vector<size_t> received(n, 0);
  size_t client_excess = 0;  // most a client window held beyond in flight
  size_t server_window = 0;  // largest server-side window seen
  bool done = false;
  for (int round = 0; round < 60000 && !done; ++round) {
    done = true;
    for (size_t i = 0; i < n; ++i) {
      cio::ConfidentialNode& client = *world.clients[i];
      while (sent[i] - received[i] < kInFlight && sent[i] < kPerClient &&
             client.Ready() &&
             client.SendMessage(BufferFromString(Tag(i, sent[i]))).ok()) {
        ++sent[i];
      }
      for (auto echo = client.ReceiveMessage(); echo.ok();
           echo = client.ReceiveMessage()) {
        ASSERT_EQ(ToString(*echo), Tag(i, received[i]));
        ++received[i];
      }
      done = done && received[i] == kPerClient;
    }
    world.EchoRound();
    world.Pump();
    for (size_t i = 0; i < n; ++i) {
      const size_t window = world.clients[i]->session().resend_window_size();
      const size_t in_flight = sent[i] - received[i];
      client_excess = std::max(client_excess,
                               window > in_flight ? window - in_flight : 0);
    }
    for (ConnId id : world.server->EstablishedConnections()) {
      server_window = std::max(
          server_window, world.server->SessionOf(id)->resend_window_size());
    }
  }
  ASSERT_TRUE(done);
  EXPECT_LE(client_excess, 1u);
  EXPECT_LE(server_window, kInFlight + 1);
  uint64_t acks = 0;
  for (auto& client : world.clients) {
    acks += client->session().stats().acks_sent;
  }
  for (ConnId id : world.server->EstablishedConnections()) {
    acks += world.server->SessionOf(id)->stats().acks_sent;
  }
  EXPECT_EQ(acks, 0u);
}

// The server parks a faulted connection's session only for
// reattach_timeout_ns. A client that comes back later meets a fresh server
// session, which knows none of its sequence numbers: the server's first
// frame acknowledges less than the client's trim point, so the client
// fails typed (kTampered, terminal) instead of reading the fresh session's
// messages as duplicates or the server re-delivering a replayed window.
TEST(AckedWindow, ReconnectAfterParkedSessionExpiredFailsTyped) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 1;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  options.server_config.reattach_timeout_ns = 1'000'000;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(4));
  cio::ConfidentialNode& client = *world.clients[0];
  ASSERT_GT(client.session().acked_seq(), 0u);

  // The server's link dies with a server message in flight, so its TCP
  // gives up and it parks the session, which expires 1 ms later. The
  // client's channel dies too, and it redials once the host relents.
  const uint64_t kill_ns = world.clock.now_ns();
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, kill_ns, 12'000'000});
  auto conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 1u);
  ASSERT_TRUE(world.server->Send(conns[0], BufferFromString("unsolicited"))
                  .ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    world.EchoRound();
    return client.Failed();
  }));
  EXPECT_GE(world.server->stats().expired_parked, 1u);
  EXPECT_EQ(world.server->stats().recovered, 0u);
  EXPECT_GE(client.recovery_stats().reconnects, 1u);
  EXPECT_FALSE(client.denied());  // not an admission failure
  // It failed on the fresh session's first frame, not for want of
  // reconnects, and it received nothing past the old session's message.
  EXPECT_LT(client.recovery_stats().reconnects,
            client.config().recovery.max_reconnects);
  std::vector<std::string> got;
  for (auto m = client.ReceiveMessage(); m.ok(); m = client.ReceiveMessage()) {
    got.push_back(ToString(*m));
  }
  EXPECT_LE(got.size(), 1u);
  for (const std::string& message : got) {
    EXPECT_EQ(message, "unsolicited");
  }
  EXPECT_EQ(client.recovery_stats().messages_lost, 0u);
}

// --- Transparent rekeying ----------------------------------------------------

TEST(Rekey, TransparentUnderLoad) {
  MultiClientWorld::Options options;
  options.num_clients = 4;
  options.rekey_after_records = 8;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(48));

  for (auto& client : world.clients) {
    EXPECT_GE(client->rekeys(), 1u);
    EXPECT_EQ(client->recovery_stats().messages_lost, 0u);
    EXPECT_FALSE(client->Failed());
  }
  // Server sessions ratcheted too (both directions rekey independently).
  uint64_t server_rekeys = 0;
  for (ConnId id : world.server->EstablishedConnections()) {
    const cio::Session* session = world.server->SessionOf(id);
    ASSERT_NE(session, nullptr);
    server_rekeys += session->stats().rekeys;
    EXPECT_GE(session->recv_generation(), 1u);  // saw the clients' updates
  }
  EXPECT_GE(server_rekeys, 4u);
}

TEST(Rekey, SurvivesFaultWindowMidKeyUpdate) {
  // Satellite (c): dual-boundary on both ends, aggressive rekey cadence, a
  // kill-link + stalled-counter window landing while key updates are in
  // flight. Zero messages lost, and once quiesced both sides sit on the
  // same ratchet generation.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 1;
  options.rekey_after_records = 4;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(12));

  bool injected = false;
  ASSERT_TRUE(echo.Run(40, 120000, [&](int round) {
    if (round == 20 && !injected) {
      injected = true;
      uint64_t now = world.clock.now_ns();
      world.server_node->adversary().InjectFault(
          {ciohost::FaultStrategy::kLinkKill, now, 12'000'000});
      world.server_node->adversary().InjectFault(
          {ciohost::FaultStrategy::kStallCounters, now + 14'000'000,
           2'000'000});
    }
  }));
  // Let any trailing KeyUpdate record flush and be consumed.
  for (int i = 0; i < 50; ++i) {
    world.EchoRound();
    world.Pump();
  }

  auto& client = *world.clients[0];
  EXPECT_EQ(client.recovery_stats().messages_lost, 0u);
  EXPECT_FALSE(client.Failed());
  EXPECT_GE(client.rekeys(), 1u);
  EXPECT_GT(world.server_node->adversary().fault_events(), 0u);
  EXPECT_GE(world.server->stats().recovered, 1u);

  auto conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 1u);
  const cio::Session* server_session = world.server->SessionOf(conns[0]);
  ASSERT_NE(server_session, nullptr);
  // Same ratchet generation on both sides of each direction.
  EXPECT_EQ(client.session().send_generation(),
            server_session->recv_generation());
  EXPECT_EQ(client.session().recv_generation(),
            server_session->send_generation());
}

// --- Cross-instance migration ------------------------------------------------

TEST(Migration, ExactlyOnceAcrossInstances) {
  MultiClientWorld::Options options;
  options.num_clients = 4;
  options.second_server = true;
  options.attestation_key = BufferFromString("fleet-attestation-root");
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(6));

  ciotee::MonotonicCounter counter;
  SessionVault vault(BufferFromString("fleet-vault-sealing-key"), &counter);

  // Quiesced (closed loop drained): migrate every session to instance 2.
  auto conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 4u);
  std::vector<Buffer> sealed;
  for (ConnId id : conns) {
    auto blob = world.server->MigrateSession(
        id, vault, world.server2_node->ip(), world.server2->config().port);
    ASSERT_TRUE(blob.ok()) << blob.status().message();
    sealed.push_back(*blob);
  }
  EXPECT_EQ(world.server->stats().migrated_out, 4u);
  for (const Buffer& blob : sealed) {
    ASSERT_TRUE(world.server2->ImportSession(blob, vault).ok());
  }
  EXPECT_EQ(world.server2->stats().migrated_in, 4u);

  // Clients follow the redirect, reattach on instance 2, re-attest there.
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        for (auto& client : world.clients) {
          if (client->migrations() != 1 || !client->Ready() ||
              !client->admitted()) {
            return false;
          }
        }
        return world.server2->EstablishedConnections().size() == 4;
      },
      120000));
  EXPECT_EQ(world.server2->stats().recovered, 4u);
  EXPECT_EQ(world.server->active_connections(), 0u);
  EXPECT_EQ(world.server->parked_sessions(), 0u);  // never parked locally

  // Delivery stays exactly-once across the move (sequence continuity).
  ASSERT_TRUE(echo.Run(6));
  for (auto& client : world.clients) {
    EXPECT_EQ(client->recovery_stats().messages_lost, 0u);
    EXPECT_FALSE(client->Failed());
  }

  // The host re-presenting an already-imported seal (a rollback to the
  // pre-migration snapshot) is typed kTampered, not a resurrection.
  auto replay = world.server2->ImportSession(sealed[0], vault);
  EXPECT_EQ(replay.code(), StatusCode::kTampered);
}

TEST(Migration, VaultRejectsTamperAndRollback) {
  ciotee::MonotonicCounter counter;
  SessionVault vault(BufferFromString("vault-key"), &counter);
  Buffer blob = BufferFromString("serialized session state bytes");

  // Pristine round trip.
  Buffer sealed = vault.Seal(blob);
  auto opened = vault.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, blob);

  // Replay of a consumed seal: kTampered.
  EXPECT_EQ(vault.Open(sealed).status().code(), StatusCode::kTampered);

  // Every single-bit flip: kTampered.
  Buffer sealed2 = vault.Seal(blob);
  for (size_t i = 0; i < sealed2.size(); ++i) {
    Buffer corrupt = sealed2;
    corrupt[i] ^= 0x40;
    EXPECT_EQ(vault.Open(corrupt).status().code(), StatusCode::kTampered)
        << "byte " << i;
  }
  // Truncation: kTampered.
  EXPECT_EQ(vault.Open(ciobase::ByteSpan(sealed2.data(), sealed2.size() - 1))
                .status()
                .code(),
            StatusCode::kTampered);
  EXPECT_EQ(vault.Open(ciobase::ByteSpan(sealed2.data(), 3)).status().code(),
            StatusCode::kTampered);
  // The untouched copy still opens (the probes above consumed nothing).
  EXPECT_TRUE(vault.Open(sealed2).ok());
}

// --- Sealed-blob fuzz (satellite b) ------------------------------------------

TEST(MigrationFuzz, MutatedSealsFailTyped) {
  // A Mutator-driven sweep over the sealed session blob fed to the real
  // import path: any outcome other than a typed kTampered (or a clean
  // import of an untouched blob) is a failure. Runs ASan-clean in CI.
  MultiClientWorld::Options options;
  options.num_clients = 0;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  ciotee::MonotonicCounter counter;
  SessionVault vault(BufferFromString("fuzz-vault-key"), &counter);

  // A realistic envelope: a plaintext-mode session with traffic behind it.
  cio::Session donor(false, BufferFromString("fuzz-psk"), 8);
  donor.Start(ciotls::TlsRole::kClient, 7);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(donor.Send(BufferFromString("m" + std::to_string(i))).ok());
  }
  Buffer state = donor.SerializeState();
  Buffer envelope(4 + state.size());
  ciobase::StoreLe32(envelope.data(), 0x0a000002);  // embedded peer ip
  std::copy(state.begin(), state.end(), envelope.begin() + 4);

  ciofuzz::Mutator mutator(0xf00dfeed);
  size_t rejected = 0;
  size_t pristine = 0;
  for (int iter = 0; iter < 256; ++iter) {
    Buffer sealed = vault.Seal(envelope);
    Buffer mutated = sealed;
    if (iter % 4 == 3) {
      // Truncation arm.
      mutated.resize(mutator.rng().NextU64() % sealed.size());
    } else {
      std::vector<ciofuzz::TargetWindow> windows(1);
      windows[0].name = "seal";
      windows[0].length = mutated.size();
      windows[0].raw =
          ciobase::MutableByteSpan(mutated.data(), mutated.size());
      ciofuzz::FuzzInput input = mutator.Generate(windows, 1, 4);
      mutator.ApplyRound(input, 0, windows);
    }
    if (mutated == sealed) {
      // The schedule happened to be a no-op: the import must SUCCEED.
      ASSERT_TRUE(world.server->ImportSession(mutated, vault).ok());
      ++pristine;
      continue;
    }
    ciobase::Status verdict = world.server->ImportSession(mutated, vault);
    ASSERT_FALSE(verdict.ok()) << "mutated seal imported on iter " << iter;
    ASSERT_EQ(verdict.code(), StatusCode::kTampered)
        << "untyped failure on iter " << iter << ": " << verdict.message();
    ++rejected;
    if (iter % 16 == 0) {
      // The untouched blob still imports: rejection is the mutation's
      // fault, not the vault rotting.
      ASSERT_TRUE(world.server->ImportSession(sealed, vault).ok());
      ++pristine;
    }
  }
  EXPECT_GE(rejected, 200u);
  EXPECT_GE(pristine, 10u);
  EXPECT_EQ(vault.stats().opened, pristine);
}

// --- Pool accounting (satellite a) -------------------------------------------

TEST(PoolAccounting, SlotsBalancedAfterChurnAndFaults) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 8;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  EchoDriver echo(world);
  ASSERT_TRUE(echo.Run(4));

  // Park/reattach churn: the whole herd faults and recovers once.
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, world.clock.now_ns(), 12'000'000});
  ASSERT_TRUE(echo.Run(6));
  EXPECT_GE(world.server->stats().recovered, 1u);

  // Orderly churn: every client disconnects; the server reaps everything.
  for (auto& client : world.clients) {
    ASSERT_TRUE(client->Disconnect().ok());
  }
  ASSERT_TRUE(world.PumpUntil(
      [&] {
        return world.server->active_connections() == 0 &&
               world.server->parked_sessions() == 0;
      },
      200000));

  // The audit: every registered pool slot is back in the free list on both
  // sides of the boundary. An orderly close (cio::Connection::Close) must
  // cancel the socket's L5 state, or the server leaks each closed
  // connection's armed receive slots.
  cio::L5Channel* server_l5 = world.server_node->l5();
  ASSERT_NE(server_l5, nullptr);
  EXPECT_EQ(server_l5->free_slots(), server_l5->queue_config().pool_slots);
  for (auto& client : world.clients) {
    cio::L5Channel* l5 = client->l5();
    ASSERT_NE(l5, nullptr);
    EXPECT_EQ(l5->free_slots(), l5->queue_config().pool_slots);
    EXPECT_EQ(client->sessions_retired(), 1u);
    EXPECT_EQ(client->recovery_stats().messages_lost, 0u);
  }
}

}  // namespace
