// Multi-tenant confidential server: connection table, Session reuse,
// admission control, fair scheduling, and recovery under a mid-transfer
// fault with many clients in flight.
//
//   * cio::Session units: framing round trip, exactly-once accounting,
//     resend-window replay + dedup — the machinery both the engine and
//     every server connection share.
//   * Lifecycle: handshaking -> established -> draining -> closed, echo
//     across many concurrent clients on every Figure-5 profile corner.
//   * Admission: the 65th connection is refused with an abortive RST; the
//     probing client fails typed, the table never exceeds its cap.
//   * Backpressure: Send beyond the queue budget returns
//     kResourceExhausted; nothing grows without bound.
//   * Fairness: with one hot client flooding, deficit round-robin keeps
//     the other clients' echoes flowing; an idle transport takes a whole
//     backlog in one round, a full one is shared a quantum at a time.
//   * Recovery: a link-kill + stalled-counter window while >= 8 dual-
//     boundary clients are mid-transfer; every message is delivered
//     exactly once (zero lost) after the herd reconnects.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/serve/harness.h"
#include "tests/residency.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using cio::StackProfile;
using namespace cioserve;  // NOLINT: test file

std::string ToString(const Buffer& buffer) {
  return std::string(reinterpret_cast<const char*>(buffer.data()),
                     buffer.size());
}

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

// Frames a dual-boundary node published to its L2 TX ring that the host
// has not taken yet.
uint64_t StrandedTxFrames(cio::ConfidentialNode& node) {
  const cio::L2Layout& layout = node.l2_transport()->layout();
  ciotee::SharedRegion* region = node.shared_region();
  return region->HostReadLe64(layout.TxProduced()) -
         region->HostReadLe64(layout.TxConsumed());
}

// --- cio::Session units ------------------------------------------------------

TEST(Session, PlaintextFramingRoundTripExactlyOnce) {
  cio::Session a(false, Buffer{}, 8);
  cio::Session b(false, Buffer{}, 8);
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(a.Established());

  ASSERT_TRUE(a.Send(BufferFromString("hello")).ok());
  ASSERT_TRUE(a.Send(BufferFromString("world")).ok());
  ASSERT_TRUE(b.Ingest(a.outbound()).ok());
  a.ConsumeOutbound(a.outbound().size());

  auto first = b.Receive();
  auto second = b.Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ToString(*first), "hello");
  EXPECT_EQ(ToString(*second), "world");
  EXPECT_FALSE(b.Receive().ok());
  EXPECT_EQ(b.stats().messages_received, 2u);
  EXPECT_EQ(b.stats().messages_lost, 0u);
}

TEST(Session, ReplayAfterResetDeliversOnceAndCountsDuplicates) {
  cio::Session tx(false, Buffer{}, 8);
  cio::Session rx(false, Buffer{}, 8);
  tx.Start(ciotls::TlsRole::kClient, 1);
  rx.Start(ciotls::TlsRole::kServer, 2);

  ASSERT_TRUE(tx.Send(BufferFromString("m1")).ok());
  ASSERT_TRUE(tx.Send(BufferFromString("m2")).ok());
  ASSERT_TRUE(rx.Ingest(tx.outbound()).ok());
  tx.ConsumeOutbound(tx.outbound().size());

  // The transport dies with nothing in flight; both ends reset, then the
  // sender replays its whole window.
  tx.ResetChannel();
  rx.ResetChannel();
  tx.Start(ciotls::TlsRole::kClient, 1);
  rx.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(tx.Replay().ok());
  ASSERT_TRUE(tx.Send(BufferFromString("m3")).ok());
  ASSERT_TRUE(rx.Ingest(tx.outbound()).ok());

  // m1/m2 arrive again but were already delivered: dedup'd, not re-queued.
  std::vector<std::string> delivered;
  for (;;) {
    auto message = rx.Receive();
    if (!message.ok()) {
      break;
    }
    delivered.push_back(ToString(*message));
  }
  EXPECT_EQ(delivered, (std::vector<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(rx.stats().messages_duplicate_dropped, 2u);
  EXPECT_EQ(rx.stats().messages_lost, 0u);
  EXPECT_EQ(tx.stats().messages_resent, 2u);
}

TEST(Session, HostileFramingIsTamperedNotRecoverable) {
  cio::Session rx(false, Buffer{}, 0);
  rx.Start(ciotls::TlsRole::kServer, 2);
  Buffer garbage;
  garbage.resize(16, 0xff);  // len field way over the message cap
  ciobase::Status status = rx.Ingest(garbage);
  EXPECT_EQ(status.code(), ciobase::StatusCode::kTampered);
}

// --- Lifecycle + echo across profiles ---------------------------------------

// The four Figure-5 corners the load harness drives.
std::vector<StackProfile> ServedProfiles() {
  return {StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
          StackProfile::kHardenedVirtio, StackProfile::kDualBoundary};
}

TEST(Server, ManyClientsEchoOnEveryProfile) {
  for (StackProfile profile : ServedProfiles()) {
    MultiClientWorld::Options options;
    options.profile = profile;
    options.num_clients = 12;
    options.seed = 91 + static_cast<uint64_t>(profile);
    MultiClientWorld world(options);
    ASSERT_TRUE(world.EstablishAll())
        << cio::StackProfileName(profile) << ": establishment";
    EXPECT_EQ(world.server->stats().accepted, 12u);
    EXPECT_EQ(world.server->active_connections(), 12u);

    // Every client sends 3 messages; every message must come back to the
    // client that sent it.
    for (size_t i = 0; i < world.clients.size(); ++i) {
      for (int m = 0; m < 3; ++m) {
        std::string payload =
            "client " + std::to_string(i) + " msg " + std::to_string(m);
        ASSERT_TRUE(
            world.clients[i]->SendMessage(BufferFromString(payload)).ok());
      }
    }
    std::vector<size_t> echoes(world.clients.size(), 0);
    std::vector<bool> ordered(world.clients.size(), true);
    ASSERT_TRUE(world.PumpUntil(
        [&] {
          world.EchoRound();
          size_t done = 0;
          for (size_t i = 0; i < world.clients.size(); ++i) {
            for (;;) {
              auto echo = world.clients[i]->ReceiveMessage();
              if (!echo.ok()) {
                break;
              }
              std::string expect = "client " + std::to_string(i) + " msg " +
                                   std::to_string(echoes[i]);
              ordered[i] = ordered[i] && ToString(*echo) == expect;
              ++echoes[i];
            }
            done += echoes[i] >= 3 ? 1 : 0;
          }
          return done == world.clients.size();
        },
        60000))
        << cio::StackProfileName(profile) << ": echo completion";
    for (size_t i = 0; i < world.clients.size(); ++i) {
      EXPECT_EQ(echoes[i], 3u) << cio::StackProfileName(profile);
      EXPECT_TRUE(ordered[i])
          << cio::StackProfileName(profile) << " client " << i
          << ": echoes out of order or corrupted";
    }
    EXPECT_EQ(world.server->stats().accepted, 12u);
    EXPECT_EQ(world.server->active_connections(), 12u);
  }
}

TEST(Server, DrainFlushesThenCloses) {
  MultiClientWorld::Options options;
  options.num_clients = 2;
  options.seed = 300;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 2u);

  // Queue a farewell, then drain: the message must still arrive before the
  // connection closes, and the draining connection must refuse new sends.
  ASSERT_TRUE(world.server->Send(conns[0], BufferFromString("bye")).ok());
  ASSERT_TRUE(world.server->Drain(conns[0]).ok());
  auto state = world.server->StateOf(conns[0]);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, ConnState::kDraining);
  EXPECT_EQ(world.server->Send(conns[0], BufferFromString("late")).code(),
            ciobase::StatusCode::kFailedPrecondition);

  bool got_bye = false;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto message = world.clients[0]->ReceiveMessage();
    if (message.ok()) {
      got_bye = ToString(*message) == "bye";
    }
    return got_bye && !world.server->StateOf(conns[0]).ok();
  }));
  EXPECT_TRUE(got_bye);
  EXPECT_EQ(world.server->active_connections(), 1u);
  EXPECT_GE(world.server->stats().closed, 1u);
  // The untouched neighbor still works.
  ASSERT_TRUE(world.server->Send(conns[1], BufferFromString("still on")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    return world.clients[1]->ReceiveMessage().ok();
  }));
}

TEST(Server, MessageSentRightBeforeDisconnectIsDelivered) {
  // A client's last message can arrive in the same drain as its FIN. The
  // server must deliver it, then finish its own side (flush, then FIN).
  for (StackProfile profile : cio::AllStackProfiles()) {
    for (size_t size : {size_t{100}, size_t{5000}, size_t{40000}}) {
      MultiClientWorld::Options options;
      options.profile = profile;
      options.num_clients = 1;
      options.seed = 700 + size + static_cast<uint64_t>(profile);
      MultiClientWorld world(options);
      const std::string arm = std::string(cio::StackProfileName(profile)) +
                              ", " + std::to_string(size) + " B";
      ASSERT_TRUE(world.EstablishAll()) << arm;
      const Buffer message = ciobase::Rng(size).Bytes(size);
      ASSERT_TRUE(world.clients[0]->SendMessage(message).ok()) << arm;
      ASSERT_TRUE(world.clients[0]->Disconnect().ok()) << arm;
      std::vector<Buffer> delivered;
      auto collect = [&] {
        for (auto incoming = world.server->Receive(); incoming.ok();
             incoming = world.server->Receive()) {
          delivered.push_back(incoming->message);
        }
      };
      EXPECT_TRUE(world.PumpUntil([&] {
        collect();
        return world.server->active_connections() == 0;
      }))
          << arm << ": the server never closed its side";
      collect();
      ASSERT_EQ(delivered.size(), 1u) << arm;
      EXPECT_EQ(delivered[0], message) << arm;
      EXPECT_EQ(world.clients[0]->sessions_retired(), 1u) << arm;
    }
  }
}

TEST(Server, ClientThatStopsReadingCannotPinADrainingConnection) {
  // The client disconnects with more queued to it than TCP can still push
  // into its receive buffer (64 KiB) and the server's send buffer
  // (256 KiB), and never reads its closed socket again. The server's flush
  // stalls, and on the L5 channel its sends stay in flight, so the FIN
  // can never go out; the drain deadline aborts the entry instead, which
  // frees its table slot and every pool slot it pinned.
  for (StackProfile profile : ServedProfiles()) {
    MultiClientWorld::Options options;
    options.profile = profile;
    options.num_clients = 1;
    options.server_config.max_send_queue_bytes = 1 << 20;
    options.seed = 820 + static_cast<uint64_t>(profile);
    MultiClientWorld world(options);
    const std::string arm(cio::StackProfileName(profile));
    ASSERT_TRUE(world.EstablishAll()) << arm;
    const ConnId conn = world.server->EstablishedConnections()[0];
    const Buffer chunk = ciobase::Rng(8).Bytes(16 << 10);
    for (int i = 0; i < 24; ++i) {  // 384 KiB
      ASSERT_TRUE(world.server->Send(conn, chunk).ok()) << arm;
    }
    ASSERT_TRUE(world.clients[0]->Disconnect().ok()) << arm;
    ASSERT_EQ(world.clients[0]->sessions_retired(), 1u) << arm;
    world.PumpUntil([] { return false; }, 100, 100'000);
    ASSERT_EQ(world.server->active_connections(), 1u)
        << arm << ": the backlog should still be draining";
    EXPECT_TRUE(world.PumpUntil(
        [&] { return world.server->active_connections() == 0; }, 40000,
        100'000))
        << arm << ": a stalled drain held its connection for good";
    EXPECT_EQ(world.server->parked_sessions(), 0u) << arm;
    if (cio::L5Channel* l5 = world.server_node->l5(); l5 != nullptr) {
      EXPECT_EQ(l5->free_slots(),
                world.server_node->config().l5_queue.pool_slots);
    }
  }
}

// --- Admission control + backpressure ---------------------------------------

TEST(Server, AdmissionRefusesBeyondCapWithTypedFailure) {
  MultiClientWorld::Options options;
  options.num_clients = 6;
  options.server_config.max_connections = 4;
  options.seed = 404;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  for (auto& client : world.clients) {
    ASSERT_TRUE(
        client->Connect(world.server_node->ip(), world.server->config().port)
            .ok());
  }
  // The herd races in; exactly max_connections win slots. Refused clients
  // see their connection die (abortive RST -> typed failure in the client
  // engine, which here burns its reconnect budget and fails cleanly).
  world.PumpUntil(
      [&] {
        size_t settled = 0;
        for (auto& client : world.clients) {
          settled += (client->Ready() || client->Failed()) ? 1 : 0;
        }
        return settled == world.clients.size() &&
               world.server->stats().rejected_admission >= 2;
      },
      120000);

  EXPECT_EQ(world.server->active_connections(), 4u);
  EXPECT_EQ(world.server->EstablishedConnections().size(), 4u);
  EXPECT_GE(world.server->stats().rejected_admission, 2u);
  size_t ready = 0;
  size_t failed = 0;
  for (auto& client : world.clients) {
    ready += client->Ready() ? 1 : 0;
    failed += client->Failed() ? 1 : 0;
  }
  EXPECT_EQ(ready, 4u);
  EXPECT_EQ(failed, 2u);
  // Admitted clients are unaffected by the refused herd.
  cio::ConfidentialNode* admitted = nullptr;
  for (auto& client : world.clients) {
    if (client->Ready()) {
      admitted = client.get();
      break;
    }
  }
  ASSERT_NE(admitted, nullptr);
  ASSERT_TRUE(admitted->SendMessage(BufferFromString("ping")).ok());
  ASSERT_TRUE(world.PumpUntil([&] {
    world.EchoRound();
    return admitted->ReceiveMessage().ok();
  }));
}

TEST(Server, SendQueueCapRejectsTyped) {
  MultiClientWorld::Options options;
  options.num_clients = 1;
  options.server_config.max_send_queue_bytes = 4096;
  options.seed = 550;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  ConnId conn = world.server->EstablishedConnections()[0];

  // Stuff the queue without pumping: beyond the byte budget the server
  // refuses with kResourceExhausted instead of growing.
  Buffer chunk;
  chunk.resize(1024, 0xab);
  bool saw_exhausted = false;
  for (int i = 0; i < 64 && !saw_exhausted; ++i) {
    ciobase::Status status = world.server->Send(conn, chunk);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), ciobase::StatusCode::kResourceExhausted);
      saw_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_exhausted);
  EXPECT_GE(world.server->stats().send_queue_rejections, 1u);
  // Backpressure is transient: once the queue drains, sends work again.
  ASSERT_TRUE(world.PumpUntil([&] {
    return world.server->Send(conn, BufferFromString("after")).ok();
  }));
}

TEST(Server, StartRefusesATableTheL5PoolCannotArm) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 1;
  options.seed = 560;
  MultiClientWorld probe(options);
  const size_t armable = probe.server_node->l5()->ArmableSockets();
  ASSERT_GT(armable, 0u);

  // One connection past what the pool can keep armed beside its send
  // reserve is a configuration error, not a slow wedge under load.
  options.server_config.max_connections = armable + 1;
  MultiClientWorld over(options);
  EXPECT_EQ(over.server->Start().code(),
            ciobase::StatusCode::kInvalidArgument);
  options.server_config.max_connections = armable;
  MultiClientWorld at_limit(options);
  EXPECT_TRUE(at_limit.server->Start().ok());
}

TEST(Server, EarlyIdleClientsDoNotStarveLaterConnections) {
  // Eight clients connect one at a time and go idle, so the server arms
  // each while few sockets share its L5 pool. Twelve more then connect and
  // echo: the idle connections must hand back what they armed beyond the
  // smaller share, or the late handshakes are never read.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 20;
  options.seed = 2020;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.server->Start().ok());
  const uint16_t port = world.server->config().port;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(world.clients[i]->Connect(world.server_node->ip(), port).ok());
    ASSERT_TRUE(world.PumpUntil([&] {
      return world.clients[i]->Ready() &&
             world.server->EstablishedConnections().size() == i + 1;
    })) << "idle client " << i;
  }
  world.PumpUntil([] { return false; }, 50);
  for (size_t i = 8; i < world.clients.size(); ++i) {
    ASSERT_TRUE(world.clients[i]->Connect(world.server_node->ip(), port).ok());
  }
  ASSERT_TRUE(world.PumpUntil([&] {
    for (size_t i = 8; i < world.clients.size(); ++i) {
      if (!world.clients[i]->Ready()) {
        return false;
      }
    }
    return world.server->EstablishedConnections().size() ==
           world.clients.size();
  })) << "late handshakes never read";

  std::vector<size_t> echoes(world.clients.size(), 0);
  for (size_t i = 8; i < world.clients.size(); ++i) {
    for (int m = 0; m < 3; ++m) {
      ASSERT_TRUE(world.clients[i]
                      ->SendMessage(BufferFromString(
                          "late " + std::to_string(i) + "/" +
                          std::to_string(m)))
                      .ok());
    }
  }
  ASSERT_TRUE(world.PumpUntil([&] {
    world.EchoRound();
    size_t done = 0;
    for (size_t i = 8; i < world.clients.size(); ++i) {
      for (;;) {
        auto echo = world.clients[i]->ReceiveMessage();
        if (!echo.ok()) {
          break;
        }
        EXPECT_EQ(ToString(*echo), "late " + std::to_string(i) + "/" +
                                       std::to_string(echoes[i]));
        ++echoes[i];
      }
      done += echoes[i] == 3 ? 1 : 0;
    }
    return done == world.clients.size() - 8;
  })) << "late clients' echoes never came back";
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(world.clients[i]->Ready()) << "idle client " << i;
  }
}

// --- Host memory ------------------------------------------------------------

// The L5 queue region (SQ, CQ and the 160-slot pool) sits on demand-zero
// pages, and the pool hands out its most recently freed slot first: after
// establishment and a few echoes a client has made under a quarter of its
// region resident.
TEST(Server, ClientQueueRegionIsMostlyNeverTouched) {
  MultiClientWorld::Options options;
  options.num_clients = 1;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  cio::ConfidentialNode& client = *world.clients[0];
  constexpr size_t kMessages = 8;
  for (size_t m = 0; m < kMessages; ++m) {
    ASSERT_TRUE(client.SendMessage(Buffer(512, static_cast<uint8_t>(m))).ok());
  }
  size_t echoes = 0;
  ASSERT_TRUE(world.PumpUntil([&] {
    world.EchoRound();
    while (client.ReceiveMessage().ok()) {
      ++echoes;
    }
    return echoes == kMessages;
  }));
  const ciobase::ByteSpan region = client.l5()->queue_region_for_test();
  ASSERT_GT(region.size(), 0u);
  const size_t resident =
      ciotest::ResidentPages(region).size() * ciotest::PageBytes();
  EXPECT_LT(resident * 4, region.size())
      << resident << " of " << region.size() << " B resident";
}

// --- Fleet bring-up ---------------------------------------------------------

TEST(Server, BringUpHandsEachClientOnlyTheServersArpReply) {
  // Every client ARPs once for the server. The fabric hands each request to
  // the server alone, so the clients receive the server's 16 replies and
  // none of each other's requests (flooded, they would add 16 x 15).
  MultiClientWorld::Options options;
  options.num_clients = 16;
  MultiClientWorld world(options);
  world.fabric->EnableCapture(true);
  ASSERT_TRUE(world.EstablishAll());
  const cionet::MacAddress server_mac = cionet::MacAddress::FromId(1);
  std::optional<cionet::EndpointId> server;
  size_t arp_to_server = 0;
  size_t arp_to_clients = 0;
  for (const cionet::Fabric::CapturedFrame& captured :
       world.fabric->capture()) {
    auto eth = cionet::EthernetHeader::Parse(captured.frame);
    ASSERT_TRUE(eth.ok());
    if (eth->src == server_mac) {
      server = captured.from;
    }
  }
  ASSERT_TRUE(server.has_value());
  for (const cionet::Fabric::CapturedFrame& captured :
       world.fabric->capture()) {
    if (cionet::EthernetHeader::Parse(captured.frame)->ether_type ==
        cionet::kEtherTypeArp) {
      ++(captured.to == *server ? arp_to_server : arp_to_clients);
    }
  }
  EXPECT_EQ(arp_to_server, 16u);
  EXPECT_EQ(arp_to_clients, 16u);
}

// --- Round cost -------------------------------------------------------------

TEST(Server, IdleRoundCostDoesNotGrowWithClientCount) {
  // One server Poll() over an idle, attested fleet: the round's L5 cost is
  // one receive doorbell, however many connections the table holds — no
  // per-connection readiness crossing, and no accept crossing either (the
  // doorbell returned the empty backlog's count).
  auto round_cost = [](size_t clients) {
    MultiClientWorld::Options options;
    options.profile = StackProfile::kDualBoundary;
    options.num_clients = clients;
    options.seed = 1616;
    options.attestation_key = BufferFromString("idle-fleet-attestation-root");
    MultiClientWorld world(options);
    EXPECT_TRUE(world.EstablishAll(120000)) << clients << " clients";
    EXPECT_EQ(world.server->EstablishedConnections().size(), clients);
    world.PumpUntil([] { return false; }, 200);  // let the handshakes settle
    const cio::L5Channel::Stats before = world.server_node->l5()->stats();
    world.server->Poll();
    const cio::L5Channel::Stats& after = world.server_node->l5()->stats();
    return std::pair<uint64_t, uint64_t>{after.crossings - before.crossings,
                                         after.doorbells - before.doorbells};
  };
  const auto small = round_cost(16);
  const auto large = round_cost(64);
  EXPECT_EQ(small.second, 1u);  // one receive doorbell for the whole table
  EXPECT_EQ(small.first, 1u);   // and it is the round's only crossing
  EXPECT_EQ(small, large);
}

TEST(Server, EgressDoorbellTransmitsInTheRoundItRings) {
  // FlushOutbound rings the egress doorbell at the end of Poll(). The polled
  // L2 host takes the frames at that publish, so one Poll() after a Send
  // puts the message on the fabric instead of leaving it in the TX ring
  // for the next round.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 2;
  options.seed = 1414;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  world.PumpUntil([] { return false; }, 100);  // let the handshakes settle
  std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 2u);
  ASSERT_EQ(StrandedTxFrames(*world.server_node), 0u);
  const uint64_t routed = world.fabric->stats().bytes_routed;
  const Buffer message(1200, 0x5a);
  ASSERT_TRUE(world.server->Send(conns[0], message).ok());
  world.server->Poll();
  EXPECT_EQ(StrandedTxFrames(*world.server_node), 0u);
  EXPECT_GE(world.fabric->stats().bytes_routed - routed, message.size());
}

TEST(Server, ClientSendBetweenRoundsArrivesInTheNextRound) {
  // A client's first send after its Poll() rings its doorbell at once, so
  // with a zero-latency fabric the server harvests the message in the very
  // next round instead of waiting for the client's own Poll() to ring it.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 2;
  options.seed = 1717;
  options.fabric_options.latency_ns = 0;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  world.PumpUntil([] { return false; }, 100);  // let the handshakes settle
  ASSERT_FALSE(world.server->Receive().ok());
  const Buffer message(300, 0x3c);
  ASSERT_TRUE(world.clients[1]->SendMessage(message).ok());
  world.Pump();
  auto incoming = world.server->Receive();
  ASSERT_TRUE(incoming.ok());
  EXPECT_EQ(incoming->message, message);
}

// --- Fairness ---------------------------------------------------------------

TEST(Server, BacklogLeavesInOnePollWhenTheTransportHasRoom) {
  // Deficit round-robin is work-conserving: with the transport idle, one
  // Poll() hands a 16 KiB reply over in full instead of one quantum.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 1;
  options.seed = 1818;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  world.PumpUntil([] { return false; }, 100);  // let the handshakes settle
  const ConnId conn = world.server->EstablishedConnections()[0];
  const Buffer reply(16384, 0x6b);
  ASSERT_TRUE(world.server->Send(conn, reply).ok());
  world.Pump();
  EXPECT_FALSE(world.server->SessionOf(conn)->HasOutbound());
  ASSERT_TRUE(world.PumpUntil([&] {
    auto message = world.clients[0]->ReceiveMessage();
    return message.ok() && *message == reply;
  }));
}

TEST(Server, DrrSharesTheTransportWhenItPushesBack) {
  // Three full send queues are more than the L5 egress slots and the SQ
  // take in one doorbell, so the pass that meets pushback ends the round:
  // no connection is more than one quantum ahead of another.
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 3;
  options.seed = 1919;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  world.PumpUntil([] { return false; }, 100);  // let the handshakes settle
  const std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 3u);
  const Buffer chunk(4000, 0x7e);
  std::vector<size_t> queued;
  for (ConnId conn : conns) {
    while (world.server->Send(conn, chunk).ok()) {
    }
    queued.push_back(world.server->SessionOf(conn)->outbound().size());
  }
  world.Pump();
  std::vector<size_t> handed;
  for (size_t i = 0; i < conns.size(); ++i) {
    const cio::Session* session = world.server->SessionOf(conns[i]);
    EXPECT_TRUE(session->HasOutbound()) << "no pushback on connection " << i;
    handed.push_back(queued[i] - session->outbound().size());
    EXPECT_GT(handed.back(), 0u) << "connection " << i << " starved";
  }
  const auto [fewest, most] = std::minmax_element(handed.begin(), handed.end());
  EXPECT_LE(*most - *fewest, ConfidentialServer::kDrrQuantumBytes);
}

TEST(Server, HotClientCannotStarveTheQuiet) {
  MultiClientWorld::Options options;
  options.num_clients = 5;
  options.seed = 660;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());
  std::vector<ConnId> conns = world.server->EstablishedConnections();
  ASSERT_EQ(conns.size(), 5u);

  // Connection 0 is hot: the server floods it with large messages every
  // round. The others each await one small echo-critical message; DRR must
  // get those out long before the hot backlog drains.
  Buffer flood;
  flood.resize(8192, 0x5a);
  for (size_t i = 1; i < conns.size(); ++i) {
    ASSERT_TRUE(
        world.server
            ->Send(conns[i], BufferFromString("quiet " + std::to_string(i)))
            .ok());
  }
  size_t quiet_delivered = 0;
  int rounds_to_quiet = -1;
  for (int round = 0; round < 20000 && quiet_delivered < 4; ++round) {
    (void)world.server->Send(conns[0], flood);  // keep the hot queue full
    world.Pump();
    for (size_t i = 1; i < world.clients.size(); ++i) {
      if (world.clients[i]->ReceiveMessage().ok()) {
        ++quiet_delivered;
      }
    }
    rounds_to_quiet = round;
  }
  EXPECT_EQ(quiet_delivered, 4u)
      << "quiet clients starved behind the hot one";
  EXPECT_LT(rounds_to_quiet, 2000);
}

// --- Recovery under fault with a herd in flight ------------------------------

TEST(Server, FaultWindowWithEightClientsMidTransferZeroLost) {
  MultiClientWorld::Options options;
  options.profile = StackProfile::kDualBoundary;
  options.num_clients = 8;
  options.seed = 777;
  options.server_config.reattach_timeout_ns = 2'000'000'000;
  MultiClientWorld world(options);
  ASSERT_TRUE(world.EstablishAll());

  const int kMessages = 6;
  std::vector<int> sent(world.clients.size(), 0);
  std::vector<int> echoed(world.clients.size(), 0);
  std::vector<bool> ordered(world.clients.size(), true);
  auto pump_once = [&] {
    world.Pump();
    world.EchoRound();
    for (size_t i = 0; i < world.clients.size(); ++i) {
      for (;;) {
        auto echo = world.clients[i]->ReceiveMessage();
        if (!echo.ok()) {
          break;
        }
        std::string expect = Tag(i, echoed[i]);
        ordered[i] = ordered[i] && ToString(*echo) == expect;
        ++echoed[i];
      }
    }
  };
  auto offer_all = [&](int count) {
    // Every client keeps offering until the (possibly reconnecting)
    // channel accepts; interleaved so all 8 are genuinely concurrent.
    for (int m = 0; m < count; ++m) {
      for (size_t i = 0; i < world.clients.size(); ++i) {
        for (int round = 0; round < 60000; ++round) {
          std::string payload = Tag(i, sent[i]);
          if (world.clients[i]->Ready() &&
              world.clients[i]->SendMessage(BufferFromString(payload)).ok()) {
            ++sent[i];
            break;
          }
          pump_once();
        }
      }
      pump_once();
    }
  };

  offer_all(2);  // everyone mid-transfer

  // The hostile host kills the SERVER's link for 12 ms (past the TCP retry
  // budget: every connection dies at once), then later stalls its
  // counters. All 8 clients must reconnect; the server reattaches each
  // parked session; replay + dedup keep delivery exactly-once.
  uint64_t fault_start = world.clock.now_ns();
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, fault_start, 12'000'000});
  offer_all(2);
  world.server_node->adversary().InjectFault(
      {ciohost::FaultStrategy::kStallCounters, world.clock.now_ns(),
       2'000'000});
  offer_all(kMessages - 4);

  ASSERT_TRUE(world.PumpUntil(
      [&] {
        world.EchoRound();
        for (size_t i = 0; i < world.clients.size(); ++i) {
          for (;;) {
            auto echo = world.clients[i]->ReceiveMessage();
            if (!echo.ok()) {
              break;
            }
            std::string expect = Tag(i, echoed[i]);
            ordered[i] = ordered[i] && ToString(*echo) == expect;
            ++echoed[i];
          }
          if (echoed[i] < kMessages || !world.clients[i]->Ready()) {
            return false;
          }
        }
        return true;
      },
      120000))
      << "herd did not fully recover";

  for (size_t i = 0; i < world.clients.size(); ++i) {
    EXPECT_EQ(sent[i], kMessages);
    EXPECT_EQ(echoed[i], kMessages) << "client " << i;
    EXPECT_TRUE(ordered[i]) << "client " << i << " echoes corrupted";
    EXPECT_EQ(world.clients[i]->recovery_stats().messages_lost, 0u);
    EXPECT_FALSE(world.clients[i]->Failed());
  }
  // The fault actually bit and the server actually recovered sessions.
  EXPECT_GT(world.server_node->adversary().fault_events(), 0u);
  EXPECT_GE(world.server->stats().recovered, 1u);
  // No message the server's sessions reassembled was lost either.
  EXPECT_EQ(world.server->active_connections(), 8u);
}

}  // namespace
