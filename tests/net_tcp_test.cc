// End-to-end tests for the TCP/IP stack over the simulated fabric:
// handshake, bidirectional transfer, bulk transfer under loss and
// reordering, graceful and abortive close, listener behavior, and
// parameterized sweeps over fabric conditions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/net/stack.h"
#include "tests/net_testing.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using ciobase::StringFromBytes;
using cionet::NetStack;
using cionet::SocketId;
using cionet::TcpState;
using ciotest::TwoHostWorld;

// Drives a connect/accept pair to ESTABLISHED; returns {client, server}.
std::pair<SocketId, SocketId> Establish(TwoHostWorld& world, uint16_t port) {
  auto listener = world.stack_b->TcpListen(port);
  EXPECT_TRUE(listener.ok());
  auto client = world.stack_a->TcpConnect(world.stack_b->ip(), port);
  EXPECT_TRUE(client.ok());
  SocketId server{};
  bool accepted = world.PumpUntil([&] {
    auto result = world.stack_b->TcpAccept(*listener);
    if (result.ok()) {
      server = *result;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(accepted);
  bool established = world.PumpUntil([&] {
    auto client_state = world.stack_a->GetTcpState(*client);
    auto server_state = world.stack_b->GetTcpState(server);
    return client_state.ok() && *client_state == TcpState::kEstablished &&
           server_state.ok() && *server_state == TcpState::kEstablished;
  });
  EXPECT_TRUE(established);
  return {*client, server};
}

// One direction of a transfer: `data` from `from`/`src` to `to`/`dst`.
struct Stream {
  NetStack& from;
  SocketId src;
  NetStack& to;
  SocketId dst;
  const std::string& data;
  size_t offset = 0;
  std::string received;
};

// Pumps until every stream's data has arrived; the streams move at once.
bool PumpStreams(TwoHostWorld& world, std::vector<Stream>& streams) {
  return world.PumpUntil(
      [&] {
        bool done = true;
        for (Stream& s : streams) {
          if (s.offset < s.data.size()) {
            auto sent = s.from.TcpSend(
                s.src, ciobase::ByteSpan(
                           reinterpret_cast<const uint8_t*>(s.data.data()) +
                               s.offset,
                           s.data.size() - s.offset));
            if (sent.ok()) {
              s.offset += *sent;
            }
          }
          uint8_t buf[4096];
          auto got = s.to.TcpReceive(s.dst, buf);
          if (got.ok() && *got > 0) {
            s.received.append(reinterpret_cast<char*>(buf), *got);
          }
          done = done && s.received.size() == s.data.size();
        }
        return done;
      },
      200000);
}

// Sends `data` from `from`/`src` to `to`/`dst` and returns what arrived.
std::string Transfer(TwoHostWorld& world, NetStack& from, SocketId src,
                     NetStack& to, SocketId dst, const std::string& data) {
  std::vector<Stream> streams{{from, src, to, dst, data, 0, {}}};
  PumpStreams(world, streams);
  return streams[0].received;
}

TEST(TcpHandshake, EstablishesBothSides) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  auto client_state = world.stack_a->GetTcpState(client);
  auto server_state = world.stack_b->GetTcpState(server);
  ASSERT_TRUE(client_state.ok());
  ASSERT_TRUE(server_state.ok());
  EXPECT_EQ(*client_state, TcpState::kEstablished);
  EXPECT_EQ(*server_state, TcpState::kEstablished);
}

TEST(TcpHandshake, ConnectToClosedPortFails) {
  TwoHostWorld world;
  auto client = world.stack_a->TcpConnect(world.stack_b->ip(), 9999);
  ASSERT_TRUE(client.ok());
  bool closed = world.PumpUntil([&] {
    auto state = world.stack_a->GetTcpState(*client);
    return state.ok() && *state == TcpState::kClosed;
  });
  EXPECT_TRUE(closed);  // RST from the peer kills the attempt
}

TEST(TcpTransfer, SmallMessage) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  std::string received = Transfer(world, *world.stack_a, client,
                                  *world.stack_b, server, "hello tcp");
  EXPECT_EQ(received, "hello tcp");
}

TEST(TcpTransfer, Bidirectional) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  std::string to_server = Transfer(world, *world.stack_a, client,
                                   *world.stack_b, server, "ping");
  std::string to_client = Transfer(world, *world.stack_b, server,
                                   *world.stack_a, client, "pong");
  EXPECT_EQ(to_server, "ping");
  EXPECT_EQ(to_client, "pong");
}

TEST(TcpTransfer, BulkLargerThanWindows) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  ciobase::Rng rng(7);
  std::string data(512 * 1024, '\0');
  for (auto& c : data) {
    c = static_cast<char>('a' + rng.NextBounded(26));
  }
  std::string received = Transfer(world, *world.stack_a, client,
                                  *world.stack_b, server, data);
  EXPECT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
}

// Each side's data segments acknowledge the other's snd_una. Counted as
// duplicate ACKs they would fire fast retransmits and halve cwnd on a
// fabric that drops and reorders nothing.
TEST(TcpTransfer,
     ConcurrentBidirectionalBulkNeverRetransmitsOnALosslessFabric) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  const std::string a_to_b(64 * 1024, 'a');
  const std::string b_to_a(64 * 1024, 'b');
  std::vector<Stream> streams{
      {*world.stack_a, client, *world.stack_b, server, a_to_b, 0, {}},
      {*world.stack_b, server, *world.stack_a, client, b_to_a, 0, {}},
  };
  ASSERT_TRUE(PumpStreams(world, streams));
  for (const Stream& s : streams) {
    EXPECT_EQ(s.received, s.data);
    auto stats = s.from.GetTcpStats(s.src);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->retransmissions, 0u);
    EXPECT_EQ(stats->fast_retransmits, 0u);
  }
}

TEST(TcpTransfer, SegmentsLargerThanMss) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  std::string data(5000, 'x');  // > 3 MSS
  std::string received = Transfer(world, *world.stack_a, client,
                                  *world.stack_b, server, data);
  EXPECT_EQ(received, data);
}

TEST(TcpClose, GracefulBothDirections) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  ASSERT_TRUE(world.stack_a->TcpClose(client).ok());
  // Server sees EOF (orderly shutdown surfaces as kFailedPrecondition).
  bool eof = world.PumpUntil([&] {
    uint8_t buf[16];
    auto got = world.stack_b->TcpReceive(server, buf);
    return !got.ok() &&
           got.status().code() == ciobase::StatusCode::kFailedPrecondition;
  });
  EXPECT_TRUE(eof);
  ASSERT_TRUE(world.stack_b->TcpClose(server).ok());
  // Both connections wind down fully (client passes through TIME_WAIT).
  bool done = world.PumpUntil(
      [&] {
        auto state = world.stack_b->GetTcpState(server);
        return !state.ok() || *state == TcpState::kClosed;
      },
      400000);
  EXPECT_TRUE(done);
}

TEST(TcpClose, AbortSendsRst) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  ASSERT_TRUE(world.stack_a->TcpAbort(client).ok());
  bool reset = world.PumpUntil([&] {
    auto state = world.stack_b->GetTcpState(server);
    return !state.ok() || *state == TcpState::kClosed;
  });
  EXPECT_TRUE(reset);
}

TEST(TcpClose, DataBeforeFinIsDelivered) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  std::string data(40000, 'q');
  size_t offset = 0;
  // Queue everything, then close immediately: FIN must trail the data.
  world.PumpUntil([&] {
    auto sent = world.stack_a->TcpSend(
        client, ciobase::ByteSpan(
                    reinterpret_cast<const uint8_t*>(data.data()) + offset,
                    data.size() - offset));
    if (sent.ok()) {
      offset += *sent;
    }
    return offset == data.size();
  });
  ASSERT_TRUE(world.stack_a->TcpClose(client).ok());
  std::string received;
  bool eof = world.PumpUntil(
      [&] {
        uint8_t buf[4096];
        auto got = world.stack_b->TcpReceive(server, buf);
        if (!got.ok()) {
          // Orderly EOF only once all queued data has been drained.
          return got.status().code() ==
                 ciobase::StatusCode::kFailedPrecondition;
        }
        received.append(reinterpret_cast<char*>(buf), *got);
        return false;
      },
      200000);
  EXPECT_TRUE(eof);
  EXPECT_EQ(received, data);
}

TEST(TcpListener, MultipleSequentialClients) {
  TwoHostWorld world;
  auto listener = world.stack_b->TcpListen(7070);
  ASSERT_TRUE(listener.ok());
  for (int i = 0; i < 3; ++i) {
    auto client = world.stack_a->TcpConnect(world.stack_b->ip(), 7070);
    ASSERT_TRUE(client.ok());
    SocketId server{};
    ASSERT_TRUE(world.PumpUntil([&] {
      auto result = world.stack_b->TcpAccept(*listener);
      if (result.ok()) {
        server = *result;
        return true;
      }
      return false;
    }));
    std::string message = "client " + std::to_string(i);
    EXPECT_EQ(Transfer(world, *world.stack_a, *client, *world.stack_b, server,
                       message),
              message);
    EXPECT_TRUE(world.stack_a->TcpClose(*client).ok());
    EXPECT_TRUE(world.stack_b->TcpClose(server).ok());
    world.Pump(200);
  }
}

// --- Adverse network conditions (property-style sweep) ----------------------

struct FabricCase {
  double loss;
  double reorder;
  const char* name;
};

class TcpAdverseTest : public ::testing::TestWithParam<FabricCase> {};

TEST_P(TcpAdverseTest, BulkTransferSurvives) {
  cionet::Fabric::Options options;
  options.loss_probability = GetParam().loss;
  options.reorder_probability = GetParam().reorder;
  TwoHostWorld world(options);
  auto [client, server] = Establish(world, 8080);
  ciobase::Rng rng(99);
  std::string data(100 * 1024, '\0');
  for (auto& c : data) {
    c = static_cast<char>(rng.NextBounded(256));
  }
  std::string received = Transfer(world, *world.stack_a, client,
                                  *world.stack_b, server, data);
  ASSERT_EQ(received.size(), data.size())
      << "under " << GetParam().name;
  EXPECT_EQ(received, data) << "under " << GetParam().name;
  auto stats = world.stack_a->GetTcpStats(client);
  ASSERT_TRUE(stats.ok());
  if (GetParam().loss >= 0.05) {
    // At 5%+ loss over ~100 KiB the chance of losing no segment is
    // negligible; at 1% it is merely likely, so we don't assert there.
    EXPECT_GT(stats->retransmissions, 0u) << "loss must trigger retransmits";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, TcpAdverseTest,
    ::testing::Values(FabricCase{0.0, 0.0, "clean"},
                      FabricCase{0.01, 0.0, "loss1pct"},
                      FabricCase{0.05, 0.0, "loss5pct"},
                      FabricCase{0.0, 0.1, "reorder10pct"},
                      FabricCase{0.02, 0.05, "loss+reorder"}),
    [](const ::testing::TestParamInfo<FabricCase>& info) {
      std::string name = info.param.name;
      for (auto& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(TcpFlowControl, ReceiverStallOpensWindowLater) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  // Fill the receiver: send more than its 64 KiB receive buffer and do not
  // read. The sender must stall instead of losing data.
  std::string data(200 * 1024, 'z');
  size_t offset = 0;
  world.PumpUntil(
      [&] {
        auto sent = world.stack_a->TcpSend(
            client, ciobase::ByteSpan(
                        reinterpret_cast<const uint8_t*>(data.data()) + offset,
                        data.size() - offset));
        if (sent.ok()) {
          offset += *sent;
        }
        return offset == data.size();
      },
      5000);
  world.Pump(2000);
  // Now drain; every byte must arrive in order.
  std::string received;
  world.PumpUntil(
      [&] {
        uint8_t buf[8192];
        auto got = world.stack_b->TcpReceive(server, buf);
        if (got.ok() && *got > 0) {
          received.append(reinterpret_cast<char*>(buf), *got);
        }
        return received.size() == data.size();
      },
      400000);
  EXPECT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
}

TEST(TcpFuzz, RandomSegmentInjectionNeverCrashesOrCorrupts) {
  // An on-path attacker (or a buggy middlebox) injects syntactically valid
  // TCP segments with random seq/ack/flags/payload into an established
  // connection, interleaved with a real transfer. The stack must never
  // crash, and every byte the application receives must be bytes the peer
  // actually sent, in order.
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  ciobase::Rng rng(77);
  std::string data(30'000, '\0');
  for (auto& c : data) {
    c = static_cast<char>('A' + rng.NextBounded(26));
  }
  size_t offset = 0;
  std::string received;
  bool reset_seen = false;
  world.PumpUntil(
      [&] {
        // Inject a forged segment toward the server every few rounds.
        if (rng.NextBool(0.3)) {
          cionet::TcpHeader forged;
          forged.src_port = 49152;  // the client's ephemeral port
          forged.dst_port = 8080;
          forged.seq = rng.NextU32();
          forged.ack = rng.NextU32();
          forged.flags = static_cast<uint8_t>(rng.NextBounded(32));
          forged.window = static_cast<uint16_t>(rng.NextBounded(65536));
          ciobase::Buffer segment;
          forged.Serialize(segment);
          ciobase::Buffer junk = rng.Bytes(rng.NextBounded(100));
          ciobase::Append(segment, junk);
          uint16_t checksum = cionet::TransportChecksum(
              world.stack_a->ip(), world.stack_b->ip(), cionet::kIpProtoTcp,
              segment);
          ciobase::StoreBe16(segment.data() + 16, checksum);
          cionet::Ipv4Header ip;
          ip.protocol = cionet::kIpProtoTcp;
          ip.src = world.stack_a->ip();
          ip.dst = world.stack_b->ip();
          ip.total_length = static_cast<uint16_t>(
              cionet::kIpv4HeaderSize + segment.size());
          ciobase::Buffer frame;
          cionet::EthernetHeader eth{world.port_b->mac(),
                                     world.port_a->mac(),
                                     cionet::kEtherTypeIpv4};
          eth.Serialize(frame);
          ip.Serialize(frame);
          ciobase::Append(frame, segment);
          (void)world.fabric->Inject(world.port_a->endpoint(), frame);
        }
        if (offset < data.size()) {
          auto sent = world.stack_a->TcpSend(
              client, ciobase::ByteSpan(
                          reinterpret_cast<const uint8_t*>(data.data()) +
                              offset,
                          data.size() - offset));
          if (sent.ok()) {
            offset += *sent;
          } else {
            reset_seen = true;  // a forged RST/data killed the connection
          }
        }
        uint8_t buf[4096];
        auto got = world.stack_b->TcpReceive(server, buf);
        if (got.ok() && *got > 0) {
          received.append(reinterpret_cast<char*>(buf), *got);
        } else if (!got.ok() && got.status().code() !=
                                    ciobase::StatusCode::kUnavailable) {
          reset_seen = true;
        }
        return received.size() == data.size() || reset_seen;
      },
      400000);
  // Whatever arrived must be an exact prefix of what was sent — a forged
  // segment may kill the connection (blind-RST is in this attacker's
  // power) but must never corrupt the stream.
  ASSERT_LE(received.size(), data.size());
  EXPECT_EQ(received, data.substr(0, received.size()));
}

TEST(TcpStats, CountersAdvance) {
  TwoHostWorld world;
  auto [client, server] = Establish(world, 8080);
  Transfer(world, *world.stack_a, client, *world.stack_b, server,
           std::string(10000, 'k'));
  auto stats = world.stack_a->GetTcpStats(client);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->segments_sent, 0u);
  EXPECT_GT(stats->bytes_sent, 9000u);
  auto sstats = world.stack_b->GetTcpStats(server);
  ASSERT_TRUE(sstats.ok());
  EXPECT_EQ(sstats->bytes_received, 10000u);
}

}  // namespace
