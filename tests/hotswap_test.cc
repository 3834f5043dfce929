// §3.2 "zero (re-)negotiation … does not fundamentally preclude live
// migration, as devices can be hot-swapped": mid-connection, the old L2
// device (and its entire shared region) is torn down and a fresh one with
// a NEW fixed configuration is attached. Nothing is negotiated; frames in
// flight are simply lost and TCP retransmission heals the gap. The test
// runs a TCP transfer across the swap and checks byte-exact delivery.

#include <gtest/gtest.h>

#include <memory>

#include "src/base/rng.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/stack.h"

namespace {

using ciobase::Buffer;
using namespace cio;  // NOLINT: test file

// A FramePort indirection so the stack can survive its port being replaced
// (the swap happens below the stack, like replugging a NIC).
class SwappablePort final : public cionet::FramePort {
 public:
  void Set(cionet::FramePort* port) { port_ = port; }
  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override {
    if (port_ == nullptr) {
      // Like frames hitting an unplugged NIC: nothing is accepted.
      return ciobase::Unavailable("no device attached");
    }
    return port_->SendFrames(frames);
  }
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override {
    if (port_ == nullptr) {
      batch.Clear();
      return ciobase::Unavailable("no device attached");
    }
    return port_->ReceiveFrames(batch, max_frames);
  }
  cionet::MacAddress mac() const override { return port_->mac(); }
  uint16_t mtu() const override { return port_ ? port_->mtu() : 1500; }

 private:
  cionet::FramePort* port_ = nullptr;
};

struct L2Instance {
  ciotee::TeeMemory memory;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<L2HostDevice> device;
  std::unique_ptr<L2Transport> transport;

  L2Instance(cionet::Fabric* fabric, ciobase::SimClock* clock,
             ciobase::CostModel* costs, L2Config config,
             const std::string& name) {
    L2Layout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    name);
    device = std::make_unique<L2HostDevice>(shared.get(), config, fabric,
                                            name, std::nullopt, nullptr,
                                            nullptr, clock);
    transport = std::make_unique<L2Transport>(shared.get(), config, costs,
                                              nullptr);
  }
};

TEST(HotSwap, TcpTransferSurvivesDeviceReplacement) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  cionet::Fabric fabric(&clock, 55);

  cionet::MacAddress mac_a = cionet::MacAddress::FromId(1);
  L2Config config_v1;
  config_v1.mac = mac_a;
  config_v1.ring_slots = 256;
  config_v1.positioning = DataPositioning::kInline;

  auto instance = std::make_unique<L2Instance>(&fabric, &clock, &costs,
                                               config_v1, "nic-v1");
  SwappablePort port;
  port.Set(instance->transport.get());

  cionet::DirectFabricPort peer_port(&fabric, "peer",
                                     cionet::MacAddress::FromId(2));
  cionet::NetStack::Config stack_config;
  stack_config.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
  cionet::NetStack::Config peer_config;
  peer_config.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 2);
  peer_config.seed = 2;
  cionet::NetStack stack(&port, &clock, stack_config);
  cionet::NetStack peer(&peer_port, &clock, peer_config);

  auto listener = peer.TcpListen(80);
  ASSERT_TRUE(listener.ok());
  auto client = stack.TcpConnect(peer_config.ip, 80);
  ASSERT_TRUE(client.ok());
  cionet::SocketId server{};

  auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      if (instance != nullptr) {
        instance->device->Poll();
      }
      stack.Poll();
      peer.Poll();
      if (instance != nullptr) {
        instance->device->Poll();
      }
      clock.Advance(10'000);
      if (!(server == cionet::SocketId{})) {
        continue;
      }
      auto accepted = peer.TcpAccept(*listener);
      if (accepted.ok()) {
        server = *accepted;
      }
    }
  };
  pump(100);
  ASSERT_FALSE(server == cionet::SocketId{});

  // Stream data; halfway through, rip the device out and replace it with a
  // v2 device using a DIFFERENT fixed configuration.
  ciobase::Rng rng(3);
  std::string data(120'000, '\0');
  for (auto& c : data) {
    c = static_cast<char>('a' + rng.NextBounded(26));
  }
  size_t offset = 0;
  std::string received;
  bool swapped = false;
  int detach_round = -1;
  for (int round = 0; round < 400'000 && received.size() < data.size();
       ++round) {
    if (offset < data.size()) {
      auto sent = stack.TcpSend(
          *client,
          ciobase::ByteSpan(
              reinterpret_cast<const uint8_t*>(data.data()) + offset,
              data.size() - offset));
      if (sent.ok()) {
        offset += *sent;
      }
    }
    if (!swapped && received.size() > data.size() / 3) {
      swapped = true;
      detach_round = round;
      // Replug downtime begins: tear v1 down entirely (fabric endpoint,
      // shared region, rings). Everything queued on it dies, and frames
      // the stack emits during the gap are dropped at the missing port —
      // like packets hitting an unplugged NIC. Only TCP retransmission
      // heals this; there is no protocol state to migrate or renegotiate.
      fabric.Detach(instance->device->endpoint());
      port.Set(nullptr);
      instance.reset();
    }
    if (detach_round >= 0 && round == detach_round + 500) {
      // Downtime over: deploy v2 with a different (still fixed) config.
      L2Config config_v2;
      config_v2.mac = mac_a;  // same identity on the network
      config_v2.ring_slots = 64;
      config_v2.positioning = DataPositioning::kSharedPool;
      instance = std::make_unique<L2Instance>(&fabric, &clock, &costs,
                                              config_v2, "nic-v2");
      port.Set(instance->transport.get());
    }
    pump(1);
    uint8_t buf[8192];
    auto got = peer.TcpReceive(server, buf);
    if (got.ok() && *got > 0) {
      received.append(reinterpret_cast<char*>(buf), *got);
    }
  }
  ASSERT_TRUE(swapped);
  EXPECT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
  // The swap cost retransmissions (frames died with the old device), but
  // no protocol-level renegotiation existed to get wedged in.
  auto stats = stack.GetTcpStats(*client);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->retransmissions, 0u);
}

TEST(HotSwap, DetachedEndpointStopsRouting) {
  ciobase::SimClock clock;
  cionet::Fabric fabric(&clock, 1, cionet::Fabric::Options{0, 0, 0, 9216});
  cionet::DirectFabricPort a(&fabric, "a", cionet::MacAddress::FromId(1));
  cionet::DirectFabricPort b(&fabric, "b", cionet::MacAddress::FromId(2));
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(2),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  ASSERT_TRUE(cionet::SendOne(a, frame).ok());
  EXPECT_TRUE(cionet::ReceiveOne(b).ok());
  fabric.Detach(b.endpoint());
  ASSERT_TRUE(cionet::SendOne(a, frame).ok());
  EXPECT_FALSE(cionet::ReceiveOne(b).ok());
  EXPECT_GT(fabric.stats().frames_dropped_unknown, 0u);
}

}  // namespace
