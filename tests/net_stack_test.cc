// Integration tests for the NetStack beyond TCP: UDP datagrams, ARP
// resolution through the stack, IP fragmentation of large UDP payloads,
// fabric loss behavior for datagrams and its ARP suppression, port
// allocation, and the stack's defensive counters against malformed input.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/net/arp.h"
#include "src/net/stack.h"
#include "tests/net_testing.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using cionet::SocketId;
using ciotest::TwoHostWorld;

TEST(UdpStack, DatagramRoundTrip) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(socket_a.ok());
  ASSERT_TRUE(socket_b.ok());
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("datagram one"))
                  .ok());
  cionet::UdpMessage message;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto received = world.stack_b->UdpReceive(*socket_b);
    if (received.ok()) {
      message = *received;
      return true;
    }
    return false;
  }));
  EXPECT_EQ(ciobase::StringFromBytes(message.payload), "datagram one");
  EXPECT_EQ(message.src_ip, world.stack_a->ip());
  EXPECT_EQ(message.src_port, 5000);
  // Reply to the sender address.
  ASSERT_TRUE(world.stack_b
                  ->UdpSendTo(*socket_b, message.src_ip, message.src_port,
                              BufferFromString("reply"))
                  .ok());
  ASSERT_TRUE(world.PumpUntil(
      [&] { return world.stack_a->UdpReceive(*socket_a).ok(); }));
}

TEST(UdpStack, LargeDatagramFragmentsAndReassembles) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ciobase::Rng rng(4);
  Buffer big = rng.Bytes(9000);  // > 6 fragments at MTU 1500
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000, big)
                  .ok());
  cionet::UdpMessage message;
  ASSERT_TRUE(world.PumpUntil([&] {
    auto received = world.stack_b->UdpReceive(*socket_b);
    if (received.ok()) {
      message = *received;
      return true;
    }
    return false;
  }));
  EXPECT_EQ(message.payload, big);
}

TEST(UdpStack, OversizedPayloadRejected) {
  TwoHostWorld world;
  auto socket = world.stack_a->UdpOpen(5000);
  Buffer way_too_big(70000, 1);
  EXPECT_FALSE(world.stack_a
                   ->UdpSendTo(*socket, world.stack_b->ip(), 6000,
                               way_too_big)
                   .ok());
}

TEST(UdpStack, UnknownPortDropsAndCounts) {
  TwoHostWorld world;
  auto socket = world.stack_a->UdpOpen(5000);
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket, world.stack_b->ip(), 4242,
                              BufferFromString("nobody home"))
                  .ok());
  world.Pump(50);
  EXPECT_GT(world.stack_b->stats().no_socket_drops, 0u);
}

TEST(UdpStack, PortCollisionRefused) {
  TwoHostWorld world;
  ASSERT_TRUE(world.stack_a->UdpOpen(5000).ok());
  EXPECT_FALSE(world.stack_a->UdpOpen(5000).ok());
  // Ephemeral allocation avoids the taken port.
  auto ephemeral = world.stack_a->UdpOpen(0);
  ASSERT_TRUE(ephemeral.ok());
}

TEST(UdpStack, CloseStopsDelivery) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(world.stack_b->UdpClose(*socket_b).ok());
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("late"))
                  .ok());
  world.Pump(50);
  EXPECT_FALSE(world.stack_b->UdpReceive(*socket_b).ok());
}

TEST(StackArp, ResolutionHappensOnceThenCaches) {
  TwoHostWorld world;
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  (void)socket_b;
  // First datagram triggers ARP; several more reuse the cache.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(world.stack_a
                    ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                                BufferFromString("x"))
                    .ok());
    world.Pump(20);
  }
  // Exactly one ARP request/reply pair from A's perspective.
  EXPECT_EQ(world.stack_a->stats().arp_rx, 1u);   // one reply
  EXPECT_GE(world.stack_b->stats().arp_rx, 1u);   // the request (broadcast)
}

TEST(StackRobustness, GarbageFramesOnlyBumpCounters) {
  TwoHostWorld world;
  ciobase::Rng rng(6);
  // Inject random garbage addressed to stack B directly via the fabric.
  for (int i = 0; i < 200; ++i) {
    Buffer frame;
    cionet::EthernetHeader eth{world.port_b->mac(), world.port_a->mac(),
                               static_cast<uint16_t>(
                                   i % 2 == 0 ? cionet::kEtherTypeIpv4
                                              : 0x1234)};
    eth.Serialize(frame);
    ciobase::Append(frame, rng.Bytes(rng.NextBounded(100)));
    (void)world.fabric->Inject(world.port_a->endpoint(), frame);
    world.Pump(2);
  }
  // The stack is still alive and usable.
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  ASSERT_TRUE(world.stack_a
                  ->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                              BufferFromString("still alive"))
                  .ok());
  ASSERT_TRUE(world.PumpUntil(
      [&] { return world.stack_b->UdpReceive(*socket_b).ok(); }));
  EXPECT_GT(world.stack_b->stats().parse_errors, 0u);
}

TEST(StackRobustness, CorruptedTcpChecksumDropped) {
  TwoHostWorld world;
  // Build a syntactically valid IPv4+TCP frame with a bad TCP checksum.
  cionet::TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  tcp.flags = cionet::kTcpFlagSyn;
  Buffer segment;
  tcp.Serialize(segment);
  ciobase::StoreBe16(segment.data() + 16, 0xdead);  // wrong checksum
  cionet::Ipv4Header ip;
  ip.protocol = cionet::kIpProtoTcp;
  ip.src = world.stack_a->ip();
  ip.dst = world.stack_b->ip();
  ip.total_length =
      static_cast<uint16_t>(cionet::kIpv4HeaderSize + segment.size());
  Buffer frame;
  cionet::EthernetHeader eth{world.port_b->mac(), world.port_a->mac(),
                             cionet::kEtherTypeIpv4};
  eth.Serialize(frame);
  ip.Serialize(frame);
  ciobase::Append(frame, segment);
  (void)world.fabric->Inject(world.port_a->endpoint(), frame);
  world.Pump(20);
  EXPECT_GT(world.stack_b->stats().checksum_errors, 0u);
  EXPECT_EQ(world.stack_b->stats().rst_sent, 0u);  // dropped, not answered
}

TEST(Fabric, LossAndCaptureAccounting) {
  cionet::Fabric::Options options;
  options.loss_probability = 0.5;
  TwoHostWorld world(options);
  world.fabric->EnableCapture(true);
  auto socket_a = world.stack_a->UdpOpen(5000);
  auto socket_b = world.stack_b->UdpOpen(6000);
  (void)socket_b;
  for (int i = 0; i < 100; ++i) {
    (void)world.stack_a->UdpSendTo(*socket_a, world.stack_b->ip(), 6000,
                                   BufferFromString("lossy"));
    // Long steps: ARP requests are lossy too and retry on a 100 ms backoff.
    world.Pump(3, 50'000'000);
  }
  const auto& stats = world.fabric->stats();
  EXPECT_GT(stats.frames_dropped_loss, 10u);
  EXPECT_GT(stats.frames_routed, 10u);
  EXPECT_EQ(world.fabric->capture().size(), stats.frames_routed);
}

TEST(Fabric, UnknownUnicastDropped) {
  ciobase::SimClock clock;
  cionet::Fabric fabric(&clock, 1);
  cionet::DirectFabricPort port(&fabric, "only",
                                cionet::MacAddress::FromId(1));
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(99),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  EXPECT_TRUE(cionet::SendOne(port, frame).ok());
  EXPECT_EQ(fabric.stats().frames_dropped_unknown, 1u);
}

TEST(Fabric, BroadcastFloodsAllOthers) {
  ciobase::SimClock clock;
  cionet::Fabric fabric(&clock, 1, cionet::Fabric::Options{0, 0, 0, 9216});
  cionet::DirectFabricPort a(&fabric, "a", cionet::MacAddress::FromId(1));
  cionet::DirectFabricPort b(&fabric, "b", cionet::MacAddress::FromId(2));
  cionet::DirectFabricPort c(&fabric, "c", cionet::MacAddress::FromId(3));
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::Broadcast(),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  ASSERT_TRUE(cionet::SendOne(a, frame).ok());
  EXPECT_TRUE(cionet::ReceiveOne(b).ok());
  EXPECT_TRUE(cionet::ReceiveOne(c).ok());
  EXPECT_FALSE(cionet::ReceiveOne(a).ok());  // not echoed to the sender
}

cionet::Ipv4Address HostIp(uint8_t host) {
  return cionet::Ipv4Address::FromOctets(10, 0, 0, host);
}

// Three ports on one lossless segment, bound to 10.0.0.1, .2 and .3.
struct ArpSegment {
  ciobase::SimClock clock;
  cionet::Fabric fabric{&clock, 1, cionet::Fabric::Options{0, 0, 0, 9216}};
  cionet::DirectFabricPort a{&fabric, "a", cionet::MacAddress::FromId(1),
                             HostIp(1)};
  cionet::DirectFabricPort b{&fabric, "b", cionet::MacAddress::FromId(2),
                             HostIp(2)};
  cionet::DirectFabricPort c{&fabric, "c", cionet::MacAddress::FromId(3),
                             HostIp(3)};

  // a's broadcast ARP request for `target`.
  Buffer RequestFromA(cionet::Ipv4Address target) {
    return cionet::ArpCache(&clock, a.mac(), HostIp(1))
        .MakeRequestFrame(target);
  }
};

TEST(Fabric, ArpRequestReachesOnlyTheEndpointBoundToItsTarget) {
  ArpSegment segment;
  ASSERT_TRUE(cionet::SendOne(segment.a, segment.RequestFromA(HostIp(3))).ok());
  EXPECT_TRUE(cionet::ReceiveOne(segment.c).ok());
  EXPECT_FALSE(cionet::ReceiveOne(segment.b).ok());
  EXPECT_FALSE(cionet::ReceiveOne(segment.a).ok());
  EXPECT_EQ(segment.fabric.stats().frames_routed, 1u);
}

TEST(Fabric, ArpRequestForAnUnboundAddressFloods) {
  ArpSegment segment;
  // No endpoint is bound to .9, and only the sender is bound to .1.
  for (uint8_t target : {9, 1}) {
    ASSERT_TRUE(
        cionet::SendOne(segment.a, segment.RequestFromA(HostIp(target))).ok());
    EXPECT_TRUE(cionet::ReceiveOne(segment.b).ok()) << int{target};
    EXPECT_TRUE(cionet::ReceiveOne(segment.c).ok()) << int{target};
    EXPECT_FALSE(cionet::ReceiveOne(segment.a).ok()) << int{target};
  }
}

TEST(Fabric, HotSwappedEndpointReceivesTheRequestsForItsAddress) {
  ArpSegment segment;
  segment.fabric.Detach(segment.c.endpoint());
  // Detached, c no longer owns .3: a request for it floods to b.
  ASSERT_TRUE(cionet::SendOne(segment.a, segment.RequestFromA(HostIp(3))).ok());
  EXPECT_TRUE(cionet::ReceiveOne(segment.b).ok());
  cionet::DirectFabricPort replacement(&segment.fabric, "c2",
                                       cionet::MacAddress::FromId(3),
                                       HostIp(3));
  ASSERT_TRUE(cionet::SendOne(segment.a, segment.RequestFromA(HostIp(3))).ok());
  EXPECT_TRUE(cionet::ReceiveOne(replacement).ok());
  EXPECT_FALSE(cionet::ReceiveOne(segment.b).ok());
  EXPECT_FALSE(cionet::ReceiveOne(segment.c).ok());
}

TEST(TcpStack, ListenerBacklogOverflowRefusesTypedAndCounts) {
  // Host B's listener holds at most 2 pending connections; 5 SYNs race in
  // with nobody accepting. The overflow must be refused with a RST (typed
  // kLinkReset at the client), counted, and must never grow the queue.
  TwoHostWorld world({}, /*accept_backlog_b=*/2);
  auto listener = world.stack_b->TcpListen(80);
  ASSERT_TRUE(listener.ok());
  std::vector<SocketId> conns;
  for (int i = 0; i < 5; ++i) {
    auto conn = world.stack_a->TcpConnect(world.stack_b->ip(), 80);
    ASSERT_TRUE(conn.ok());
    conns.push_back(*conn);
  }
  world.Pump(500);

  EXPECT_EQ(world.stack_b->stats().accept_overflows, 3u);
  auto pending = world.stack_b->TcpAcceptPending(*listener);
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(*pending, 2u);  // bounded: never grew past the backlog

  // Clients: 2 established, 3 dead with a typed failure (not a hang).
  int established = 0;
  int refused = 0;
  Buffer scratch(64, 0);
  for (SocketId conn : conns) {
    auto state = world.stack_a->GetTcpState(conn);
    ASSERT_TRUE(state.ok());
    if (*state == cionet::TcpState::kEstablished) {
      ++established;
    } else {
      auto got = world.stack_a->TcpReceive(conn, scratch);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), ciobase::StatusCode::kLinkReset);
      ++refused;
    }
  }
  EXPECT_EQ(established, 2);
  EXPECT_EQ(refused, 3);

  // The queued two are still perfectly serviceable.
  auto accepted = world.stack_b->TcpAccept(*listener);
  ASSERT_TRUE(accepted.ok());
  auto readable = world.stack_b->TcpReadable(*accepted);
  ASSERT_TRUE(readable.ok());
  EXPECT_FALSE(*readable);  // no data yet — readiness, not liveness
  auto space = world.stack_b->TcpSendSpace(*accepted);
  ASSERT_TRUE(space.ok());
  EXPECT_GT(*space, 0u);
  auto peer = world.stack_b->GetTcpPeer(*accepted);
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(*peer, world.stack_a->ip());
}

}  // namespace
