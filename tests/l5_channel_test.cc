// Tests for the L5 single-distrust channel and its async SQ/CQ datapath:
// trusted-component-allocates semantics, submission through the registered
// slot pool, copy vs revoke vs sealed receive accounting at the doorbell
// that harvests a completion (the receive drain itself is free),
// boundary-kind cost accounting, and the grant-matrix direction (app may
// touch I/O memory, never vice versa).

#include <gtest/gtest.h>

#include <memory>

#include "src/base/rng.h"
#include "src/cio/l5_channel.h"
#include "src/net/fabric.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

// An L5 world: a NetStack in the "io" compartment talking over a direct
// fabric to a plain peer stack.
struct L5World {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 31};
  cionet::DirectFabricPort port_io{&fabric, "io",
                                   cionet::MacAddress::FromId(1)};
  cionet::DirectFabricPort port_peer{&fabric, "peer",
                                     cionet::MacAddress::FromId(2)};
  std::unique_ptr<cionet::NetStack> io_stack;
  std::unique_ptr<cionet::NetStack> peer_stack;
  ciotee::CompartmentManager compartments{&costs};
  ciotee::CompartmentId app = compartments.Create("app", 1 << 20);
  ciotee::CompartmentId io = compartments.Create("io", 1 << 20);
  std::unique_ptr<L5Channel> l5;

  explicit L5World(L5ReceiveMode mode = L5ReceiveMode::kCopy,
                   L5BoundaryKind kind = L5BoundaryKind::kCompartment) {
    cionet::NetStack::Config config_io;
    config_io.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
    cionet::NetStack::Config config_peer;
    config_peer.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 2);
    config_peer.seed = 5;
    io_stack = std::make_unique<cionet::NetStack>(&port_io, &clock,
                                                  config_io);
    peer_stack = std::make_unique<cionet::NetStack>(&port_peer, &clock,
                                                    config_peer);
    compartments.GrantAccess(app, io);
    l5 = std::make_unique<L5Channel>(&compartments, app, io,
                                     io_stack.get(), &costs, mode, kind);
  }

  // Establishes l5-listener <- peer-connect; returns (l5 server socket,
  // peer client socket).
  std::pair<cionet::SocketId, cionet::SocketId> Establish() {
    auto listener = l5->Listen(80);
    EXPECT_TRUE(listener.ok());
    auto client = peer_stack->TcpConnect(
        cionet::Ipv4Address::FromOctets(10, 0, 0, 1), 80);
    EXPECT_TRUE(client.ok());
    cionet::SocketId server{};
    for (int i = 0; i < 1000; ++i) {
      peer_stack->Poll();
      (void)l5->Doorbell();
      clock.Advance(5'000);
      auto accepted = l5->Accept(*listener);
      if (accepted.ok()) {
        EXPECT_EQ(accepted->peer, cionet::Ipv4Address::FromOctets(10, 0, 0, 2));
        server = accepted->socket;
        break;
      }
    }
    return {server, *client};
  }

  void Pump(int rounds = 50) {
    for (int i = 0; i < rounds; ++i) {
      peer_stack->Poll();
      (void)l5->Doorbell();
      clock.Advance(5'000);
    }
  }

  // Rings doorbells (pumping the peer between them) until one harvests
  // inbound bytes; returns how far `counter` moved across that doorbell.
  uint64_t ChargedByHarvest(const char* counter) {
    for (int i = 0; i < 50; ++i) {
      peer_stack->Poll();
      clock.Advance(5'000);
      uint64_t received_before = l5->stats().bytes_received;
      uint64_t before = costs.counter(counter);
      (void)l5->Doorbell();
      if (l5->stats().bytes_received != received_before) {
        return costs.counter(counter) - before;
      }
    }
    ADD_FAILURE() << "no receive was harvested";
    return 0;
  }

  // Test sugar for an owner's flush: queue in the SQ, then ring once.
  ciobase::Result<size_t> Send(cionet::SocketId socket,
                               ciobase::ByteSpan data) {
    auto queued = l5->SubmitStream(socket, data);
    (void)l5->Doorbell();
    return queued;
  }

  // Test sugar over ReceiveOne, the drain of harvested events.
  ciobase::Result<Buffer> Receive(cionet::SocketId socket, size_t max_bytes) {
    Buffer out;
    auto got = l5->ReceiveOne(socket, max_bytes, out);
    if (!got.ok()) {
      return got.status();
    }
    return out;
  }
};

TEST(L5Channel, QueuesComeUpWithDefaultGeometry) {
  L5World world;
  EXPECT_TRUE(world.l5->queues_ready());
  EXPECT_EQ(world.l5->queue_config().sq_entries, 64u);
  EXPECT_EQ(world.l5->free_slots(), world.l5->queue_config().pool_slots);
}

TEST(L5Channel, SendIsZeroCopyThroughRegisteredSlots) {
  L5World world;
  auto [server, client] = world.Establish();
  Buffer data = BufferFromString("through the io heap");
  uint64_t copies_before = world.costs.counter("bytes_copied");
  auto sent = world.Send(server, data);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, data.size());
  // No boundary copy was charged on send: the payload went into a
  // pre-registered pool slot the stack consumes in place.
  EXPECT_EQ(world.costs.counter("bytes_copied"), copies_before);
  EXPECT_GE(world.l5->stats().sq_submitted, 1u);
  EXPECT_GE(world.l5->stats().doorbells, 1u);
  world.Pump();
  uint8_t buf[64];
  auto got = world.peer_stack->TcpReceive(client, buf);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ciobase::StringFromBytes(ciobase::ByteSpan(buf, *got)),
            "through the io heap");
}

TEST(L5Channel, CopyReceiveChargesCopyAtHarvest) {
  L5World world(L5ReceiveMode::kCopy);
  auto [server, client] = world.Establish();
  ASSERT_TRUE(
      world.peer_stack->TcpSend(client, BufferFromString("payload")).ok());
  // The doorbell that harvests the armed receive charges the copy...
  EXPECT_EQ(world.ChargedByHarvest("bytes_copied"), 7u);
  EXPECT_EQ(world.l5->stats().receive_copies, 1u);
  // ...and the drain that hands the bytes over charges nothing more.
  uint64_t copies_before = world.costs.counter("bytes_copied");
  auto received = world.Receive(server, 64);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(ciobase::StringFromBytes(*received), "payload");
  EXPECT_EQ(world.costs.counter("bytes_copied"), copies_before);
}

TEST(L5Channel, RevokeReceiveChargesPagesAndTransfersOwnership) {
  L5World world(L5ReceiveMode::kRevoke);
  auto [server, client] = world.Establish();
  ASSERT_TRUE(
      world.peer_stack->TcpSend(client, BufferFromString("payload")).ok());
  EXPECT_EQ(world.ChargedByHarvest("pages_unshared"), 1u);
  EXPECT_EQ(world.l5->stats().receive_revocations, 1u);
  uint64_t pages_before = world.costs.counter("pages_unshared");
  auto received = world.Receive(server, 64);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(ciobase::StringFromBytes(*received), "payload");
  EXPECT_EQ(world.costs.counter("pages_unshared"), pages_before);
}

TEST(L5Channel, SealedReceiveChargesNeitherCopiesNorPages) {
  L5World world(L5ReceiveMode::kSealed);
  auto [server, client] = world.Establish();
  ASSERT_TRUE(
      world.peer_stack->TcpSend(client, BufferFromString("payload")).ok());
  uint64_t pages_before = world.costs.counter("pages_unshared");
  // Sealed payloads are authenticated above this layer; harvest is free.
  EXPECT_EQ(world.ChargedByHarvest("bytes_copied"), 0u);
  auto received = world.Receive(server, 64);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(ciobase::StringFromBytes(*received), "payload");
  EXPECT_EQ(world.costs.counter("pages_unshared"), pages_before);
  EXPECT_EQ(world.l5->stats().receive_copies, 0u);
  EXPECT_EQ(world.l5->stats().receive_revocations, 0u);
}

TEST(L5Channel, EmptyReceiveReturnsEmptyBuffer) {
  L5World world;
  auto [server, client] = world.Establish();
  (void)client;
  auto received = world.Receive(server, 64);
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received->empty());
}

TEST(L5Channel, CrossingsAreCountedAndCharged) {
  L5World world;
  auto [server, client] = world.Establish();
  (void)client;
  uint64_t before = world.l5->stats().crossings;
  (void)world.Send(server, BufferFromString("x"));  // one doorbell
  EXPECT_EQ(world.l5->stats().crossings, before + 1);
  (void)world.Receive(server, 16);  // a drain of harvested events: free
  EXPECT_EQ(world.l5->stats().crossings, before + 1);
  (void)world.l5->Doorbell();
  EXPECT_EQ(world.l5->stats().crossings, before + 2);
  EXPECT_GT(world.costs.counter("compartment_switches"), 0u);
  EXPECT_EQ(world.costs.counter("tee_switches"), 0u);
}

TEST(L5Channel, AcceptCrossesOnlyWhenTheDoorbellCountedAPendingConnection) {
  L5World world;
  auto listener = world.l5->Listen(80);
  ASSERT_TRUE(listener.ok());
  // Nothing pending: the refusal costs no crossing.
  uint64_t before = world.l5->stats().crossings;
  EXPECT_EQ(world.l5->Accept(*listener).status().code(),
            ciobase::StatusCode::kUnavailable);
  EXPECT_EQ(world.l5->stats().crossings, before);

  ASSERT_TRUE(world.peer_stack
                  ->TcpConnect(cionet::Ipv4Address::FromOctets(10, 0, 0, 1), 80)
                  .ok());
  // A doorbell after the handshake counts the connection, so the accept
  // after it crosses once and carries the peer; the backlog is then empty
  // again, and the next accept is free.
  world.Pump();
  before = world.l5->stats().crossings;
  auto accepted = world.l5->Accept(*listener);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->peer, cionet::Ipv4Address::FromOctets(10, 0, 0, 2));
  EXPECT_EQ(world.l5->stats().crossings, before + 1);
  EXPECT_EQ(world.l5->Accept(*listener).status().code(),
            ciobase::StatusCode::kUnavailable);
  EXPECT_EQ(world.l5->stats().crossings, before + 1);
}

TEST(L5Channel, CloseWaitsForInFlightSends) {
  // An orderly close must not let the FIN overtake bytes still in the SQ:
  // Close refuses, with no crossing, until a doorbell has carried them.
  L5World world;
  auto [server, client] = world.Establish();
  ciobase::Rng rng(41);
  const Buffer payload = rng.Bytes(6000);
  auto queued = world.l5->SubmitStream(server, payload);
  ASSERT_TRUE(queued.ok());
  ASSERT_EQ(*queued, payload.size());
  const uint64_t before = world.l5->stats().crossings;
  EXPECT_EQ(world.l5->Close(server).code(), ciobase::StatusCode::kUnavailable);
  EXPECT_EQ(world.l5->stats().crossings, before);

  ASSERT_TRUE(world.l5->Doorbell().ok());
  ASSERT_TRUE(world.l5->Close(server).ok());
  // The close released everything the socket pinned.
  EXPECT_EQ(world.l5->in_flight_entries(), 0u);
  EXPECT_EQ(world.l5->free_slots(), world.l5->queue_config().pool_slots);

  // The peer reads every byte, then the orderly EOF.
  Buffer received;
  bool eof = false;
  uint8_t buf[2048];
  for (int i = 0; i < 1000 && !eof; ++i) {
    world.Pump(1);
    auto got = world.peer_stack->TcpReceive(client, buf);
    if (!got.ok()) {
      ASSERT_EQ(got.status().code(), ciobase::StatusCode::kFailedPrecondition);
      eof = true;
    } else {
      received.insert(received.end(), buf, buf + *got);
    }
  }
  EXPECT_TRUE(eof);
  EXPECT_EQ(received, payload);
}

TEST(L5Channel, BatchedSubmissionSharesOneDoorbell) {
  // The point of the SQ: N messages submitted back to back cross the
  // boundary once, not N times.
  L5World world;
  auto [server, client] = world.Establish();
  (void)client;
  uint64_t crossings_before = world.l5->stats().crossings;
  Buffer payload(512, 0xab);
  for (int i = 0; i < 8; ++i) {
    auto queued = world.l5->SubmitStream(server, payload);
    ASSERT_TRUE(queued.ok());
    ASSERT_EQ(*queued, payload.size());
  }
  EXPECT_EQ(world.l5->stats().crossings, crossings_before);  // no crossing yet
  ASSERT_TRUE(world.l5->Doorbell().ok());
  EXPECT_EQ(world.l5->stats().crossings, crossings_before + 1);
  EXPECT_GE(world.l5->stats().sq_submitted, 8u);
}

TEST(L5Channel, DualTeeBoundaryChargesTeeSwitches) {
  L5World world(L5ReceiveMode::kCopy, L5BoundaryKind::kDualTee);
  auto [server, client] = world.Establish();
  (void)client;
  (void)world.Send(server, BufferFromString("x"));
  EXPECT_GT(world.costs.counter("tee_switches"), 0u);
}

TEST(L5Channel, IoCompartmentCannotTouchAppAllocations) {
  // The direction of the grant matrix: app -> io yes, io -> app never.
  L5World world;
  auto secret = world.compartments.Allocate(world.app, world.app, 32);
  ASSERT_TRUE(secret.ok());
  EXPECT_FALSE(world.compartments.Access(world.io, *secret).ok());
  // And the io compartment cannot even allocate in the app's heap.
  EXPECT_FALSE(world.compartments.Allocate(world.io, world.app, 32).ok());
}

TEST(L5Channel, OwnershipTransferRevokesOldOwner) {
  L5World world;
  auto handle = world.compartments.Allocate(world.app, world.io, 64);
  ASSERT_TRUE(handle.ok());
  // Initially the io compartment (owner) can access its own buffer.
  EXPECT_TRUE(world.compartments.Access(world.io, *handle).ok());
  // The app revokes it (L5 revocation): io's access dies, app's remains.
  ASSERT_TRUE(
      world.compartments.Transfer(world.app, *handle, world.app).ok());
  EXPECT_FALSE(world.compartments.Access(world.io, *handle).ok());
  EXPECT_TRUE(world.compartments.Access(world.app, *handle).ok());
}

TEST(L5Channel, ManyMessagesDoNotExhaustHeaps) {
  // Regression test: the queue region and slot pool are allocated once; a
  // sustained stream must recycle slots instead of growing the io heap.
  L5World world;
  auto [server, client] = world.Establish();
  ciobase::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    Buffer chunk = rng.Bytes(8192);
    (void)world.peer_stack->TcpSend(client, chunk);
    world.Pump(3);
    auto received = world.Receive(server, 16384);
    ASSERT_TRUE(received.ok()) << "iteration " << i << ": "
                               << received.status().ToString();
  }
  // Only armed receives hold slots between rounds.
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_EQ(world.l5->free_slots() + world.l5->in_flight_slots(kSqOpRecv),
            world.l5->queue_config().pool_slots);
}

}  // namespace
