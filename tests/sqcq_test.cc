// Tests for the io_uring-style SQ/CQ datapath itself: entry codecs and
// geometry validation, SQ-full / pool-exhaustion backpressure, CQ-overflow
// spill (held completions drain in order, nothing lost), out-of-order
// reaping across sockets, the receive floor that keeps every open socket
// armed under an egress backlog, hostile-host CQ scribbling (duplicate,
// stale, garbage entries surface as typed Status — never memory errors),
// and exactly-once delivery when the link dies with a batch in flight.
//
// Every connected or accepted socket is armed for receive at each doorbell,
// so the slot and entry checks below count sends and armed receives apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/coverage.h"
#include "src/base/rng.h"
#include "src/cio/engine.h"
#include "src/cio/l5_channel.h"
#include "src/cio/sqcq.h"
#include "src/fuzz/mutator.h"
#include "src/net/fabric.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

// --- Codecs and geometry -----------------------------------------------------

TEST(Sqcq, SqeRoundTripsAllFields) {
  SqEntry in;
  in.op = kSqOpSend;
  in.seg_count = 3;
  in.socket = 0xDEADBEEF;
  in.user_data = 0x1122334455667788ull;
  for (size_t i = 0; i < 3; ++i) {
    in.segs[i].slot = static_cast<uint16_t>(100 + i);
    in.segs[i].len = static_cast<uint32_t>(1000 + i);
  }
  uint8_t raw[kSqeSize];
  EncodeSqe(in, ciobase::MutableByteSpan(raw, sizeof raw));
  SqEntry out = DecodeSqe(ciobase::ByteSpan(raw, sizeof raw));
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.seg_count, in.seg_count);
  EXPECT_EQ(out.socket, in.socket);
  EXPECT_EQ(out.user_data, in.user_data);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.segs[i].slot, in.segs[i].slot);
    EXPECT_EQ(out.segs[i].len, in.segs[i].len);
  }
}

TEST(Sqcq, CqeRoundTripsAndDecodeClampsSegCount) {
  CqEntry in;
  in.op = kSqOpRecv;
  in.seg_count = 2;
  in.code = kCqEof;
  in.result = 4096;
  in.user_data = 42;
  in.epoch = 7;
  in.seg_len[0] = 4000;
  in.seg_len[1] = 96;
  uint8_t raw[kCqeSize];
  EncodeCqe(in, ciobase::MutableByteSpan(raw, sizeof raw));
  CqEntry out = DecodeCqe(ciobase::ByteSpan(raw, sizeof raw));
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.seg_count, in.seg_count);
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.result, in.result);
  EXPECT_EQ(out.user_data, in.user_data);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.seg_len[0], 4000u);
  EXPECT_EQ(out.seg_len[1], 96u);

  // A host-scribbled seg_count cannot direct reads past the fixed arrays.
  raw[1] = 0xFF;
  EXPECT_EQ(DecodeCqe(ciobase::ByteSpan(raw, sizeof raw)).seg_count,
            kSqMaxSegments);
}

TEST(Sqcq, QueueConfigValidation) {
  L5QueueConfig config;
  EXPECT_TRUE(config.Valid());

  L5QueueConfig bad = config;
  bad.sq_entries = 48;  // not a power of two
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.cq_entries = 1;
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.pool_slots = kSqMaxSegments - 1;  // one full message must fit
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.slot_size = 128;
  EXPECT_FALSE(bad.Valid());
  bad = config;
  bad.recv_segments = kSqMaxSegments + 1;
  EXPECT_FALSE(bad.Valid());

  // The region layout is consistent: control, SQ, CQ, pool, in that order.
  EXPECT_EQ(config.SqOffset(), kSqcqControlBytes);
  EXPECT_EQ(config.CqOffset(), config.SqOffset() + config.sq_entries * kSqeSize);
  EXPECT_EQ(config.TotalBytes(),
            config.PoolOffset() +
                static_cast<size_t>(config.pool_slots) * config.slot_size);
}

// --- Fixture -----------------------------------------------------------------

// An L5 world with a configurable queue geometry: a NetStack in the "io"
// compartment talking over a direct fabric to a plain peer stack.
struct SqcqWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 47};
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
  cionet::SocketId listener{};

  explicit SqcqWorld(const L5QueueConfig& queues = L5QueueConfig{},
                     L5ReceiveMode mode = L5ReceiveMode::kCopy) {
    cionet::NetStack::Config config_io;
    config_io.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 1);
    cionet::NetStack::Config config_peer;
    config_peer.ip = cionet::Ipv4Address::FromOctets(10, 0, 0, 2);
    config_peer.seed = 9;
    io_stack = std::make_unique<cionet::NetStack>(&port_io, &clock,
                                                  config_io);
    peer_stack = std::make_unique<cionet::NetStack>(&port_peer, &clock,
                                                    config_peer);
    compartments.GrantAccess(app, io);
    l5 = std::make_unique<L5Channel>(&compartments, app, io, io_stack.get(),
                                     &costs, mode,
                                     L5BoundaryKind::kCompartment, queues);
    auto listening = l5->Listen(80);
    EXPECT_TRUE(listening.ok());
    listener = *listening;
  }

  // One accepted connection; returns (l5-side socket, peer-side socket).
  std::pair<cionet::SocketId, cionet::SocketId> Establish() {
    auto client = peer_stack->TcpConnect(
        cionet::Ipv4Address::FromOctets(10, 0, 0, 1), 80);
    EXPECT_TRUE(client.ok());
    cionet::SocketId server{};
    for (int i = 0; i < 1000; ++i) {
      peer_stack->Poll();
      (void)l5->Doorbell();
      clock.Advance(5'000);
      auto accepted = l5->Accept(listener);
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

  // Copies `payload` into pool slots and queues its SQ entries (no
  // doorbell). False when SQ or pool pushback took only a prefix.
  bool QueuePlain(cionet::SocketId socket, const Buffer& payload) {
    auto queued = l5->SubmitStream(socket, payload);
    return queued.ok() && *queued == payload.size();
  }

  // Rings doorbells until the socket has a receive armed; returns the
  // armed entry's user_data (a live completion a forgery can name).
  uint64_t ArmedRecv(cionet::SocketId socket) {
    for (int i = 0; i < 10; ++i) {
      uint64_t armed = l5->in_flight_user_data_for_test(socket, kSqOpRecv);
      if (armed != 0) {
        return armed;
      }
      (void)l5->Doorbell();
    }
    ADD_FAILURE() << "socket never armed";
    return 0;
  }

  // Every pool slot is free or held by an in-flight entry.
  bool PoolBalanced() const {
    return l5->free_slots() + l5->in_flight_slots(kSqOpSend) +
               l5->in_flight_slots(kSqOpRecv) ==
           l5->queue_config().pool_slots;
  }

  // Hostile host: write a CQ entry at the published tail and advance it.
  void ScribbleCqe(const CqEntry& cqe) {
    ciobase::MutableByteSpan region = l5->queue_region_for_test();
    const L5QueueConfig& config = l5->queue_config();
    uint32_t tail = ciobase::LoadLe32(region.data() + kCtrlCqTail);
    uint32_t masked = tail & (config.cq_entries - 1);
    EncodeCqe(cqe, region.subspan(config.CqOffset() + masked * kCqeSize,
                                  kCqeSize));
    ciobase::StoreLe32(region.data() + kCtrlCqTail, tail + 1);
  }
};

// --- Backpressure ------------------------------------------------------------

TEST(Sqcq, SqFullBackpressuresAndRecoversAfterDoorbell) {
  L5QueueConfig tiny;
  tiny.sq_entries = 2;
  tiny.cq_entries = 4;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  Buffer payload = BufferFromString("small");

  EXPECT_TRUE(world.QueuePlain(server, payload));
  EXPECT_TRUE(world.QueuePlain(server, payload));
  // Ring full until a doorbell hands the consumed count back through the
  // call gate.
  EXPECT_FALSE(world.QueuePlain(server, payload));
  EXPECT_GE(world.l5->stats().sq_backpressure, 1u);

  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(world.QueuePlain(server, payload));
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_TRUE(world.PoolBalanced());
}

TEST(Sqcq, PoolExhaustionBackpressuresUntilCompletionsReturnSlots) {
  L5QueueConfig tiny;
  tiny.sq_entries = 16;
  tiny.cq_entries = 16;
  tiny.pool_slots = 8;  // one max-fan-out message plus one armed receive
  tiny.slot_size = 256;
  tiny.recv_entries = 1;
  tiny.recv_segments = 1;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  ASSERT_NE(world.ArmedRecv(server), 0u);
  ASSERT_EQ(world.l5->in_flight_slots(kSqOpRecv), 1u);
  ciobase::Rng rng(3);
  Buffer big = rng.Bytes(1500);  // 1500B -> 6 of 8 slots

  uint64_t backpressure_before = world.l5->stats().sq_backpressure;
  EXPECT_TRUE(world.QueuePlain(server, big));
  EXPECT_EQ(world.l5->free_slots(), 1u);
  EXPECT_FALSE(world.QueuePlain(server, big));
  EXPECT_GT(world.l5->stats().sq_backpressure, backpressure_before);

  // Completions hand the slots back; the same message then fits.
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_EQ(world.l5->free_slots(), tiny.pool_slots - 1);
  EXPECT_TRUE(world.QueuePlain(server, big));
  world.Pump();
  EXPECT_EQ(world.l5->free_slots(), tiny.pool_slots - 1);
  EXPECT_TRUE(world.PoolBalanced());
}

// --- CQ overflow spill -------------------------------------------------------

TEST(Sqcq, CqOverflowSpillsAndDrainsInOrderWithoutLoss) {
  L5QueueConfig tiny;
  tiny.sq_entries = 16;
  tiny.cq_entries = 4;  // half the batch must spill to held completions
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();

  std::string all;
  for (int i = 0; i < 8; ++i) {
    std::string piece = "piece-" + std::to_string(i) + ";";
    ASSERT_TRUE(world.QueuePlain(server, BufferFromString(piece)));
    all += piece;
  }
  ASSERT_EQ(world.l5->in_flight_entries(kSqOpSend), 8u);

  // One doorbell services all eight sends but can only post a CQ window's
  // worth; the rest are held io-side and drain on later doorbells. (The
  // idle socket's armed receives complete nothing.)
  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(world.l5->stats().cq_completions, 4u);
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 4u);
  world.Pump();
  EXPECT_EQ(world.l5->stats().cq_completions, 8u);
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_TRUE(world.PoolBalanced());

  // Every byte arrived, in submission order.
  std::string received;
  uint8_t buf[256];
  for (int i = 0; i < 50 && received.size() < all.size(); ++i) {
    auto got = world.peer_stack->TcpReceive(client, buf);
    if (got.ok() && *got > 0) {
      received.append(reinterpret_cast<const char*>(buf), *got);
    }
    world.Pump(2);
  }
  EXPECT_EQ(received, all);
}

// --- Receive floor -----------------------------------------------------------

TEST(Sqcq, ReceiveFloorKeepsEverySocketReceivingUnderEgressBacklog) {
  // A pool far smaller than the offered egress: three sockets share 16
  // slots (4 of them the send reserve) while the app keeps every socket's
  // send backlog full and the peer never reads, so sends stall in flight
  // holding every slot egress may take. Egress must still leave each
  // socket the slots of its first receive entry: the peer keeps sending,
  // and every socket keeps receiving.
  L5QueueConfig tiny;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  std::vector<std::pair<cionet::SocketId, cionet::SocketId>> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(world.Establish());
  }
  ASSERT_EQ(world.l5->ArmableSockets(), 12u);

  ciobase::Rng rng(17);
  const Buffer backlog = rng.Bytes(64 * 1024);
  std::vector<std::string> sent(links.size());
  std::vector<std::string> received(links.size());
  size_t peak_send_slots = 0;
  for (int round = 0; round < 1500; ++round) {
    if (round % 25 == 0) {
      for (size_t i = 0; i < links.size(); ++i) {
        std::string ping = "ping-" + std::to_string(round) + ";";
        auto queued = world.peer_stack->TcpSend(links[i].second,
                                                BufferFromString(ping));
        ASSERT_TRUE(queued.ok());
        ASSERT_EQ(*queued, ping.size());
        sent[i] += ping;
      }
    }
    world.peer_stack->Poll();
    ASSERT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
    Buffer chunk;
    for (size_t i = 0; i < links.size(); ++i) {
      auto got = world.l5->ReceiveOne(links[i].first, 4096, chunk);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      received[i].append(chunk.begin(), chunk.end());
      ASSERT_TRUE(world.l5->SubmitStream(links[i].first, backlog).ok());
    }
    peak_send_slots =
        std::max(peak_send_slots, world.l5->in_flight_slots(kSqOpSend));
    world.clock.Advance(5'000);
  }
  world.Pump();
  Buffer chunk;
  for (size_t i = 0; i < links.size(); ++i) {
    ASSERT_TRUE(world.l5->ReceiveOne(links[i].first, 1 << 16, chunk).ok());
    received[i].append(chunk.begin(), chunk.end());
    EXPECT_EQ(received[i], sent[i]) << "socket " << i << " starved";
  }
  // The backlog really did take everything above the receive floor.
  EXPECT_GE(peak_send_slots, tiny.pool_slots - links.size() * 4);
  EXPECT_GT(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_GT(world.l5->stats().sq_backpressure, 0u);

  // Aborting returns every slot: stalled sends and armed receives alike.
  // (An orderly Close would wait for the stalled sends.)
  for (const auto& [socket, peer] : links) {
    ASSERT_TRUE(world.l5->Abort(socket).ok());
  }
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(), 0u);
  EXPECT_EQ(world.l5->free_slots(), tiny.pool_slots);
}

TEST(Sqcq, IdleSocketsGiveBackReceiveSlotsArmedUnderALargerShare) {
  // Sockets 1 and 2 connect one at a time and go idle, so each is armed
  // while its share is large (socket 1 alone takes every slot above the
  // send reserve). When socket 3 opens, the shares shrink and the idle
  // sockets must hand their excess back: socket 3 must receive every ping
  // and drain its whole send backlog while the other two never see a byte.
  L5QueueConfig tiny;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [idle_a, peer_a] = world.Establish();
  world.Pump(5);
  EXPECT_EQ(world.l5->in_flight_slots(kSqOpRecv), 12u);
  auto [idle_b, peer_b] = world.Establish();
  world.Pump(5);
  auto [busy, peer] = world.Establish();

  ciobase::Rng rng(23);
  const Buffer backlog = rng.Bytes(24 * 1024);
  size_t queued = 0;
  std::string pings;
  std::string received;
  Buffer echoed;
  uint8_t buf[4096];
  for (int round = 0; round < 2000; ++round) {
    if (round % 20 == 0 && round < 1000) {
      std::string ping = "ping-" + std::to_string(round) + ";";
      auto sent = world.peer_stack->TcpSend(peer, BufferFromString(ping));
      ASSERT_TRUE(sent.ok());
      ASSERT_EQ(*sent, ping.size());
      pings += ping;
    }
    if (queued < backlog.size()) {
      auto accepted = world.l5->SubmitStream(
          busy, ciobase::ByteSpan(backlog).subspan(queued));
      ASSERT_TRUE(accepted.ok());
      queued += *accepted;
    }
    world.peer_stack->Poll();
    ASSERT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
    Buffer chunk;
    ASSERT_TRUE(world.l5->ReceiveOne(busy, 4096, chunk).ok());
    received.append(chunk.begin(), chunk.end());
    for (;;) {
      auto got = world.peer_stack->TcpReceive(peer, buf);
      if (!got.ok() || *got == 0) {
        break;
      }
      echoed.insert(echoed.end(), buf, buf + *got);
    }
    world.clock.Advance(5'000);
  }
  EXPECT_EQ(received, pings);
  EXPECT_EQ(queued, backlog.size());
  EXPECT_EQ(echoed, backlog);
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  // Receive arming is back within the pool minus the send reserve: one
  // slot per armable socket, 12 here.
  EXPECT_LE(world.l5->in_flight_slots(kSqOpRecv),
            world.l5->ArmableSockets());
  Buffer none;
  for (cionet::SocketId socket : {idle_a, idle_b}) {
    auto got = world.l5->ReceiveOne(socket, 4096, none);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 0u);
  }
  EXPECT_TRUE(world.PoolBalanced());
}

// --- Out-of-order reaping ----------------------------------------------------

TEST(Sqcq, CompletionsReapOutOfSubmissionOrderAcrossSockets) {
  SqcqWorld world;
  auto [server_a, client_a] = world.Establish();
  auto [server_b, client_b] = world.Establish();
  ASSERT_NE(server_a.value, server_b.value);

  // Submit to the later socket FIRST: the I/O side services sockets in id
  // order, so completions post in the opposite order from submission and
  // the reaper must match them by user_data, not position.
  Buffer for_b = BufferFromString("second socket, first submit");
  Buffer for_a = BufferFromString("first socket, second submit");
  ASSERT_TRUE(world.QueuePlain(server_b, for_b));
  ASSERT_TRUE(world.QueuePlain(server_a, for_a));
  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);

  uint8_t buf[64];
  auto got_a = world.peer_stack->TcpReceive(client_a, buf);
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(ciobase::StringFromBytes(ciobase::ByteSpan(buf, *got_a)),
            "first socket, second submit");
  auto got_b = world.peer_stack->TcpReceive(client_b, buf);
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(ciobase::StringFromBytes(ciobase::ByteSpan(buf, *got_b)),
            "second socket, first submit");
}

// --- Hostile-host CQ scribbling ---------------------------------------------

TEST(Sqcq, DuplicateCompletionIsTampering) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("once")));
  const uint64_t send = world.l5->in_flight_user_data_for_test(server,
                                                               kSqOpSend);
  ASSERT_NE(send, 0u);
  world.Pump();
  ASSERT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);

  // Replay the already-reaped completion (same user_data, current epoch).
  CqEntry replay;
  replay.op = kSqOpSend;
  replay.seg_count = 0;
  replay.code = kCqOk;
  replay.result = 0;
  replay.user_data = send;
  replay.epoch = world.l5->epoch();
  world.ScribbleCqe(replay);
  EXPECT_EQ(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
}

TEST(Sqcq, StaleEpochCompletionIsDroppedNotFatal) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("pre-reset")));
  const uint64_t send = world.l5->in_flight_user_data_for_test(server,
                                                               kSqOpSend);
  ASSERT_NE(send, 0u);
  world.Pump();

  // Ring reset (recovery path): the old generation may still owe
  // completions; they must reap as recovery noise, not as an attack.
  world.l5->AbandonInFlight();
  EXPECT_EQ(world.l5->epoch(), 1u);
  CqEntry old_epoch;
  old_epoch.op = kSqOpSend;
  old_epoch.code = kCqOk;
  old_epoch.user_data = send;
  old_epoch.epoch = 0;
  world.ScribbleCqe(old_epoch);
  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  EXPECT_GE(world.l5->stats().cq_stale_dropped, 1u);
}

TEST(Sqcq, GarbageCompletionEntryIsTampering) {
  SqcqWorld world;
  (void)world.Establish();

  CqEntry garbage;
  uint8_t raw[kCqeSize];
  std::memset(raw, 0xA5, sizeof raw);
  garbage = DecodeCqe(ciobase::ByteSpan(raw, sizeof raw));
  garbage.epoch = world.l5->epoch();  // survives the stale filter...
  world.ScribbleCqe(garbage);
  // ...and dies on the shadow check: no such user_data was ever submitted.
  EXPECT_EQ(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
}

TEST(Sqcq, CompletionFieldMismatchesAreTampering) {
  // The accepted socket's receive entries are armed at the doorbell (no
  // inbound data, so they stay in flight as known user_data values); forge
  // completions for one of them that contradict the shadow.
  SqcqWorld world;
  auto [server, client] = world.Establish();
  const uint64_t armed = world.ArmedRecv(server);
  ASSERT_NE(armed, 0u);
  const L5QueueConfig& config = world.l5->queue_config();

  {
    // Opcode flip: recv submitted, send completed.
    CqEntry forged;
    forged.op = kSqOpSend;
    forged.user_data = armed;
    forged.epoch = world.l5->epoch();
    world.ScribbleCqe(forged);
    EXPECT_EQ(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Length exceeding what was submitted for the segment.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    const uint64_t fresh_armed = fresh.ArmedRecv(fs);
    ASSERT_NE(fresh_armed, 0u);
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.seg_count = 1;
    forged.user_data = fresh_armed;
    forged.epoch = fresh.l5->epoch();
    forged.seg_len[0] = config.slot_size + 1;
    forged.result = config.slot_size + 1;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Result not matching the per-segment sum.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    const uint64_t fresh_armed = fresh.ArmedRecv(fs);
    ASSERT_NE(fresh_armed, 0u);
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.seg_count = 1;
    forged.user_data = fresh_armed;
    forged.epoch = fresh.l5->epoch();
    forged.seg_len[0] = 100;
    forged.result = 101;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  }
  {
    // Unknown completion code.
    SqcqWorld fresh;
    auto [fs, fc] = fresh.Establish();
    const uint64_t fresh_armed = fresh.ArmedRecv(fs);
    ASSERT_NE(fresh_armed, 0u);
    CqEntry forged;
    forged.op = kSqOpRecv;
    forged.user_data = fresh_armed;
    forged.epoch = fresh.l5->epoch();
    forged.code = kCqReset + 1;
    fresh.ScribbleCqe(forged);
    EXPECT_EQ(fresh.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  }
}

TEST(Sqcq, CqTailOutsideRingWindowIsTampering) {
  SqcqWorld world;
  (void)world.Establish();
  ciobase::MutableByteSpan region = world.l5->queue_region_for_test();
  // A runaway tail would walk the reaper through the whole ring of dead
  // entries forever; the window check rejects it before any decode.
  ciobase::StoreLe32(region.data() + kCtrlCqTail,
                     world.l5->queue_config().cq_entries + 7);
  EXPECT_EQ(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
}

// --- Hostile control-cell mutation (the fuzzer's mutator as a library) ------

// The SQ/CQ control cells are the five hottest host-writable words in the
// L5 region. These tests drive them with ciofuzz::Mutator::ApplyStep — the
// exact write primitive the campaign uses — and assert the channel's
// contract: app-owned cells self-heal, io-owned forgeries are typed, and
// nothing ever wedges without a typed signal.

ciofuzz::TargetWindow CtrlWindow(SqcqWorld& world) {
  ciofuzz::TargetWindow window;
  window.name = "l5.ctrl";
  window.length = kSqcqControlBytes;
  window.weight = 1;
  window.raw = world.l5->queue_region_for_test().subspan(0, kSqcqControlBytes);
  return window;
}

bool SawEdge(std::string_view site, ciobase::StatusCode code) {
  for (const ciobase::CoverageMap::Edge& edge :
       ciobase::CoverageMap::Instance().Edges()) {
    if (edge.site == site && edge.code == static_cast<uint16_t>(code)) {
      return true;
    }
  }
  return false;
}

TEST(SqcqMutation, ForgedCqHeadIsTypedEdgeAndSelfHeals) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ciobase::CoverageMap::Instance().ResetHits();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("held then drained")));

  // Forge the app-owned CqHead one past the published tail: the unsigned
  // window tail - head wraps huge and the incoherent-head check fires.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kWriteLe32;
  forge.offset = kCtrlCqHead;
  forge.value = ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqTail) + 1;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);

  // The doorbell's io pass sees the forged head, holds the completion (not
  // dropped) and emits the typed edge; Harvest re-asserts the true head in
  // the same call, so this is never Tampered.
  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(SawEdge("l5.cq.incoherent_head",
                      ciobase::StatusCode::kOutOfRange));

  // ...and the wedge heals: the held completion drains on later doorbells.
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
  EXPECT_EQ(ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqHead),
            ciobase::LoadLe32(ctrl.raw.data() + kCtrlCqTail));
}

TEST(SqcqMutation, ForgedEpochCellDropsStaleTypedAndHeals) {
  SqcqWorld world;
  auto [server, client] = world.Establish();
  ciobase::CoverageMap::Instance().ResetHits();
  ASSERT_TRUE(world.QueuePlain(server, BufferFromString("stamped stale")));

  // Bump the app-owned epoch cell: the io side stamps this send's CQE with
  // the forged generation, which the reaper must drop as recovery noise —
  // a typed counter and edge, never Tampered, never a trusted completion.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kAddDelta;
  forge.offset = kCtrlEpoch;
  forge.width = 4;
  forge.value = 7;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);

  EXPECT_TRUE(world.l5->Doorbell().ok());
  EXPECT_GE(world.l5->stats().cq_stale_dropped, 1u);
  EXPECT_TRUE(SawEdge("l5.cq.stale_epoch",
                      ciobase::StatusCode::kUnavailable));
  // Harvest healed the cell back to the true generation.
  EXPECT_EQ(ciobase::LoadLe32(ctrl.raw.data() + kCtrlEpoch),
            world.l5->epoch());
}

TEST(SqcqMutation, ForgedSqHeadCannotSpoofConsumption) {
  L5QueueConfig tiny;
  tiny.sq_entries = 2;
  tiny.cq_entries = 4;
  tiny.pool_slots = 16;
  tiny.slot_size = 512;
  SqcqWorld world(tiny);
  auto [server, client] = world.Establish();
  Buffer payload = BufferFromString("gate");
  ASSERT_TRUE(world.QueuePlain(server, payload));
  ASSERT_TRUE(world.QueuePlain(server, payload));

  // Host pretends the io side consumed far ahead. SQ-full detection uses
  // the count returned through the call gate, never this cell, so the
  // forgery buys nothing: the ring stays full.
  ciofuzz::TargetWindow ctrl = CtrlWindow(world);
  ciofuzz::MutationStep forge;
  forge.window = ctrl.name;
  forge.op = ciofuzz::MutOp::kWriteLe32;
  forge.offset = kCtrlSqHead;
  forge.value = 1000;
  ciofuzz::Mutator::ApplyStep(forge, ctrl);
  EXPECT_FALSE(world.QueuePlain(server, payload));

  // A real doorbell consumes through the gate and reopens the ring.
  EXPECT_NE(world.l5->Doorbell().code(), ciobase::StatusCode::kTampered);
  EXPECT_TRUE(world.QueuePlain(server, payload));
  world.Pump();
  EXPECT_EQ(world.l5->in_flight_entries(kSqOpSend), 0u);
}

TEST(SqcqMutation, SeededControlCellStormNeverWedgesSilently) {
  // Seeded random storms over the whole control block, exactly as the
  // campaign generates them. The oracle contract: every storm ends in
  // typed tampering, a clean drain, or a wedge that left a typed signal —
  // a silent wedge (stuck in-flight entries with only kOk edges) is the
  // gated "hang" failure.
  const uint64_t seeds[] = {11, 29, 6361};
  for (uint64_t seed : seeds) {
    SqcqWorld world;
    auto [server, client] = world.Establish();
    ciobase::CoverageMap::Instance().ResetHits();
    std::vector<ciofuzz::TargetWindow> windows;
    windows.push_back(CtrlWindow(world));
    ciofuzz::Mutator mutator(seed);
    constexpr uint32_t kRounds = 24;
    ciofuzz::FuzzInput input = mutator.Generate(windows, kRounds, 12);

    bool tampered = false;
    for (uint32_t round = 0; round < kRounds && !tampered; ++round) {
      if (round % 4 == 0) {
        (void)world.QueuePlain(server, BufferFromString("storm"));
      }
      mutator.ApplyRound(input, round, windows);
      if (world.l5->Doorbell().code() == ciobase::StatusCode::kTampered) {
        tampered = true;  // typed detection: recovery would take over
      }
      world.peer_stack->Poll();
      world.clock.Advance(5'000);
    }
    if (tampered) {
      continue;
    }
    world.Pump();
    bool drained = world.l5->in_flight_entries(kSqOpSend) == 0;
    bool typed_signal = world.l5->stats().cq_stale_dropped > 0;
    for (const ciobase::CoverageMap::Edge& edge :
         ciobase::CoverageMap::Instance().Edges()) {
      if (edge.code != 0) {
        typed_signal = true;
      }
    }
    EXPECT_TRUE(drained || typed_signal) << "silent wedge at seed " << seed;
    // The self-healing cells converged back to the app's private truth.
    EXPECT_EQ(ciobase::LoadLe32(
                  world.l5->queue_region_for_test().data() + kCtrlEpoch),
              world.l5->epoch())
        << "seed " << seed;
  }
}

// --- Exactly-once across a mid-batch link kill ------------------------------

TEST(Sqcq, KillLinkMidBatchDeliversExactlyOnce) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 6101;
  TuneTcpForFaultWindows(client);
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 6102;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());

  std::vector<std::string> sent;
  std::vector<std::string> received;
  auto drain = [&] {
    for (;;) {
      auto message = pair.server->ReceiveMessage();
      if (!message.ok()) {
        break;
      }
      received.emplace_back(reinterpret_cast<const char*>(message->data()),
                            message->size());
    }
  };
  // Bursts of four: each burst lands back to back in the submission queue
  // and shares a doorbell, so the fault window catches whole batches in
  // flight, not single messages.
  auto offer_burst = [&](int burst_id) {
    for (int round = 0; round < 30000; ++round) {
      if (pair.client->Ready()) {
        int accepted = 0;
        for (int i = 0; i < 4; ++i) {
          std::string payload =
              "burst-" + std::to_string(burst_id) + "-msg-" + std::to_string(i);
          if (!pair.client->SendMessage(BufferFromString(payload)).ok()) {
            break;
          }
          sent.push_back(payload);
          ++accepted;
        }
        if (accepted == 4) {
          return true;
        }
      }
      pair.Pump();
      drain();
    }
    return false;
  };

  ASSERT_TRUE(offer_burst(0));
  // Kill the link past the TCP retry budget with a batch just submitted:
  // recovery must reset the ring epoch and replay from the resend window.
  pair.client->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, pair.clock.now_ns(), 12'000'000});
  ASSERT_TRUE(offer_burst(1));
  ASSERT_TRUE(offer_burst(2));
  ASSERT_TRUE(offer_burst(3));

  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        drain();
        return received.size() >= sent.size() && pair.client->Ready() &&
               !pair.client->Failed() && !pair.server->Failed();
      },
      60000));

  // Exactly once, in order: no losses, no duplicates, no reordering.
  EXPECT_EQ(received, sent);
  const auto& stats = pair.client->recovery_stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.messages_lost, 0u);
  EXPECT_EQ(pair.server->recovery_stats().messages_lost, 0u);
  EXPECT_TRUE(pair.client->memory().violations().empty());
}

TEST(Sqcq, ForgedCompletionAtTheEngineDoorbellRecoversTheChannel) {
  // Receive no longer rings its own doorbell, so the engine's Poll() is
  // where a forged completion surfaces: it must reset the channel (a typed
  // fault, then reconnect + replay), never ignore it or lose a message.
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 6201;
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 6202;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());

  ciobase::MutableByteSpan region = pair.client->l5()->queue_region_for_test();
  const L5QueueConfig& config = pair.client->l5()->queue_config();
  CqEntry forged;
  forged.op = kSqOpRecv;
  forged.user_data = 0xF00D;  // never submitted
  forged.epoch = pair.client->l5()->epoch();
  uint32_t tail = ciobase::LoadLe32(region.data() + kCtrlCqTail);
  EncodeCqe(forged, region.subspan(config.CqOffset() +
                                       (tail & (config.cq_entries - 1)) *
                                           kCqeSize,
                                   kCqeSize));
  ciobase::StoreLe32(region.data() + kCtrlCqTail, tail + 1);
  pair.Pump();
  EXPECT_EQ(pair.client->recovery_stats().link_errors, 1u);
  EXPECT_FALSE(pair.client->Ready());

  ASSERT_TRUE(pair.PumpUntil([&] { return pair.client->Ready(); }, 60000));
  ASSERT_TRUE(pair.client->SendMessage(BufferFromString("after")).ok());
  ciobase::Result<Buffer> got = ciobase::NotFound("pending");
  ASSERT_TRUE(pair.PumpUntil([&] {
    got = pair.server->ReceiveMessage();
    return got.ok();
  }));
  EXPECT_EQ(ciobase::StringFromBytes(*got), "after");
  EXPECT_GE(pair.client->recovery_stats().reconnects, 1u);
  EXPECT_EQ(pair.client->recovery_stats().messages_lost, 0u);
}

}  // namespace
