// Unit and property tests for the hardened L2 transport: ring mechanics in
// every data-positioning mode, flow control, the §3.2 principles
// (zero-negotiation measurement binding, polling, clamping), and the core
// safety property — NO host-written bytes, however adversarial, can drive
// a guest access out of bounds (fuzzed with thousands of random slot and
// counter images).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/fabric.h"

namespace {

using ciobase::Buffer;
using ciobase::ByteSpan;
using namespace cio;  // NOLINT: test file

struct World {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 17, cionet::Fabric::Options{0, 0, 0, 9216}};
  ciotee::TeeMemory memory;
  L2Config config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<L2HostDevice> device;
  std::unique_ptr<L2Transport> transport;
  std::unique_ptr<cionet::DirectFabricPort> peer;
  ciohost::Adversary adversary{23};
  ciohost::ObservabilityLog observability;

  // `hook_host_poll` wires the host's Poll() into the transport the way the
  // engine does; without it the tests below poll the device by hand.
  explicit World(L2Config cfg = {}, bool hook_host_poll = false)
      : config(cfg) {
    config.mac = cionet::MacAddress::FromId(1);
    L2Layout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    "l2");
    device = std::make_unique<L2HostDevice>(shared.get(), config, &fabric,
                                            "nic", std::nullopt, &adversary,
                                            &observability, &clock);
    std::function<void()> host_poll;
    if (hook_host_poll) {
      host_poll = [this] { device->Poll(); };
    }
    transport = std::make_unique<L2Transport>(
        shared.get(), config, &costs,
        config.polling ? nullptr : device.get(), ciobase::RecoveryConfig{},
        std::move(host_poll));
    peer = std::make_unique<cionet::DirectFabricPort>(
        &fabric, "peer", cionet::MacAddress::FromId(2));
  }

  Buffer Frame(size_t payload, cionet::MacAddress dst,
               cionet::MacAddress src) {
    Buffer frame;
    cionet::EthernetHeader eth{dst, src, 0x88b5};
    eth.Serialize(frame);
    ciobase::Rng rng(payload);
    ciobase::Append(frame, rng.Bytes(payload));
    return frame;
  }
  Buffer ToGuest(size_t payload) {
    return Frame(payload, cionet::MacAddress::FromId(1),
                 cionet::MacAddress::FromId(2));
  }
  Buffer FromGuest(size_t payload) {
    return Frame(payload, cionet::MacAddress::FromId(2),
                 cionet::MacAddress::FromId(1));
  }
};

TEST(L2Config, ValidityRules) {
  L2Config config;
  config.mac = cionet::MacAddress::FromId(1);
  EXPECT_TRUE(config.Valid());
  config.ring_slots = 100;  // not a power of two
  EXPECT_FALSE(config.Valid());
  config.ring_slots = 256;
  config.slot_size = 3000;
  EXPECT_FALSE(config.Valid());
  config.slot_size = 2048;
  config.mtu = 9000;  // exceeds slot payload capacity
  EXPECT_FALSE(config.Valid());
}

TEST(L2Config, MeasurementBindsEveryParameter) {
  // Zero (re-)negotiation: the config IS the protocol; any change to it
  // must change the attestation measurement.
  L2Config base;
  base.mac = cionet::MacAddress::FromId(1);
  ciotee::Measurement m0 = base.Measure();

  L2Config changed = base;
  changed.mtu = 1400;
  EXPECT_NE(changed.Measure(), m0);
  changed = base;
  changed.positioning = DataPositioning::kSharedPool;
  EXPECT_NE(changed.Measure(), m0);
  changed = base;
  changed.rx_ownership = ReceiveOwnership::kRevoke;
  EXPECT_NE(changed.Measure(), m0);
  changed = base;
  changed.polling = false;
  EXPECT_NE(changed.Measure(), m0);
  changed = base;
  changed.ring_slots = 128;
  EXPECT_NE(changed.Measure(), m0);
  EXPECT_EQ(base.Measure(), m0);  // deterministic
}

// --- Layout: the shared region holds what the positioning reads ------------

TEST(L2Layout, TotalFollowsThePositioning) {
  for (uint16_t slots : {8, 16, 256}) {
    for (uint32_t slot_size : {256u, 2048u}) {
      L2Config config;
      config.mtu = 68;
      config.ring_slots = slots;
      config.slot_size = slot_size;
      ASSERT_TRUE(config.Valid());
      uint64_t ring_bytes = uint64_t{slots} * slot_size;
      config.positioning = DataPositioning::kInline;
      L2Layout in(config);
      config.positioning = DataPositioning::kSharedPool;
      L2Layout pool(config);
      config.positioning = DataPositioning::kIndirect;
      L2Layout indirect(config);
      EXPECT_EQ(in.total, 256 + 2 * ring_bytes);
      EXPECT_EQ(pool.total, in.total + 2 * ring_bytes);
      EXPECT_EQ(indirect.total, pool.total + 2 * uint64_t{slots} * 64);
      // An area keeps its offset in every mode that lays it out.
      for (const L2Layout* layout : {&pool, &indirect}) {
        EXPECT_EQ(layout->tx_ring, in.tx_ring);
        EXPECT_EQ(layout->rx_ring, in.rx_ring);
      }
      EXPECT_EQ(indirect.tx_pool, pool.tx_pool);
      EXPECT_EQ(indirect.rx_pool, pool.rx_pool);
    }
  }
  // The default ring, which every dual-boundary node uses.
  L2Config config;
  EXPECT_EQ(L2Layout(config).total, 1'048'832u);
  config.positioning = DataPositioning::kIndirect;
  EXPECT_EQ(L2Layout(config).total, 2'130'176u);
}

class L2PositioningTest : public ::testing::TestWithParam<DataPositioning> {};

TEST_P(L2PositioningTest, AreasAreDisjointAndMaskedHelpersStayInside) {
  L2Config config;
  config.positioning = GetParam();
  config.ring_slots = 16;
  const L2Layout layout(config);
  const uint64_t ring_bytes = layout.slots * layout.slot_size;
  const uint64_t table_bytes = layout.slots * kL2IndirectTableStride;
  struct Area {
    uint64_t begin;
    uint64_t size;
  };
  std::vector<Area> areas = {{0, 256},
                             {layout.tx_ring, ring_bytes},
                             {layout.rx_ring, ring_bytes}};
  const bool pooled = GetParam() != DataPositioning::kInline;
  const bool indirect = GetParam() == DataPositioning::kIndirect;
  if (pooled) {
    areas.push_back({layout.tx_pool, ring_bytes});
    areas.push_back({layout.rx_pool, ring_bytes});
  }
  if (indirect) {
    areas.push_back({layout.tx_indirect, table_bytes});
    areas.push_back({layout.rx_indirect, table_bytes});
  }
  uint64_t covered = 0;
  for (size_t i = 0; i < areas.size(); ++i) {
    EXPECT_LE(areas[i].begin + areas[i].size, layout.total) << i;
    covered += areas[i].size;
    for (size_t j = i + 1; j < areas.size(); ++j) {
      bool disjoint = areas[i].begin + areas[i].size <= areas[j].begin ||
                      areas[j].begin + areas[j].size <= areas[i].begin;
      EXPECT_TRUE(disjoint) << i << " overlaps " << j;
    }
  }
  EXPECT_EQ(covered, layout.total);  // no gap: nothing laid out unread

  // Every masked helper of a present area lands a whole element inside it,
  // whatever index or offset the host wrote.
  auto inside = [](uint64_t offset, uint64_t width, Area area) {
    return offset >= area.begin && offset + width <= area.begin + area.size;
  };
  ciobase::Rng rng(7);
  std::vector<uint64_t> untrusted = {0, 1, 15, 16, 17, 0xffffffffu, ~0ull};
  for (int i = 0; i < 64; ++i) {
    untrusted.push_back(rng.NextU64());
  }
  for (uint64_t u : untrusted) {
    for (uint64_t counter : {layout.TxProduced(), layout.TxConsumed(),
                             layout.RxProduced(), layout.RxConsumed(),
                             layout.GuestEpoch(), layout.HostEpoch()}) {
      EXPECT_TRUE(inside(counter, 8, areas[0]));
    }
    EXPECT_TRUE(inside(layout.TxSlot(u), layout.slot_size, areas[1])) << u;
    EXPECT_TRUE(inside(layout.RxSlot(u), layout.slot_size, areas[2])) << u;
    if (pooled) {
      EXPECT_TRUE(inside(layout.TxChunk(u), layout.slot_size, areas[3])) << u;
      EXPECT_TRUE(inside(layout.RxChunk(u), layout.slot_size, areas[4])) << u;
      EXPECT_TRUE(inside(layout.MaskRxPoolOffset(u), layout.slot_size,
                         areas[4]))
          << u;
    }
    if (indirect) {
      EXPECT_TRUE(inside(layout.TxIndirectTable(u), kL2IndirectTableStride,
                         areas[5]))
          << u;
      EXPECT_TRUE(inside(layout.RxIndirectTable(u), kL2IndirectTableStride,
                         areas[6]))
          << u;
      EXPECT_TRUE(inside(layout.MaskRxIndirectOffset(u),
                         kL2IndirectTableStride, areas[6]))
          << u;
    }
  }
}

// The hostile host's payload target is memory the guest's receive path
// actually reads: the RX slots inline, the RX pool in the pool modes.
TEST_P(L2PositioningTest, AttackSurfaceLiesWhereTheReceivePathReads) {
  L2Config config;
  config.positioning = GetParam();
  World world(config);
  const L2Layout& layout = world.transport->layout();
  uint64_t payload_area = GetParam() == DataPositioning::kInline
                              ? layout.rx_ring
                              : layout.rx_pool;
  uint64_t payload_end = payload_area + layout.slots * layout.slot_size;
  size_t payload_fields = 0;
  for (const ciohost::SurfaceField& field :
       world.transport->AttackSurface()) {
    EXPECT_LE(field.offset + field.width, world.shared->size());
    if (field.kind == ciohost::FieldKind::kPayload) {
      ++payload_fields;
      EXPECT_GE(field.offset, payload_area);
      EXPECT_LE(field.offset + field.width, payload_end);
    }
  }
  EXPECT_EQ(payload_fields, 1u);
}

// Each positioning names exactly the fields its receive path reads: the
// two counters, each of the first four RX slots' length word, its offset
// word only where the slot carries one (shared-pool: pool offset,
// indirect: table offset; inline reserves the word), and the payload area.
TEST_P(L2PositioningTest, AttackSurfaceNamesOnlyFieldsTheReceivePathReads) {
  using ciohost::FieldKind;
  L2Config config;
  config.positioning = GetParam();
  World world(config);
  const L2Layout& layout = world.transport->layout();
  const bool inline_slots = GetParam() == DataPositioning::kInline;
  std::vector<std::tuple<FieldKind, uint64_t, uint32_t>> expected = {
      {FieldKind::kIndex, layout.RxProduced(), 8},
      {FieldKind::kIndex, layout.TxConsumed(), 8}};
  for (uint64_t i = 0; i < 4; ++i) {
    expected.emplace_back(FieldKind::kLength, layout.RxSlot(i), 4);
    if (!inline_slots) {
      expected.emplace_back(FieldKind::kOffset, layout.RxSlot(i) + 4, 4);
    }
  }
  expected.emplace_back(FieldKind::kPayload,
                        inline_slots ? layout.rx_ring : layout.rx_pool,
                        static_cast<uint32_t>(layout.slots * layout.slot_size));
  std::vector<std::tuple<FieldKind, uint64_t, uint32_t>> named;
  for (const ciohost::SurfaceField& field :
       world.transport->AttackSurface()) {
    named.emplace_back(field.kind, field.offset, field.width);
  }
  EXPECT_EQ(named, expected);
}

TEST_P(L2PositioningTest, EchoRoundTrip) {
  L2Config config;
  config.positioning = GetParam();
  World world(config);
  for (size_t payload : {0, 1, 100, 1000, 1486}) {
    Buffer out = world.FromGuest(payload);
    ASSERT_TRUE(cionet::SendOne(*world.transport, out).ok()) << payload;
    world.device->Poll();
    world.clock.Advance(25'000);
    auto at_peer = cionet::ReceiveOne(*world.peer);
    ASSERT_TRUE(at_peer.ok()) << payload;
    EXPECT_EQ(*at_peer, out);

    Buffer in = world.ToGuest(payload);
    ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
    world.clock.Advance(25'000);
    world.device->Poll();
    auto at_guest = cionet::ReceiveOne(*world.transport);
    ASSERT_TRUE(at_guest.ok()) << payload;
    EXPECT_EQ(*at_guest, in);
  }
  EXPECT_TRUE(world.memory.violations().empty());
}

TEST_P(L2PositioningTest, RingWrapsManyTimes) {
  L2Config config;
  config.positioning = GetParam();
  config.ring_slots = 8;  // tiny ring: wraps every 8 frames
  World world(config);
  for (int i = 0; i < 100; ++i) {
    Buffer in = world.ToGuest(200 + i % 64);
    ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
    world.clock.Advance(25'000);
    world.device->Poll();
    auto at_guest = cionet::ReceiveOne(*world.transport);
    ASSERT_TRUE(at_guest.ok()) << i;
    EXPECT_EQ(*at_guest, in) << i;
  }
  EXPECT_EQ(world.transport->stats().frames_received, 100u);
}

INSTANTIATE_TEST_SUITE_P(Modes, L2PositioningTest,
                         ::testing::Values(DataPositioning::kInline,
                                           DataPositioning::kSharedPool,
                                           DataPositioning::kIndirect),
                         [](const auto& info) {
                           std::string name(DataPositioningName(info.param));
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(L2Transport, RejectsOversizedFrames) {
  World world;
  Buffer too_big = world.FromGuest(1600);  // > MTU
  EXPECT_FALSE(cionet::SendOne(*world.transport, too_big).ok());
}

TEST(L2Transport, TxFlowControlWhenHostStalls) {
  // A host that never consumes: the guest fills the ring and then fails
  // fast (stateless backpressure), without corrupting anything.
  World world;
  Buffer frame = world.FromGuest(100);
  size_t accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (cionet::SendOne(*world.transport, frame).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, world.config.ring_slots);
  EXPECT_GT(world.transport->stats().tx_ring_full, 0u);
}

TEST(L2Transport, NotifyModeKicksDevice) {
  L2Config config;
  config.polling = false;
  World world(config);
  Buffer frame = world.FromGuest(64);
  ASSERT_TRUE(cionet::SendOne(*world.transport, frame).ok());
  // The kick drove the device synchronously: frame already on the fabric.
  EXPECT_EQ(world.device->stats().kicks, 1u);
  EXPECT_EQ(world.costs.counter("notifies"), 1u);
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kDoorbell),
            0u);
}

TEST(L2Transport, PollingModeHasNoDoorbells) {
  World world;
  Buffer frame = world.FromGuest(64);
  ASSERT_TRUE(cionet::SendOne(*world.transport, frame).ok());
  world.device->Poll();
  EXPECT_EQ(world.costs.counter("notifies"), 0u);
  EXPECT_EQ(world.observability.CountOf(ciohost::ObsCategory::kDoorbell),
            0u);
}

TEST(L2Transport, PollingModeHostTakesFramesAtPublish) {
  // The polling-mode counterpart of NotifyModeKicksDevice: with the host
  // hooked up as the engine does it, the publish itself puts the frame on
  // the fabric, with no notify charged and no doorbell the host can see.
  World world(L2Config{}, /*hook_host_poll=*/true);
  Buffer frame = world.FromGuest(64);
  ASSERT_TRUE(cionet::SendOne(*world.transport, frame).ok());
  EXPECT_EQ(world.device->stats().frames_tx, 1u);
  EXPECT_EQ(world.fabric.stats().frames_routed, 1u);
  EXPECT_EQ(world.device->stats().kicks, 0u);
  EXPECT_EQ(world.costs.counter("notifies"), 0u);
  EXPECT_EQ(world.observability.CountOf(ciohost::ObsCategory::kDoorbell),
            0u);
  world.clock.Advance(25'000);
  auto at_peer = cionet::ReceiveOne(*world.peer);
  ASSERT_TRUE(at_peer.ok());
  EXPECT_EQ(*at_peer, frame);
}

TEST(L2Transport, PollingModeResetIsAdoptedAtPublish) {
  // A ring reset publishes a new guest epoch; the hooked host adopts it
  // (echoes HostEpoch) in the same instant instead of at its next poll.
  World world(L2Config{}, /*hook_host_poll=*/true);
  ASSERT_TRUE(world.transport->ResetRing().ok());
  EXPECT_EQ(world.device->stats().epoch_adoptions, 1u);
  EXPECT_EQ(world.shared->HostReadLe64(world.transport->layout().HostEpoch()),
            world.transport->epoch());
  EXPECT_EQ(world.costs.counter("notifies"), 0u);
  EXPECT_EQ(world.observability.CountOf(ciohost::ObsCategory::kDoorbell),
            0u);
}

TEST(L2Transport, RevocationChargesPagesNotBytes) {
  L2Config config;
  config.positioning = DataPositioning::kSharedPool;
  config.rx_ownership = ReceiveOwnership::kRevoke;
  World world(config);
  Buffer in = world.ToGuest(1400);
  ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  uint64_t copies_before = world.costs.counter("bytes_copied");
  auto at_guest = cionet::ReceiveOne(*world.transport);
  ASSERT_TRUE(at_guest.ok());
  EXPECT_EQ(*at_guest, in);
  EXPECT_GT(world.costs.counter("pages_unshared"), 0u);
  // No payload copy was charged on the RX path (only the 8B header read).
  EXPECT_LT(world.costs.counter("bytes_copied") - copies_before, 100u);
}

// --- The core safety property, fuzzed ----------------------------------------

class L2FuzzTest : public ::testing::TestWithParam<DataPositioning> {};

TEST_P(L2FuzzTest, ArbitraryHostBytesNeverCauseOobAccess) {
  // The host writes completely random garbage over the ENTIRE shared
  // region (headers, counters, payloads, indirect tables) and the guest
  // keeps consuming. By construction (masking + clamping + single fetch),
  // no guest access may ever leave the region.
  L2Config config;
  config.positioning = GetParam();
  config.ring_slots = 16;
  World world(config);
  ciobase::Rng rng(1234 + static_cast<int>(GetParam()));
  for (int round = 0; round < 2000; ++round) {
    // Random image over the whole region.
    ciobase::MutableByteSpan all =
        world.shared->HostWindow(0, world.shared->size());
    ASSERT_FALSE(all.empty());
    // Mutate a random window (cheaper than rewriting 1 MiB every round).
    uint64_t offset = rng.NextBounded(all.size());
    uint64_t len = std::min<uint64_t>(rng.NextBounded(4096) + 1,
                                      all.size() - offset);
    rng.Fill(all.subspan(offset, len));
    (void)cionet::ReceiveOne(*world.transport);
    if (round % 16 == 0) {
      (void)cionet::SendOne(*world.transport, world.FromGuest(rng.NextBounded(
          world.config.mtu)));
    }
  }
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u)
      << "masked transport performed an out-of-bounds read";
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobWrite),
            0u);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kHostOnlyAccess),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, L2FuzzTest,
                         ::testing::Values(DataPositioning::kInline,
                                           DataPositioning::kSharedPool,
                                           DataPositioning::kIndirect),
                         [](const auto& info) {
                           std::string name(DataPositioningName(info.param));
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Batched ring ops ---------------------------------------------------------

// Feeds `count` frames from the peer into the device without the guest
// consuming yet (the ring is large enough to hold them all).
void FeedFrames(World& world, const std::vector<Buffer>& frames) {
  for (const Buffer& frame : frames) {
    ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
    world.clock.Advance(25'000);
    world.device->Poll();
  }
}

class L2BatchTest : public ::testing::TestWithParam<DataPositioning> {};

TEST_P(L2BatchTest, ReceiveBatchMatchesPerFrameExactly) {
  // Two identical worlds, identical inbound traffic: draining one frame at a
  // time and draining as a batch must yield byte-identical frames, identical
  // stats, and identical shared-memory counters.
  L2Config config;
  config.positioning = GetParam();
  World per_frame(config);
  World batched(config);

  std::vector<Buffer> frames;
  for (size_t payload : {0, 1, 100, 1000, 1486, 7, 64}) {
    frames.push_back(per_frame.ToGuest(payload));
  }
  FeedFrames(per_frame, frames);
  FeedFrames(batched, frames);

  std::vector<Buffer> got_per_frame;
  for (;;) {
    auto frame = cionet::ReceiveOne(*per_frame.transport);
    if (!frame.ok()) {
      break;
    }
    got_per_frame.push_back(std::move(*frame));
  }

  cionet::FrameBatch batch;
  std::vector<Buffer> got_batched;
  for (;;) {
    auto got = batched.transport->ReceiveFrames(batch, 3);  // odd batch size
    ASSERT_TRUE(got.ok());
    if (*got == 0) {
      break;
    }  // odd batch size
    for (size_t i = 0; i < batch.size(); ++i) {
      got_batched.emplace_back(batch[i].begin(), batch[i].end());
    }
  }

  ASSERT_EQ(got_per_frame.size(), frames.size());
  ASSERT_EQ(got_batched.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got_per_frame[i], frames[i]) << i;
    EXPECT_EQ(got_batched[i], frames[i]) << i;
  }

  const auto& s1 = per_frame.transport->stats();
  const auto& s2 = batched.transport->stats();
  EXPECT_EQ(s1.frames_received, s2.frames_received);
  EXPECT_EQ(s1.rx_clamped_len, s2.rx_clamped_len);
  EXPECT_EQ(s1.rx_dropped_empty, s2.rx_dropped_empty);
  EXPECT_EQ(s1.pages_revoked, s2.pages_revoked);

  // Published RxConsumed counters agree.
  const L2Layout& layout = per_frame.transport->layout();
  EXPECT_EQ(ciobase::LoadLe64(
                per_frame.shared->HostWindow(layout.RxConsumed(), 8).data()),
            ciobase::LoadLe64(
                batched.shared->HostWindow(layout.RxConsumed(), 8).data()));
  EXPECT_TRUE(per_frame.memory.violations().empty());
  EXPECT_TRUE(batched.memory.violations().empty());
}

TEST_P(L2BatchTest, SendBatchMatchesPerFrameExactly) {
  L2Config config;
  config.positioning = GetParam();
  World per_frame(config);
  World batched(config);

  std::vector<Buffer> frames;
  for (size_t payload : {0, 1, 100, 1000, 1486}) {
    frames.push_back(per_frame.FromGuest(payload));
  }

  for (const Buffer& frame : frames) {
    ASSERT_TRUE(cionet::SendOne(*per_frame.transport, frame).ok());
  }
  std::vector<ciobase::ByteSpan> spans(frames.begin(), frames.end());
  auto accepted = batched.transport->SendFrames(spans);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(*accepted, frames.size());

  per_frame.device->Poll();
  batched.device->Poll();
  per_frame.clock.Advance(25'000);
  batched.clock.Advance(25'000);

  for (const Buffer& frame : frames) {
    auto a = cionet::ReceiveOne(*per_frame.peer);
    auto b = cionet::ReceiveOne(*batched.peer);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, frame);
    EXPECT_EQ(*b, frame);
  }
  EXPECT_EQ(per_frame.transport->stats().frames_sent,
            batched.transport->stats().frames_sent);
  const L2Layout& layout = per_frame.transport->layout();
  EXPECT_EQ(ciobase::LoadLe64(
                per_frame.shared->HostWindow(layout.TxProduced(), 8).data()),
            ciobase::LoadLe64(
                batched.shared->HostWindow(layout.TxProduced(), 8).data()));
}

INSTANTIATE_TEST_SUITE_P(Modes, L2BatchTest,
                         ::testing::Values(DataPositioning::kInline,
                                           DataPositioning::kSharedPool,
                                           DataPositioning::kIndirect),
                         [](const auto& info) {
                           std::string name(DataPositioningName(info.param));
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(L2Batch, SendStopsAtRingFull) {
  // A host that never consumes: a batch larger than the ring accepts exactly
  // ring_slots frames and reports backpressure, identical to the per-frame
  // path's behavior.
  World world;
  Buffer frame = world.FromGuest(100);
  std::vector<ciobase::ByteSpan> spans(world.config.ring_slots + 50,
                                       ciobase::ByteSpan(frame));
  auto sent = world.transport->SendFrames(spans);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, world.config.ring_slots);
  EXPECT_GT(world.transport->stats().tx_ring_full, 0u);
  // The ring is full: a retry accepts nothing and reports why.
  auto retry = world.transport->SendFrames(spans);
  EXPECT_FALSE(retry.ok());
  EXPECT_EQ(retry.status().code(), ciobase::StatusCode::kResourceExhausted);
}

TEST(L2Batch, SendRejectsOversizedFrameMidBatch) {
  World world;
  Buffer ok_frame = world.FromGuest(100);
  Buffer too_big = world.FromGuest(1600);  // > MTU
  std::vector<ciobase::ByteSpan> spans = {ok_frame, too_big, ok_frame};
  // Stops at the oversized frame; the frames before it are sent.
  auto sent = world.transport->SendFrames(spans);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, 1u);
}

TEST(L2Batch, HostileRxProducedStormDrainsAtMostRing) {
  // Interrupt-storm counter: the host claims 10000 pending frames. The
  // batch path must clamp its drain to the ring size and never read out of
  // bounds; every fabricated slot is validated like a real one.
  World world;
  const L2Layout& layout = world.transport->layout();
  ciobase::StoreLe64(world.shared->HostWindow(layout.RxProduced(), 8).data(),
                     10'000);
  cionet::FrameBatch batch;
  auto got = world.transport->ReceiveFrames(batch, 100'000);
  ASSERT_TRUE(got.ok());
  size_t drained = *got;
  EXPECT_LE(drained + world.transport->stats().rx_dropped_empty,
            world.config.ring_slots);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobWrite),
            0u);
}

TEST(L2Batch, HostileRxProducedRewindYieldsNothing) {
  // The host rewinds the produced counter below what the guest already
  // consumed: monotonicity violation, treated as "nothing pending".
  World world;
  Buffer in = world.ToGuest(100);
  ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  cionet::FrameBatch batch;
  ASSERT_EQ(*world.transport->ReceiveFrames(batch, 16), 1u);

  const L2Layout& layout = world.transport->layout();
  ciobase::StoreLe64(world.shared->HostWindow(layout.RxProduced(), 8).data(),
                     0);  // rewound below rx_consumed_ == 1
  EXPECT_EQ(*world.transport->ReceiveFrames(batch, 16), 0u);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
}

TEST(L2Batch, NotifyModeCoalescesDoorbellPerBatch) {
  L2Config config;
  config.polling = false;
  World world(config);
  Buffer frame = world.FromGuest(64);
  std::vector<ciobase::ByteSpan> spans(8, ciobase::ByteSpan(frame));
  ASSERT_EQ(*world.transport->SendFrames(spans), 8u);
  // One kick and one modeled notify for the whole batch of 8.
  EXPECT_EQ(world.device->stats().kicks, 1u);
  EXPECT_EQ(world.costs.counter("notifies"), 1u);
}

TEST(L2Batch, AdversaryStrategiesSafeUnderBatchedOps) {
  // The adversary mutates the same attack surface as for the per-frame path
  // (batching added no new host-controlled state); batched send/receive must
  // stay within bounds under every strategy.
  for (auto strategy : ciohost::AllAttackStrategies()) {
    World world;
    world.adversary.Arm(world.shared.get(),
                        world.transport->AttackSurface());
    world.adversary.set_strategy(strategy);
    cionet::FrameBatch batch;
    Buffer out = world.FromGuest(500);
    std::vector<ciobase::ByteSpan> spans(4, ciobase::ByteSpan(out));
    for (int i = 0; i < 50; ++i) {
      (void)cionet::SendOne(*world.peer, world.ToGuest(500));
      world.clock.Advance(25'000);
      world.device->Poll();
      (void)world.transport->ReceiveFrames(batch, 8);
      (void)world.transport->SendFrames(spans);
      world.device->Poll();
    }
    world.adversary.Disarm();
    EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
              0u)
        << ciohost::AttackStrategyName(strategy);
    EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobWrite),
              0u)
        << ciohost::AttackStrategyName(strategy);
  }
}

TEST(L2Adversary, AllStrategiesSafeAndOftenDelivering) {
  for (auto strategy : ciohost::AllAttackStrategies()) {
    World world;
    world.adversary.Arm(world.shared.get(),
                        world.transport->AttackSurface());
    world.adversary.set_strategy(strategy);
    for (int i = 0; i < 50; ++i) {
      (void)cionet::SendOne(*world.peer, world.ToGuest(500));
      world.clock.Advance(25'000);
      world.device->Poll();
      (void)cionet::ReceiveOne(*world.transport);
      (void)cionet::SendOne(*world.transport, world.FromGuest(500));
      world.device->Poll();
    }
    world.adversary.Disarm();
    EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
              0u)
        << ciohost::AttackStrategyName(strategy);
    EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobWrite),
              0u)
        << ciohost::AttackStrategyName(strategy);
  }
}

}  // namespace
