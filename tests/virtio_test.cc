// Tests for the virtio baseline: negotiation, frame TX/RX through the
// device model and fabric, SWIOTLB pool behavior, and — the §2.5 point —
// hardened vs. unhardened drivers under active host attack.

#include <gtest/gtest.h>

#include <memory>

#include "src/base/clock.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/tee/memory.h"
#include "src/tee/shared_region.h"
#include "src/virtio/net_device.h"
#include "src/virtio/net_driver.h"
#include "src/virtio/swiotlb.h"

namespace {

using ciobase::Buffer;
using ciobase::ByteSpan;
using namespace ciovirtio;  // NOLINT: test file

// A virtio guest attached to a fabric, with a direct peer port to talk to.
struct VirtioWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 7};
  ciotee::TeeMemory memory;
  VirtioNetLayout layout = VirtioNetLayout::Make(64, 2048, 128);
  ciotee::SharedRegion shared{&memory, layout.TotalSize(), "virtio"};
  ciohost::Adversary adversary{13};
  ciohost::ObservabilityLog observability;
  std::unique_ptr<VirtioNetDevice> device;
  std::unique_ptr<VirtioNetDriver> driver;
  std::unique_ptr<cionet::DirectFabricPort> peer;

  explicit VirtioWorld(HardeningOptions hardening) {
    device = std::make_unique<VirtioNetDevice>(
        &shared, layout, &fabric, "virtio-nic", std::nullopt,
        cionet::MacAddress::FromId(1), 1500,
        kFeatureMac | kFeatureMtu | kFeatureCsum | kFeatureVersion1 |
            kFeatureIndirectDesc,
        &adversary, &observability, &clock);
    driver = std::make_unique<VirtioNetDriver>(&shared, layout, device.get(),
                                               &costs, hardening,
                                               &observability);
    peer = std::make_unique<cionet::DirectFabricPort>(
        &fabric, "peer", cionet::MacAddress::FromId(2));
  }

  // Builds an Ethernet frame from peer to the virtio NIC.
  Buffer PeerFrame(const std::string& payload) {
    Buffer frame;
    cionet::EthernetHeader eth{cionet::MacAddress::FromId(1),
                               cionet::MacAddress::FromId(2), 0x88b5};
    eth.Serialize(frame);
    ciobase::AppendString(frame, payload);
    return frame;
  }

  void Pump(int rounds = 10) {
    for (int i = 0; i < rounds; ++i) {
      clock.Advance(50'000);
      device->Poll();
    }
  }
};

TEST(VirtioNegotiation, CompletesAndReadsConfig) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  EXPECT_EQ(world.driver->mac(), cionet::MacAddress::FromId(1));
  EXPECT_EQ(world.driver->mtu(), 1500);
  // Feature restriction refused indirect descriptors.
  EXPECT_EQ(world.driver->config().features & kFeatureIndirectDesc, 0u);
  // Config-plane observability was recorded (the §2.4 cost of a stateful
  // control path).
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kConfigField),
            5u);
}

TEST(VirtioNegotiation, UnrestrictedDriverAcceptsIndirect) {
  VirtioWorld world(HardeningOptions::None());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  EXPECT_NE(world.driver->config().features & kFeatureIndirectDesc, 0u);
}

TEST(VirtioNegotiation, SendBeforeNegotiateFails) {
  VirtioWorld world(HardeningOptions::Full());
  Buffer frame = world.PeerFrame("x");
  EXPECT_EQ(cionet::SendOne(*world.driver, frame).code(),
            ciobase::StatusCode::kFailedPrecondition);
}

TEST(VirtioNegotiation, MidFlightNeedsResetIsTypedViolation) {
  // The status byte is the host's lever for forcing re-negotiation. A
  // hardened driver reads it back exactly once and refuses anything but the
  // value it wrote — NEEDS_RESET mid-dance is a typed violation, never a
  // silent restart of the dance.
  VirtioWorld world(HardeningOptions::Full());
  size_t status_offset = world.layout.config.StatusOffset();
  world.shared.SetTamperHook([status_offset](ciobase::MutableByteSpan bytes) {
    bytes[status_offset] |= kStatusNeedsReset;
  });
  EXPECT_EQ(world.driver->Negotiate().code(),
            ciobase::StatusCode::kHostViolation);
  world.shared.ClearTamperHook();
}

TEST(VirtioNegotiation, FeatureWordSwapAfterAcceptIsTypedViolation) {
  // Advertise-then-swap: the host changes the device feature words only
  // after the driver has written its accepted subset. The driver's private
  // snapshot stays authoritative, and the changed word surfaces as a typed
  // violation instead of being silently re-read.
  VirtioWorld world(HardeningOptions::Full());
  size_t device_features = world.layout.config.DeviceFeaturesOffset();
  size_t driver_features = world.layout.config.DriverFeaturesOffset();
  world.shared.SetTamperHook(
      [device_features, driver_features](ciobase::MutableByteSpan bytes) {
        if (ciobase::LoadLe64(bytes.data() + driver_features) != 0) {
          bytes[device_features + 5] |= 0x80;  // unknown high feature bit
        }
      });
  EXPECT_EQ(world.driver->Negotiate().code(),
            ciobase::StatusCode::kHostViolation);
  world.shared.ClearTamperHook();
}

TEST(VirtioDataPath, GuestToPeer) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(2),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  ciobase::AppendString(frame, "guest speaks");
  ASSERT_TRUE(cionet::SendOne(*world.driver, frame).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.peer);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, frame);
}

TEST(VirtioDataPath, PeerToGuest) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  Buffer frame = world.PeerFrame("host speaks");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.driver);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, frame);
  EXPECT_TRUE(world.memory.violations().empty());
}

TEST(VirtioDataPath, ManyFramesBothWays) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  for (int i = 0; i < 200; ++i) {
    Buffer frame = world.PeerFrame("frame " + std::to_string(i));
    ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
    world.Pump(2);
    auto received = cionet::ReceiveOne(*world.driver);
    ASSERT_TRUE(received.ok()) << "frame " << i << ": "
                               << received.status().ToString();
    EXPECT_EQ(*received, frame);
  }
  EXPECT_EQ(world.driver->stats().frames_received, 200u);
}

TEST(VirtioDataPath, UnhardenedAlsoWorksWithoutAttack) {
  VirtioWorld world(HardeningOptions::None());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  Buffer frame = world.PeerFrame("benign");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.driver);
  ASSERT_TRUE(received.ok());
  ASSERT_GE(received->size(), frame.size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), received->begin()));
}

// --- Under attack -------------------------------------------------------------

TEST(VirtioAttack, UsedLenInflationClampedByHardenedDriver) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kUsedLenInflation);
  Buffer frame = world.PeerFrame("short");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.driver);
  ASSERT_TRUE(received.ok());
  // The hardened driver clamps to its own posted capacity: no OOB access.
  EXPECT_LE(received->size(), 2048u);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
}

TEST(VirtioAttack, UsedLenInflationBreaksUnhardenedDriver) {
  VirtioWorld world(HardeningOptions::None());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kUsedLenInflation);
  Buffer frame = world.PeerFrame("short");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.driver);
  // The unhardened driver trusts the inflated length: it reads far past the
  // posted buffer (recorded as an out-of-bounds access by the TEE memory
  // model) and returns a hugely oversized frame.
  ASSERT_TRUE(received.ok());
  EXPECT_GT(received->size(), 2048u);
  EXPECT_GT(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
}

TEST(VirtioAttack, ReplayedCompletionRejectedByHardenedDriver) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  Buffer frame = world.PeerFrame("first");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  ASSERT_TRUE(cionet::ReceiveOne(*world.driver).ok());
  // Now replay: every completion the device pushes is the stale one.
  world.adversary.set_strategy(ciohost::AttackStrategy::kReplayCompletion);
  Buffer frame2 = world.PeerFrame("second");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame2).ok());
  world.Pump();
  auto received = cionet::ReceiveOne(*world.driver);
  // The replayed id no longer matches an outstanding buffer: refused.
  EXPECT_FALSE(received.ok());
  EXPECT_GT(world.driver->stats().completions_rejected, 0u);
}

TEST(VirtioAttack, DoubleFetchOffsetHitsUnhardenedOnly) {
  // Unhardened first: the in-place re-read of desc.addr diverges.
  {
    VirtioWorld world(HardeningOptions::None());
    ASSERT_TRUE(world.driver->Negotiate().ok());
    ASSERT_TRUE(cionet::SendOne(*world.peer, world.PeerFrame("payload")).ok());
    world.Pump();
    world.adversary.Arm(&world.shared, world.driver->AttackSurface());
    world.adversary.set_strategy(
        ciohost::AttackStrategy::kDoubleFetchOffset);
    (void)cionet::ReceiveOne(*world.driver);
    world.adversary.Disarm();
    // The flipped offset (0xff...) sent the payload read out of bounds.
    EXPECT_GT(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
              0u);
  }
  // Hardened: the driver never re-reads shared descriptor fields, so the
  // same attack cannot redirect its payload read.
  {
    VirtioWorld world(HardeningOptions::Full());
    ASSERT_TRUE(world.driver->Negotiate().ok());
    ASSERT_TRUE(cionet::SendOne(*world.peer, world.PeerFrame("payload")).ok());
    world.Pump();
    world.adversary.Arm(&world.shared, world.driver->AttackSurface());
    world.adversary.set_strategy(
        ciohost::AttackStrategy::kDoubleFetchOffset);
    auto received = cionet::ReceiveOne(*world.driver);
    world.adversary.Disarm();
    EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
              0u);
    // It either delivered the frame or rejected cleanly — never OOB.
    if (received.ok()) {
      EXPECT_LE(received->size(), 2048u);
    }
  }
}

TEST(VirtioAttack, IndexStormBoundedByHardenedDriver) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kIndexStorm);
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.PeerFrame("x")).ok());
  world.Pump();
  // The stormed used-idx claims thousands of completions; all the phantom
  // ones carry ids that don't match outstanding buffers and are refused.
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    auto received = cionet::ReceiveOne(*world.driver);
    if (received.ok()) {
      ++delivered;
    }
  }
  EXPECT_LE(delivered, 1);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
}

// --- Device-side bounds (mutual distrust: a forged guest ring) ----------------

TEST(VirtioDeviceBounds, ForgedTxLengthCopiesAtMostOnePoolSlot) {
  // A TX descriptor whose length claims 4 GiB must not buy a 4 GiB host-side
  // allocation and copy: the device takes at most one pool slot for it.
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(2),
                             cionet::MacAddress::FromId(1), 0x88b5};
  eth.Serialize(frame);
  ciobase::AppendString(frame, "forged length");
  const VirtqLayout& tx = world.layout.tx;
  uint64_t slot = world.layout.pool_offset +
                  (world.layout.pool_slot_count - 1) *
                      world.layout.pool_slot_size;
  ASSERT_TRUE(world.shared.GuestWrite(slot, frame).ok());
  world.shared.GuestWriteLe64(tx.DescOffset(0), slot);
  world.shared.GuestWriteLe32(tx.DescOffset(0) + 8, 0xFFFFFFFF);
  world.shared.GuestWriteLe16(tx.AvailRing(0), 0);
  world.shared.GuestWriteLe16(tx.AvailIdx(), 1);
  world.device->Poll();
  world.clock.Advance(50'000);

  EXPECT_EQ(world.device->stats().frames_tx, 1u);
  EXPECT_EQ(world.shared.HostReadLe32(tx.UsedRing(0) + 4),
            world.layout.pool_slot_size);
  auto received = cionet::ReceiveOne(*world.peer);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->size(), world.layout.pool_slot_size);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), received->begin()));
}

TEST(VirtioDeviceBounds, ForgedAvailIndexDrainsAtMostQueueSizePerPoll) {
  // An avail index forged 65535 entries ahead must not spin the device
  // through 65535 chains in one poll: the work budget is one queue.
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  world.shared.GuestWriteLe16(world.layout.tx.AvailIdx(), 0xFFFF);
  world.device->Poll();
  EXPECT_EQ(world.device->stats().frames_tx, world.layout.tx.queue_size);
}

TEST(VirtioSwiotlb, AllocFreeExhaustion) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::SharedRegion shared(&memory, 16 * 1024, "pool");
  Swiotlb pool(&shared, 0, 1024, 16, &costs);
  std::vector<uint64_t> slots;
  for (int i = 0; i < 16; ++i) {
    auto slot = pool.AllocSlot();
    ASSERT_TRUE(slot.ok());
    slots.push_back(*slot);
  }
  EXPECT_FALSE(pool.AllocSlot().ok());
  for (uint64_t slot : slots) {
    EXPECT_TRUE(pool.FreeSlot(slot).ok());
  }
  EXPECT_EQ(pool.free_slots(), 16u);
  EXPECT_FALSE(pool.FreeSlot(13).ok());  // misaligned offset
}

TEST(VirtioSwiotlb, BounceRoundTripChargesCopies) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::SharedRegion shared(&memory, 16 * 1024, "pool");
  Swiotlb pool(&shared, 0, 1024, 16, &costs);
  auto slot = pool.AllocSlot();
  ASSERT_TRUE(slot.ok());
  Buffer data = ciobase::BufferFromString("bounce me");
  ASSERT_TRUE(pool.CopyOut(*slot, data).ok());
  auto back = pool.CopyIn(*slot, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(costs.counter("copies"), 2u);
  EXPECT_EQ(costs.counter("bytes_copied"), 2 * data.size());
}

TEST(VirtioObservability, HostSeesLengthsAndDoorbells) {
  VirtioWorld world(HardeningOptions::Full());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  world.observability.Clear();
  Buffer frame = world.PeerFrame("observable");
  ASSERT_TRUE(cionet::SendOne(*world.peer, frame).ok());
  world.Pump();
  ASSERT_TRUE(cionet::ReceiveOne(*world.driver).ok());
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kPacketLength),
            0u);
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kPacketTiming),
            0u);
}

}  // namespace
