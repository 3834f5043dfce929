// Fault injection + guest-side recovery, layer by layer:
//
//   * LinkWatchdog policy unit tests (arming, capped exponential backoff,
//     reset-budget exhaustion, progress forgiveness).
//   * L2 transport: a stalled host trips the watchdog, the ring resets and
//     reattaches (kLinkReset), traffic resumes once the host turns honest;
//     a permanently hostile host exhausts the budget (kTimedOut).
//   * Virtio driver: reset-and-reattach re-runs the full negotiation and
//     the datapath comes back.
//   * Session acks: every frame's cumulative ack trims the resend window;
//     an ack of a message never sent and a sequence gap are kTampered; a
//     full window refuses Send until the peer's next frame; a serialized
//     session carries its trimmed window.
//   * Engine, end to end: the host kills the link mid-transfer; the
//     dual-boundary node's watchdog + ring reset + TCP retransmit + TLS
//     re-establishment + resend window deliver every message exactly once,
//     also with 200 messages offered into the dead link; a one-way stream
//     draws at most one standalone ack per half window.
//   * One recovery-campaign cell as ground truth for the bench's claim.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/recovery.h"
#include "src/cio/attack_campaign.h"
#include "src/cio/engine.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/fabric.h"
#include "src/virtio/net_device.h"
#include "src/virtio/net_driver.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

// --- Policy units ------------------------------------------------------------

TEST(RecoveryConfig, ValidityRules) {
  ciobase::RecoveryConfig config;  // disabled: always valid
  EXPECT_TRUE(config.Valid());
  config.enabled = true;
  EXPECT_TRUE(config.Valid());
  config.watchdog_timeout_ns = 0;
  EXPECT_FALSE(config.Valid());
  config.watchdog_timeout_ns = 1'000'000;
  config.backoff_cap_ns = config.backoff_initial_ns - 1;
  EXPECT_FALSE(config.Valid());
  config.backoff_cap_ns = config.backoff_initial_ns;
  config.max_resets = 0;
  EXPECT_FALSE(config.Valid());
}

TEST(LinkWatchdog, ArmsExpiresAndBacksOffCapped) {
  ciobase::RecoveryConfig config;
  config.enabled = true;
  config.watchdog_timeout_ns = 1'000'000;
  config.backoff_initial_ns = 1'000'000;
  config.backoff_cap_ns = 4'000'000;
  ciobase::LinkWatchdog watchdog(config);

  watchdog.Arm(0);
  EXPECT_FALSE(watchdog.Expired(999'999));
  EXPECT_TRUE(watchdog.Expired(1'000'000));

  // Each reset doubles the window until the cap.
  watchdog.NoteReset(1'000'000);
  EXPECT_EQ(watchdog.timeout_ns(), 2'000'000u);
  watchdog.NoteReset(3'000'000);
  EXPECT_EQ(watchdog.timeout_ns(), 4'000'000u);
  watchdog.NoteReset(7'000'000);
  EXPECT_EQ(watchdog.timeout_ns(), 4'000'000u);  // capped
  EXPECT_EQ(watchdog.consecutive_resets(), 3u);
}

TEST(LinkWatchdog, ProgressForgivesResetsAndRestoresWindow) {
  ciobase::RecoveryConfig config;
  config.enabled = true;
  config.watchdog_timeout_ns = 1'000'000;
  config.backoff_initial_ns = 1'000'000;
  config.max_resets = 2;
  ciobase::LinkWatchdog watchdog(config);
  watchdog.Arm(0);
  watchdog.NoteReset(1'000'000);
  watchdog.NoteReset(2'000'000);
  EXPECT_TRUE(watchdog.Exhausted());
  // A successful reattach (visible host progress) clears the budget.
  watchdog.NoteProgress(3'000'000);
  EXPECT_FALSE(watchdog.Exhausted());
  EXPECT_EQ(watchdog.timeout_ns(), config.watchdog_timeout_ns);
  EXPECT_FALSE(watchdog.armed());
}

TEST(LinkWatchdog, DisabledConfigNeverExpires) {
  ciobase::RecoveryConfig config;  // enabled = false
  ciobase::LinkWatchdog watchdog(config);
  watchdog.Arm(0);
  EXPECT_FALSE(watchdog.Expired(1'000'000'000));
}

TEST(StackConfigDefaults, ValidEverywhereRecoveryOnlyForDualBoundary) {
  for (StackProfile profile : AllStackProfiles()) {
    StackConfig config = StackConfig::DefaultsFor(profile, 1);
    EXPECT_TRUE(config.Valid()) << StackProfileName(profile);
    EXPECT_EQ(config.recovery.enabled, profile == StackProfile::kDualBoundary)
        << StackProfileName(profile);
  }
  StackConfig broken = StackConfig::DefaultsFor(StackProfile::kDualBoundary);
  broken.recovery.watchdog_timeout_ns = 0;
  EXPECT_FALSE(broken.Valid());
}

// --- L2 layer ----------------------------------------------------------------

ciobase::RecoveryConfig FastRecovery() {
  ciobase::RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.watchdog_timeout_ns = 100'000;  // 100 µs
  recovery.backoff_initial_ns = 100'000;
  recovery.backoff_cap_ns = 400'000;
  recovery.max_resets = 3;
  return recovery;
}

struct L2World {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 17, cionet::Fabric::Options{0, 0, 0, 9216}};
  ciotee::TeeMemory memory;
  L2Config config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  ciohost::Adversary adversary{23};
  ciohost::ObservabilityLog observability;
  std::unique_ptr<L2HostDevice> device;
  std::unique_ptr<L2Transport> transport;
  std::unique_ptr<cionet::DirectFabricPort> peer;

  explicit L2World(const ciobase::RecoveryConfig& recovery) {
    config.mac = cionet::MacAddress::FromId(1);
    L2Layout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    "l2");
    device = std::make_unique<L2HostDevice>(shared.get(), config, &fabric,
                                            "nic", std::nullopt, &adversary,
                                            &observability, &clock);
    transport = std::make_unique<L2Transport>(shared.get(), config, &costs,
                                              nullptr, recovery);
    peer = std::make_unique<cionet::DirectFabricPort>(
        &fabric, "peer", cionet::MacAddress::FromId(2));
  }

  Buffer FromGuest(const std::string& payload) {
    Buffer frame;
    cionet::EthernetHeader eth{cionet::MacAddress::FromId(2),
                               cionet::MacAddress::FromId(1), 0x88b5};
    eth.Serialize(frame);
    ciobase::AppendString(frame, payload);
    return frame;
  }
};

TEST(L2Recovery, StalledHostTripsWatchdogResetsAndResumes) {
  L2World world(FastRecovery());
  cionet::FrameBatch batch;

  // Healthy round trip first.
  ASSERT_TRUE(cionet::SendOne(*world.transport, world.FromGuest("warm")).ok());
  world.device->Poll();
  world.clock.Advance(25'000);
  ASSERT_TRUE(cionet::ReceiveOne(*world.peer).ok());

  // Host stalls for 1 ms: kicks and polls process nothing.
  uint64_t fault_start = world.clock.now_ns();
  world.adversary.InjectFault(
      {ciohost::FaultStrategy::kStallCounters, fault_start, 1'000'000});
  ASSERT_TRUE(
      cionet::SendOne(*world.transport, world.FromGuest("stuck")).ok());

  bool saw_reset = false;
  for (int round = 0; round < 200 && !saw_reset; ++round) {
    world.device->Poll();
    world.clock.Advance(25'000);
    auto got = world.transport->ReceiveFrames(batch, 4);
    if (!got.ok() &&
        got.status().code() == ciobase::StatusCode::kLinkReset) {
      saw_reset = true;
    }
  }
  EXPECT_TRUE(saw_reset);
  EXPECT_GE(world.transport->stats().watchdog_fires, 1u);
  EXPECT_GE(world.transport->stats().ring_resets, 1u);
  EXPECT_GE(world.transport->epoch(), 1u);
  EXPECT_GT(world.adversary.fault_events(), 0u);

  // The host turns honest again: the reattached ring carries traffic.
  world.clock.Advance(1'200'000);
  ASSERT_TRUE(
      cionet::SendOne(*world.transport, world.FromGuest("after")).ok());
  world.device->Poll();
  world.clock.Advance(25'000);
  auto at_peer = cionet::ReceiveOne(*world.peer);
  ASSERT_TRUE(at_peer.ok());
  EXPECT_NE(std::string(reinterpret_cast<const char*>(at_peer->data()),
                        at_peer->size())
                .find("after"),
            std::string::npos);
}

TEST(L2Recovery, PermanentStallExhaustsResetBudget) {
  L2World world(FastRecovery());
  cionet::FrameBatch batch;
  // duration 0 = the host never comes back.
  world.adversary.InjectFault(
      {ciohost::FaultStrategy::kStallCounters, 0, 0});

  bool timed_out = false;
  for (int round = 0; round < 2000 && !timed_out; ++round) {
    // TCP-style persistence: keep offering work so the watchdog stays armed.
    (void)cionet::SendOne(*world.transport, world.FromGuest("retry"));
    world.device->Poll();
    world.clock.Advance(25'000);
    auto got = world.transport->ReceiveFrames(batch, 4);
    if (!got.ok() &&
        got.status().code() == ciobase::StatusCode::kTimedOut) {
      timed_out = true;
    }
  }
  EXPECT_TRUE(timed_out);
  EXPECT_GE(world.transport->stats().ring_resets, 3u);  // budget spent
}

TEST(L2Recovery, ManualResetRingKeepsDatapathSound) {
  L2World world(FastRecovery());
  ASSERT_TRUE(cionet::SendOne(*world.transport, world.FromGuest("one")).ok());
  uint64_t epoch_before = world.transport->epoch();
  ASSERT_TRUE(world.transport->ResetRing().ok());
  EXPECT_EQ(world.transport->epoch(), epoch_before + 1);
  // In-flight frames died with the old epoch; new traffic flows.
  world.device->Poll();
  ASSERT_TRUE(cionet::SendOne(*world.transport, world.FromGuest("two")).ok());
  world.device->Poll();
  world.clock.Advance(25'000);
  EXPECT_TRUE(cionet::ReceiveOne(*world.peer).ok());
}

TEST(L2Recovery, DisabledRecoveryWedgesUnderStall) {
  ciobase::RecoveryConfig off;  // seed behavior
  L2World world(off);
  cionet::FrameBatch batch;
  world.adversary.InjectFault(
      {ciohost::FaultStrategy::kStallCounters, 0, 0});
  ASSERT_TRUE(
      cionet::SendOne(*world.transport, world.FromGuest("stuck")).ok());
  for (int round = 0; round < 200; ++round) {
    world.device->Poll();
    world.clock.Advance(25'000);
    auto got = world.transport->ReceiveFrames(batch, 4);
    ASSERT_TRUE(got.ok());  // never kLinkReset/kTimedOut: it just hangs
    EXPECT_EQ(*got, 0u);
  }
  EXPECT_EQ(world.transport->stats().watchdog_fires, 0u);
  EXPECT_EQ(world.transport->stats().ring_resets, 0u);
}

// --- Virtio layer ------------------------------------------------------------

struct VirtioWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 7};
  ciotee::TeeMemory memory;
  ciovirtio::VirtioNetLayout layout =
      ciovirtio::VirtioNetLayout::Make(64, 2048, 128);
  ciotee::SharedRegion shared{&memory, layout.TotalSize(), "virtio"};
  ciohost::Adversary adversary{13};
  ciohost::ObservabilityLog observability;
  std::unique_ptr<ciovirtio::VirtioNetDevice> device;
  std::unique_ptr<ciovirtio::VirtioNetDriver> driver;
  std::unique_ptr<cionet::DirectFabricPort> peer;

  explicit VirtioWorld(const ciobase::RecoveryConfig& recovery) {
    device = std::make_unique<ciovirtio::VirtioNetDevice>(
        &shared, layout, &fabric, "virtio-nic", std::nullopt,
        cionet::MacAddress::FromId(1), 1500,
        ciovirtio::kFeatureMac | ciovirtio::kFeatureMtu |
            ciovirtio::kFeatureCsum | ciovirtio::kFeatureVersion1,
        &adversary, &observability, &clock);
    driver = std::make_unique<ciovirtio::VirtioNetDriver>(
        &shared, layout, device.get(), &costs,
        ciovirtio::HardeningOptions::Full(), &observability, recovery);
    peer = std::make_unique<cionet::DirectFabricPort>(
        &fabric, "peer", cionet::MacAddress::FromId(2));
  }

  Buffer ToGuest(const std::string& payload) {
    Buffer frame;
    cionet::EthernetHeader eth{cionet::MacAddress::FromId(1),
                               cionet::MacAddress::FromId(2), 0x88b5};
    eth.Serialize(frame);
    ciobase::AppendString(frame, payload);
    return frame;
  }
};

TEST(VirtioRecovery, ResetAndReattachRenegotiatesAndResumes) {
  VirtioWorld world(FastRecovery());
  ASSERT_TRUE(world.driver->Negotiate().ok());

  // Prove the datapath works, then rip the rings out.
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.ToGuest("before")).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  ASSERT_TRUE(cionet::ReceiveOne(*world.driver).ok());

  uint64_t epoch_before = world.driver->reset_epoch();
  ASSERT_TRUE(world.driver->ResetAndReattach().ok());
  EXPECT_EQ(world.driver->reset_epoch(), epoch_before + 1);
  EXPECT_GE(world.driver->stats().ring_resets, 1u);

  // The full negotiation re-ran and the fresh rings carry traffic.
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.ToGuest("after")).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  auto got = cionet::ReceiveOne(*world.driver);
  ASSERT_TRUE(got.ok());
}

TEST(VirtioRecovery, StalledDeviceTripsWatchdogAndComesBack) {
  VirtioWorld world(FastRecovery());
  ASSERT_TRUE(world.driver->Negotiate().ok());
  cionet::FrameBatch batch;

  uint64_t fault_start = world.clock.now_ns();
  world.adversary.InjectFault(
      {ciohost::FaultStrategy::kStallCounters, fault_start, 1'000'000});
  Buffer out = world.ToGuest("x");
  out[0] = 0x02;  // retarget guest -> peer
  out[5] = 0x02;
  out[11] = 0x01;
  ASSERT_TRUE(cionet::SendOne(*world.driver, out).ok());

  bool saw_reset = false;
  for (int round = 0; round < 200 && !saw_reset; ++round) {
    world.device->Poll();
    world.clock.Advance(25'000);
    auto got = world.driver->ReceiveFrames(batch, 4);
    if (!got.ok() &&
        got.status().code() == ciobase::StatusCode::kLinkReset) {
      saw_reset = true;
    }
  }
  EXPECT_TRUE(saw_reset);
  EXPECT_GE(world.driver->stats().watchdog_fires, 1u);
  EXPECT_GE(world.driver->stats().ring_resets, 1u);

  // Honest again: the reattached rings deliver.
  world.clock.Advance(1'200'000);
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.ToGuest("resumed")).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  EXPECT_TRUE(cionet::ReceiveOne(*world.driver).ok());
}

// --- Session acks -------------------------------------------------------------

// One plaintext frame as Session frames it: [len u32][seq u64][ack u64]
// [payload]; `request` sets the ack-request flag (len's top bit).
Buffer Frame(uint64_t seq, uint64_t ack, const std::string& payload,
             bool request = false) {
  Buffer frame(Session::kFrameHeaderBytes);
  uint32_t len = static_cast<uint32_t>(16 + payload.size());
  ciobase::StoreLe32(frame.data(), request ? len | (1u << 31) : len);
  ciobase::StoreLe64(frame.data() + 4, seq);
  ciobase::StoreLe64(frame.data() + 12, ack);
  ciobase::Append(frame, BufferFromString(payload));
  return frame;
}

std::string ToString(const Buffer& buffer) {
  return std::string(reinterpret_cast<const char*>(buffer.data()),
                     buffer.size());
}

// `prefix` followed by `n`. Built by appending: GCC 12 at -O3 reports a
// false -Wrestrict on a short literal + std::to_string.
std::string Numbered(const char* prefix, size_t n) {
  std::string text = prefix;
  text += std::to_string(n);
  return text;
}

// Moves everything `from` queued into `to`.
ciobase::Status Deliver(Session& from, Session& to) {
  Buffer bytes = from.outbound();
  from.ConsumeOutbound(bytes.size());
  return to.Ingest(bytes);
}

TEST(SessionAcks, AckOfAMessageNeverSentIsTampered) {
  Session session(false, Buffer{}, 8);
  session.Start(ciotls::TlsRole::kClient, 1);
  ASSERT_TRUE(session.Send(BufferFromString("a")).ok());
  ASSERT_TRUE(session.Send(BufferFromString("b")).ok());
  // Acking both trims the window; acking a third message, which was never
  // sent, is forged.
  ASSERT_TRUE(session.Ingest(Frame(1, 2, "reply")).ok());
  EXPECT_EQ(session.resend_window_size(), 0u);
  EXPECT_EQ(session.acked_seq(), 2u);
  EXPECT_EQ(session.Ingest(Frame(2, 3, "reply")).code(),
            ciobase::StatusCode::kTampered);
}

TEST(SessionAcks, SequenceGapIsTamperedAndCountedLost) {
  Session session(false, Buffer{}, 8);
  session.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(session.Ingest(Frame(1, 0, "m1")).ok());
  // Nothing leaves an honest peer's window unacknowledged, so message 2
  // cannot have been dropped: a frame that skips it is forged.
  EXPECT_EQ(session.Ingest(Frame(3, 0, "m3")).code(),
            ciobase::StatusCode::kTampered);
  EXPECT_EQ(session.stats().messages_lost, 1u);
  EXPECT_EQ(session.last_delivered_seq(), 1u);
  auto first = session.Receive();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ToString(*first), "m1");
  EXPECT_FALSE(session.Receive().ok());
}

TEST(SessionAcks, FullWindowRefusesSendUntilThePeersNextFrame) {
  Session a(false, Buffer{}, 4);
  Session b(false, Buffer{}, 4);
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.Send(BufferFromString(Numbered("m", i))).ok());
  }
  EXPECT_EQ(a.resend_window_size(), 4u);
  EXPECT_EQ(a.Send(BufferFromString("m4")).code(),
            ciobase::StatusCode::kResourceExhausted);
  EXPECT_EQ(a.stats().messages_sent, 4u);
  EXPECT_EQ(a.next_send_seq(), 5u);  // the refused message took no number

  // The second message filled half the window and asked for an ack, so b
  // answers its batch with one standalone kAck: b's next frame.
  ASSERT_TRUE(Deliver(a, b).ok());
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().control_sent, 0u);
  ASSERT_TRUE(Deliver(b, a).ok());
  EXPECT_EQ(a.resend_window_size(), 0u);
  EXPECT_FALSE(a.HasControl());  // the kAck is consumed, never surfaced
  ASSERT_TRUE(a.Send(BufferFromString("m4")).ok());

  // A data frame carries the ack as well: no kAck needed.
  ASSERT_TRUE(Deliver(a, b).ok());
  ASSERT_TRUE(b.Send(BufferFromString("reply")).ok());
  ASSERT_TRUE(Deliver(b, a).ok());
  EXPECT_EQ(a.resend_window_size(), 0u);
  EXPECT_EQ(b.stats().acks_sent, 1u);
  size_t delivered = 0;
  for (auto m = b.Receive(); m.ok(); m = b.Receive()) {
    EXPECT_EQ(ToString(*m), Numbered("m", delivered));
    ++delivered;
  }
  EXPECT_EQ(delivered, 5u);
}

// A replayed window can reach the peer over several reads. The first
// replayed frame asks for an ack, and its answer covers only what had
// arrived by then; the next frame may ask again, so a one-way stream
// after a reconnect never stalls on a full window.
TEST(SessionAcks, OneWayStreamAfterASplitReplayKeepsDrawingAcks) {
  Session a(false, Buffer{}, 8);
  Session b(false, Buffer{}, 8);
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  for (size_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(a.Send(BufferFromString(Numbered("m", i))).ok());
  }
  // The link dies before b sees any of them.
  a.ResetChannel();
  b.ResetChannel();
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(a.Replay().ok());
  Buffer replay = a.outbound();
  a.ConsumeOutbound(replay.size());
  const size_t first = Session::kFrameHeaderBytes + 2;  // "m1" alone
  ASSERT_TRUE(b.Ingest(ciobase::ByteSpan(replay.data(), first)).ok());
  ASSERT_TRUE(
      b.Ingest(ciobase::ByteSpan(replay.data() + first, replay.size() - first))
          .ok());
  EXPECT_EQ(b.stats().acks_sent, 1u);
  ASSERT_TRUE(Deliver(b, a).ok());
  EXPECT_EQ(a.resend_window_size(), 5u);

  for (size_t i = 7; i <= 40; ++i) {
    Buffer message = BufferFromString(Numbered("m", i));
    ciobase::Status status = a.Send(message);
    if (status.code() == ciobase::StatusCode::kResourceExhausted) {
      // One round trip must open the window again.
      ASSERT_TRUE(Deliver(a, b).ok());
      ASSERT_TRUE(Deliver(b, a).ok());
      status = a.Send(message);
    }
    ASSERT_TRUE(status.ok()) << i;
  }
  ASSERT_TRUE(Deliver(a, b).ok());
  size_t delivered = 0;
  for (auto m = b.Receive(); m.ok(); m = b.Receive()) {
    ++delivered;
    EXPECT_EQ(ToString(*m), Numbered("m", delivered));
  }
  EXPECT_EQ(delivered, 40u);
}

TEST(SessionAcks, SerializeRestoreCarriesTheTrimmedWindow) {
  Session a(false, Buffer{}, 8);
  Session b(false, Buffer{}, 8);
  a.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(a.Send(BufferFromString(Numbered("m", i))).ok());
  }
  ASSERT_TRUE(Deliver(a, b).ok());
  ASSERT_TRUE(b.Send(BufferFromString("r1")).ok());
  ASSERT_TRUE(Deliver(b, a).ok());
  ASSERT_EQ(a.resend_window_size(), 0u);
  // Two more leave, and the link dies before b sees them.
  ASSERT_TRUE(a.Send(BufferFromString("m6")).ok());
  ASSERT_TRUE(a.Send(BufferFromString("m7")).ok());
  a.ResetChannel();
  b.ResetChannel();

  auto restored = Session::Restore(a.SerializeState());
  ASSERT_TRUE(restored.ok());
  Session& c = **restored;
  EXPECT_EQ(c.resend_window_size(), 2u);
  EXPECT_EQ(c.acked_seq(), 5u);
  EXPECT_EQ(c.next_send_seq(), 8u);
  c.Start(ciotls::TlsRole::kClient, 1);
  b.Start(ciotls::TlsRole::kServer, 2);
  ASSERT_TRUE(c.Replay().ok());
  EXPECT_EQ(c.stats().messages_resent, 2u);
  ASSERT_TRUE(Deliver(c, b).ok());
  std::vector<std::string> delivered;
  for (auto m = b.Receive(); m.ok(); m = b.Receive()) {
    delivered.push_back(ToString(*m));
  }
  EXPECT_EQ(delivered, (std::vector<std::string>{"m1", "m2", "m3", "m4", "m5",
                                                 "m6", "m7"}));
  // b's next frame acknowledges the replay; an ack the restored session's
  // trim point has passed would mean b forgot the session.
  ASSERT_TRUE(b.Send(BufferFromString("r2")).ok());
  ASSERT_TRUE(Deliver(b, c).ok());
  EXPECT_EQ(c.resend_window_size(), 0u);
  EXPECT_EQ(c.Ingest(Frame(3, 4, "stale")).code(),
            ciobase::StatusCode::kTampered);
}

// --- Engine, end to end ------------------------------------------------------

// Deterministic e2e: the host kills the victim's link mid-transfer for
// longer than the TCP retry budget. The dual-boundary node must notice
// (watchdog), reset, reconnect, re-run TLS, replay its resend window — and
// the application byte stream must come through intact, exactly once, in
// order.
TEST(EngineRecovery, KillLinkMidTransferStreamIntactExactlyOnce) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 2024;
  TuneTcpForFaultWindows(client);
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 2031;
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
  auto offer = [&](const std::string& payload) {
    // Retry until the (possibly reconnecting) channel accepts the message.
    for (int round = 0; round < 30000; ++round) {
      if (pair.client->Ready() &&
          pair.client->SendMessage(BufferFromString(payload)).ok()) {
        sent.push_back(payload);
        return true;
      }
      pair.Pump();
      drain();
    }
    return false;
  };

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(offer("pre-fault message " + std::to_string(i)));
  }

  // Kill the link for 12 ms — past the ~7.5 ms TCP retry budget, so the
  // transport reset alone cannot save it; the TLS channel must die and be
  // re-established.
  uint64_t fault_start = pair.clock.now_ns();
  pair.client->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, fault_start, 12'000'000});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(offer("mid-fault message " + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(offer("post-fault message " + std::to_string(i)));
  }

  // Catch up: every sent message delivered AND the link re-established.
  // Delivery alone can complete off frames buffered before the TCP death
  // (they flush when the fault window closes); full recovery means the
  // client reconnected and re-ran TLS, so wait for Ready() too.
  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        drain();
        return received.size() >= sent.size() && pair.client->Ready() &&
               !pair.client->Failed() && !pair.server->Failed();
      },
      60000));

  // Byte stream intact: exactly the sent messages, in order, no
  // duplicates, no losses, no corruption.
  EXPECT_EQ(received, sent);
  const auto& stats = pair.client->recovery_stats();
  EXPECT_GE(stats.link_errors, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.tls_restarts, 1u);
  EXPECT_EQ(stats.messages_lost, 0u);
  EXPECT_EQ(pair.server->recovery_stats().messages_lost, 0u);
  // Safety held throughout.
  EXPECT_TRUE(pair.client->memory().violations().empty());
  EXPECT_EQ(pair.client->observability().CountOf(
                ciohost::ObsCategory::kPayload),
            0u);
}

// Duplicated frames must never surface as duplicated application messages:
// TCP sequence numbers drop the copies.
TEST(EngineRecovery, DuplicateFramesDoNotDuplicateMessages) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 77;
  TuneTcpForFaultWindows(client);
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 78;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());

  pair.client->adversary().InjectFault(
      {ciohost::FaultStrategy::kDuplicateFrames, pair.clock.now_ns(),
       5'000'000});
  std::vector<std::string> received;
  for (int i = 0; i < 6; ++i) {
    std::string payload = "unique message " + std::to_string(i);
    ASSERT_TRUE(pair.client->SendMessage(BufferFromString(payload)).ok());
    ASSERT_TRUE(pair.PumpUntil([&] {
      auto message = pair.server->ReceiveMessage();
      if (message.ok()) {
        received.emplace_back(
            reinterpret_cast<const char*>(message->data()), message->size());
        return true;
      }
      return false;
    }));
  }
  std::set<std::string> unique(received.begin(), received.end());
  EXPECT_EQ(unique.size(), received.size()) << "duplicate delivered";
  EXPECT_EQ(received.size(), 6u);
}

// A one-way stream: the receiver sends no data, so every ack it gives is a
// standalone kAck, and it gives one only when asked. The sender's window
// never grows past its cap: a full window refuses Send, and the stream
// resumes once the kAck arrives.
TEST(EngineRecovery, OneWayStreamAcksOncePerHalfWindow) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 3030;
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 3031;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());
  const size_t cap = client.recovery.resend_window;
  constexpr size_t kMessages = 1000;

  size_t sent = 0;
  size_t received = 0;
  size_t refused = 0;
  size_t max_window = 0;
  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        for (int burst = 0; burst < 8 && sent < kMessages; ++burst) {
          ciobase::Status status = pair.client->SendMessage(
              BufferFromString(Numbered("stream message ", sent)));
          if (!status.ok()) {
            EXPECT_EQ(status.code(), ciobase::StatusCode::kResourceExhausted);
            ++refused;
            break;
          }
          ++sent;
        }
        max_window =
            std::max(max_window, pair.client->session().resend_window_size());
        for (auto m = pair.server->ReceiveMessage(); m.ok();
             m = pair.server->ReceiveMessage()) {
          EXPECT_EQ(ToString(*m), Numbered("stream message ", received));
          ++received;
        }
        return received == kMessages;
      },
      200000));
  EXPECT_LE(max_window, cap);
  EXPECT_GT(refused, 0u);  // the window filled: backpressure, not eviction
  const uint64_t acks = pair.server->session().stats().acks_sent;
  EXPECT_GE(acks, 1u);
  EXPECT_LE(acks, kMessages / (cap / 2));
  EXPECT_EQ(pair.client->session().stats().acks_sent, 0u);
  EXPECT_EQ(pair.client->recovery_stats().messages_lost, 0u);
  EXPECT_EQ(pair.server->recovery_stats().messages_lost, 0u);
}

// The link dies for 12 ms, past the TCP retry budget, while one client
// offers 200 messages into it: more than its resend window holds. Backpressure
// holds the rest back until the peer acknowledges, so after the reconnect
// every message arrives exactly once, in order, and none is lost.
TEST(EngineRecovery, TwelveMsKillWithTwoHundredInFlightLosesNone) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDualBoundary, 1);
  client.seed = 4040;
  TuneTcpForFaultWindows(client);
  StackConfig server = client;
  server.node_id = 2;
  server.seed = 4041;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());

  std::vector<std::string> sent;
  std::vector<std::string> received;
  auto drain = [&] {
    for (auto m = pair.server->ReceiveMessage(); m.ok();
         m = pair.server->ReceiveMessage()) {
      received.push_back(ToString(*m));
    }
  };
  pair.client->adversary().InjectFault(
      {ciohost::FaultStrategy::kLinkKill, pair.clock.now_ns(), 12'000'000});
  for (int i = 0; i < 200; ++i) {
    std::string payload = Numbered("in flight ", i);
    bool accepted = false;
    for (int round = 0; round < 60000 && !accepted; ++round) {
      accepted = pair.client->Ready() &&
                 pair.client->SendMessage(BufferFromString(payload)).ok();
      if (!accepted) {
        pair.Pump();
        drain();
      }
    }
    ASSERT_TRUE(accepted) << payload;
    sent.push_back(payload);
  }
  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        drain();
        return received.size() >= sent.size() && pair.client->Ready() &&
               !pair.client->Failed() && !pair.server->Failed();
      },
      60000));
  EXPECT_EQ(received, sent);
  const auto& stats = pair.client->recovery_stats();
  EXPECT_GE(stats.link_errors, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.messages_lost, 0u);
  EXPECT_EQ(pair.server->recovery_stats().messages_lost, 0u);
}

// --- Campaign ground truth ---------------------------------------------------

TEST(RecoveryCampaign, DualBoundarySurvivesLinkKillCell) {
  RecoveryOptions options;
  options.messages_before = 3;
  options.messages_during = 3;
  options.messages_after = 3;
  RecoveryCell cell = RunRecoveryCell(
      StackProfile::kDualBoundary, ciohost::FaultStrategy::kLinkKill, options);
  EXPECT_TRUE(cell.recovered) << cell.note;
  EXPECT_EQ(cell.messages_lost, 0u);
  EXPECT_EQ(cell.messages_delivered, cell.messages_attempted);
  EXPECT_GT(cell.fault_events, 0u);  // the fault actually bit
  EXPECT_GT(cell.time_to_recovery_ns, 0u);
  EXPECT_EQ(cell.oob_accesses, 0u);
  EXPECT_EQ(cell.messages_corrupted, 0u);
}

TEST(RecoveryCampaign, BaselineWedgesUnderLinkKill) {
  RecoveryOptions options;
  options.messages_before = 3;
  options.messages_during = 3;
  options.messages_after = 3;
  RecoveryCell cell =
      RunRecoveryCell(StackProfile::kPassthroughL2,
                      ciohost::FaultStrategy::kLinkKill, options);
  EXPECT_FALSE(cell.recovered);  // no recovery machinery: it wedges
}

TEST(RecoveryCampaign, TableFormats) {
  RecoveryOptions options;
  options.messages_before = 2;
  options.messages_during = 2;
  options.messages_after = 2;
  options.profiles = {StackProfile::kDualBoundary};
  options.faults = {ciohost::FaultStrategy::kSwallowDoorbell};
  auto cells = RunRecoveryCampaign(options);
  ASSERT_EQ(cells.size(), 1u);
  std::string table = RecoveryTable(cells);
  EXPECT_NE(table.find("dual-boundary"), std::string::npos);
  EXPECT_NE(table.find("swallow-doorbell"), std::string::npos);
}

}  // namespace
