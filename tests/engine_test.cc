// Integration tests for the engine: every stack profile establishes a
// TLS-protected link across the simulated host and round-trips application
// messages; the dual-boundary knobs (data positioning, copy/revoke, dual-TEE
// boundary) all work; the figure-level orderings hold (observability,
// TCB, modeled cost structure); and the attack campaign classifies the
// hardened design as safe and the unhardened baseline as broken.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/cio/attack_campaign.h"
#include "src/cio/engine.h"
#include "src/cio/tcb.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

StackConfig Options(StackProfile profile, uint32_t node_id) {
  StackConfig config = StackConfig::DefaultsFor(profile, node_id);
  config.seed = 1000 + node_id;
  return config;
}

// Frames a dual-boundary node published to its L2 TX ring that the host
// has not taken yet.
uint64_t StrandedTxFrames(ConfidentialNode& node) {
  const L2Layout& layout = node.l2_transport()->layout();
  ciotee::SharedRegion* region = node.shared_region();
  return region->HostReadLe64(layout.TxProduced()) -
         region->HostReadLe64(layout.TxConsumed());
}

// Round-trips `count` messages client->server and checks echo integrity.
void RoundTrip(LinkedPair& pair, int count, size_t size) {
  ciobase::Rng rng(5);
  for (int i = 0; i < count; ++i) {
    Buffer message = rng.Bytes(size);
    ASSERT_TRUE(pair.client->SendMessage(message).ok()) << "message " << i;
    Buffer at_server;
    ASSERT_TRUE(pair.PumpUntil([&] {
      auto received = pair.server->ReceiveMessage();
      if (received.ok()) {
        at_server = *received;
        return true;
      }
      return false;
    })) << "message " << i << " never arrived";
    EXPECT_EQ(at_server, message);
    // Echo back.
    ASSERT_TRUE(pair.server->SendMessage(at_server).ok());
    Buffer at_client;
    ASSERT_TRUE(pair.PumpUntil([&] {
      auto received = pair.client->ReceiveMessage();
      if (received.ok()) {
        at_client = *received;
        return true;
      }
      return false;
    }));
    EXPECT_EQ(at_client, message);
  }
}

class ProfileTest : public ::testing::TestWithParam<StackProfile> {};

TEST_P(ProfileTest, EstablishAndRoundTrip) {
  LinkedPair pair(Options(GetParam(), 1), Options(GetParam(), 2));
  ASSERT_TRUE(pair.Establish()) << StackProfileName(GetParam());
  RoundTrip(pair, 5, 700);
}

TEST_P(ProfileTest, LargeMessages) {
  LinkedPair pair(Options(GetParam(), 1), Options(GetParam(), 2));
  ASSERT_TRUE(pair.Establish());
  RoundTrip(pair, 2, 40'000);  // spans many TCP segments and TLS records
}

TEST_P(ProfileTest, SendBeforeReadyRefused) {
  LinkedPair pair(Options(GetParam(), 1), Options(GetParam(), 2));
  EXPECT_FALSE(pair.client->SendMessage(BufferFromString("early")).ok());
}

// A dial to a port with no listener is refused with an RST. No profile
// polls socket state for it: the reset arrives on the receive stream, the
// drain reads it as a fault, and recovery begins. The dual-boundary node
// counts one link error and redials; the profiles without recovery fail.
TEST_P(ProfileTest, RefusedConnectSurfacesOnTheReceiveStream) {
  LinkedPair pair(Options(GetParam(), 1), Options(GetParam(), 2));
  ASSERT_TRUE(pair.client->Connect(pair.server->ip(), 443).ok());
  ASSERT_TRUE(pair.PumpUntil(
      [&] {
        return pair.client->Failed() ||
               pair.client->recovery_stats().link_errors > 0;
      },
      2000));
  EXPECT_FALSE(pair.client->Ready());
  if (GetParam() == StackProfile::kDualBoundary) {
    EXPECT_EQ(pair.client->recovery_stats().link_errors, 1u);
    EXPECT_FALSE(pair.client->Failed());
  } else {
    EXPECT_TRUE(pair.client->Failed());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileTest,
    ::testing::Values(StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
                      StackProfile::kHardenedVirtio,
                      StackProfile::kDualBoundary,
                      StackProfile::kDirectDevice,
                      StackProfile::kTunneledL2),
    [](const ::testing::TestParamInfo<StackProfile>& info) {
      std::string name(StackProfileName(info.param));
      for (auto& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// Profiles interoperate: they speak the same wire protocol.
TEST(EngineInterop, DualBoundaryTalksToSyscallPeer) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kSyscallL5, 2));
  ASSERT_TRUE(pair.Establish());
  RoundTrip(pair, 3, 400);
}

// --- Dual-boundary configuration knobs ---------------------------------------

struct DualKnobs {
  DataPositioning positioning;
  ReceiveOwnership ownership;
  L5ReceiveMode l5;
  const char* name;
};

class DualBoundaryKnobTest : public ::testing::TestWithParam<DualKnobs> {};

TEST_P(DualBoundaryKnobTest, RoundTripsUnderEveryConfiguration) {
  StackConfig client = Options(StackProfile::kDualBoundary, 1);
  client.l2_positioning = GetParam().positioning;
  client.l2_rx_ownership = GetParam().ownership;
  client.l5_receive = GetParam().l5;
  StackConfig server = Options(StackProfile::kDualBoundary, 2);
  server.l2_positioning = GetParam().positioning;
  server.l2_rx_ownership = GetParam().ownership;
  server.l5_receive = GetParam().l5;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish()) << GetParam().name;
  RoundTrip(pair, 3, 900);
  if (GetParam().ownership == ReceiveOwnership::kRevoke) {
    EXPECT_GT(pair.client->costs().counter("pages_unshared"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, DualBoundaryKnobTest,
    ::testing::Values(
        DualKnobs{DataPositioning::kInline, ReceiveOwnership::kCopy,
                  L5ReceiveMode::kCopy, "inline_copy"},
        DualKnobs{DataPositioning::kSharedPool, ReceiveOwnership::kCopy,
                  L5ReceiveMode::kCopy, "pool_copy"},
        DualKnobs{DataPositioning::kIndirect, ReceiveOwnership::kCopy,
                  L5ReceiveMode::kCopy, "indirect_copy"},
        DualKnobs{DataPositioning::kSharedPool, ReceiveOwnership::kRevoke,
                  L5ReceiveMode::kCopy, "pool_revoke"},
        DualKnobs{DataPositioning::kSharedPool, ReceiveOwnership::kRevoke,
                  L5ReceiveMode::kRevoke, "pool_revoke_l5revoke"},
        DualKnobs{DataPositioning::kInline, ReceiveOwnership::kCopy,
                  L5ReceiveMode::kRevoke, "inline_l5revoke"}),
    [](const ::testing::TestParamInfo<DualKnobs>& info) {
      return info.param.name;
    });

TEST(DualBoundary, NotificationModeAlsoWorks) {
  StackConfig client = Options(StackProfile::kDualBoundary, 1);
  client.l2_polling = false;
  StackConfig server = Options(StackProfile::kDualBoundary, 2);
  server.l2_polling = false;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());
  RoundTrip(pair, 3, 500);
  EXPECT_GT(pair.client->costs().counter("notifies"), 0u);
}

TEST(DualBoundary, DualTeeBoundaryCostsMore) {
  StackConfig compartment = Options(StackProfile::kDualBoundary, 1);
  StackConfig server = Options(StackProfile::kDualBoundary, 2);
  LinkedPair a(compartment, server);
  ASSERT_TRUE(a.Establish());
  RoundTrip(a, 5, 500);
  uint64_t compartment_ns = a.clock.now_ns();

  StackConfig dual_tee = compartment;
  dual_tee.l5_boundary = L5BoundaryKind::kDualTee;
  StackConfig server2 = server;
  server2.l5_boundary = L5BoundaryKind::kDualTee;
  LinkedPair b(dual_tee, server2);
  ASSERT_TRUE(b.Establish());
  RoundTrip(b, 5, 500);
  uint64_t dual_tee_ns = b.clock.now_ns();
  // Same work, strictly more modeled time under the heavyweight boundary.
  EXPECT_GT(b.client->costs().counter("tee_switches"), 0u);
  EXPECT_GT(dual_tee_ns, compartment_ns);
}

// One send path: SendMessage seals through Session::Send and queues the
// sealed bytes in the SQ, whatever the message size. The first send after a
// Poll() rings the doorbell at once, and the polled L2 host takes that
// doorbell's frames when they are published; the sends after it make no
// crossing, and the client's next Poll() carries them in one doorbell.
TEST(DualBoundary, SendMessageBatchesUntilTheNextDoorbell) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(pair.Establish());
  pair.PumpUntil([] { return false; }, 50);  // let the handshake settle
  ASSERT_EQ(StrandedTxFrames(*pair.client), 0u);
  const L5Channel& l5 = *pair.client->l5();
  const uint64_t doorbells = l5.stats().doorbells;
  const uint64_t routed = pair.fabric->stats().frames_routed;
  ciobase::Rng rng(9);
  std::vector<Buffer> sent;
  auto send = [&](size_t i) {
    // Message 3 needs more than one SQ entry's 8 x 4 KiB segments.
    sent.push_back(rng.Bytes(i == 3 ? 40'000 : 200 + 100 * i));
    return pair.client->SendMessage(sent.back()).ok();
  };
  ASSERT_TRUE(send(0));
  EXPECT_EQ(l5.stats().doorbells, doorbells + 1);
  EXPECT_GT(pair.fabric->stats().frames_routed, routed);
  EXPECT_EQ(StrandedTxFrames(*pair.client), 0u);

  const uint64_t crossings = l5.stats().crossings;
  for (size_t i = 1; i < 8; ++i) {
    ASSERT_TRUE(send(i)) << i;
  }
  EXPECT_EQ(l5.stats().crossings, crossings);
  EXPECT_FALSE(pair.client->session().HasOutbound());

  pair.client->Poll();
  EXPECT_EQ(l5.stats().doorbells, doorbells + 2);
  EXPECT_EQ(l5.in_flight_entries(kSqOpSend), 0u);
  EXPECT_EQ(StrandedTxFrames(*pair.client), 0u);

  for (size_t i = 0; i < sent.size(); ++i) {
    Buffer at_server;
    ASSERT_TRUE(pair.PumpUntil([&] {
      auto received = pair.server->ReceiveMessage();
      if (received.ok()) {
        at_server = *received;
        return true;
      }
      return false;
    })) << "message " << i << " never arrived";
    EXPECT_EQ(at_server, sent[i]) << i;
  }
}

TEST(DualBoundary, CloseSendsTheFinWhenItIsCalled) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(pair.Establish());
  pair.PumpUntil([] { return false; }, 50);
  ASSERT_EQ(StrandedTxFrames(*pair.client), 0u);
  const uint64_t routed = pair.fabric->stats().frames_routed;
  ASSERT_TRUE(pair.client->Disconnect().ok());  // L5Channel::Close: the FIN
  EXPECT_EQ(StrandedTxFrames(*pair.client), 0u);
  EXPECT_EQ(pair.fabric->stats().frames_routed - routed, 1u);
}

// Disconnect() right after SendMessage drains the way ConfidentialServer::
// Drain does: the queued bytes flush, and the FIN leaves only behind the
// last of them, so the peer reads the whole message before its EOF. The
// smaller sizes fit TCP's 256 KiB send buffer and lose their tail only if
// the FIN overtakes data the window held back; the larger ones are still
// queued above TCP when Disconnect() is called.
class DisconnectDrainTest
    : public ::testing::TestWithParam<std::tuple<StackProfile, size_t>> {};

TEST_P(DisconnectDrainTest, MessageSentBeforeDisconnectArrivesWhole) {
  const auto [profile, size] = GetParam();
  LinkedPair pair(Options(profile, 1), Options(profile, 2));
  ASSERT_TRUE(pair.Establish());
  const Buffer message = ciobase::Rng(11).Bytes(size);
  ASSERT_TRUE(pair.client->SendMessage(message).ok());
  ASSERT_TRUE(pair.client->Disconnect().ok());
  EXPECT_FALSE(pair.client->Ready());  // no new sends while draining
  Buffer at_server;
  ASSERT_TRUE(pair.PumpUntil([&] {
    auto received = pair.server->ReceiveMessage();
    if (received.ok()) {
      at_server = *received;
      return true;
    }
    return false;
  })) << "the message died with the connection";
  EXPECT_EQ(at_server, message);
  ASSERT_TRUE(pair.PumpUntil(
      [&] { return pair.client->sessions_retired() == 1; }));
  EXPECT_FALSE(pair.client->Failed());
  if (const L5Channel* l5 = pair.client->l5()) {
    EXPECT_EQ(l5->free_slots(), l5->queue_config().pool_slots);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DisconnectDrainTest,
    ::testing::Values(std::make_tuple(StackProfile::kDualBoundary, 48 << 10),
                      std::make_tuple(StackProfile::kPassthroughL2, 200 << 10),
                      std::make_tuple(StackProfile::kDualBoundary, 300 << 10),
                      std::make_tuple(StackProfile::kPassthroughL2, 300 << 10),
                      std::make_tuple(StackProfile::kDualBoundary, 600 << 10),
                      std::make_tuple(StackProfile::kPassthroughL2,
                                      600 << 10)),
    [](const ::testing::TestParamInfo<DisconnectDrainTest::ParamType>& info) {
      std::string name(StackProfileName(std::get<0>(info.param)));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_" + std::to_string(std::get<1>(info.param) >> 10) +
             "KiB";
    });

// An L5 queue region larger than the I/O compartment heap cannot be
// registered. The node fails at construction, as for any invalid config,
// instead of wedging neither Ready() nor Failed().
TEST(DualBoundary, QueueRegionBeyondTheIoHeapFailsAtConstruction) {
  StackConfig client = Options(StackProfile::kDualBoundary, 1);
  client.l5_queue.pool_slots = 1024;  // 4 MiB of slots alone
  EXPECT_TRUE(client.l5_queue.Valid());
  EXPECT_FALSE(client.Valid());
  LinkedPair pair(client, Options(StackProfile::kDualBoundary, 2));
  EXPECT_TRUE(pair.client->Failed());
  EXPECT_FALSE(pair.Establish());
}

// The node sizes its I/O heap to the queue region it registers there, so
// the heap has no byte to spare once the channel is up.
TEST(DualBoundary, IoHeapHoldsTheQueueRegionAndNothingMore) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(pair.Establish());
  auto* compartments = pair.client->compartments();
  ASSERT_NE(compartments, nullptr);
  ciotee::CompartmentId app{0};
  ciotee::CompartmentId io{1};
  EXPECT_EQ(compartments->Allocate(app, io, 1).status().code(),
            ciobase::StatusCode::kResourceExhausted);
}

// The node lays out only what its inline ring reads: counters and the two
// rings, 1,048,832 B, with no shared pool or indirect table behind them.
TEST(DualBoundary, SharedRegionHoldsTheInlineRingAndNothingMore) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(pair.Establish());
  const L2Layout& layout = pair.client->l2_transport()->layout();
  EXPECT_EQ(layout.total, 256 + 2 * layout.slots * layout.slot_size);
  EXPECT_EQ(pair.client->shared_region()->size(), layout.total);
}

// --- Figure-level orderings ----------------------------------------------------

TEST(Observability, SyscallLeaksMoreThanL2Designs) {
  double bits_per_op[kStackProfileCount] = {};
  for (StackProfile profile : AllStackProfiles()) {
    LinkedPair pair(Options(profile, 1), Options(profile, 2));
    ASSERT_TRUE(pair.Establish());
    pair.client->observability().Clear();
    RoundTrip(pair, 5, 600);
    bits_per_op[static_cast<int>(profile)] =
        pair.client->observability().BitsPerOp(pair.client->app_ops());
  }
  double syscall = bits_per_op[static_cast<int>(StackProfile::kSyscallL5)];
  double dual = bits_per_op[static_cast<int>(StackProfile::kDualBoundary)];
  double passthrough =
      bits_per_op[static_cast<int>(StackProfile::kPassthroughL2)];
  EXPECT_GT(syscall, dual);        // fewer metadata bits at L2
  EXPECT_GT(syscall, passthrough);
  // The dual boundary leaks like a network observer, same class as
  // passthrough — within a small factor, not orders of magnitude.
  EXPECT_LT(dual, passthrough * 3 + 100);
}

TEST(Observability, SyscallSeesCallTypesDualDoesNot) {
  LinkedPair syscall(Options(StackProfile::kSyscallL5, 1),
                     Options(StackProfile::kSyscallL5, 2));
  ASSERT_TRUE(syscall.Establish());
  RoundTrip(syscall, 2, 100);
  EXPECT_GT(syscall.client->observability().CountOf(
                ciohost::ObsCategory::kCallType),
            0u);

  LinkedPair dual(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(dual.Establish());
  RoundTrip(dual, 2, 100);
  EXPECT_EQ(dual.client->observability().CountOf(
                ciohost::ObsCategory::kCallType),
            0u);
  EXPECT_EQ(dual.client->observability().CountOf(
                ciohost::ObsCategory::kMessageBoundary),
            0u);
}

TEST(Tcb, DualBoundaryAppTcbMatchesSyscallAndBeatsL2) {
  size_t syscall = ProfileTcb(StackProfile::kSyscallL5).AppTcbLines();
  size_t passthrough = ProfileTcb(StackProfile::kPassthroughL2).AppTcbLines();
  size_t dual = ProfileTcb(StackProfile::kDualBoundary).AppTcbLines();
  EXPECT_LT(dual, passthrough);
  EXPECT_LT(syscall, passthrough);
  // Dual boundary pays only the thin L5 channel over the syscall TCB.
  EXPECT_LT(dual, syscall + 500);
  // The isolated I/O domain actually holds the bulk that left the TCB.
  EXPECT_GT(ProfileTcb(StackProfile::kDualBoundary).IsolatedLines(), 2000u);
}

TEST(Tcb, ReportPrintsAllSections) {
  std::string report = ProfileTcb(StackProfile::kDualBoundary).ToString();
  EXPECT_NE(report.find("app TCB"), std::string::npos);
  EXPECT_NE(report.find("isolated"), std::string::npos);
  EXPECT_NE(report.find("net-stack"), std::string::npos);
}

TEST(TrustModels, ProfilesMapToPaperModels) {
  EXPECT_TRUE(ProfileTrustModel(StackProfile::kDualBoundary)
                  .BoundaryRequired(ciotee::Actor::kIoStack,
                                    ciotee::Actor::kApp));
  EXPECT_FALSE(ProfileTrustModel(StackProfile::kPassthroughL2)
                   .BoundaryRequired(ciotee::Actor::kIoStack,
                                     ciotee::Actor::kApp));
}

// --- Isolation: the multi-stage attack argument (§3.1) -----------------------

TEST(Isolation, CompromisedIoStackCannotReadAppMemory) {
  LinkedPair pair(Options(StackProfile::kDualBoundary, 1),
                  Options(StackProfile::kDualBoundary, 2));
  ASSERT_TRUE(pair.Establish());
  auto* compartments = pair.client->compartments();
  ASSERT_NE(compartments, nullptr);
  // The app keeps a secret in its own compartment.
  ciotee::CompartmentId app{0};
  ciotee::CompartmentId io{1};
  auto secret = compartments->Allocate(app, app, 64);
  ASSERT_TRUE(secret.ok());
  // A compromised I/O stack (arbitrary code in the io compartment) tries to
  // read it: the grant matrix says no.
  auto attempt = compartments->Access(io, *secret);
  EXPECT_FALSE(attempt.ok());
  EXPECT_GE(compartments->violations().size(), 1u);
}

// --- The tunneled (LightBox) corner of the design space ----------------------

TEST(Tunnel, PacketLengthEntropyCollapsesToZero) {
  // Variable-size messages produce variable-size frames everywhere except
  // under the padding tunnel, where the host sees ONE frame size only.
  ciobase::Rng rng(21);
  auto run = [&](StackProfile profile) {
    LinkedPair pair(Options(profile, 1), Options(profile, 2));
    EXPECT_TRUE(pair.Establish());
    pair.client->observability().Clear();
    for (int i = 0; i < 20; ++i) {
      Buffer message = rng.Bytes(rng.NextInRange(10, 900));
      EXPECT_TRUE(pair.client->SendMessage(message).ok());
      pair.PumpUntil([&] { return pair.server->ReceiveMessage().ok(); });
    }
    return pair.client->observability().PacketLengthEntropyBits();
  };
  double passthrough_entropy = run(StackProfile::kPassthroughL2);
  double tunneled_entropy = run(StackProfile::kTunneledL2);
  EXPECT_GT(passthrough_entropy, 0.5);
  EXPECT_LT(tunneled_entropy, 0.01);
}

TEST(Tunnel, PaddingOverheadIsAccounted) {
  LinkedPair pair(Options(StackProfile::kTunneledL2, 1),
                  Options(StackProfile::kTunneledL2, 2));
  ASSERT_TRUE(pair.Establish());
  RoundTrip(pair, 3, 100);  // tiny messages: nearly all padding
  ASSERT_NE(pair.client->tunnel_port(), nullptr);
  EXPECT_GT(pair.client->tunnel_port()->stats().padding_bytes, 1000u);
  EXPECT_EQ(pair.client->tunnel_port()->stats().auth_failures, 0u);
}

TEST(Tunnel, HostTamperingWithTunnelFramesIsDropped) {
  LinkedPair pair(Options(StackProfile::kTunneledL2, 1),
                  Options(StackProfile::kTunneledL2, 2));
  ASSERT_TRUE(pair.Establish());
  pair.client->adversary().set_strategy(
      ciohost::AttackStrategy::kCorruptPayload);
  // Drive several frames: a flip can land in the unauthenticated outer
  // Ethernet header (harmless routing noise), so one frame isn't enough.
  bool failures_seen = pair.PumpUntil(
      [&] {
        (void)pair.client->SendMessage(BufferFromString("mangle me"));
        (void)pair.server->ReceiveMessage();
        return pair.client->tunnel_port()->stats().auth_failures +
                   pair.server->tunnel_port()->stats().auth_failures >
               0;
      },
      5000);
  // Corrupted tunnel frames fail authentication at one end or the other.
  EXPECT_TRUE(failures_seen);
}

// --- The mandatory-TLS ablation (§3.2: "a mandatory TLS layer...") -----------

TEST(TlsMandatory, WithoutTlsTheSyscallHostSeesPlaintext) {
  StackConfig client = Options(StackProfile::kSyscallL5, 1);
  client.use_tls = false;
  StackConfig server = Options(StackProfile::kSyscallL5, 2);
  server.use_tls = false;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());
  RoundTrip(pair, 3, 300);
  EXPECT_GT(
      pair.client->observability().CountOf(ciohost::ObsCategory::kPayload),
      0u);
}

// Link recovery needs the handshake: a plaintext channel is up at once, so
// a redial the host refused could not be told from one that reached the
// peer, and the reconnect budget would never run out. A plaintext config
// with recovery on is refused; with recovery off, a refused plaintext dial
// on dual-boundary fails like any profile without recovery.
TEST(TlsMandatory, RecoveryNeedsTls) {
  StackConfig client = Options(StackProfile::kDualBoundary, 1);
  client.use_tls = false;
  StackConfig server = client;
  server.node_id = 2;
  EXPECT_FALSE(client.Valid());
  EXPECT_TRUE(LinkedPair(client, server).client->Failed());

  client.recovery.enabled = false;
  server.recovery.enabled = false;
  ASSERT_TRUE(client.Valid());
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.client->Connect(pair.server->ip(), 443).ok());
  EXPECT_TRUE(pair.PumpUntil([&] { return pair.client->Failed(); }, 2000));
  EXPECT_EQ(pair.client->recovery_stats().reconnects, 0u);
}

TEST(TlsMandatory, WithTlsNoPayloadIsEverObserved) {
  for (StackProfile profile :
       {StackProfile::kSyscallL5, StackProfile::kDualBoundary}) {
    LinkedPair pair(Options(profile, 1), Options(profile, 2));
    ASSERT_TRUE(pair.Establish());
    RoundTrip(pair, 3, 300);
    EXPECT_EQ(
        pair.client->observability().CountOf(ciohost::ObsCategory::kPayload),
        0u)
        << StackProfileName(profile);
  }
}

TEST(TlsMandatory, CampaignFlagsPlaintextModeAsLeak) {
  CampaignOptions options;
  options.messages_per_cell = 4;
  options.use_tls = false;
  options.profiles = {StackProfile::kSyscallL5};
  options.strategies = {ciohost::AttackStrategy::kNone};
  auto cells = RunCampaign(options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].outcome, AttackOutcome::kConfidentialityLeak);
}

// --- Attack campaign -----------------------------------------------------------

TEST(Campaign, DualBoundarySafeUnderEveryStrategy) {
  CampaignOptions options;
  options.messages_per_cell = 6;
  options.profiles = {StackProfile::kDualBoundary};
  for (const auto& cell : RunCampaign(options)) {
    EXPECT_NE(cell.outcome, AttackOutcome::kMemoryViolation)
        << ciohost::AttackStrategyName(cell.strategy);
    EXPECT_NE(cell.outcome, AttackOutcome::kIntegrityBreak)
        << ciohost::AttackStrategyName(cell.strategy);
    EXPECT_NE(cell.outcome, AttackOutcome::kConfidentialityLeak)
        << ciohost::AttackStrategyName(cell.strategy);
    EXPECT_EQ(cell.oob_accesses, 0u)
        << ciohost::AttackStrategyName(cell.strategy);
  }
}

TEST(Campaign, PassthroughBreaksUnderLengthInflation) {
  CampaignOptions options;
  options.messages_per_cell = 6;
  options.profiles = {StackProfile::kPassthroughL2};
  options.strategies = {ciohost::AttackStrategy::kUsedLenInflation};
  auto cells = RunCampaign(options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].outcome, AttackOutcome::kMemoryViolation);
  EXPECT_GT(cells[0].oob_accesses, 0u);
}

TEST(Campaign, HardenedVirtioDoesNotViolateMemory) {
  CampaignOptions options;
  options.messages_per_cell = 6;
  options.profiles = {StackProfile::kHardenedVirtio};
  for (const auto& cell : RunCampaign(options)) {
    EXPECT_NE(cell.outcome, AttackOutcome::kMemoryViolation)
        << ciohost::AttackStrategyName(cell.strategy);
  }
}

TEST(Campaign, TableFormats) {
  CampaignOptions options;
  options.messages_per_cell = 3;
  options.profiles = {StackProfile::kDualBoundary};
  options.strategies = {ciohost::AttackStrategy::kCorruptPayload};
  std::string table = CampaignTable(RunCampaign(options));
  EXPECT_NE(table.find("dual-boundary"), std::string::npos);
  EXPECT_NE(table.find("corrupt-payload"), std::string::npos);
}

}  // namespace
