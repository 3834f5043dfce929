// Tests for §3.4 Direct Device Assignment: SPDM-style device attestation
// (wrong measurement / forged report / stale nonce rejected), IDE link
// protection (host tampering with the relayed TLPs is detected and
// dropped, never delivered), end-to-end operation under the engine
// profile, and the TCB trade-off.

#include <gtest/gtest.h>

#include <memory>

#include "src/base/rng.h"
#include "src/cio/dda.h"
#include "src/cio/engine.h"
#include "src/cio/tcb.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cio;  // NOLINT: test file

struct DdaWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 41, cionet::Fabric::Options{0, 0, 0, 9216}};
  ciotee::TeeMemory memory;
  DdaConfig config;
  ciotee::AttestationAuthority authority{
      BufferFromString("pcie-root-of-trust")};
  Buffer secret = BufferFromString("spdm-session-secret");
  std::unique_ptr<ciotee::SharedRegion> shared;
  ciohost::Adversary adversary{51};
  ciohost::ObservabilityLog observability;
  std::unique_ptr<DdaDevice> device;
  std::unique_ptr<DdaTransport> transport;
  std::unique_ptr<cionet::DirectFabricPort> peer;

  DdaWorld() {
    config.mac = cionet::MacAddress::FromId(1);
    DdaLayout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    "dda");
    device = std::make_unique<DdaDevice>(
        shared.get(), config, &fabric, "dda-nic", std::nullopt, &authority,
        secret, &adversary, &observability, &clock);
    transport = std::make_unique<DdaTransport>(shared.get(), config,
                                               device.get(), &costs,
                                               &authority, 77);
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

TEST(DdaAttestation, SucceedsWithMatchingSecretAndMeasurement) {
  DdaWorld world;
  EXPECT_FALSE(world.transport->attested());
  ASSERT_TRUE(world.transport->Attest(world.secret).ok());
  EXPECT_TRUE(world.transport->attested());
  EXPECT_EQ(world.device->stats().attestations, 1u);
}

TEST(DdaAttestation, FramesRefusedBeforeAttestation) {
  DdaWorld world;
  EXPECT_EQ(cionet::SendOne(*world.transport, world.ToGuest("early")).code(),
            ciobase::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cionet::ReceiveOne(*world.transport).ok());
}

TEST(DdaAttestation, WrongVerifierKeyRejectsReport) {
  DdaWorld world;
  ciotee::AttestationAuthority wrong_root(BufferFromString("evil-root"));
  DdaTransport transport(world.shared.get(), world.config,
                         world.device.get(), &world.costs, &wrong_root, 78);
  auto status = transport.Attest(world.secret);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ciobase::StatusCode::kTampered);
}

TEST(DdaAttestation, UnexpectedDeviceMeasurementRejected) {
  DdaWorld world;
  // The guest expects different device firmware than what answers.
  DdaConfig expecting_other = world.config;
  expecting_other.device_identity = "some-other-fw-v9";
  DdaTransport transport(world.shared.get(), expecting_other,
                         world.device.get(), &world.costs, &world.authority,
                         79);
  EXPECT_FALSE(transport.Attest(world.secret).ok());
}

TEST(DdaAttestation, MismatchedProvisioningSecretKillsLinkNotSafety) {
  DdaWorld world;
  // Attestation passes (the report is genuine) but the IDE keys disagree:
  // every frame fails authentication — availability loss only.
  ASSERT_TRUE(
      world.transport->Attest(BufferFromString("wrong-secret")).ok());
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.ToGuest("payload")).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  auto received = cionet::ReceiveOne(*world.transport);
  EXPECT_FALSE(received.ok());
  EXPECT_GT(world.transport->stats().auth_failures, 0u);
}

TEST(DdaDataPath, EchoRoundTrip) {
  DdaWorld world;
  ASSERT_TRUE(world.transport->Attest(world.secret).ok());
  for (int i = 0; i < 50; ++i) {
    Buffer in = world.ToGuest("frame " + std::to_string(i));
    ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
    world.clock.Advance(25'000);
    world.device->Poll();
    auto at_guest = cionet::ReceiveOne(*world.transport);
    ASSERT_TRUE(at_guest.ok()) << i;
    EXPECT_EQ(*at_guest, in);

    Buffer out = in;
    out[0] = 0x02;  // retarget to the peer
    out[5] = 0x02;
    out[11] = 0x01;
    ASSERT_TRUE(cionet::SendOne(*world.transport, out).ok());
    world.device->Poll();
    world.clock.Advance(25'000);
    EXPECT_TRUE(cionet::ReceiveOne(*world.peer).ok()) << i;
  }
  EXPECT_EQ(world.transport->stats().auth_failures, 0u);
  EXPECT_TRUE(world.memory.violations().empty());
}

TEST(DdaDataPath, HostSeesOnlyCiphertextTlps) {
  DdaWorld world;
  ASSERT_TRUE(world.transport->Attest(world.secret).ok());
  std::string marker = "SUPER-SECRET-PAYLOAD-MARKER";
  ASSERT_TRUE(cionet::SendOne(*world.transport, world.ToGuest(marker)).ok());
  // Scan the whole host-visible mailbox for the plaintext.
  ciobase::MutableByteSpan all =
      world.shared->HostWindow(0, world.shared->size());
  std::string image(reinterpret_cast<const char*>(all.data()), all.size());
  EXPECT_EQ(image.find(marker), std::string::npos);
  // The host still sees TLP sizes and timings (and nothing more).
  world.device->Poll();
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kPacketLength),
            0u);
  EXPECT_EQ(world.observability.CountOf(ciohost::ObsCategory::kCallType),
            0u);
}

TEST(DdaDataPath, TamperedTlpsDroppedNeverDeliveredCorrupted) {
  DdaWorld world;
  ASSERT_TRUE(world.transport->Attest(world.secret).ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kCorruptPayload);
  // The corrupting relay flips one byte per TLP; flips landing in the
  // (redundant, unused) record header are harmless, so drive several
  // frames: anything delivered must be bit-exact, and at least one flip
  // must have been caught by the IDE authentication.
  int delivered_intact = 0;
  for (int i = 0; i < 10; ++i) {
    Buffer in = world.ToGuest("to be mangled #" + std::to_string(i));
    ASSERT_TRUE(cionet::SendOne(*world.peer, in).ok());
    world.clock.Advance(25'000);
    world.device->Poll();
    auto received = cionet::ReceiveOne(*world.transport);
    if (received.ok()) {
      EXPECT_EQ(*received, in) << "corrupted frame delivered!";
      ++delivered_intact;
    }
  }
  EXPECT_GT(world.transport->stats().auth_failures, 0u);
  EXPECT_LT(delivered_intact, 10);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
            0u);
}

TEST(DdaDataPath, LengthStormsAreStructurallyClamped) {
  DdaWorld world;
  ASSERT_TRUE(world.transport->Attest(world.secret).ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kUsedLenInflation);
  // The adversary inflates lengths through the device-side relay...
  ASSERT_TRUE(cionet::SendOne(*world.peer, world.ToGuest("x")).ok());
  world.clock.Advance(25'000);
  world.device->Poll();
  (void)cionet::ReceiveOne(*world.transport);
  // ...but TLP framing clamps them: no out-of-bounds access possible.
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead),
            0u);
}

// --- Engine-level ---------------------------------------------------------------

TEST(DdaProfile, EndToEndMessaging) {
  StackConfig client = StackConfig::DefaultsFor(StackProfile::kDirectDevice, 1);
  client.seed = 61;
  StackConfig server = client;
  server.node_id = 2;
  LinkedPair pair(client, server);
  ASSERT_TRUE(pair.Establish());
  Buffer message = BufferFromString("over attested silicon");
  ASSERT_TRUE(pair.client->SendMessage(message).ok());
  Buffer at_server;
  ASSERT_TRUE(pair.PumpUntil([&] {
    auto received = pair.server->ReceiveMessage();
    if (received.ok()) {
      at_server = *received;
      return true;
    }
    return false;
  }));
  EXPECT_EQ(at_server, message);
}

TEST(DdaProfile, TcbTradeoffIncludesDevice) {
  TcbReport dda = ProfileTcb(StackProfile::kDirectDevice);
  TcbReport dual = ProfileTcb(StackProfile::kDualBoundary);
  // The DDA driver is thin, but the stack AND the device firmware sit in
  // the app TCB: bigger than the dual-boundary app TCB.
  EXPECT_GT(dda.AppTcbLines(), dual.AppTcbLines());
  bool has_device = false;
  for (const auto& module : dda.app_tcb) {
    if (module.name == "attested-device") {
      has_device = true;
    }
  }
  EXPECT_TRUE(has_device);
}

TEST(DdaProfile, TrustModelTrustsDeviceNotHost) {
  auto model = ProfileTrustModel(StackProfile::kDirectDevice);
  EXPECT_TRUE(model.Trusts(ciotee::Actor::kApp, ciotee::Actor::kDevice));
  EXPECT_FALSE(model.Trusts(ciotee::Actor::kApp, ciotee::Actor::kHostSw));
}

}  // namespace
