// middlebox: a ShieldBox/SafeBricks-style confidential packet processor
// built directly on the hardened L2 transport — no TCP/IP stack in the
// TEE at all, showing the boundary can be consumed at raw-frame level.
//
// Topology: two Ethernet segments bridged by a confidential middlebox.
//
//   [sender] --fabric A--> [MB: hardened L2 in, filter, hardened L2 out]
//            --fabric B--> [receiver]
//
// The middlebox enforces a simple policy (drop frames whose payload
// contains a banned marker, count the rest through) while a hostile host
// on segment A runs length-inflation attacks against its RX ring — the
// masked/clamped transport keeps the middlebox memory-safe throughout.

#include <cstdio>
#include <cstring>
#include <memory>

#include "src/base/rng.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/fabric.h"
#include "src/net/wire.h"

namespace {

using cio::L2Config;
using cio::L2HostDevice;
using cio::L2Layout;
using cio::L2Transport;

struct L2Endpoint {
  ciotee::TeeMemory memory;
  ciohost::Adversary adversary;
  ciohost::ObservabilityLog observability;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<L2HostDevice> device;
  std::unique_ptr<L2Transport> transport;

  L2Endpoint(cionet::Fabric* fabric, ciobase::SimClock* clock,
             ciobase::CostModel* costs, uint32_t id, uint64_t seed)
      : adversary(seed) {
    L2Config config;
    config.mac = cionet::MacAddress::FromId(id);
    L2Layout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    "mb-l2");
    device = std::make_unique<L2HostDevice>(
        shared.get(), config, fabric, "ep-" + std::to_string(id),
        std::nullopt, &adversary, &observability, clock);
    transport = std::make_unique<L2Transport>(shared.get(), config, costs,
                                              nullptr);
  }
};

bool ContainsMarker(ciobase::ByteSpan frame, std::string_view marker) {
  if (frame.size() < marker.size()) {
    return false;
  }
  for (size_t i = 0; i + marker.size() <= frame.size(); ++i) {
    if (std::memcmp(frame.data() + i, marker.data(), marker.size()) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  cionet::Fabric segment_a(&clock, 1);
  cionet::Fabric segment_b(&clock, 2);

  // Sender on segment A, receiver on segment B, middlebox on both.
  cionet::DirectFabricPort sender(&segment_a, "sender",
                                  cionet::MacAddress::FromId(10));
  L2Endpoint mb_in(&segment_a, &clock, &costs, 20, 5);
  L2Endpoint mb_out(&segment_b, &clock, &costs, 30, 6);
  cionet::DirectFabricPort receiver(&segment_b, "receiver",
                                    cionet::MacAddress::FromId(40));

  ciobase::Rng rng(9);
  int sent = 0;
  int dropped = 0;
  int forwarded = 0;
  for (int i = 0; i < 200; ++i) {
    if (i == 100) {
      // Halfway through, the host on segment A turns hostile: it inflates
      // RX lengths on the middlebox's ring. Frames from then on arrive
      // length-mangled (service degraded), but the masked transport keeps
      // the middlebox memory-safe and the policy engine keeps running.
      mb_in.adversary.set_strategy(
          ciohost::AttackStrategy::kUsedLenInflation);
    }
    // Sender emits frames to the middlebox's segment-A MAC.
    ciobase::Buffer frame;
    cionet::EthernetHeader eth{cionet::MacAddress::FromId(20),
                               sender.mac(), 0x88b5};
    eth.Serialize(frame);
    bool banned = rng.NextBool(0.25);
    ciobase::AppendString(frame, banned ? "payload EXFIL marker"
                                        : "payload benign traffic");
    ciobase::Buffer padding = rng.Bytes(rng.NextBounded(200));
    ciobase::Append(frame, padding);
    if (!cionet::SendOne(sender, frame).ok()) {
      continue;
    }
    ++sent;
    clock.Advance(30'000);
    mb_in.device->Poll();

    // Middlebox: drain, filter, re-emit toward the receiver.
    for (;;) {
      auto received = cionet::ReceiveOne(*mb_in.transport);
      if (!received.ok()) {
        break;
      }
      if (ContainsMarker(*received, "EXFIL")) {
        ++dropped;
        continue;
      }
      // Rewrite the Ethernet header for segment B.
      ciobase::Buffer out;
      cionet::EthernetHeader out_eth{cionet::MacAddress::FromId(40),
                                     cionet::MacAddress::FromId(30), 0x88b5};
      out_eth.Serialize(out);
      ciobase::Append(out, ciobase::ByteSpan(*received).subspan(
                               cionet::kEthernetHeaderSize));
      if (out.size() <= 1514 && cionet::SendOne(*mb_out.transport, out).ok()) {
        ++forwarded;
      }
      mb_out.device->Poll();
    }
    clock.Advance(30'000);
  }
  // Drain receiver.
  int delivered = 0;
  for (;;) {
    auto frame = cionet::ReceiveOne(receiver);
    if (!frame.ok()) {
      break;
    }
    ++delivered;
  }

  std::printf("middlebox: sent=%d filtered=%d forwarded=%d delivered=%d\n",
              sent, dropped, forwarded, delivered);
  const size_t out_of_bounds =
      mb_in.memory.ViolationCount(ciotee::ViolationKind::kOobRead) +
      mb_in.memory.ViolationCount(ciotee::ViolationKind::kOobWrite);
  std::printf("middlebox: host ran %llu length-inflation attacks; "
              "out-of-bounds accesses by the middlebox: %zu\n",
              static_cast<unsigned long long>(
                  mb_in.adversary.behavior_count()),
              out_of_bounds);
  std::printf("middlebox: frames clamped by the hardened transport: %llu\n",
              static_cast<unsigned long long>(
                  mb_in.transport->stats().rx_clamped_len));
  // The hardened transport's promise: a hostile host degrades service, it
  // never makes the middlebox touch memory out of bounds.
  return out_of_bounds == 0 ? 0 : 1;
}
