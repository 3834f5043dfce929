// §2.5 retrofit-hardening tax: the same virtio driver run unhardened, with
// checks only, and with the full retrofit (checks + single-fetch +
// SWIOTLB bounces + feature restriction), echoing frames through the
// device model. Shows where the cost of retrofitted distrust comes from
// (copies piggybacked on a protocol that wasn't designed for them), and
// compares against the from-scratch hardened L2 transport, which is both
// safe and cheaper.

#include <cstdio>
#include <memory>

#include "src/base/rng.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/fabric.h"
#include "src/virtio/net_driver.h"

namespace {

struct FrameEchoResult {
  uint64_t modeled_ns = 0;
  uint64_t copies = 0;
  uint64_t bytes_copied = 0;
  uint64_t notifies = 0;
};

// Sends `count` frames guest->fabric->guest (loopback via a peer port) and
// returns the modeled cost on the guest side.
FrameEchoResult RunVirtio(ciovirtio::HardeningOptions hardening, int count,
                          size_t frame_size) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  cionet::Fabric fabric(&clock, 7);
  ciotee::TeeMemory memory;
  auto layout = ciovirtio::VirtioNetLayout::Make(128, 2048, 256);
  ciotee::SharedRegion shared(&memory, layout.TotalSize(), "virtio");
  ciohost::ObservabilityLog observability;
  ciovirtio::VirtioNetDevice device(
      &shared, layout, &fabric, "nic", std::nullopt,
      cionet::MacAddress::FromId(1), 1500,
      ciovirtio::kFeatureMac | ciovirtio::kFeatureMtu |
          ciovirtio::kFeatureVersion1,
      nullptr, &observability, &clock);
  ciovirtio::VirtioNetDriver driver(&shared, layout, &device, &costs,
                                    hardening, &observability);
  cionet::DirectFabricPort peer(&fabric, "peer",
                                cionet::MacAddress::FromId(2));
  if (!driver.Negotiate().ok()) {
    return {};
  }
  ciobase::Rng rng(3);
  ciobase::Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(1),
                             cionet::MacAddress::FromId(2), 0x88b5};
  eth.Serialize(frame);
  ciobase::Append(frame, rng.Bytes(frame_size - frame.size()));

  uint64_t start_ns = clock.now_ns();
  cionet::FrameBatch rx_batch;
  costs.ResetCounters();
  for (int i = 0; i < count; ++i) {
    // Peer -> guest.
    ciobase::Buffer to_guest = frame;
    (void)cionet::SendOne(peer, to_guest);
    clock.Advance(25'000);
    device.Poll();
    (void)driver.ReceiveFrames(rx_batch, 1);
    // Guest -> peer.
    (void)cionet::SendOne(driver, frame);
    clock.Advance(25'000);
    device.Poll();
    (void)peer.ReceiveFrames(rx_batch, 1);
  }
  FrameEchoResult result;
  result.modeled_ns = clock.now_ns() - start_ns;
  result.copies = costs.counter("copies");
  result.bytes_copied = costs.counter("bytes_copied");
  result.notifies = costs.counter("notifies");
  return result;
}

FrameEchoResult RunHardenedL2(int count, size_t frame_size) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  cionet::Fabric fabric(&clock, 7);
  ciotee::TeeMemory memory;
  cio::L2Config config;
  config.mac = cionet::MacAddress::FromId(1);
  cio::L2Layout layout(config);
  ciotee::SharedRegion shared(&memory, layout.total, "l2");
  ciohost::ObservabilityLog observability;
  cio::L2HostDevice device(&shared, config, &fabric, "nic", std::nullopt,
                           nullptr, &observability, &clock);
  cio::L2Transport transport(&shared, config, &costs, nullptr);
  cionet::DirectFabricPort peer(&fabric, "peer",
                                cionet::MacAddress::FromId(2));
  ciobase::Rng rng(3);
  ciobase::Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(1),
                             cionet::MacAddress::FromId(2), 0x88b5};
  eth.Serialize(frame);
  ciobase::Append(frame, rng.Bytes(frame_size - frame.size()));

  uint64_t start_ns = clock.now_ns();
  cionet::FrameBatch rx_batch;
  costs.ResetCounters();
  for (int i = 0; i < count; ++i) {
    ciobase::Buffer to_guest = frame;
    (void)cionet::SendOne(peer, to_guest);
    clock.Advance(25'000);
    device.Poll();
    (void)transport.ReceiveFrames(rx_batch, 1);
    (void)cionet::SendOne(transport, frame);
    clock.Advance(25'000);
    device.Poll();
    (void)peer.ReceiveFrames(rx_batch, 1);
  }
  FrameEchoResult result;
  result.modeled_ns = clock.now_ns() - start_ns;
  result.copies = costs.counter("copies");
  result.bytes_copied = costs.counter("bytes_copied");
  result.notifies = costs.counter("notifies");
  return result;
}

void PrintRow(const char* name, const FrameEchoResult& result, int count,
              uint64_t baseline_overhead, uint64_t fabric_ns) {
  uint64_t overhead = result.modeled_ns - fabric_ns;
  std::printf("%-24s %12.0f %10.2fx %9.1f %12.1f %10.1f\n", name,
              static_cast<double>(overhead) / count,
              baseline_overhead == 0
                  ? 1.0
                  : static_cast<double>(overhead) /
                        static_cast<double>(baseline_overhead),
              static_cast<double>(result.copies) / count,
              static_cast<double>(result.bytes_copied) / count,
              static_cast<double>(result.notifies) / count);
}

}  // namespace

int main() {
  constexpr int kCount = 500;
  constexpr size_t kFrame = 1400;
  // Fabric latency contributes 50 us per echo regardless of design.
  uint64_t fabric_ns = static_cast<uint64_t>(kCount) * 50'000;

  std::printf("== virtio retrofit-hardening tax (per echoed frame) ==\n");
  std::printf("%-24s %12s %10s %9s %12s %10s\n", "driver config",
              "overhead ns", "rel", "copies", "bytes", "notifies");
  std::printf("%s\n", std::string(82, '-').c_str());

  auto none = RunVirtio(ciovirtio::HardeningOptions::None(), kCount, kFrame);
  uint64_t baseline = none.modeled_ns - fabric_ns;
  PrintRow("virtio unhardened", none, kCount, baseline, fabric_ns);
  PrintRow("virtio checks-only",
           RunVirtio(ciovirtio::HardeningOptions::ChecksOnly(), kCount,
                     kFrame),
           kCount, baseline, fabric_ns);
  PrintRow("virtio full retrofit",
           RunVirtio(ciovirtio::HardeningOptions::Full(), kCount, kFrame),
           kCount, baseline, fabric_ns);
  PrintRow("cio hardened L2", RunHardenedL2(kCount, kFrame), kCount,
           baseline, fabric_ns);

  std::printf(
      "\nShape (Section 2.5): checks are nearly free; the retrofit's cost\n"
      "is the systematic SWIOTLB copy, charged even when a double fetch is\n"
      "impossible. The from-scratch L2 interface is safe by construction\n"
      "at unhardened-virtio cost: its single fetch IS the mandatory copy.\n");
  return 0;
}
