// §3.2 data-positioning ablation: one frame through the hardened L2 ring
// (guest send -> host consume -> host produce -> guest receive) for each
// positioning mode and payload size. Prints the modeled boundary cost per
// echoed frame and the bytes the datapath copied for it; both are exact
// per-frame figures, so the table is identical at any frame count. The
// last column is the shared region the mode lays out (L2Layout::total);
// the binary exits 1 unless inline < shared-pool <= indirect.

#include <cstdio>
#include <memory>

#include "src/base/rng.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/net/fabric.h"

namespace {

struct L2World {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  cionet::Fabric fabric{&clock, 3, cionet::Fabric::Options{0, 0, 0, 9216}};
  ciotee::TeeMemory memory;
  cio::L2Config config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<cio::L2HostDevice> device;
  std::unique_ptr<cio::L2Transport> transport;
  std::unique_ptr<cionet::DirectFabricPort> peer;

  L2World(cio::DataPositioning positioning, cio::ReceiveOwnership ownership) {
    config.mac = cionet::MacAddress::FromId(1);
    config.positioning = positioning;
    config.rx_ownership = ownership;
    cio::L2Layout layout(config);
    shared = std::make_unique<ciotee::SharedRegion>(&memory, layout.total,
                                                    "l2");
    device = std::make_unique<cio::L2HostDevice>(shared.get(), config,
                                                 &fabric, "nic", std::nullopt,
                                                 nullptr, nullptr, &clock);
    transport = std::make_unique<cio::L2Transport>(shared.get(), config,
                                                   &costs, nullptr);
    peer = std::make_unique<cionet::DirectFabricPort>(
        &fabric, "peer", cionet::MacAddress::FromId(2));
  }
};

struct EchoCost {
  double sim_ns_per_frame = 0;
  double bytes_copied_per_frame = 0;
};

EchoCost RunEcho(cio::DataPositioning positioning,
                 cio::ReceiveOwnership ownership, size_t payload,
                 int frames) {
  L2World world(positioning, ownership);
  ciobase::Rng rng(1);
  ciobase::Buffer frame;
  cionet::EthernetHeader eth{cionet::MacAddress::FromId(1),
                             cionet::MacAddress::FromId(2), 0x88b5};
  eth.Serialize(frame);
  ciobase::Append(frame, rng.Bytes(payload));

  uint64_t sim_start = world.clock.now_ns();
  cionet::FrameBatch rx_batch;
  for (int i = 0; i < frames; ++i) {
    // Peer injects toward the guest; host device fills the RX ring.
    (void)cionet::SendOne(*world.peer, frame);
    world.device->Poll();
    (void)world.transport->ReceiveFrames(rx_batch, 1);
    // Guest sends it back out.
    (void)cionet::SendOne(*world.transport, frame);
    world.device->Poll();
    (void)world.peer->ReceiveFrames(rx_batch, 1);
  }
  EchoCost cost;
  cost.sim_ns_per_frame =
      static_cast<double>(world.clock.now_ns() - sim_start) / frames;
  cost.bytes_copied_per_frame =
      static_cast<double>(world.costs.counter("bytes_copied")) / frames;
  return cost;
}

// The shared region the L2World of a positioning lays out.
uint64_t SharedRegionBytes(cio::DataPositioning positioning) {
  cio::L2Config config;
  config.positioning = positioning;
  return cio::L2Layout(config).total;
}

}  // namespace

int main() {
  constexpr int kFrames = 1000;
  struct Mode {
    const char* name;
    cio::DataPositioning positioning;
    cio::ReceiveOwnership ownership;
  };
  const Mode kModes[] = {
      {"inline", cio::DataPositioning::kInline, cio::ReceiveOwnership::kCopy},
      {"shared-pool", cio::DataPositioning::kSharedPool,
       cio::ReceiveOwnership::kCopy},
      {"indirect", cio::DataPositioning::kIndirect,
       cio::ReceiveOwnership::kCopy},
      {"pool-revoke", cio::DataPositioning::kSharedPool,
       cio::ReceiveOwnership::kRevoke},
  };

  std::printf("== data positioning through the hardened L2 ring "
              "(per echoed frame, %d frames per cell) ==\n",
              kFrames);
  std::printf("%-12s %8s %18s %24s %20s\n", "mode", "payload",
              "sim_ns_per_frame", "bytes_copied_per_frame",
              "shared_region_bytes");
  for (const Mode& mode : kModes) {
    for (size_t payload : {64, 256, 1024, 1500}) {
      EchoCost cost =
          RunEcho(mode.positioning, mode.ownership, payload, kFrames);
      std::printf("%-12s %8zu %18.0f %24.0f %20llu\n", mode.name, payload,
                  cost.sim_ns_per_frame, cost.bytes_copied_per_frame,
                  static_cast<unsigned long long>(
                      SharedRegionBytes(mode.positioning)));
    }
  }
  // A mode lays out only the areas it reads: pools add to the rings, and
  // indirect tables add to the pools.
  uint64_t pool = SharedRegionBytes(cio::DataPositioning::kSharedPool);
  bool ordered =
      SharedRegionBytes(cio::DataPositioning::kInline) < pool &&
      pool <= SharedRegionBytes(cio::DataPositioning::kIndirect);
  std::printf("shared region: inline < shared-pool <= indirect: %s\n",
              ordered ? "yes" : "NO");
  return ordered ? 0 : 1;
}
