// VirtioNetDevice: the host-side virtio-net device model.
//
// This is the untrusted half: it lives in the host domain, reads the guest's
// virtqueues through host accessors, moves frames to/from the network
// fabric, and — when the simulation arms an adversary — actively attacks the
// guest through inflated used-lengths, replayed completions, index storms
// and payload corruption. It also feeds the observability log with
// everything a real hypervisor backend would see: doorbells, frame lengths,
// timings, and config-space traffic.

#ifndef SRC_VIRTIO_NET_DEVICE_H_
#define SRC_VIRTIO_NET_DEVICE_H_

#include "src/base/clock.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/virtio/negotiation.h"
#include "src/virtio/virtqueue.h"

namespace ciovirtio {

// Doorbell target; implemented by host device models.
class KickTarget {
 public:
  virtual ~KickTarget() = default;
  virtual void Kick() = 0;
};

// Memory geometry of a complete virtio-net device in one shared region.
struct VirtioNetLayout {
  ConfigLayout config;
  VirtqLayout tx;
  VirtqLayout rx;
  uint64_t pool_offset = 0;
  size_t pool_slot_size = 2048;
  size_t pool_slot_count = 256;

  // Computes a packed layout for the given queue size and pool geometry.
  static VirtioNetLayout Make(uint16_t queue_size, size_t pool_slot_size,
                              size_t pool_slot_count);
  uint64_t TotalSize() const {
    return pool_offset + pool_slot_size * pool_slot_count;
  }
};

class VirtioNetDevice final : public KickTarget {
 public:
  VirtioNetDevice(ciotee::SharedRegion* region, VirtioNetLayout layout,
                  cionet::Fabric* fabric, std::string name,
                  std::optional<cionet::Ipv4Address> ip,
                  cionet::MacAddress mac, uint16_t mtu,
                  uint64_t offered_features, ciohost::Adversary* adversary,
                  ciohost::ObservabilityLog* observability,
                  ciobase::SimClock* clock);

  // Device-side main loop step: control plane, TX drain, RX fill.
  void Poll();

  // Guest doorbell (charged guest-side; observed host-side).
  void Kick() override;

  cionet::MacAddress mac() const { return mac_; }

  struct Stats {
    uint64_t frames_tx = 0;  // guest -> fabric
    uint64_t frames_rx = 0;  // fabric -> guest
    uint64_t rx_dropped_no_buffer = 0;
    uint64_t kicks = 0;
    uint64_t kicks_swallowed = 0;
    uint64_t frames_dropped_fault = 0;
    uint64_t frames_duplicated_fault = 0;
    uint64_t epoch_adoptions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  bool Faulted(ciohost::FaultStrategy strategy) const;
  void AdoptGuestEpoch();
  void DrainTx();
  void FillRx();

  ciotee::SharedRegion* region_;
  VirtioNetLayout layout_;
  VirtqueueDevice tx_;
  VirtqueueDevice rx_;
  cionet::Fabric* fabric_;
  cionet::EndpointId endpoint_;
  cionet::MacAddress mac_;
  uint64_t offered_features_;
  ciohost::Adversary* adversary_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
  uint64_t epoch_ = 0;  // last guest reset epoch this device adopted
  Stats stats_;
};

}  // namespace ciovirtio

#endif  // SRC_VIRTIO_NET_DEVICE_H_
