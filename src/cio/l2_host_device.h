// L2HostDevice: the host-side backend of the hardened L2 transport.
//
// The honest implementation is deliberately trivial — consume TX slots,
// inject into the fabric; take fabric frames, fill RX slots — because the
// protocol has no control plane, no descriptors and no completions to
// manage. Like the virtio device model it can be armed with an adversary
// (corrupt payloads, inflate slot lengths, storm counters) and it reports
// host-visible events to the observability log. What the host sees here is
// exactly what a network observer sees: frame lengths, timings, and
// doorbells — nothing else (§3.1 "low observability").

#ifndef SRC_CIO_L2_HOST_DEVICE_H_
#define SRC_CIO_L2_HOST_DEVICE_H_

#include "src/base/clock.h"
#include "src/cio/l2_layout.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/tee/shared_region.h"
#include "src/virtio/net_device.h"  // KickTarget

namespace cio {

class L2HostDevice final : public ciovirtio::KickTarget {
 public:
  L2HostDevice(ciotee::SharedRegion* region, const L2Config& config,
               cionet::Fabric* fabric, std::string name,
               std::optional<cionet::Ipv4Address> ip,
               ciohost::Adversary* adversary,
               ciohost::ObservabilityLog* observability,
               ciobase::SimClock* clock);

  void Poll();
  void Kick() override;

  // Fabric endpoint; used to Detach() this device during a hot-swap.
  cionet::EndpointId endpoint() const { return endpoint_; }

  struct Stats {
    uint64_t frames_tx = 0;
    uint64_t frames_rx = 0;
    uint64_t rx_dropped_ring_full = 0;
    uint64_t kicks = 0;
    uint64_t kicks_swallowed = 0;
    uint64_t frames_dropped_fault = 0;
    uint64_t frames_duplicated_fault = 0;
    uint64_t epoch_adoptions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void AdoptGuestEpoch();
  void DrainTx();
  void FillRx();
  ciobase::Buffer ReadTxFrame(uint64_t index);
  void WriteRxFrame(uint64_t index, ciobase::ByteSpan frame, bool torn);
  bool Faulted(ciohost::FaultStrategy strategy) const;

  ciotee::SharedRegion* region_;
  L2Config config_;
  L2Layout layout_;
  cionet::Fabric* fabric_;
  cionet::EndpointId endpoint_;
  ciohost::Adversary* adversary_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;

  uint64_t tx_consumed_ = 0;
  uint64_t rx_produced_ = 0;
  uint64_t epoch_ = 0;  // last guest epoch this device adopted
  Stats stats_;
};

}  // namespace cio

#endif  // SRC_CIO_L2_HOST_DEVICE_H_
