// Fabric: an in-memory Ethernet segment standing in for the physical
// network (see DESIGN.md substitutions). Host-side device backends attach
// endpoints; frames are routed by destination MAC with configurable
// latency, loss, and reordering so the TCP stack's retransmission and
// ordering machinery is actually exercised. Like a cloud vswitch, the
// fabric knows the IPv4 address each endpoint's node owns and suppresses
// ARP: a request for such an address goes to its owner alone.

#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/net/port.h"
#include "src/net/wire.h"

namespace cionet {

struct EndpointId {
  uint32_t value = 0;
  bool operator==(const EndpointId&) const = default;
};

class Fabric {
 public:
  struct Options {
    double loss_probability = 0.0;
    double reorder_probability = 0.0;
    uint64_t latency_ns = 20'000;  // one-way, ~intra-rack
    size_t max_frame = 9216;       // drop anything larger (jumbo limit)
  };

  Fabric(ciobase::SimClock* clock, uint64_t seed)
      : Fabric(clock, seed, Options{}) {}
  Fabric(ciobase::SimClock* clock, uint64_t seed, Options options)
      : clock_(clock), rng_(seed), options_(options) {}

  // `ip` binds the endpoint to the address its node owns; a port no stack
  // answers for leaves it unset.
  EndpointId Attach(std::string name, MacAddress mac,
                    std::optional<Ipv4Address> ip = std::nullopt);

  // Removes an endpoint from routing and drops its queued frames. Used for
  // device hot-swap (§3.2: migration by swapping fixed-config devices
  // rather than renegotiating a live one).
  void Detach(EndpointId endpoint);

  // Routes a frame from `from` to the attached endpoint owning the
  // destination MAC. A broadcast ARP request goes to every other attached
  // endpoint bound to its target address; any other broadcast, or a request
  // no other endpoint is bound for, floods. Unknown destinations are
  // dropped silently, like a real switch without the FDB entry.
  ciobase::Status Inject(EndpointId from, ciobase::ByteSpan frame);

  // Next frame deliverable to `endpoint` at the current simulated time.
  ciobase::Result<ciobase::Buffer> Poll(EndpointId endpoint);

  struct Stats {
    uint64_t frames_routed = 0;
    uint64_t frames_dropped_loss = 0;
    uint64_t frames_dropped_unknown = 0;
    uint64_t frames_dropped_oversize = 0;
    uint64_t frames_reordered = 0;
    uint64_t bytes_routed = 0;
  };
  const Stats& stats() const { return stats_; }

  // Frame capture for tests ("tcpdump"): every routed frame, in order.
  struct CapturedFrame {
    uint64_t time_ns;
    EndpointId from;
    EndpointId to;
    ciobase::Buffer frame;
  };
  void EnableCapture(bool enabled) { capture_enabled_ = enabled; }
  const std::vector<CapturedFrame>& capture() const { return capture_; }

 private:
  struct PendingFrame {
    uint64_t deliver_at_ns;
    ciobase::Buffer frame;
  };
  struct Endpoint {
    std::string name;
    MacAddress mac;
    std::optional<Ipv4Address> ip;
    std::deque<PendingFrame> queue;
    bool attached = true;
  };

  void Deliver(EndpointId from, Endpoint& to, ciobase::ByteSpan frame);

  ciobase::SimClock* clock_;
  ciobase::Rng rng_;
  Options options_;
  std::vector<Endpoint> endpoints_;
  Stats stats_;
  bool capture_enabled_ = false;
  std::vector<CapturedFrame> capture_;
};

// DirectFabricPort: a FramePort wired straight onto the fabric with no host
// boundary. Used for unit tests of the network stack itself, and as the
// "ideal NIC" perf ceiling in benchmarks.
class DirectFabricPort final : public FramePort {
 public:
  DirectFabricPort(Fabric* fabric, std::string name, MacAddress mac,
                   std::optional<Ipv4Address> ip = std::nullopt,
                   uint16_t mtu = 1500)
      : fabric_(fabric),
        endpoint_(fabric->Attach(std::move(name), mac, ip)),
        mac_(mac),
        mtu_(mtu) {}

  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override {
    size_t sent = 0;
    for (ciobase::ByteSpan frame : frames) {
      if (frame.size() > kEthernetHeaderSize + mtu_) {
        if (sent == 0) {
          return ciobase::InvalidArgument("frame exceeds MTU");
        }
        break;
      }
      ciobase::Status status = fabric_->Inject(endpoint_, frame);
      if (!status.ok()) {
        if (sent == 0) {
          return status;
        }
        break;
      }
      ++sent;
    }
    return sent;
  }
  ciobase::Result<size_t> ReceiveFrames(FrameBatch& batch,
                                        size_t max_frames) override {
    batch.Clear();
    while (batch.size() < max_frames) {
      ciobase::Result<ciobase::Buffer> frame = fabric_->Poll(endpoint_);
      if (!frame.ok()) {
        break;
      }
      batch.Push(std::move(*frame));
    }
    return batch.size();
  }
  MacAddress mac() const override { return mac_; }
  uint16_t mtu() const override { return mtu_; }
  EndpointId endpoint() const { return endpoint_; }

 private:
  Fabric* fabric_;
  EndpointId endpoint_;
  MacAddress mac_;
  uint16_t mtu_;
};

}  // namespace cionet

#endif  // SRC_NET_FABRIC_H_
