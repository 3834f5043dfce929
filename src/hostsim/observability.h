// ObservabilityLog: what a curious (honest-but-curious or malicious) host
// learns by watching a confidential workload do I/O.
//
// §2.2 names observability by the host as the second vulnerability vector:
// "I/O metadata, ordering and types of I/O calls" allow the host to infer
// information about the TEE [3]. §2.4 argues the boundary level controls the
// leak: at L2 the host learns no more than a network observer (packet sizes
// and timings); at L5/syscall level it additionally sees which calls are
// made, their arguments (socket options, addresses), accept timings, and
// exact application-message boundaries.
//
// Every host-visible action in the simulation is counted here by category,
// each category carrying an estimate of the metadata bits one event leaks.
// The observability score of a design is the sum of leaked bits per
// operation — the "Obs." axis of Figure 5.

#ifndef SRC_HOSTSIM_OBSERVABILITY_H_
#define SRC_HOSTSIM_OBSERVABILITY_H_

#include <cstdint>
#include <map>
#include <string_view>

namespace ciohost {

enum class ObsCategory {
  kPacketLength,    // L2: frame length on the wire
  kPacketTiming,    // L2: when a frame crossed the boundary
  kDoorbell,        // notification/kick (presence + timing)
  kCallType,        // syscall boundary: which operation was invoked
  kCallArgs,        // syscall boundary: addresses, ports, option values
  kMessageBoundary, // syscall boundary: exact application message sizes
  kPayload,         // plaintext payload visible to the host (worst case)
  kConfigField,     // device config/negotiation state transitions
};

std::string_view ObsCategoryName(ObsCategory category);

// Rough per-event information content in bits, used for scoring.
uint32_t ObsCategoryBits(ObsCategory category);

class ObservabilityLog {
 public:
  // `value` is what the host saw (a length, a call id, a time); only packet
  // lengths are kept, as a histogram for PacketLengthEntropyBits().
  void Record(ObsCategory category, uint64_t value) {
    ++counts_[category];
    bits_ += ObsCategoryBits(category);
    if (category == ObsCategory::kPacketLength) {
      ++packet_lengths_[value];
    }
  }

  size_t EventCount() const;
  uint64_t TotalBits() const { return bits_; }
  size_t CountOf(ObsCategory category) const {
    auto it = counts_.find(category);
    return it == counts_.end() ? 0 : it->second;
  }
  size_t DistinctCategories() const { return counts_.size(); }

  // Leaked metadata bits per application-level operation; the Figure 5
  // observability metric.
  double BitsPerOp(uint64_t ops) const {
    return ops == 0 ? 0.0
                    : static_cast<double>(bits_) / static_cast<double>(ops);
  }

  // Bits from events a plain *network observer* could NOT have seen: call
  // types/arguments, message boundaries, config traffic, plaintext. §2.4's
  // claim is that an L2 boundary leaks zero beyond-network bits, while a
  // syscall-level boundary leaks plenty.
  uint64_t BeyondNetworkBits() const {
    uint64_t network = 0;
    for (ObsCategory category :
         {ObsCategory::kPacketLength, ObsCategory::kPacketTiming,
          ObsCategory::kDoorbell}) {
      auto it = counts_.find(category);
      if (it != counts_.end()) {
        network += it->second * ObsCategoryBits(category);
      }
    }
    return bits_ - network;
  }
  double BeyondNetworkBitsPerOp(uint64_t ops) const {
    return ops == 0 ? 0.0
                    : static_cast<double>(BeyondNetworkBits()) /
                          static_cast<double>(ops);
  }

  // Empirical Shannon entropy (bits) of the observed packet-length values:
  // how much a network observer actually learns per frame from sizes. A
  // tunneled design that pads every frame to one fixed size drives this to
  // zero (the LightBox corner of Figure 5) even though frames still flow.
  double PacketLengthEntropyBits() const;

  void Clear() {
    counts_.clear();
    packet_lengths_.clear();
    bits_ = 0;
  }

 private:
  std::map<ObsCategory, size_t> counts_;
  std::map<uint64_t, size_t> packet_lengths_;  // length -> frames seen
  uint64_t bits_ = 0;
};

}  // namespace ciohost

#endif  // SRC_HOSTSIM_OBSERVABILITY_H_
