#include "src/hostsim/observability.h"

#include <cmath>

namespace ciohost {

size_t ObservabilityLog::EventCount() const {
  size_t total = 0;
  for (const auto& [category, count] : counts_) {
    total += count;
  }
  return total;
}

double ObservabilityLog::PacketLengthEntropyBits() const {
  const size_t total = CountOf(ObsCategory::kPacketLength);
  if (total == 0) {
    return 0.0;
  }
  double entropy = 0.0;
  for (const auto& [length, count] : packet_lengths_) {
    double p = static_cast<double>(count) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

std::string_view ObsCategoryName(ObsCategory category) {
  switch (category) {
    case ObsCategory::kPacketLength:
      return "packet-length";
    case ObsCategory::kPacketTiming:
      return "packet-timing";
    case ObsCategory::kDoorbell:
      return "doorbell";
    case ObsCategory::kCallType:
      return "call-type";
    case ObsCategory::kCallArgs:
      return "call-args";
    case ObsCategory::kMessageBoundary:
      return "message-boundary";
    case ObsCategory::kPayload:
      return "payload";
    case ObsCategory::kConfigField:
      return "config-field";
  }
  return "?";
}

uint32_t ObsCategoryBits(ObsCategory category) {
  // Order-of-magnitude information content per observed event. A network
  // observer sees lengths (~11 bits for <=2048B frames) and coarse timing
  // (~8 bits). A syscall-level host additionally learns the call type
  // (~5 bits over ~32 I/O calls), its arguments (~32 bits: addresses,
  // ports, socket options), and exact message boundaries (~12 bits).
  // A plaintext payload is counted at 64 bits per event as a (gross)
  // underestimate that still dominates every metadata category.
  switch (category) {
    case ObsCategory::kPacketLength:
      return 11;
    case ObsCategory::kPacketTiming:
      return 8;
    case ObsCategory::kDoorbell:
      return 4;
    case ObsCategory::kCallType:
      return 5;
    case ObsCategory::kCallArgs:
      return 32;
    case ObsCategory::kMessageBoundary:
      return 12;
    case ObsCategory::kPayload:
      return 64;
    case ObsCategory::kConfigField:
      return 16;
  }
  return 0;
}

}  // namespace ciohost
