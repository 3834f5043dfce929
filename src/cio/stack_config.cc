#include "src/cio/stack_config.h"

namespace cio {

std::string_view StackProfileName(StackProfile profile) {
  switch (profile) {
    case StackProfile::kSyscallL5:
      return "syscall-l5";
    case StackProfile::kPassthroughL2:
      return "passthrough-l2";
    case StackProfile::kHardenedVirtio:
      return "hardened-virtio";
    case StackProfile::kDualBoundary:
      return "dual-boundary";
    case StackProfile::kDirectDevice:
      return "direct-device";
    case StackProfile::kTunneledL2:
      return "tunneled-l2";
  }
  return "?";
}

std::vector<StackProfile> AllStackProfiles() {
  return {StackProfile::kSyscallL5, StackProfile::kPassthroughL2,
          StackProfile::kHardenedVirtio, StackProfile::kDualBoundary,
          StackProfile::kDirectDevice, StackProfile::kTunneledL2};
}

ciotee::TrustModel ProfileTrustModel(StackProfile profile) {
  switch (profile) {
    case StackProfile::kSyscallL5:
      // No in-guest stack; app relies on (but does not trust) the host's.
      return ciotee::TrustModel::Binary();
    case StackProfile::kPassthroughL2:
    case StackProfile::kHardenedVirtio:
      return ciotee::TrustModel::Binary();
    case StackProfile::kDualBoundary:
      return ciotee::TrustModel::Ternary();
    case StackProfile::kDirectDevice:
      return ciotee::TrustModel::BinaryWithAttestedDevice();
    case StackProfile::kTunneledL2:
      return ciotee::TrustModel::Binary();
  }
  return ciotee::TrustModel::Binary();
}

StackConfig StackConfig::DefaultsFor(StackProfile profile, uint32_t node_id) {
  StackConfig config;
  config.profile = profile;
  config.node_id = node_id;
  // Only the dual-boundary design recovers from transient host faults; the
  // baselines keep their historical wedge-on-fault behavior.
  config.recovery.enabled = profile == StackProfile::kDualBoundary;
  if (profile == StackProfile::kDualBoundary) {
    // With the async datapath every payload byte is sealed end to end, so
    // the defensive per-byte receive copies at both layers are redundant
    // with the AEAD check: harvest in place (the L2 layer snapshots only
    // headers on this profile).
    config.l5_receive = L5ReceiveMode::kSealed;
  }
  return config;
}

void TuneTcpForFaultWindows(StackConfig& config) {
  config.tcp_tuning.initial_rto_ns = 1'000'000;
  config.tcp_tuning.min_rto_ns = 500'000;
  config.tcp_tuning.max_rto_ns = 4'000'000;
  config.tcp_tuning.max_retries = 4;
}

bool StackConfig::Valid() const {
  if (node_id == 0 || node_id > 254) {
    return false;  // must fit the 10.0.0.x host octet
  }
  if (!recovery.Valid()) {
    return false;
  }
  if (recovery.enabled && !use_tls) {
    // A plaintext channel is up at once, so a redial the host refused or
    // dropped could not be told from one that reached the peer, and the
    // reconnect budget would never run out: recovery needs the handshake.
    return false;
  }
  if (!l5_queue.Valid() || l5_queue.TotalBytes() > kIoHeapBytes) {
    return false;  // a region the I/O heap refuses would wedge the node
  }
  const cionet::TcpConnection::Tuning& t = tcp_tuning;
  if (t.initial_rto_ns < t.min_rto_ns || t.initial_rto_ns > t.max_rto_ns) {
    return false;
  }
  if (t.send_buffer_limit == 0 || t.receive_buffer_limit == 0 ||
      t.max_retries <= 0) {
    return false;
  }
  return true;
}

}  // namespace cio
