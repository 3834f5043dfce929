// StackConfig: the one consolidated knob block for a ConfidentialNode.
//
// Every tunable a stack assembly needs — profile selection, identity,
// crypto, the dual-boundary L5/L2 knobs, the guest TCP tuning, and the
// fault-recovery budgets — lives here, so benchmarks, tests and the attack
// campaign configure a node in exactly one place. DefaultsFor() returns the
// validated defaults for a profile; notably only the dual-boundary profile
// enables link recovery by default (the baselines wedge under a hostile
// host, which is part of what the campaign measures).

#ifndef SRC_CIO_STACK_CONFIG_H_
#define SRC_CIO_STACK_CONFIG_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/recovery.h"
#include "src/cio/l2_config.h"
#include "src/cio/l5_channel.h"
#include "src/net/tcp.h"
#include "src/tee/trust.h"

namespace cioprof {
class ProfRegistry;
}  // namespace cioprof

namespace cio {

enum class StackProfile {
  kSyscallL5 = 0,
  kPassthroughL2 = 1,
  kHardenedVirtio = 2,
  kDualBoundary = 3,
  // §3.4: direct device assignment with SPDM attestation + IDE link
  // protection; the stack stays in the app domain, the device joins the
  // TCB, and no interface hardening is needed.
  kDirectDevice = 4,
  // §2.4's tunneled approach (LightBox-style): every L2 frame padded to a
  // fixed size and sealed before the host sees it — minimal observability
  // (even packet-length entropy collapses), maximal TCB.
  kTunneledL2 = 5,
};
inline constexpr int kStackProfileCount = 6;

std::string_view StackProfileName(StackProfile profile);
std::vector<StackProfile> AllStackProfiles();

// The largest I/O compartment heap of a dual-boundary node. The L5 channel
// registers its one queue region (L5QueueConfig::TotalBytes) there, and the
// node sizes the heap to that region.
inline constexpr size_t kIoHeapBytes = size_t{4} << 20;

// The trust model each profile instantiates (§2.1/§3.1).
ciotee::TrustModel ProfileTrustModel(StackProfile profile);

struct StackConfig {
  StackProfile profile = StackProfile::kDualBoundary;
  uint32_t node_id = 1;  // derives MAC 02:00:…:id and IP 10.0.0.id
  uint64_t seed = 1;
  ciobase::Buffer psk;   // attestation-bound pre-shared key
  // The design mandates TLS; ablations may disable it, but only with
  // recovery off (Valid(): link recovery needs the handshake).
  bool use_tls = true;

  // Dual-boundary knobs.
  L5ReceiveMode l5_receive = L5ReceiveMode::kCopy;
  L5BoundaryKind l5_boundary = L5BoundaryKind::kCompartment;
  DataPositioning l2_positioning = DataPositioning::kInline;
  ReceiveOwnership l2_rx_ownership = ReceiveOwnership::kCopy;
  bool l2_polling = true;

  // Async L5 datapath: SQ/CQ geometry + sealed-buffer pool. The whole
  // region must fit the I/O compartment heap (kIoHeapBytes).
  L5QueueConfig l5_queue;

  // Guest (and, for the syscall profile, host-proxy) TCP stack tuning. The
  // recovery campaign shrinks the RTO so retransmit-driven catch-up fits in
  // a simulated fault window.
  cionet::TcpConnection::Tuning tcp_tuning;

  // Listener accept-queue cap (SYNs beyond it are refused with RST); the
  // multi-tenant server sizes this to its connection budget.
  size_t accept_backlog = 64;

  // Optional in-sim profiler (src/prof): the node binds it to its clock +
  // cost model at construction and hangs it on every instrumented layer.
  // One registry per node — counter snapshots don't compose across nodes.
  cioprof::ProfRegistry* profiler = nullptr;

  // Link-fault recovery: watchdog timeouts, ring-reset budgets, TLS
  // reconnect budget, resend window. Disabled by default; DefaultsFor()
  // switches it on for the dual-boundary profile.
  ciobase::RecoveryConfig recovery;

  // Session lifecycle (ISSUE 9). Send-side rekey thresholds: after this many
  // application records / payload bytes the node ratchets its TLS sending
  // keys forward in-band (0 disables that trigger; both zero = no rekeying).
  uint64_t rekey_after_records = 0;
  uint64_t rekey_after_bytes = 0;

  // Attestation credentials for admission to an attestation-gated server:
  // `attestation_key` is the simulated platform key (empty = this node
  // cannot produce reports and will be rejected kUnauthenticated), and
  // `code_identity` feeds the measurement. `attest_stale_probe` is a
  // campaign hook: the client signs a fixed nonce instead of the server's
  // fresh challenge, modeling a replayed/stale report.
  ciobase::Buffer attestation_key;
  std::string code_identity = "cio-node";
  bool attest_stale_probe = false;

  // Validated per-profile defaults.
  static StackConfig DefaultsFor(StackProfile profile, uint32_t node_id = 1);

  bool Valid() const;
};

// Shrinks the TCP timers (RTO 1 ms initial, 0.5-4 ms, 4 retries) so a host
// fault window of a few simulated milliseconds kills the connection and
// the recovery path reconnects, instead of a silent multi-second
// retransmit stall. Every world that injects faults runs under it.
void TuneTcpForFaultWindows(StackConfig& config);

}  // namespace cio

#endif  // SRC_CIO_STACK_CONFIG_H_
