// Engine: assembles complete confidential-I/O stacks and exposes the public
// application API (ConfidentialNode).
//
// A ConfidentialNode is one confidential unit (enclave or CVM) attached to
// the simulated world. Its application-level API is message-oriented and
// always TLS-protected; what varies is everything below, selected by
// StackProfile — the four corners of the paper's design space (Figure 5):
//
//   kSyscallL5     Graphene/SCONE-style: I/O via host syscalls. Tiny guest
//                  TCB, but every call, argument, and message boundary is
//                  host-visible, and each operation pays a host exit.
//   kPassthroughL2 rkt-io/ShieldBox-style: the guest runs its own TCP/IP
//                  stack over an *unhardened* raw transport in a single
//                  trust domain. Fast, network-level observability only,
//                  but the whole stack (and its attack surface) sits in
//                  the app's TCB.
//   kHardenedVirtio Lift-and-shift CVM: guest stack over virtio with the
//                  full retrofit hardening (checks + SWIOTLB bounces).
//   kDualBoundary  This work (§3): guest stack in an isolated I/O
//                  compartment behind the hardened L2 transport, with the
//                  single-distrust L5 channel and mandatory TLS above.
//
// All profiles speak the same wire format end-to-end (Ethernet/IPv4/TCP +
// TLS records), so any two profiles can interoperate across the fabric.

#ifndef SRC_CIO_ENGINE_H_
#define SRC_CIO_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/base/clock.h"
#include "src/cio/connection.h"
#include "src/cio/dda.h"
#include "src/cio/l2_host_device.h"
#include "src/cio/l2_transport.h"
#include "src/cio/l5_channel.h"
#include "src/cio/session.h"
#include "src/cio/tunnel_port.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/net/stack.h"
#include "src/cio/stack_config.h"
#include "src/tee/compartment.h"
#include "src/tee/memory.h"
#include "src/tee/trust.h"
#include "src/virtio/net_driver.h"

namespace cio {

class ConfidentialNode {
 public:
  ConfidentialNode(cionet::Fabric* fabric, ciobase::SimClock* clock,
                   StackConfig config);
  ~ConfidentialNode();

  ConfidentialNode(const ConfidentialNode&) = delete;
  ConfidentialNode& operator=(const ConfidentialNode&) = delete;

  // --- Connection lifecycle ---------------------------------------------------

  ciobase::Status Listen(uint16_t port);
  // kFailedPrecondition while a connection is open or still draining.
  ciobase::Status Connect(cionet::Ipv4Address peer, uint16_t port);
  // Orderly teardown of the current connection and a full session reset:
  // the node can Connect() again as a brand-new peer relationship (churn).
  // The connection drains first, as ConfidentialServer::Drain does: no new
  // sends, queued bytes flush, and the FIN leaves once nothing is queued or
  // in flight; with nothing queued that happens inside this call.
  // Cumulative message/recovery counters survive in the retired totals.
  ciobase::Status Disconnect();
  // Drives everything: host devices, guest stack, TLS pumping. Call in the
  // simulation loop.
  void Poll();
  // True once the transport is connected and (if enabled) TLS established,
  // until a fault or Disconnect().
  bool Ready() const {
    return !failed_ && conn_.state == ConnState::kEstablished;
  }
  // Terminal. With recovery enabled a dead TLS session is a fault in
  // flight, not a failure: Poll() tears it down and re-establishes; without
  // it, the drain that saw the TLS stream fail set this.
  bool Failed() const { return failed_; }

  // --- Admission / migration (client side) ------------------------------------

  // Attestation-gated servers challenge after the handshake; Poll() answers
  // with a report bound to {challenge, TLS transcript} using
  // config.attestation_key. These expose the outcome.
  bool admitted() const { return admitted_; }
  // The server rejected admission (kUnauthenticated there): terminal here —
  // reconnect loops cannot fix a bad credential.
  bool denied() const { return denied_; }
  // Times this node followed a kCtrlRedirect to a new instance.
  uint64_t migrations() const { return migrations_; }
  // Sessions retired by Disconnect() over this node's lifetime.
  uint64_t sessions_retired() const { return sessions_retired_; }

  // --- Application data ---------------------------------------------------------

  // Messages are sequence-numbered and acknowledged on the wire
  // ([len u32][seq u64][ack u64][payload]) so that after a link reset + TLS
  // re-establishment the resend window can replay what the peer had not
  // acknowledged and the receiver can drop duplicates: every message is
  // delivered exactly once. kResourceExhausted while the window is full of
  // unacknowledged messages; retry after a Poll(). (See cio::Session.)
  // On the L5 channel the first SendMessage after each Poll() rings the
  // doorbell at once; the ones after it leave with the next Poll().
  ciobase::Status SendMessage(ciobase::ByteSpan message);
  ciobase::Result<ciobase::Buffer> ReceiveMessage();

  // --- Introspection (benchmarks, campaign) -----------------------------------

  cionet::Ipv4Address ip() const { return ip_; }
  StackProfile profile() const { return config_.profile; }
  const StackConfig& config() const { return config_; }
  ciobase::CostModel& costs() { return costs_; }
  ciohost::ObservabilityLog& observability() { return observability_; }
  ciohost::Adversary& adversary() { return adversary_; }
  ciotee::TeeMemory& memory() { return memory_; }
  ciotee::CompartmentManager* compartments() { return compartments_.get(); }
  // The dual-boundary async datapath (null on other profiles): the server
  // rings its one egress doorbell through this.
  L5Channel* l5() { return l5_; }
  L2Transport* l2_transport() { return l2_transport_.get(); }
  ciovirtio::VirtioNetDriver* virtio_driver() { return virtio_driver_.get(); }
  DdaTransport* dda_transport() { return dda_transport_.get(); }
  TunnelPort* tunnel_port() { return tunnel_port_.get(); }
  ciotee::SharedRegion* shared_region() { return shared_.get(); }
  const ciotls::TlsSession* tls() const { return conn_.session->tls(); }
  // The profile's socket plumbing: the multi-tenant server drives its own
  // connection table through this instead of the node's single socket.
  SocketLayer* sockets() { return ops_.get(); }
  // A fresh session under this node's channel policy (PSK, TLS, resend
  // window, rekey thresholds); the server opens one per new connection.
  std::unique_ptr<Session> NewSession() const;
  // Application-level operations completed (messages in + out): the
  // denominator of the observability score.
  uint64_t app_ops() const { return messages_sent() + messages_received(); }
  uint64_t messages_sent() const {
    return conn_.session->stats().messages_sent + retired_.messages_sent;
  }
  uint64_t messages_received() const {
    return conn_.session->stats().messages_received +
           retired_.messages_received;
  }
  // Send-direction key updates initiated (live session + retired ones).
  uint64_t rekeys() const {
    return conn_.session->stats().rekeys + retired_.rekeys;
  }
  const Session& session() const { return *conn_.session; }

  // Link-recovery bookkeeping: what the node survived and what it cost.
  // `messages_lost` counts messages skipped by a receive-side sequence gap,
  // which the session refuses as kTampered: on an honest link it stays 0.
  struct RecoveryStats {
    uint64_t link_errors = 0;       // transport/TCP faults seen by the engine
    uint64_t reconnects = 0;        // TCP re-establishments attempted
    uint64_t tls_restarts = 0;      // fresh TLS sessions after a fault
    uint64_t messages_resent = 0;   // replayed from the resend window
    uint64_t messages_duplicate_dropped = 0;  // dedup'd by sequence number
    uint64_t messages_lost = 0;     // skipped by refused sequence gaps
    uint64_t last_fault_ns = 0;     // when the engine last saw a fault
    uint64_t last_recovery_ns = 0;  // when the channel was last re-ready
  };
  // Composed from the node's link-level counters and the session's message
  // accounting (returned by value since the session owns half the fields).
  RecoveryStats recovery_stats() const;

 private:
  struct StackOps;  // a NetStack's sockets (guest-owned, or host syscalls)

  // One round of the connection: flush, drain, flush.
  void Pump();
  // Flushes outbound() and, on the L5 channel, rings the doorbell once if
  // anything was queued.
  void Flush();
  // Acts on the link status a doorbell returns, for Poll() and the early
  // doorbell alike: kTimedOut fails the node (returns false), kTampered
  // begins recovery.
  bool OnLinkStatus(const ciobase::Status& link);
  // Counts the fault and tears the secure channel down for re-establishment.
  void BeginRecovery(const char* reason);
  // Abortive teardown plus the client's L5 ring reset; schedules the redial
  // (at once for a redirect) unless the connection was draining, which ends
  // the drain instead.
  void Teardown(bool redial_at_once);
  // Drives reconnect attempts and resend-window replay from Poll().
  void PollRecovery();
  // Drains the session's control inbox: attestation challenges, admission
  // verdicts, migration redirects.
  void PollControlPlane();
  // Sends the FIN once a draining connection has flushed, then retires.
  void PollDrain();
  // Folds the live session's counters into the retired totals and starts
  // over with a fresh session and a closed connection.
  void Retire();

  StackConfig config_;
  cionet::Ipv4Address ip_;
  ciobase::SimClock* clock_;
  ciobase::CostModel costs_;
  ciohost::ObservabilityLog observability_;
  ciohost::Adversary adversary_;
  ciotee::TeeMemory memory_;

  // Profile-dependent machinery (subset populated per profile).
  std::unique_ptr<ciotee::SharedRegion> shared_;
  std::unique_ptr<ciotee::CompartmentManager> compartments_;
  ciotee::CompartmentId app_compartment_{};
  ciotee::CompartmentId io_compartment_{};
  std::unique_ptr<ciovirtio::VirtioNetDevice> virtio_device_;
  std::unique_ptr<ciovirtio::VirtioNetDriver> virtio_driver_;
  std::unique_ptr<L2HostDevice> l2_device_;
  std::unique_ptr<L2Transport> l2_transport_;
  std::unique_ptr<TunnelPort> tunnel_port_;
  std::unique_ptr<ciotee::AttestationAuthority> device_authority_;
  std::unique_ptr<DdaDevice> dda_device_;
  std::unique_ptr<DdaTransport> dda_transport_;
  std::unique_ptr<cionet::FramePort> host_port_;  // syscall profile
  // The node's one TCP/IP stack: the guest's own, or on the syscall profile
  // the host's.
  std::unique_ptr<cionet::NetStack> stack_;
  // The profile's sockets: a StackOps, or on dual-boundary the L5 channel.
  std::unique_ptr<SocketLayer> ops_;
  L5Channel* l5_ = nullptr;  // ops_ on the dual-boundary profile

  // The single secure channel this node runs; src/serve/ holds a table of
  // Connections instead. The client role has a dial target (conn_.port).
  Connection conn_;
  std::optional<cionet::SocketId> listener_;  // the server role
  ciobase::Buffer rx_scratch_;  // reusable inbound chunk staging (Pump)
  bool early_doorbell_ = true;  // next SendMessage rings; re-armed by Poll()
  bool failed_ = false;
  RecoveryStats recovery_stats_;  // link-level half; session owns the rest

  // Admission / migration state (client side).
  bool admitted_ = false;
  bool denied_ = false;
  uint64_t migrations_ = 0;
  uint64_t sessions_retired_ = 0;
  // Counters of sessions already retired by Disconnect(), so churn-style
  // reuse doesn't erase a node's lifetime accounting.
  Session::Stats retired_;
};

// Convenience for tests/benchmarks: two nodes on one fabric, pumped until
// ready or a round budget expires.
struct LinkedPair {
  ciobase::SimClock clock;
  std::unique_ptr<cionet::Fabric> fabric;
  std::unique_ptr<ConfidentialNode> client;
  std::unique_ptr<ConfidentialNode> server;

  LinkedPair(StackConfig client_config, StackConfig server_config,
             cionet::Fabric::Options fabric_options = {});

  // Establishes server listen + client connect + TLS. Returns success.
  bool Establish(uint16_t port = 443, int max_rounds = 20000);
  // One pump round for both sides, advancing simulated time.
  void Pump(uint64_t step_ns = 10'000);
  bool PumpUntil(const std::function<bool()>& done, int max_rounds = 20000,
                 uint64_t step_ns = 10'000);
};

}  // namespace cio

#endif  // SRC_CIO_ENGINE_H_
