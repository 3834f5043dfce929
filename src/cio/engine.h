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
#include <string>

#include "src/base/clock.h"
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

// The profile-specific socket plumbing a stack assembly exposes: every
// profile provides the same byte-stream interface over its own machinery
// (host syscalls, guest stack, or the L5 channel into the I/O compartment).
// ConfidentialNode drives exactly one socket through it; the multi-tenant
// ConfidentialServer (src/serve/) multiplexes many.
class SocketLayer {
 public:
  virtual ~SocketLayer() = default;

  virtual ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                                    uint16_t port) = 0;
  virtual ciobase::Result<cionet::SocketId> Listen(uint16_t port) = 0;
  virtual ciobase::Result<cionet::SocketId> Accept(
      cionet::SocketId listener) = 0;
  virtual ciobase::Result<cionet::TcpState> State(cionet::SocketId id) = 0;
  // Orderly close (FIN after buffered data); the server's draining state
  // uses it.
  virtual ciobase::Status Close(cionet::SocketId id) = 0;
  // Abortive close (RST now); the recovery path uses it to kill a dead
  // connection before re-establishing.
  virtual ciobase::Status Abort(cionet::SocketId id) = 0;
  // Returns bytes accepted (possibly 0 under backpressure).
  virtual ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                            ciobase::ByteSpan data) = 0;
  // Fills `out` with the next chunk (capacity reused across calls); returns
  // the byte count — 0 when nothing is pending — kFailedPrecondition at
  // orderly EOF, kLinkReset when the connection died underneath us. Cheap
  // on an idle connection in every profile: on the L5 channel it drains
  // what the last Poll() harvested, with no crossing.
  virtual ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                               ciobase::Buffer& out) = 0;
  // Remote address of an established connection (the server's reattach key).
  virtual ciobase::Result<cionet::Ipv4Address> Peer(cionet::SocketId id) = 0;
  // Drives the stack; surfaces the link status (kTimedOut = transport
  // watchdog exhausted its reset budget, kLinkReset = ring reset this round,
  // kTampered = the L5 reaper rejected a completion).
  virtual ciobase::Status Poll() = 0;
};

class ConfidentialNode {
 public:
  ConfidentialNode(cionet::Fabric* fabric, ciobase::SimClock* clock,
                   StackConfig config);
  ~ConfidentialNode();

  ConfidentialNode(const ConfidentialNode&) = delete;
  ConfidentialNode& operator=(const ConfidentialNode&) = delete;

  // --- Connection lifecycle ---------------------------------------------------

  ciobase::Status Listen(uint16_t port);
  ciobase::Status Connect(cionet::Ipv4Address peer, uint16_t port);
  // Orderly teardown of the current connection and a full session reset:
  // the node can Connect() again as a brand-new peer relationship (churn).
  // Cumulative message/recovery counters survive in the retired totals.
  ciobase::Status Disconnect();
  // Drives everything: host devices, guest stack, TLS pumping. Call in the
  // simulation loop.
  void Poll();
  // True once the transport is connected and (if enabled) TLS established.
  bool Ready() const;
  bool Failed() const;

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

  // Messages are sequence-numbered on the wire ([len u32][seq u64][payload])
  // so that after a link reset + TLS re-establishment the resend window can
  // replay unacknowledged messages and the receiver can drop duplicates:
  // every message is delivered exactly once, or counted in
  // recovery_stats().messages_lost. (See cio::Session for the machinery.)
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
  // drives batched egress + per-connection teardown through this.
  L5Channel* l5() { return l5_.get(); }
  L2Transport* l2_transport() { return l2_transport_.get(); }
  ciovirtio::VirtioNetDriver* virtio_driver() { return virtio_driver_.get(); }
  DdaTransport* dda_transport() { return dda_transport_.get(); }
  TunnelPort* tunnel_port() { return tunnel_port_.get(); }
  ciotee::SharedRegion* shared_region() { return shared_.get(); }
  const ciotls::TlsSession* tls() const { return session_.tls(); }
  // The profile's socket plumbing: the multi-tenant server drives its own
  // connection table through this instead of the node's single socket.
  SocketLayer* sockets() { return ops_.get(); }
  // Application-level operations completed (messages in + out): the
  // denominator of the observability score.
  uint64_t app_ops() const { return messages_sent() + messages_received(); }
  uint64_t messages_sent() const {
    return session_.stats().messages_sent + retired_.sent;
  }
  uint64_t messages_received() const {
    return session_.stats().messages_received + retired_.received;
  }
  // Send-direction key updates initiated (live session + retired ones).
  uint64_t rekeys() const { return session_.stats().rekeys + retired_.rekeys; }
  const Session& session() const { return session_; }
  Session& session_mut() { return session_; }

  // Link-recovery bookkeeping (PR 2): what the node survived and what it
  // cost. `messages_lost` counts receive-side sequence gaps — messages a
  // peer sent that fell out of its resend window across a reconnect.
  struct RecoveryStats {
    uint64_t link_errors = 0;       // transport/TCP faults seen by the engine
    uint64_t reconnects = 0;        // TCP re-establishments attempted
    uint64_t tls_restarts = 0;      // fresh TLS sessions after a fault
    uint64_t messages_resent = 0;   // replayed from the resend window
    uint64_t messages_duplicate_dropped = 0;  // dedup'd by sequence number
    uint64_t messages_lost = 0;     // receive-side sequence gaps
    uint64_t last_fault_ns = 0;     // when the engine last saw a fault
    uint64_t last_recovery_ns = 0;  // when the channel was last re-ready
  };
  // Composed from the node's link-level counters and the session's message
  // accounting (returned by value since the session owns half the fields).
  RecoveryStats recovery_stats() const;

 private:
  struct SyscallOps;       // profile-specific byte-stream plumbing
  struct GuestStackOps;
  struct DualBoundaryOps;

  void PumpBytes();
  // Acts on the link status a doorbell returns, for Poll() and the early
  // doorbell alike: kTimedOut fails the node (returns false), kTampered
  // begins recovery.
  bool OnLinkStatus(const ciobase::Status& link);
  // Tears down the failed secure channel and schedules re-establishment
  // (client re-connects with backoff; server re-arms its accept loop).
  void BeginRecovery(const char* reason);
  // Drives reconnect attempts and resend-window replay from Poll().
  void PollRecovery();
  // Drains the session's control inbox: attestation challenges, admission
  // verdicts, migration redirects.
  void PollControlPlane();
  // Folds the live session's counters into the retired totals (Disconnect).
  void RetireSessionStats();

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
  std::unique_ptr<cionet::NetStack> guest_stack_;
  std::unique_ptr<cionet::FramePort> host_port_;
  std::unique_ptr<cionet::NetStack> host_stack_;  // syscall profile
  std::unique_ptr<L5Channel> l5_;
  std::unique_ptr<SocketLayer> ops_;

  // The single secure channel this node runs (TLS + framing + resend
  // window); src/serve/ holds one Session per connection instead.
  Session session_;
  bool listening_ = false;
  bool connected_transport_ = false;
  uint16_t listen_port_ = 0;
  cionet::SocketId listener_{};
  cionet::SocketId socket_{};
  bool have_socket_ = false;
  ciobase::Buffer rx_scratch_;  // reusable inbound chunk staging (PumpBytes)
  bool early_doorbell_ = true;  // next SendMessage rings; re-armed by Poll()
  bool failed_ = false;

  // Recovery state machine (active only with config_.recovery.enabled).
  bool is_client_ = false;
  cionet::Ipv4Address peer_ip_{};
  uint16_t peer_port_ = 0;
  bool reconnect_pending_ = false;   // channel down, re-establishment due
  bool resend_pending_ = false;      // replay the window once Ready() again
  uint32_t reconnect_attempts_ = 0;
  uint64_t next_reconnect_ns_ = 0;
  uint64_t reconnect_backoff_ns_ = 0;
  RecoveryStats recovery_stats_;  // link-level half; session owns the rest

  // Admission / migration state (client side).
  bool admitted_ = false;
  bool denied_ = false;
  uint64_t migrations_ = 0;
  uint64_t sessions_retired_ = 0;
  // Counters of sessions already retired by Disconnect(), so churn-style
  // reuse doesn't erase a node's lifetime accounting.
  struct RetiredTotals {
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t resent = 0;
    uint64_t dups = 0;
    uint64_t lost = 0;
    uint64_t tls_restarts = 0;
    uint64_t rekeys = 0;
  };
  RetiredTotals retired_;
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
