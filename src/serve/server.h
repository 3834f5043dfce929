// ConfidentialServer: a multi-tenant confidential server on one guest stack.
//
// The single-socket ConfidentialNode (src/cio/engine.*) demonstrates the
// paper's datapath for a point-to-point link. A real confidential service
// terminates MANY clients at once, all multiplexed over the same hardened
// L2 transport and the same single-distrust L5 boundary — which raises
// exactly the problems this subsystem owns:
//
//  * Connection table. Every client gets its own cio::Connection (socket,
//    cio::Session with TLS, framing and resend window) keyed by a connection
//    id, with an explicit lifecycle: handshaking -> established -> draining
//    -> closed. Drain, flush, close, teardown and replay are the same
//    cio::Connection steps the single-socket engine runs — one state
//    machine, two owners; this class keeps only table policy.
//
//  * Completion-driven poll loop. One Poll() drives the transport once — on
//    the L5 channel that is the round's one receive doorbell, harvesting
//    completions for every connection — then drains each connection's
//    harvested bytes. Idle connections cost an empty drain, no crossing, so
//    the round's boundary cost does not grow with the client count.
//
//  * Fair scheduling. Outbound transport capacity is shared by work-
//    conserving deficit round-robin: each backlogged connection accrues a
//    byte quantum per pass and may only flush while its deficit lasts, and
//    passes repeat while the transport takes bytes. An idle transport
//    carries every backlog in one round; under pushback a hot client
//    cannot monopolize the L2 batch slots and starve the others.
//
//  * Admission control and backpressure. A connection beyond
//    max_connections is refused at accept (abortive RST — the client sees a
//    typed kLinkReset, never a hang) and counted. Established connections
//    have a send-queue byte cap; Send() beyond it returns
//    kResourceExhausted to the application instead of growing memory.
//
//  * Fault recovery. When a client's transport dies mid-conversation the
//    server parks the Session (sequence numbers + resend window) keyed by
//    the peer's address. The client's engine reconnects (PR-2 client-side
//    backoff); the fresh accept from the same address reattaches the parked
//    Session, TLS re-establishes, both sides replay their windows, and the
//    sequence numbers dedup — exactly-once delivery across the fault, per
//    connection.
//
// Single-threaded and poll-driven like everything else in the simulation:
// call Poll() every simulation round.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/cio/engine.h"
#include "src/cio/session.h"
#include "src/serve/session_vault.h"
#include "src/tee/attestation.h"

namespace cioserve {

using cio::ConnState;

using ConnId = uint64_t;

struct ServerConfig {
  uint16_t port = 443;

  // Admission control: connections at the cap are refused with an abortive
  // RST and counted (stats().rejected_admission).
  size_t max_connections = 64;

  // Backpressure: per-connection queued-output byte cap. Send() returns
  // kResourceExhausted beyond it.
  size_t max_send_queue_bytes = 256 << 10;

  // How long a faulted connection's Session stays parked awaiting the
  // client's reconnect before its state (and resend window) is dropped.
  uint64_t reattach_timeout_ns = 500'000'000;

  // Attestation-gated admission. When enabled, every established channel
  // (including reattaches after a fault) is challenged with a fresh nonce
  // and must answer with a ciotee::AttestationReport over
  // {Measure(expected_identity), H(challenge || TLS transcript)} issued
  // under `attestation_key`. Missing/forged/stale reports are typed
  // kUnauthenticated rejections (stats().rejected_unauthenticated), sent to
  // the client as a kCtrlDenied before the close — never counted against
  // the leakage score, never parked.
  bool require_attestation = false;
  ciobase::Buffer attestation_key;
  std::string expected_identity = "cio-node";
};

// One inbound application message, tagged with the connection it came from.
struct Incoming {
  ConnId conn = 0;
  ciobase::Buffer message;
};

class ConfidentialServer {
 public:
  // The server multiplexes over `node`'s SocketLayer; the node supplies the
  // whole stack assembly (profile machinery, costs, observability) but its
  // own single-socket Connect/Listen API stays unused.
  ConfidentialServer(cio::ConfidentialNode* node, ciobase::SimClock* clock,
                     ServerConfig config);

  ConfidentialServer(const ConfidentialServer&) = delete;
  ConfidentialServer& operator=(const ConfidentialServer&) = delete;

  // Starts listening. The accept backlog is the node's stack-level knob
  // (StackConfig::accept_backlog); admission control here is the layer
  // above it. kInvalidArgument when the node's L5 pool cannot keep one
  // receive armed for each of max_connections beside its send reserve.
  ciobase::Status Start();

  // One scheduling round: drive the transport, accept (or refuse) pending
  // connections, pump every live connection's Session, flush outbound by
  // deficit round-robin, reap the dead, expire parked sessions.
  void Poll();

  // Next inbound message from any connection, kUnavailable when none.
  ciobase::Result<Incoming> Receive();

  // Queues one message to a connection. kNotFound for unknown ids,
  // kFailedPrecondition unless established, kResourceExhausted when the
  // connection's send queue is over budget or its resend window is full of
  // messages the client has not acknowledged.
  ciobase::Status Send(ConnId conn, ciobase::ByteSpan message);

  // Orderly shutdown: flush what is queued, then FIN. The connection
  // refuses new Sends immediately (kDraining); a drain the peer stalls by
  // not reading is aborted after kDrainTimeoutNs.
  ciobase::Status Drain(ConnId conn);

  // --- Live migration --------------------------------------------------------

  // Exports an established connection's session for resumption on another
  // instance: serializes the durable session state (sequence numbers,
  // resend window, undelivered inbox), seals it through `vault`, queues a
  // kCtrlRedirect({target_ip, target_port}) to the client, and puts the
  // connection in kMigrating (the redirect flushes, then the socket
  // closes; the session is never parked here again). Anything still in
  // flight rides the serialized resend window and the client's replay.
  // Returns the sealed blob to transfer via the confidential storage path.
  ciobase::Result<ciobase::Buffer> MigrateSession(ConnId conn,
                                                  SessionVault& vault,
                                                  cionet::Ipv4Address target_ip,
                                                  uint16_t target_port);

  // Imports a sealed session exported by another instance: unseals through
  // `vault` (kTampered on any integrity/rollback/replay violation),
  // restores the cio::Session, and parks it keyed by the embedded peer
  // address — the client's redirected reconnect reattaches it, TLS
  // re-establishes from the attestation-bound PSK, both sides replay, and
  // the sequence numbers keep delivery exactly-once across instances.
  ciobase::Status ImportSession(ciobase::ByteSpan sealed, SessionVault& vault);

  struct Stats {
    uint64_t accepted = 0;            // connections admitted
    uint64_t rejected_admission = 0;  // refused at the max_connections cap
    uint64_t recovered = 0;           // parked sessions reattached
    uint64_t closed = 0;              // connections reaped
    uint64_t expired_parked = 0;      // parked sessions dropped (timeout)
    uint64_t send_queue_rejections = 0;  // Sends over the queue cap
    uint64_t tampered = 0;            // connections killed: hostile framing
    // Admission outcomes (typed, outside the leakage score).
    uint64_t admitted = 0;                   // attestation verified
    uint64_t rejected_unauthenticated = 0;   // missing/forged/stale report
    // Live migration.
    uint64_t migrated_out = 0;  // sessions exported to another instance
    uint64_t migrated_in = 0;   // sealed sessions imported and parked
  };
  const Stats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }

  size_t active_connections() const { return connections_.size(); }
  size_t parked_sessions() const { return parked_.size(); }
  // True while the server still holds state for `peer` — a live table
  // entry or a parked session. Churn drivers wait for this to clear
  // between an orderly close and the next connect from the same address,
  // so a fresh connection can never reattach a half-torn-down session.
  bool ServesPeer(cionet::Ipv4Address peer) const;
  ciobase::Result<ConnState> StateOf(ConnId conn) const;
  // Established connection ids, for tests/benchmarks.
  std::vector<ConnId> EstablishedConnections() const;
  // The connection's live session (null when unknown/closed) — introspection
  // for tests/benchmarks (ratchet generations, stats).
  const cio::Session* SessionOf(ConnId conn) const;
  cio::ConfidentialNode* node() { return node_; }

  // Deficit round-robin: bytes of transport credit each backlogged
  // connection accrues per pass (capped at 8 quanta); passes repeat while
  // the transport takes bytes.
  static constexpr size_t kDrrQuantumBytes = 4096;

 private:
  // Inbound chunks per connection per round: bounds one client's share of
  // a round even when its pipe is full.
  static constexpr size_t kMaxRxChunksPerRound = 4;
  // A connection stuck in kHandshaking (or kAttesting) longer than this is
  // aborted: slow handshakes hold a table slot, and this bounds the squat.
  static constexpr uint64_t kHandshakeTimeoutNs = 2'000'000'000;
  // A closing connection (kDraining or kMigrating) whose flush and FIN have
  // not finished this long after the close began is aborted: a peer that
  // stopped reading would otherwise pin its table slot, and on the L5
  // channel the pool slots of its stalled sends, for good.
  static constexpr uint64_t kDrainTimeoutNs = 2'000'000'000;

  // One table entry: the shared connection state machine plus this
  // server's scheduling and admission state.
  struct Entry : cio::Connection {
    ConnId id = 0;
    size_t drr_deficit = 0;     // unused transport credit (DRR)
    uint64_t deadline_ns = 0;   // handshake or close deadline (Poll aborts)
    ciobase::Buffer challenge;  // admission nonce (kAttesting only)
    bool admitted = false;      // inbox delivery allowed (Admit ran)
  };

  struct ParkedSession {
    std::unique_ptr<cio::Session> session;
    uint64_t parked_ns = 0;
    // The faulted connection's id: the reattached connection keeps it, so
    // the application's handle stays valid across the fault.
    ConnId id = 0;
  };

  void AcceptPending();
  // The open entry `id`, or null.
  Entry* Find(ConnId id);
  // The transport under `entry` died: abort it (which releases its socket
  // state) and park its Session for reattach unless it was draining or
  // migrating.
  void Park(Entry& entry);
  // Drains inbound bytes into the Session within this round's budget, then
  // runs admission and delivers to the inbox.
  void Step(Entry& entry);
  // Channel up (and, when gated, attested): established + reattach replay.
  void Admit(Entry& entry);
  // Enters `closing` (kDraining or kMigrating) unless already closing:
  // queued output flushes, then the FIN, within kDrainTimeoutNs.
  void BeginClose(Entry& entry, ConnState closing);
  // Checks a client's attestation report against the expected measurement
  // and this connection's {challenge, transcript}-bound nonce.
  ciobase::Status VerifyReport(const Entry& entry,
                               ciobase::ByteSpan report_bytes) const;
  // kAttesting: consume the client's report and admit or deny.
  void PumpAdmission(Entry& entry);
  void FlushOutbound();  // DRR passes over connections with queued output
  void Reap();           // drop kClosed connections, expire parked sessions

  cio::ConfidentialNode* node_;
  cio::SocketLayer* sockets_;
  ciobase::SimClock* clock_;
  ServerConfig config_;

  std::optional<cionet::SocketId> listener_;  // set by Start()
  ConnId next_conn_id_ = 1;
  // Poll/flush iterate in id order, which doubles as round-robin order;
  // DRR deficits make the shares fair regardless of iteration order.
  std::map<ConnId, Entry> connections_;
  // Faulted connections' sessions awaiting the client's reconnect, keyed
  // by peer address (the engine reconnects from the same simulated IP).
  std::map<uint32_t, ParkedSession> parked_;
  std::deque<Incoming> inbox_;
  ciobase::Buffer rx_scratch_;  // reusable inbound staging chunk
  Stats stats_;

  // Attestation-gated admission (config_.require_attestation).
  ciobase::Rng rng_;  // challenge nonces
  std::unique_ptr<ciotee::AttestationAuthority> authority_;
  ciotee::Measurement expected_measurement_{};
};

}  // namespace cioserve

#endif  // SRC_SERVE_SERVER_H_
