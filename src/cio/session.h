// Session: the per-connection secure-channel state machine shared by the
// single-socket ConfidentialNode (src/cio/engine.*) and the multi-tenant
// ConfidentialServer (src/serve/*).
//
// One Session owns everything that belongs to exactly one peer relationship
// and survives transport re-establishment:
//
//   * the TLS session (PSK handshake, record protection),
//   * the [len u32][seq u64][ack u64][payload] message framing on the
//     protected byte stream, where `ack` is the sender's cumulative
//     acknowledgement (its last delivered sequence number),
//   * exactly-once delivery: duplicate drop, and a sequence gap refused as
//     hostile,
//   * the resend window: every sent message the peer has not acknowledged,
//     capped (Send refuses while it is full) and replayed after a link
//     reset + TLS restart,
//   * the in-band control plane (sequence-zero frames) used for
//     attestation admission and migration redirects, and
//   * the rekey policy that ratchets the TLS traffic secrets forward after
//     a configurable number of records or bytes.
//
// It is deliberately byte-oriented and transport-agnostic: the owner moves
// bytes between outbound() and whatever socket plumbing the stack profile
// provides, and feeds received bytes to Ingest(). That keeps one
// implementation of the PR-2 recovery machinery for both the client engine
// and every server connection — no copy-paste between engine.cc and
// src/serve/.
//
// Migration: SerializeState() captures the durable half of the session
// (sequence numbers, resend window, undelivered inbox, stats, PSK) in a
// versioned little-endian layout; Restore() rebuilds a Session on another
// instance. Live traffic keys are intentionally NOT serialized — the
// resumed session performs a fresh handshake from the attestation-bound
// PSK, so a stolen blob never contains usable record keys and migration
// gets forward secrecy for free. The blob itself must travel under seal
// with rollback protection (see cioserve::SessionVault).

#ifndef SRC_CIO_SESSION_H_
#define SRC_CIO_SESSION_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/tls/session.h"

namespace cioprof {
class ProfRegistry;
}  // namespace cioprof

namespace cio {

// Control-plane message types carried as sequence-zero frames inside the
// protected stream. Control frames never enter the resend window and never
// touch the dedup state: challenges and redirects are bound to one
// transport incarnation and must not replay across reattach. Like every
// frame they carry the sender's ack.
enum class CtrlType : uint8_t {
  kAttestChallenge = 1,  // server -> client: fresh nonce to bind a report to
  kAttestReport = 2,     // client -> server: serialized AttestationReport
  kAdmitted = 3,         // server -> client: admission complete
  kDenied = 4,           // server -> client: typed admission rejection
  kRedirect = 5,         // server -> client: resume at {ip u32, port u16}
  // Either direction: a standalone ack with an empty body, sent only when
  // the peer's frame asked for one. Consumed by the session, never
  // surfaced.
  kAck = 6,
};

struct ControlMessage {
  uint8_t type = 0;
  ciobase::Buffer body;
};

// Send-side rekey thresholds; 0 disables that trigger. Either peer rekeys
// its own sending direction (TLS KeyUpdate) once a threshold trips.
struct RekeyPolicy {
  uint64_t after_records = 0;
  uint64_t after_bytes = 0;
  bool enabled() const { return after_records > 0 || after_bytes > 0; }
};

class Session {
 public:
  struct Stats {
    uint64_t messages_sent = 0;      // accepted by Send()
    uint64_t messages_received = 0;  // handed out by Receive()
    uint64_t messages_resent = 0;    // replayed from the resend window
    uint64_t messages_duplicate_dropped = 0;  // dedup'd by sequence number
    // Messages skipped by a receive-side sequence gap. The gap itself is
    // refused as kTampered (nothing is ever evicted unacknowledged), so
    // on an honest link this stays 0.
    uint64_t messages_lost = 0;
    uint64_t tls_restarts = 0;    // Start() calls after the first
    uint64_t rekeys = 0;          // send-direction key updates we initiated
    uint64_t control_sent = 0;
    uint64_t control_received = 0;
    // Standalone kAck frames queued in answer to the peer's request (not
    // in control_sent, and not carried by SerializeState).
    uint64_t acks_sent = 0;
  };

  // `resend_window_cap` == 0 disables the resend window (no recovery): no
  // backpressure, and the session never asks for an ack.
  Session(bool use_tls, ciobase::Buffer psk, size_t resend_window_cap,
          RekeyPolicy rekey = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // (Re)creates the secure channel over a fresh byte stream. The first call
  // is the initial establishment; later calls (after ResetChannel) count as
  // TLS restarts.
  void Start(ciotls::TlsRole role, uint64_t seed);

  // Channel ready for application messages (TLS established, or always for
  // plaintext ablations once Start ran).
  bool Established() const;
  // The TLS state machine failed (forged/garbled stream): the channel must
  // be reset and re-established, or the connection declared dead.
  bool TlsFailed() const { return tls_ != nullptr && tls_->failed(); }

  // --- Application messages --------------------------------------------------

  // Frame header: [len u32][seq u64][ack u64]; `len` counts seq, ack and
  // payload. Its top bit is the ack-request flag (len never exceeds 2^24).
  static constexpr size_t kFrameHeaderBytes = 20;
  static constexpr size_t kMaxMessageBytes = (1u << 24) - 16;

  // Frames, protects, and queues one message; records it in the resend
  // window. kFailedPrecondition when the channel is not Established();
  // kResourceExhausted while the window holds its cap of messages the peer
  // has not acknowledged (retry once the peer's next frame has arrived).
  ciobase::Status Send(ciobase::ByteSpan payload);
  // Next reassembled inbound message, kUnavailable when none.
  ciobase::Result<ciobase::Buffer> Receive();
  bool HasInbound() const { return !inbox_.empty(); }

  // --- Control plane ---------------------------------------------------------

  // Queues a sequence-zero control frame ([type u8][body]) on the protected
  // stream. Not resend-window tracked: control is per-transport-incarnation.
  ciobase::Status SendControl(CtrlType type, ciobase::ByteSpan body);
  bool HasControl() const { return !control_inbox_.empty(); }
  std::optional<ControlMessage> PollControl();

  // --- Rekeying --------------------------------------------------------------

  // Forces a send-direction key update now (no-op for plaintext ablations or
  // before establishment). Automatic rekeys fire from Send once the policy
  // thresholds trip; the KeyUpdate record is queued *behind* the message
  // that tripped it, so record order under the old key is preserved.
  void Rekey();
  const RekeyPolicy& rekey_policy() const { return rekey_; }
  void set_rekey_policy(RekeyPolicy policy) { rekey_ = policy; }
  // Ratchet generations of the live TLS session (0 when none).
  uint32_t send_generation() const {
    return tls_ != nullptr ? tls_->send_generation() : 0;
  }
  uint32_t recv_generation() const {
    return tls_ != nullptr ? tls_->recv_generation() : 0;
  }

  // --- Byte plumbing ---------------------------------------------------------

  // Bytes awaiting the transport (handshake flights, protected records).
  const ciobase::Buffer& outbound() const { return outbound_; }
  bool HasOutbound() const { return !outbound_.empty(); }
  void ConsumeOutbound(size_t n);

  // Feeds raw bytes read from the transport. Every frame's ack trims the
  // resend window; when a delivered frame asked for an ack, one kAck is
  // queued in outbound(). Typed failures:
  //   kLinkReset — the TLS stream is corrupt; recoverable by resetting the
  //                channel and re-establishing.
  //   kTampered  — hostile framing inside the protected stream; terminal.
  //                This covers a sequence gap, an ack of a message never
  //                sent, and an ack below one the peer already sent (the
  //                peer lost the session state).
  ciobase::Status Ingest(ciobase::ByteSpan bytes);

  // --- Recovery --------------------------------------------------------------

  // The transport under the channel died: drop the TLS session and every
  // in-flight byte, keep sequence numbers and the resend window.
  void ResetChannel();
  // Once Established() again, re-frame everything still unacknowledged;
  // the peer's sequence numbers drop whatever it had already delivered,
  // and the replayed frames carry this side's ack.
  ciobase::Status Replay();

  // --- Migration -------------------------------------------------------------

  // Serializes the durable session state (see file comment for what travels
  // and what deliberately does not). Callers park the session first
  // (ResetChannel) so no half-written channel bytes are in play.
  ciobase::Buffer SerializeState() const;
  // Rebuilds a Session from SerializeState() output. Strictly bounds-checked;
  // any structural violation is kTampered (the blob crossed the host).
  static ciobase::Result<std::unique_ptr<Session>> Restore(
      ciobase::ByteSpan blob, RekeyPolicy rekey = {});

  // In-sim profiler for the owning node ("session.seal"/"session.open"
  // probes); null = disabled. Survives Start()/ResetChannel().
  void set_profiler(cioprof::ProfRegistry* profiler) { prof_ = profiler; }
  cioprof::ProfRegistry* profiler() const { return prof_; }

  const Stats& stats() const { return stats_; }
  const ciotls::TlsSession* tls() const { return tls_.get(); }
  size_t resend_window_size() const { return resend_window_.size(); }
  uint64_t last_delivered_seq() const { return last_delivered_seq_; }
  uint64_t next_send_seq() const { return next_send_seq_; }
  // Highest sequence number the peer has acknowledged.
  uint64_t acked_seq() const { return acked_seq_; }

 private:
  // Frames [header][ctrl u8 when `ctrl` is set][payload] in frame_tx_ and
  // seals it into outbound_.
  ciobase::Status FrameAndQueue(uint64_t seq, std::optional<CtrlType> ctrl,
                                ciobase::ByteSpan payload);
  // Whether the next frame asks for an ack: at least half the window is
  // unacknowledged and no earlier request awaits its kAck.
  bool TakeAckRequest();
  // Applies the peer's cumulative ack: trims the window.
  ciobase::Status ApplyAck(uint64_t ack);
  void PumpTls();  // moves pending TLS output into outbound_
  ciobase::Status ParseFrames(bool& ack_requested);
  // Accounts one sealed application message against the rekey policy and
  // triggers Rekey() once a threshold trips. Called AFTER the message is
  // framed so the KeyUpdate lands behind it in the stream.
  void NoteSealed(size_t payload_bytes);

  bool use_tls_;
  ciobase::Buffer psk_;
  size_t resend_cap_;
  RekeyPolicy rekey_;
  bool started_once_ = false;

  std::unique_ptr<ciotls::TlsSession> tls_;
  ciobase::Buffer outbound_;  // protected bytes awaiting the transport
  ciobase::Buffer frame_tx_;  // one framed message, reused per send
  ciobase::Buffer frame_rx_;  // length-framing reassembly buffer
  std::deque<ciobase::Buffer> inbox_;
  std::deque<ControlMessage> control_inbox_;

  uint64_t next_send_seq_ = 1;       // our outbound sequence numbers
  uint64_t last_delivered_seq_ = 0;  // peer's highest delivered sequence
  uint64_t acked_seq_ = 0;           // our highest sequence peer-acked
  // A frame of ours asked for an ack and its kAck has not arrived. The
  // peer answers every such frame it delivers, so only a channel reset
  // loses the answer.
  bool ack_request_outstanding_ = false;
  // Sent messages the peer has not acknowledged, oldest first: exactly
  // the sequence numbers (acked_seq_, next_send_seq_), at most resend_cap_.
  std::deque<std::pair<uint64_t, ciobase::Buffer>> resend_window_;
  uint64_t records_since_rekey_ = 0;
  uint64_t bytes_since_rekey_ = 0;
  cioprof::ProfRegistry* prof_ = nullptr;
  Stats stats_;
};

}  // namespace cio

#endif  // SRC_CIO_SESSION_H_
