// Connection: one secure channel over one socket, and the per-round steps
// that move it.
//
// Both owners of a cio::Session drive it through this one state machine:
// the single-socket ConfidentialNode (src/cio/engine.*) holds one
// Connection, and the multi-tenant ConfidentialServer (src/serve/) holds a
// table of them. What differs is role policy, which stays with the owner:
// the client dials and redials with backoff, the server accepts, admits,
// parks and reattaches; the client also resets its whole L5 ring on a
// fault. Every profile implements the one SocketLayer contract below, so
// neither owner polls socket state or branches on the profile to tear a
// socket down.
//
// The steps:
//   Drain  — harvested bytes into the session, with one outcome
//            classification (data, orderly EOF, recoverable fault, hostile
//            framing). A transport that dies before it is established
//            surfaces here too, as a fault.
//   Flush  — outbound() into the socket under a byte budget. On every
//            profile SendBytes only queues (on the L5 channel, in the SQ
//            with no crossing); the owner rings the doorbell once after its
//            flush.
//   CloseIfDrained — orderly: the FIN once nothing is queued or in flight;
//            the socket's Close releases everything it pinned.
//   Abort  — abortive: RST now, and the channel bytes die with it; the
//            session keeps its sequence numbers and resend window.
//   ReplayIfDue — once the channel is re-established after a fault.

#ifndef SRC_CIO_CONNECTION_H_
#define SRC_CIO_CONNECTION_H_

#include <cstdint>
#include <memory>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/cio/session.h"
#include "src/net/stack.h"

namespace cio {

// One accepted connection: its socket and the remote address (the server's
// reattach key).
struct Accepted {
  cionet::SocketId socket;
  cionet::Ipv4Address peer;
};

// The profile-specific socket plumbing a stack assembly exposes: every
// profile provides the same byte-stream interface over its own machinery
// (host syscalls, guest stack, or the L5 channel into the I/O compartment).
class SocketLayer {
 public:
  virtual ~SocketLayer() = default;

  // The dial's outcome arrives on the receive stream: a refused or
  // timed-out dial reads as kLinkReset, never as a state to poll.
  virtual ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                                    uint16_t port) = 0;
  virtual ciobase::Result<cionet::SocketId> Listen(uint16_t port) = 0;
  // The next pending connection with its peer, or kUnavailable. On the L5
  // channel an empty backlog costs no crossing: the last doorbell returned
  // the listener's pending count.
  virtual ciobase::Result<Accepted> Accept(cionet::SocketId listener) = 0;
  // Orderly close (FIN after buffered data) that releases everything the
  // socket pins. kUnavailable while bytes SendBytes queued have not reached
  // the stack (the L5 channel's in-flight sends), so the FIN never
  // overtakes them: retry after the next doorbell.
  virtual ciobase::Status Close(cionet::SocketId id) = 0;
  // Abortive close (RST now) that releases everything the socket pins; the
  // recovery path uses it to kill a dead connection before
  // re-establishing.
  virtual ciobase::Status Abort(cionet::SocketId id) = 0;
  // Queues bytes for the socket; returns bytes accepted (possibly 0 under
  // backpressure). On the L5 channel this makes no crossing: the owner's
  // next doorbell carries the queued entries.
  virtual ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                            ciobase::ByteSpan data) = 0;
  // Fills `out` with the next chunk (capacity reused across calls); returns
  // the byte count — 0 when nothing is pending — kFailedPrecondition at
  // orderly EOF, kLinkReset when the connection died underneath us. Cheap
  // on an idle connection in every profile: on the L5 channel it drains
  // what the last doorbell harvested, with no crossing.
  virtual ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                               ciobase::Buffer& out) = 0;
  // Drives the stack; surfaces the link status (kTimedOut = transport
  // watchdog exhausted its reset budget, kLinkReset = ring reset this round,
  // kTampered = the L5 reaper rejected a completion).
  virtual ciobase::Status Poll() = 0;

 protected:
  // TcpAccept plus the new connection's peer: the body of every profile's
  // Accept.
  static ciobase::Result<Accepted> AcceptOn(cionet::NetStack& stack,
                                            cionet::SocketId listener);
};

// Connection lifecycle. kHandshaking covers TCP establishment + the TLS
// flight; kAttesting means the channel is up but the client still owes a
// transcript-bound attestation report (server side); kDraining means Close
// was requested and queued output is still flushing (no new sends);
// kMigrating means the session was exported to another instance and only
// the redirect still needs to flush; kClosed means no socket.
enum class ConnState {
  kHandshaking,
  kAttesting,
  kEstablished,
  kDraining,
  kMigrating,
  kClosed,
};

// What one Drain() found on the socket.
enum class DrainOutcome {
  kLive,      // bytes ingested, or nothing pending
  kEof,       // orderly EOF: the peer closed on purpose, not a fault
  kFault,     // the transport died or the TLS stream is corrupt: recoverable
  kTampered,  // hostile framing inside the protected stream: terminal
};

struct Connection {
  // Inbound chunking: one ReceiveBytes call moves at most this much.
  static constexpr size_t kRxChunkBytes = 16384;

  cionet::SocketId socket{};
  cionet::Ipv4Address peer{};  // the client's dial target, the server's key
  uint16_t port = 0;           // the client's dial target
  ConnState state = ConnState::kClosed;
  bool replay_due = false;  // replay the resend window once back up
  // The secure channel; a unique_ptr so the server can park it across a
  // transport fault and reattach it on reconnect.
  std::unique_ptr<Session> session;
  // Client reconnect timers (capped exponential backoff).
  uint32_t reconnect_attempts = 0;
  uint64_t backoff_ns = 0;
  uint64_t next_reconnect_ns = 0;

  bool open() const { return state != ConnState::kClosed; }
  // The secure channel is up. TLS cannot finish over a transport that is
  // not; the plaintext ablation is up at once, and its bytes wait in the
  // socket's send buffer until TCP is.
  bool ChannelUp() const {
    return session != nullptr && session->Established();
  }

  // Starts the session over a fresh socket; kHandshaking until ChannelUp().
  void Open(cionet::SocketId id, ciotls::TlsRole role, uint64_t seed);
  // Moves up to `max_chunks` harvested chunks into the session.
  DrainOutcome Drain(SocketLayer& sockets, ciobase::Buffer& scratch,
                     size_t max_chunks);
  // Queues outbound() on the socket until it pushes back or `budget` bytes
  // went; returns the bytes queued, or the socket's error.
  ciobase::Result<size_t> Flush(SocketLayer& sockets,
                                size_t budget = SIZE_MAX);
  // A draining (or migrating) connection closes once nothing is left to
  // send: the session's queue is empty and the socket's Close no longer
  // waits for in-flight sends. Returns true when it closed.
  bool CloseIfDrained(SocketLayer& sockets);
  // Abortive teardown: RST now; the channel's bytes die, the session's
  // sequence numbers and resend window survive.
  void Abort(SocketLayer& sockets);
  // Replays the resend window when a fault left a replay due; the peer's
  // sequence numbers drop whatever was already delivered.
  void ReplayIfDue();
  // The attestation nonce bound to this channel, H(challenge || TLS
  // transcript): a report lifted from another connection, or signed over
  // an old challenge, fails verification.
  ciobase::Buffer BindNonce(ciobase::ByteSpan challenge) const;
};

}  // namespace cio

#endif  // SRC_CIO_CONNECTION_H_
