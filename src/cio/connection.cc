#include "src/cio/connection.h"

#include <algorithm>

#include "src/cio/l5_channel.h"
#include "src/tee/attestation.h"

namespace cio {

void Connection::Open(cionet::SocketId id, bool up, ciotls::TlsRole role,
                      uint64_t seed) {
  socket = id;
  state = ConnState::kHandshaking;
  transport_up = up;
  session->Start(role, seed);
}

DrainOutcome Connection::Drain(SocketLayer& sockets, ciobase::Buffer& scratch,
                               size_t max_chunks) {
  // The reusable scratch chunk keeps the steady-state receive path free of
  // per-round allocation. On the L5 channel this drains what the doorbell
  // already harvested: no crossing.
  for (size_t chunk = 0; open() && chunk < max_chunks; ++chunk) {
    auto got = sockets.ReceiveBytes(socket, kRxChunkBytes, scratch);
    if (!got.ok()) {
      return got.status().code() == ciobase::StatusCode::kFailedPrecondition
                 ? DrainOutcome::kEof
                 : DrainOutcome::kFault;
    }
    if (*got == 0) {
      break;
    }
    // kLinkReset from Ingest is a corrupt TLS stream: recoverable.
    ciobase::Status ingested = session->Ingest(scratch);
    if (!ingested.ok()) {
      return ingested.code() == ciobase::StatusCode::kTampered
                 ? DrainOutcome::kTampered
                 : DrainOutcome::kFault;
    }
  }
  return DrainOutcome::kLive;
}

ciobase::Result<size_t> Connection::Flush(SocketLayer& sockets,
                                          size_t budget) {
  size_t queued = 0;
  while (open() && session->HasOutbound() && queued < budget) {
    const ciobase::Buffer& pending = session->outbound();
    auto sent = sockets.SendBytes(
        socket, ciobase::ByteSpan(pending.data(),
                                  std::min(pending.size(), budget - queued)));
    if (!sent.ok()) {
      return sent.status();
    }
    if (*sent == 0) {
      break;  // backpressure: the rest leaves at a later flush, in order
    }
    session->ConsumeOutbound(*sent);
    queued += *sent;
  }
  return queued;
}

void Connection::Close(SocketLayer& sockets, L5Channel* l5) {
  (void)sockets.Close(socket);
  if (l5 != nullptr) {
    // The FIN is queued below the SQ/CQ layer, so this releases only what
    // the socket still pins up here; without it every orderly close would
    // leak its receive slots until pool exhaustion.
    l5->CancelSocket(socket);
  }
  state = ConnState::kClosed;
}

bool Connection::CloseIfDrained(SocketLayer& sockets, L5Channel* l5) {
  // On the L5 channel "no session backlog" is not yet "flushed": the SQ may
  // still hold entries for this socket, and the FIN must not outrun them.
  if ((state != ConnState::kDraining && state != ConnState::kMigrating) ||
      session->HasOutbound() ||
      (l5 != nullptr && l5->HasInFlightSends(socket))) {
    return false;
  }
  Close(sockets, l5);
  return true;
}

void Connection::Abort(SocketLayer& sockets) {
  (void)sockets.Abort(socket);
  session->ResetChannel();
  state = ConnState::kClosed;
}

void Connection::ReplayIfDue() {
  if (!replay_due) {
    return;
  }
  replay_due = false;
  reconnect_attempts = 0;
  backoff_ns = 0;
  (void)session->Replay();
}

ciobase::Buffer Connection::BindNonce(ciobase::ByteSpan challenge) const {
  ciocrypto::Sha256Digest transcript{};
  if (session->tls() != nullptr) {
    transcript = session->tls()->transcript_hash();
  }
  return ciotee::BindNonce(challenge, transcript);
}

}  // namespace cio
