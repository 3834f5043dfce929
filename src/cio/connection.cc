#include "src/cio/connection.h"

#include <algorithm>

#include "src/tee/attestation.h"

namespace cio {

ciobase::Result<Accepted> SocketLayer::AcceptOn(cionet::NetStack& stack,
                                                cionet::SocketId listener) {
  CIO_ASSIGN_OR_RETURN(cionet::SocketId socket, stack.TcpAccept(listener));
  CIO_ASSIGN_OR_RETURN(cionet::Ipv4Address peer, stack.GetTcpPeer(socket));
  return Accepted{socket, peer};
}

void Connection::Open(cionet::SocketId id, ciotls::TlsRole role,
                      uint64_t seed) {
  socket = id;
  state = ConnState::kHandshaking;
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

bool Connection::CloseIfDrained(SocketLayer& sockets) {
  if ((state != ConnState::kDraining && state != ConnState::kMigrating) ||
      session->HasOutbound()) {
    return false;
  }
  // kUnavailable: sends queued below are still in flight, and the FIN must
  // not outrun them; the next round retries.
  if (sockets.Close(socket).code() == ciobase::StatusCode::kUnavailable) {
    return false;
  }
  state = ConnState::kClosed;
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
