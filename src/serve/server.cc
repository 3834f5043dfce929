#include "src/serve/server.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/prof/profiler.h"

namespace cioserve {

std::string_view ConnStateName(ConnState state) {
  switch (state) {
    case ConnState::kHandshaking:
      return "handshaking";
    case ConnState::kAttesting:
      return "attesting";
    case ConnState::kEstablished:
      return "established";
    case ConnState::kDraining:
      return "draining";
    case ConnState::kMigrating:
      return "migrating";
    case ConnState::kClosed:
      return "closed";
  }
  return "?";
}

ConfidentialServer::ConfidentialServer(cio::ConfidentialNode* node,
                                       ciobase::SimClock* clock,
                                       ServerConfig config)
    : node_(node),
      sockets_(node->sockets()),
      clock_(clock),
      config_(std::move(config)),
      rng_(node->config().seed ^ 0xa77e57u) {
  if (config_.require_attestation) {
    authority_ = std::make_unique<ciotee::AttestationAuthority>(
        config_.attestation_key);
    expected_measurement_ = ciotee::Measure(config_.expected_identity, {});
  }
}

ciobase::Status ConfidentialServer::Start() {
  if (sockets_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  if (cio::L5Channel* l5 = node_->l5();
      l5 != nullptr && l5->queues_ready() &&
      config_.max_connections > l5->ArmableSockets()) {
    // Every admitted connection must be able to keep one receive armed
    // beside the send reserve, or a full table could starve its own reads.
    return ciobase::InvalidArgument(
        "L5 pool cannot arm a receive for every admitted connection");
  }
  auto listener = sockets_->Listen(config_.port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  listening_ = true;
  return ciobase::OkStatus();
}

void ConfidentialServer::AcceptPending() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.accept");
  for (;;) {
    // Accept until the backlog is empty: the failing call costs what a
    // pending-count query would, so no separate readiness query is needed.
    auto accepted = sockets_->Accept(listener_);
    if (!accepted.ok()) {
      break;
    }
    cionet::SocketId socket = *accepted;
    auto peer = sockets_->Peer(socket);
    if (!peer.ok()) {
      (void)sockets_->Abort(socket);
      continue;
    }

    // A fresh connection from an address we already serve is the client's
    // recovery path reconnecting: the server may not have noticed the fault
    // (nothing in flight means nothing failed server-side), so the accept
    // itself is the fault signal. Park the old connection's session first,
    // then let the reattach branch below pick it up. Erase the stale table
    // entry now — the reattached connection reuses its id.
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      if (it->second.session != nullptr && it->second.peer == *peer &&
          it->second.state != ConnState::kClosed) {
        ParkConnection(it->second);
        ++stats_.closed;
        connections_.erase(it);
        break;
      }
    }

    // Admission control: beyond the table cap, refuse NOW with an abortive
    // RST. The client gets a typed failure (kLinkReset from its receive
    // path) instead of a silent squat in a queue; no server memory grows.
    if (connections_.size() >= config_.max_connections) {
      (void)sockets_->Abort(socket);
      ++stats_.rejected_admission;
      continue;
    }

    Connection conn;
    conn.socket = socket;
    conn.peer = *peer;
    conn.state = ConnState::kHandshaking;
    conn.opened_ns = clock_->now_ns();

    auto parked = parked_.find(peer->value);
    if (parked != parked_.end()) {
      // Reattach: the parked Session keeps the sequence numbers and the
      // resend window, so after the TLS restart both sides replay and the
      // receiver's dedup makes delivery exactly-once across the fault. The
      // connection also keeps its id — the application's handle survives.
      conn.id = parked->second.id;
      conn.session = std::move(parked->second.session);
      conn.reattached = true;
      parked_.erase(parked);
      ++stats_.recovered;
    } else {
      conn.id = next_conn_id_++;
      const cio::StackConfig& node_config = node_->config();
      size_t resend_cap = node_config.recovery.enabled
                              ? node_config.recovery.resend_window
                              : 0;
      conn.session = std::make_unique<cio::Session>(
          node_config.use_tls, node_config.psk, resend_cap,
          cio::RekeyPolicy{node_config.rekey_after_records,
                           node_config.rekey_after_bytes});
    }
    conn.session->set_profiler(node_->costs().profiler());
    conn.session->Start(ciotls::TlsRole::kServer,
                        node_->config().seed + 1 + conn.id);
    ++stats_.accepted;
    connections_.emplace(conn.id, std::move(conn));
  }
}

void ConfidentialServer::ParkConnection(Connection& conn) {
  if (cio::L5Channel* l5 = node_->l5(); l5 != nullptr) {
    // Retire this socket's SQ/CQ state (queued entries, undelivered events,
    // registered slots) without disturbing the other connections' rings.
    l5->CancelSocket(conn.socket);
  }
  (void)sockets_->Abort(conn.socket);
  if (conn.session != nullptr && node_->config().recovery.enabled &&
      conn.state != ConnState::kDraining &&
      conn.state != ConnState::kMigrating) {
    // (A kMigrating session is never parked: its authoritative copy already
    // left for the other instance — parking the stale local copy would hand
    // the client two diverging continuations.)
    conn.session->ResetChannel();
    parked_[conn.peer.value] =
        ParkedSession{std::move(conn.session), clock_->now_ns(), conn.id};
  }
  conn.session.reset();
  conn.state = ConnState::kClosed;
}

void ConfidentialServer::CloseAndRelease(Connection& conn) {
  (void)sockets_->Close(conn.socket);
  if (cio::L5Channel* l5 = node_->l5(); l5 != nullptr) {
    // The FIN is queued below the SQ/CQ layer, so this releases only what
    // the socket still pins up here: armed receive entries, held
    // completions, registered pool slots. Without it every orderly close
    // leaked its receive slots until pool exhaustion (the park/reattach
    // audit: parked sessions release at park time, closed ones here).
    l5->CancelSocket(conn.socket);
  }
  conn.session.reset();
  conn.state = ConnState::kClosed;
}

bool ConfidentialServer::PumpConnection(Connection& conn) {
  for (size_t chunk = 0; chunk < config_.max_rx_chunks_per_round; ++chunk) {
    auto got = sockets_->ReceiveBytes(conn.socket, config_.rx_chunk_bytes,
                                      rx_scratch_);
    if (!got.ok()) {
      if (got.status().code() == ciobase::StatusCode::kFailedPrecondition) {
        // Orderly EOF: the client closed on purpose. Finish our side too.
        CloseAndRelease(conn);
        return false;
      }
      // kLinkReset (or the socket vanished): transport fault — park for
      // the client's reconnect.
      ParkConnection(conn);
      return false;
    }
    if (*got == 0) {
      break;
    }
    ciobase::Status ingested = conn.session->Ingest(rx_scratch_);
    if (!ingested.ok()) {
      if (ingested.code() == ciobase::StatusCode::kTampered) {
        // Hostile framing inside the protected stream: terminal for this
        // connection, and nothing worth parking.
        ++stats_.tampered;
        (void)sockets_->Abort(conn.socket);
        conn.session.reset();
        conn.state = ConnState::kClosed;
      } else {
        ParkConnection(conn);  // corrupt TLS stream: recoverable fault
      }
      return false;
    }
  }
  if (conn.session->TlsFailed()) {
    ParkConnection(conn);
    return false;
  }
  if (conn.state == ConnState::kHandshaking && conn.session->Established()) {
    if (config_.require_attestation) {
      // Channel up, admission pending: challenge with a fresh nonce. Every
      // transport (re)establishment re-attests — a reattach is a new
      // transcript, so yesterday's report cannot cover it.
      conn.state = ConnState::kAttesting;
      conn.challenge = rng_.Bytes(16);
      (void)conn.session->SendControl(cio::CtrlType::kAttestChallenge,
                                      conn.challenge);
    } else {
      Admit(conn);
    }
  }
  if (conn.state == ConnState::kAttesting) {
    PumpAdmission(conn);
  }
  if (conn.state == ConnState::kEstablished) {
    // Stray control frames on an admitted connection (duplicate reports)
    // are drained and ignored — never growth, never a fault.
    while (conn.session->PollControl().has_value()) {
    }
  }
  // Application delivery is held until admission: frames a client replays
  // ahead of its report sit in the session inbox (dedup already counted
  // them) and surface the moment the connection is admitted.
  while ((conn.state == ConnState::kEstablished ||
          conn.state == ConnState::kDraining) &&
         conn.session->HasInbound()) {
    auto message = conn.session->Receive();
    if (!message.ok()) {
      break;
    }
    inbox_.push_back(Incoming{conn.id, std::move(*message)});
  }
  return true;
}

void ConfidentialServer::Admit(Connection& conn) {
  conn.state = ConnState::kEstablished;
  conn.challenge.clear();
  if (conn.reattached) {
    // Channel is back: replay the resend window; the client's sequence
    // dedup drops whatever it already had.
    (void)conn.session->Replay();
    conn.reattached = false;
  }
}

ciobase::Status ConfidentialServer::VerifyReport(
    const Connection& conn, ciobase::ByteSpan report_bytes) const {
  if (report_bytes.empty()) {
    return ciobase::Unauthenticated("missing attestation report");
  }
  auto report = ciotee::AttestationReport::Parse(report_bytes);
  if (!report.ok()) {
    return ciobase::Unauthenticated("malformed attestation report");
  }
  // The report must be bound to THIS connection: nonce = H(challenge ||
  // transcript). Forged key -> MAC invalid; replayed/stale report -> nonce
  // mismatch; wrong build -> measurement mismatch. All one typed outcome.
  ciocrypto::Sha256Digest transcript{};
  if (conn.session->tls() != nullptr) {
    transcript = conn.session->tls()->transcript_hash();
  }
  ciobase::Status verdict = authority_->Verify(
      *report, expected_measurement_,
      ciotee::BindNonce(conn.challenge, transcript));
  if (!verdict.ok()) {
    return ciobase::Unauthenticated(verdict.message());
  }
  return ciobase::OkStatus();
}

void ConfidentialServer::PumpAdmission(Connection& conn) {
  while (auto ctrl = conn.session->PollControl()) {
    if (static_cast<cio::CtrlType>(ctrl->type) !=
        cio::CtrlType::kAttestReport) {
      continue;
    }
    ciobase::Status verdict = VerifyReport(conn, ctrl->body);
    if (verdict.ok()) {
      ++stats_.admitted;
      (void)conn.session->SendControl(cio::CtrlType::kAdmitted, {});
      Admit(conn);
    } else {
      // Typed rejection, counted OUTSIDE the leakage score: the denial is
      // flushed to the client (so it stops retrying a hopeless credential),
      // then the socket drains shut. Nothing is parked — an unadmitted
      // session has no state worth recovering.
      ++stats_.rejected_unauthenticated;
      (void)conn.session->SendControl(
          cio::CtrlType::kDenied,
          ciobase::BufferFromString(verdict.message()));
      conn.state = ConnState::kDraining;
    }
    return;
  }
}

void ConfidentialServer::FlushOutbound() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.egress");
  // Deficit round-robin over everyone with queued output: each backlogged
  // connection accrues one quantum per round and sends only while its
  // deficit lasts, so a hot client cannot monopolize the transport's batch
  // slots. Draining connections flush here too, then FIN.
  const size_t deficit_cap = config_.drr_quantum_bytes * 8;
  // Async egress: each connection's slice goes into the submission queue
  // (sealed bytes copied into registered slots, no boundary crossing), and
  // ONE doorbell after the loop carries the whole round's batch. Profiles
  // without the async datapath fall back to the per-call socket layer.
  cio::L5Channel* l5 = node_->l5();
  const bool async = l5 != nullptr && l5->queues_ready();
  bool submitted = false;
  for (auto& [id, conn] : connections_) {
    if (conn.state == ConnState::kClosed || conn.session == nullptr) {
      continue;
    }
    if (!conn.session->HasOutbound()) {
      conn.drr_deficit = 0;  // not backlogged: no credit hoarding
    } else {
      conn.drr_deficit =
          std::min(conn.drr_deficit + config_.drr_quantum_bytes, deficit_cap);
    }
    while (conn.session->HasOutbound() && conn.drr_deficit > 0) {
      const ciobase::Buffer& pending = conn.session->outbound();
      size_t want = std::min(pending.size(), conn.drr_deficit);
      ciobase::ByteSpan slice(pending.data(), want);
      auto sent = async ? l5->SubmitStream(conn.socket, slice)
                        : sockets_->SendBytes(conn.socket, slice);
      if (!sent.ok()) {
        ParkConnection(conn);
        break;
      }
      if (*sent == 0) {
        break;  // transport backpressure: keep the deficit for next round
      }
      submitted = true;
      conn.session->ConsumeOutbound(*sent);
      conn.drr_deficit -= *sent;
    }
    // Async egress: "no session backlog" is not "flushed" — wait until the
    // SQ has no entries left for this socket before the FIN. (kMigrating
    // rides the same machinery: once the redirect is out, nothing local
    // remains authoritative and the socket closes.)
    if ((conn.state == ConnState::kDraining ||
         conn.state == ConnState::kMigrating) &&
        conn.session != nullptr && !conn.session->HasOutbound() &&
        !(async && l5->HasInFlightSends(conn.socket))) {
      CloseAndRelease(conn);
    }
  }
  if (async && submitted) {
    // The reaper drops a forged completion (a typed edge) and keeps every
    // genuine entry in flight, so this doorbell only needs to push the
    // batch.
    (void)l5->Doorbell();
  }
}

void ConfidentialServer::Reap() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.reap");
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second.state == ConnState::kClosed) {
      ++stats_.closed;
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  uint64_t now = clock_->now_ns();
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (now - it->second.parked_ns > config_.reattach_timeout_ns) {
      // The client never came back: its unacknowledged messages are gone
      // for good (they would have been counted lost by the peer anyway).
      ++stats_.expired_parked;
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConfidentialServer::Poll() {
  if (!listening_ || sockets_ == nullptr) {
    return;
  }
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.round");
  // On the L5 channel this is the round's one receive doorbell: it harvests
  // completions for every connection at once. (A kTampered status needs no
  // handling: the forged completion was dropped, genuine ones stay armed.)
  ciobase::Status link = sockets_->Poll();
  if (!link.ok() && link.code() == ciobase::StatusCode::kTimedOut) {
    // The transport watchdog exhausted its reset budget: the link under
    // EVERY connection is dead for good. Park them all; if the host never
    // relents the parked sessions expire on their own.
    for (auto& [id, conn] : connections_) {
      if (conn.state != ConnState::kClosed) {
        ParkConnection(conn);
      }
    }
  }
  // (kLinkReset: the transport already reattached its ring; TCP
  // retransmission replays the frames that died with it. Nothing to do.)

  AcceptPending();

  {
    CIO_PROF_SCOPE(node_->costs().profiler(), "server.pump");
    uint64_t now = clock_->now_ns();
    for (auto& [id, conn] : connections_) {
      if (conn.state == ConnState::kClosed || conn.session == nullptr) {
        continue;
      }
      if ((conn.state == ConnState::kHandshaking ||
           conn.state == ConnState::kAttesting) &&
          now - conn.opened_ns > config_.handshake_timeout_ns) {
        // A slow handshake squats a table slot; bound the squat. Parked
        // reattach state (if any) stays parked for a genuine retry.
        ParkConnection(conn);
        continue;
      }
      // No readiness query: an idle connection's receive is an empty drain.
      (void)PumpConnection(conn);
    }
  }

  FlushOutbound();
  Reap();
}

ciobase::Result<Incoming> ConfidentialServer::Receive() {
  if (inbox_.empty()) {
    return ciobase::Unavailable("no message");
  }
  Incoming incoming = std::move(inbox_.front());
  inbox_.pop_front();
  return incoming;
}

ciobase::Status ConfidentialServer::Send(ConnId id,
                                         ciobase::ByteSpan message) {
  auto it = connections_.find(id);
  if (it == connections_.end() || it->second.session == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  Connection& conn = it->second;
  if (conn.state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  // Backpressure: the per-connection output queue is a hard byte budget.
  // Refusing here (typed, recoverable by the app) beats growing without
  // bound while a slow client drains.
  if (conn.session->outbound().size() + message.size() >
      config_.max_send_queue_bytes) {
    ++stats_.send_queue_rejections;
    return ciobase::ResourceExhausted("send queue over budget");
  }
  return conn.session->Send(message);
}

ciobase::Status ConfidentialServer::Drain(ConnId id) {
  auto it = connections_.find(id);
  if (it == connections_.end() || it->second.session == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  Connection& conn = it->second;
  if (conn.state != ConnState::kEstablished &&
      conn.state != ConnState::kHandshaking) {
    return ciobase::OkStatus();  // already draining or closed
  }
  conn.state = ConnState::kDraining;  // flush, then FIN (FlushOutbound)
  return ciobase::OkStatus();
}

bool ConfidentialServer::ServesPeer(cionet::Ipv4Address peer) const {
  if (parked_.find(peer.value) != parked_.end()) {
    return true;
  }
  for (const auto& [id, conn] : connections_) {
    if (conn.peer == peer && conn.state != ConnState::kClosed) {
      return true;
    }
  }
  return false;
}

ciobase::Result<ConnState> ConfidentialServer::StateOf(ConnId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return ciobase::NotFound("no such connection");
  }
  return it->second.state;
}

std::vector<ConnId> ConfidentialServer::EstablishedConnections() const {
  std::vector<ConnId> ids;
  for (const auto& [id, conn] : connections_) {
    if (conn.state == ConnState::kEstablished) {
      ids.push_back(id);
    }
  }
  return ids;
}

const cio::Session* ConfidentialServer::SessionOf(ConnId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return nullptr;
  }
  return it->second.session.get();
}

ciobase::Result<ciobase::Buffer> ConfidentialServer::MigrateSession(
    ConnId id, SessionVault& vault, cionet::Ipv4Address target_ip,
    uint16_t target_port) {
  auto it = connections_.find(id);
  if (it == connections_.end() || it->second.session == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  Connection& conn = it->second;
  if (conn.state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  // Serialize FIRST: the exported state must not include the redirect we
  // queue below (the importing instance would otherwise believe the client
  // already has it and skip the replay that covers it).
  ciobase::Buffer state = conn.session->SerializeState();
  // Envelope: [peer_ip u32 LE][session state] — the importer parks the
  // session under the peer's address so the redirected reconnect reattaches.
  ciobase::Buffer envelope(4 + state.size());
  ciobase::StoreLe32(envelope.data(), conn.peer.value);
  std::copy(state.begin(), state.end(), envelope.begin() + 4);
  ciobase::Buffer sealed = vault.Seal(envelope);

  ciobase::Buffer redirect(6);
  ciobase::StoreLe32(redirect.data(), target_ip.value);
  ciobase::StoreLe16(redirect.data() + 4, target_port);
  (void)conn.session->SendControl(cio::CtrlType::kRedirect, redirect);
  // From here this instance is no longer authoritative for the session: no
  // new application sends, no inbox delivery, just the redirect flushing
  // and the socket closing (FlushOutbound). The session is never parked —
  // the sealed export is the only continuation.
  conn.state = ConnState::kMigrating;
  ++stats_.migrated_out;
  return sealed;
}

ciobase::Status ConfidentialServer::ImportSession(ciobase::ByteSpan sealed,
                                                  SessionVault& vault) {
  auto envelope = vault.Open(sealed);
  if (!envelope.ok()) {
    return envelope.status();  // typed kTampered from the vault
  }
  if (envelope->size() < 4) {
    return ciobase::Tampered("migrated session envelope truncated");
  }
  uint32_t peer = ciobase::LoadLe32(envelope->data());
  const cio::StackConfig& node_config = node_->config();
  auto session = cio::Session::Restore(
      ciobase::ByteSpan(envelope->data() + 4, envelope->size() - 4),
      cio::RekeyPolicy{node_config.rekey_after_records,
                       node_config.rekey_after_bytes});
  if (!session.ok()) {
    return session.status();
  }
  (*session)->set_profiler(node_->costs().profiler());
  // Park under the embedded peer address: the client's redirected reconnect
  // is an ordinary reattach from here — fresh TLS from the shared PSK,
  // re-attestation when gated, both sides replay, sequence dedup keeps
  // delivery exactly-once across the instance move.
  parked_[peer] =
      ParkedSession{std::move(*session), clock_->now_ns(), next_conn_id_++};
  ++stats_.migrated_in;
  return ciobase::OkStatus();
}

}  // namespace cioserve
