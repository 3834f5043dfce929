#include "src/serve/server.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/prof/profiler.h"

namespace cioserve {

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
      l5 != nullptr && config_.max_connections > l5->ArmableSockets()) {
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
  return ciobase::OkStatus();
}

void ConfidentialServer::AcceptPending() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.accept");
  for (;;) {
    // Accept until the backlog is empty. The peer comes with the socket,
    // and on the L5 channel an empty backlog costs no crossing.
    auto accepted = sockets_->Accept(*listener_);
    if (!accepted.ok()) {
      break;
    }
    const auto [socket, peer] = *accepted;

    // A fresh connection from an address we already serve is the client's
    // recovery path reconnecting: the server may not have noticed the fault
    // (nothing in flight means nothing failed server-side), so the accept
    // itself is the fault signal. Park the old connection's session first,
    // then let the reattach branch below pick it up. Erase the stale table
    // entry now — the reattached connection reuses its id.
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      if (it->second.peer == peer && it->second.open()) {
        Park(it->second);
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

    Entry entry;
    entry.peer = peer;
    entry.deadline_ns = clock_->now_ns() + kHandshakeTimeoutNs;
    auto parked = parked_.find(peer.value);
    if (parked != parked_.end()) {
      // Reattach: the parked Session keeps the sequence numbers and the
      // resend window, so after the TLS restart both sides replay and the
      // receiver's dedup makes delivery exactly-once across the fault. The
      // connection also keeps its id — the application's handle survives.
      entry.id = parked->second.id;
      entry.session = std::move(parked->second.session);
      entry.replay_due = true;
      parked_.erase(parked);
      ++stats_.recovered;
    } else {
      entry.id = next_conn_id_++;
      entry.session = node_->NewSession();
    }
    entry.Open(socket, ciotls::TlsRole::kServer,
               node_->config().seed + 1 + entry.id);
    ++stats_.accepted;
    connections_.emplace(entry.id, std::move(entry));
  }
}

ConfidentialServer::Entry* ConfidentialServer::Find(ConnId id) {
  auto it = connections_.find(id);
  return it == connections_.end() || !it->second.open() ? nullptr
                                                        : &it->second;
}

void ConfidentialServer::Park(Entry& entry) {
  // A kMigrating session is never parked: its authoritative copy already
  // left for the other instance — parking the stale local copy would hand
  // the client two diverging continuations.
  const bool parkable = node_->config().recovery.enabled &&
                        entry.state != ConnState::kDraining &&
                        entry.state != ConnState::kMigrating;
  entry.Abort(*sockets_);
  if (parkable) {
    parked_[entry.peer.value] =
        ParkedSession{std::move(entry.session), clock_->now_ns(), entry.id};
  }
}

void ConfidentialServer::Step(Entry& entry) {
  if (entry.state == ConnState::kMigrating) {
    // The exported state is the only continuation: ingesting more here
    // would move this copy's ack past it, and a kAck from here would trim
    // messages the importing instance never saw out of the client's
    // window. The redirect flushes and the socket closes in FlushOutbound.
    return;
  }
  switch (entry.Drain(*sockets_, rx_scratch_, kMaxRxChunksPerRound)) {
    case cio::DrainOutcome::kLive:
      break;
    case cio::DrainOutcome::kEof:
      // The client closed on purpose: flush what is queued, then FIN
      // (CloseIfDrained, in FlushOutbound). What arrived with the FIN is
      // still delivered below. A migrating connection already closes that
      // way and delivers nothing.
      BeginClose(entry, ConnState::kDraining);
      break;
    case cio::DrainOutcome::kFault:
      Park(entry);  // transport fault: park for the client's reconnect
      return;
    case cio::DrainOutcome::kTampered:
      // Hostile framing inside the protected stream: terminal for this
      // connection, and nothing worth parking.
      ++stats_.tampered;
      entry.Abort(*sockets_);
      return;
  }
  if (entry.state == ConnState::kHandshaking && entry.ChannelUp()) {
    if (config_.require_attestation) {
      // Channel up, admission pending: challenge with a fresh nonce. Every
      // transport (re)establishment re-attests — a reattach is a new
      // transcript, so yesterday's report cannot cover it.
      entry.state = ConnState::kAttesting;
      entry.challenge = rng_.Bytes(16);
      (void)entry.session->SendControl(cio::CtrlType::kAttestChallenge,
                                       entry.challenge);
    } else {
      Admit(entry);
    }
  }
  if (entry.state == ConnState::kAttesting) {
    PumpAdmission(entry);
  }
  if (entry.state == ConnState::kEstablished) {
    // Stray control frames on an admitted connection (duplicate reports)
    // are drained and ignored — never growth, never a fault.
    while (entry.session->PollControl().has_value()) {
    }
  }
  // Application delivery is held until admission: frames a client replays
  // ahead of its report sit in the session inbox (dedup already counted
  // them) and surface the moment the connection is admitted. A connection
  // that drains without ever being admitted (denied, or closed by the
  // client first) delivers nothing.
  while (entry.admitted && entry.state != ConnState::kMigrating &&
         entry.session->HasInbound()) {
    auto message = entry.session->Receive();
    if (!message.ok()) {
      break;
    }
    inbox_.push_back(Incoming{entry.id, std::move(*message)});
  }
}

void ConfidentialServer::Admit(Entry& entry) {
  entry.state = ConnState::kEstablished;
  entry.admitted = true;
  entry.challenge.clear();
  entry.ReplayIfDue();  // a reattached session replays its window
}

void ConfidentialServer::BeginClose(Entry& entry, ConnState closing) {
  if (entry.state == ConnState::kDraining ||
      entry.state == ConnState::kMigrating) {
    return;  // already closing, against its first deadline
  }
  entry.state = closing;
  entry.deadline_ns = clock_->now_ns() + kDrainTimeoutNs;
}

ciobase::Status ConfidentialServer::VerifyReport(
    const Entry& entry, ciobase::ByteSpan report_bytes) const {
  if (report_bytes.empty()) {
    return ciobase::Unauthenticated("missing attestation report");
  }
  auto report = ciotee::AttestationReport::Parse(report_bytes);
  if (!report.ok()) {
    return ciobase::Unauthenticated("malformed attestation report");
  }
  // The report must be bound to THIS connection (Connection::BindNonce).
  // Forged key -> MAC invalid; replayed/stale report -> nonce mismatch;
  // wrong build -> measurement mismatch. All one typed outcome.
  ciobase::Status verdict = authority_->Verify(
      *report, expected_measurement_, entry.BindNonce(entry.challenge));
  if (!verdict.ok()) {
    return ciobase::Unauthenticated(verdict.message());
  }
  return ciobase::OkStatus();
}

void ConfidentialServer::PumpAdmission(Entry& entry) {
  while (auto ctrl = entry.session->PollControl()) {
    if (static_cast<cio::CtrlType>(ctrl->type) !=
        cio::CtrlType::kAttestReport) {
      continue;
    }
    ciobase::Status verdict = VerifyReport(entry, ctrl->body);
    if (verdict.ok()) {
      ++stats_.admitted;
      (void)entry.session->SendControl(cio::CtrlType::kAdmitted, {});
      Admit(entry);
    } else {
      // Typed rejection, counted OUTSIDE the leakage score: the denial is
      // flushed to the client (so it stops retrying a hopeless credential),
      // then the socket drains shut. Nothing is parked — an unadmitted
      // session has no state worth recovering.
      ++stats_.rejected_unauthenticated;
      (void)entry.session->SendControl(
          cio::CtrlType::kDenied,
          ciobase::BufferFromString(verdict.message()));
      BeginClose(entry, ConnState::kDraining);
    }
    return;
  }
}

void ConfidentialServer::FlushOutbound() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.egress");
  // Work-conserving deficit round-robin over everyone with queued output:
  // each pass gives every backlogged connection one more quantum and sends
  // only while its deficit lasts, and passes repeat while the transport
  // takes bytes. An idle transport carries the whole backlog this round; a
  // full one is shared a quantum at a time, so a hot client cannot
  // monopolize the transport's batch slots. Each slice only queues (on the
  // L5 channel: sealed bytes copied into registered slots, no crossing),
  // and ONE doorbell after the loop carries the whole round's batch.
  // Draining connections flush here too, then FIN.
  const size_t deficit_cap = kDrrQuantumBytes * 8;
  bool submitted = false;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (auto& [id, entry] : connections_) {
      if (!entry.open()) {
        continue;
      }
      // Not backlogged: no credit hoarding.
      entry.drr_deficit =
          entry.session->HasOutbound()
              ? std::min(entry.drr_deficit + kDrrQuantumBytes, deficit_cap)
              : 0;
      auto sent = entry.Flush(*sockets_, entry.drr_deficit);
      if (!sent.ok()) {
        Park(entry);
        continue;
      }
      // (Backpressure keeps the rest of the deficit for the next pass.)
      progressed = progressed || *sent > 0;
      entry.drr_deficit -= *sent;
      // kMigrating rides the draining machinery: once the redirect is out,
      // nothing local remains authoritative and the socket closes.
      (void)entry.CloseIfDrained(*sockets_);
    }
    submitted = submitted || progressed;
  }
  if (cio::L5Channel* l5 = node_->l5(); l5 != nullptr && submitted) {
    // The reaper drops a forged completion (a typed edge) and keeps every
    // genuine entry in flight, so this doorbell only needs to push the
    // batch.
    (void)l5->Doorbell();
  }
}

void ConfidentialServer::Reap() {
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.reap");
  stats_.closed += std::erase_if(
      connections_, [](const auto& item) { return !item.second.open(); });
  // A parked client that never came back: its unacknowledged messages are
  // gone for good. If it comes back later it meets a fresh session, whose
  // first frame acknowledges less than the client's trim point: the client
  // fails typed (kTampered) instead of reading the new session's messages
  // as duplicates.
  const uint64_t now = clock_->now_ns();
  stats_.expired_parked += std::erase_if(parked_, [&](const auto& item) {
    return now - item.second.parked_ns > config_.reattach_timeout_ns;
  });
}

void ConfidentialServer::Poll() {
  if (!listener_.has_value()) {
    return;  // not started (or the node failed to initialize)
  }
  CIO_PROF_SCOPE(node_->costs().profiler(), "server.round");
  // On the L5 channel this is the round's one receive doorbell: it harvests
  // completions for every connection at once. (A kTampered status needs no
  // handling: the forged completion was dropped, genuine ones stay armed.)
  ciobase::Status link = sockets_->Poll();
  if (link.code() == ciobase::StatusCode::kTimedOut) {
    // The transport watchdog exhausted its reset budget: the link under
    // EVERY connection is dead for good. Park them all; if the host never
    // relents the parked sessions expire on their own.
    for (auto& [id, entry] : connections_) {
      if (entry.open()) {
        Park(entry);
      }
    }
  }
  // (kLinkReset: the transport already reattached its ring; TCP
  // retransmission replays the frames that died with it. Nothing to do.)

  AcceptPending();

  {
    CIO_PROF_SCOPE(node_->costs().profiler(), "server.pump");
    uint64_t now = clock_->now_ns();
    for (auto& [id, entry] : connections_) {
      if (!entry.open()) {
        continue;
      }
      if (entry.state != ConnState::kEstablished && now > entry.deadline_ns) {
        // A slow handshake or a stalled close squats a table slot; bound
        // the squat. Parked reattach state (if any) stays parked for a
        // genuine retry; a closing connection is never parked.
        Park(entry);
        continue;
      }
      // No readiness query: an idle connection's receive is an empty drain.
      Step(entry);
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
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  if (entry->state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  // Backpressure: the per-connection output queue is a hard byte budget.
  // Refusing here (typed, recoverable by the app) beats growing without
  // bound while a slow client drains.
  if (entry->session->outbound().size() + message.size() >
      config_.max_send_queue_bytes) {
    ++stats_.send_queue_rejections;
    return ciobase::ResourceExhausted("send queue over budget");
  }
  return entry->session->Send(message);
}

ciobase::Status ConfidentialServer::Drain(ConnId id) {
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  BeginClose(*entry, ConnState::kDraining);  // flush, then FIN
  return ciobase::OkStatus();
}

bool ConfidentialServer::ServesPeer(cionet::Ipv4Address peer) const {
  if (parked_.find(peer.value) != parked_.end()) {
    return true;
  }
  for (const auto& [id, entry] : connections_) {
    if (entry.peer == peer && entry.open()) {
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
  for (const auto& [id, entry] : connections_) {
    if (entry.state == ConnState::kEstablished) {
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
  Entry* entry = Find(id);
  if (entry == nullptr) {
    return ciobase::NotFound("no such connection");
  }
  if (entry->state != ConnState::kEstablished) {
    return ciobase::FailedPrecondition("connection not established");
  }
  // Serialize FIRST: the exported state must not include the redirect we
  // queue below (the importing instance would otherwise believe the client
  // already has it and skip the replay that covers it).
  ciobase::Buffer state = entry->session->SerializeState();
  // Envelope: [peer_ip u32 LE][session state] — the importer parks the
  // session under the peer's address so the redirected reconnect reattaches.
  ciobase::Buffer envelope(4 + state.size());
  ciobase::StoreLe32(envelope.data(), entry->peer.value);
  std::copy(state.begin(), state.end(), envelope.begin() + 4);
  ciobase::Buffer sealed = vault.Seal(envelope);

  ciobase::Buffer redirect(6);
  ciobase::StoreLe32(redirect.data(), target_ip.value);
  ciobase::StoreLe16(redirect.data() + 4, target_port);
  (void)entry->session->SendControl(cio::CtrlType::kRedirect, redirect);
  // From here this instance is no longer authoritative for the session: no
  // new application sends, no inbox delivery, just the redirect flushing
  // and the socket closing (FlushOutbound). The session is never parked —
  // the sealed export is the only continuation.
  BeginClose(*entry, ConnState::kMigrating);
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
