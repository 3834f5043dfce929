#include "src/cio/session.h"

#include "src/prof/profiler.h"

namespace cio {

namespace {

// Serialized-session layout (version in the magic): little-endian, strict.
constexpr uint32_t kSessionMagic = 0x314E5343;  // "CSN1"
constexpr uint32_t kFlagUseTls = 1u << 0;
// Hard caps on restored collections: a blob that claims more crossed the
// host and is hostile regardless of what the seal said.
constexpr uint32_t kMaxRestorePsk = 4096;
constexpr uint32_t kMaxRestoreEntries = 65536;

// Frame header fields after `len`: seq u64 and ack u64, counted in len.
constexpr uint32_t kSeqAckBytes = 16;
constexpr uint32_t kMaxFrameLen = 1u << 24;
// Top bit of `len`: the sender asks for a standalone ack.
constexpr uint32_t kAckRequestFlag = 1u << 31;

// Bounds-checked little-endian cursor over an untrusted blob. All getters
// return false once any read would run past the end; the caller maps that
// to one typed kTampered.
class BlobReader {
 public:
  explicit BlobReader(ciobase::ByteSpan blob) : blob_(blob) {}

  bool U32(uint32_t& out) {
    if (blob_.size() - pos_ < 4) {
      return Fail();
    }
    out = ciobase::LoadLe32(blob_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t& out) {
    if (blob_.size() - pos_ < 8) {
      return Fail();
    }
    out = ciobase::LoadLe64(blob_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool Bytes(size_t n, ciobase::Buffer& out) {
    if (blob_.size() - pos_ < n) {
      return Fail();
    }
    out.assign(blob_.begin() + static_cast<long>(pos_),
               blob_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool Done() const { return !failed_ && pos_ == blob_.size(); }
  bool failed() const { return failed_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }
  ciobase::ByteSpan blob_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Session::Session(bool use_tls, ciobase::Buffer psk, size_t resend_window_cap,
                 RekeyPolicy rekey)
    : use_tls_(use_tls),
      psk_(std::move(psk)),
      resend_cap_(resend_window_cap),
      rekey_(rekey) {}

void Session::Start(ciotls::TlsRole role, uint64_t seed) {
  if (use_tls_) {
    tls_ = std::make_unique<ciotls::TlsSession>(role, psk_, "cio-link", seed);
    tls_->set_profiler(prof_);
    tls_->Start();
    PumpTls();
  }
  // A fresh channel starts from generation-zero keys; the rekey odometer
  // restarts with it.
  records_since_rekey_ = 0;
  bytes_since_rekey_ = 0;
  if (started_once_) {
    ++stats_.tls_restarts;
  }
  started_once_ = true;
}

bool Session::Established() const {
  if (!started_once_) {
    return false;
  }
  if (use_tls_) {
    return tls_ != nullptr && tls_->established();
  }
  return true;
}

void Session::PumpTls() {
  if (tls_ == nullptr) {
    return;
  }
  ciobase::Buffer out = tls_->TakeOutput();
  ciobase::Append(outbound_, out);
}

bool Session::TakeAckRequest() {
  if (resend_cap_ == 0 || ack_request_outstanding_ ||
      2 * resend_window_.size() < resend_cap_) {
    return false;
  }
  ack_request_outstanding_ = true;
  return true;
}

ciobase::Status Session::FrameAndQueue(uint64_t seq,
                                       std::optional<CtrlType> ctrl,
                                       ciobase::ByteSpan payload) {
  if (use_tls_ && tls_ == nullptr) {
    return ciobase::FailedPrecondition("no session");
  }
  // Wire framing: [len u32][seq u64][ack u64][ctrl u8, control frames
  // only][payload], len covering everything after itself. A kAck never
  // asks for one back.
  uint32_t len = static_cast<uint32_t>(kSeqAckBytes + ctrl.has_value() +
                                       payload.size());
  if (ctrl != CtrlType::kAck && TakeAckRequest()) {
    len |= kAckRequestFlag;
  }
  // Plaintext frames go straight to the transport queue; a TLS frame is
  // built in the reused frame_tx_ and sealed from there into outbound_.
  ciobase::Buffer& frame = use_tls_ ? frame_tx_ : outbound_;
  if (use_tls_) {
    frame.clear();
  }
  const size_t at = frame.size();
  frame.resize(at + kFrameHeaderBytes);
  ciobase::StoreLe32(frame.data() + at, len);
  ciobase::StoreLe64(frame.data() + at + 4, seq);
  ciobase::StoreLe64(frame.data() + at + 12, last_delivered_seq_);
  if (ctrl.has_value()) {
    frame.push_back(static_cast<uint8_t>(*ctrl));
  }
  ciobase::Append(frame, payload);
  if (use_tls_) {
    PumpTls();  // queued handshake or KeyUpdate records leave first
    CIO_RETURN_IF_ERROR(tls_->WriteMessage(frame_tx_, outbound_));
  }
  return ciobase::OkStatus();
}

ciobase::Status Session::Send(ciobase::ByteSpan payload) {
  if (!Established()) {
    return ciobase::FailedPrecondition("channel not established");
  }
  if (resend_cap_ != 0 && resend_window_.size() >= resend_cap_) {
    // Backpressure, not eviction: every message in the window is one the
    // peer has not acknowledged, and a reconnect may still need it.
    return ciobase::ResourceExhausted("resend window full");
  }
  CIO_PROF_SCOPE(prof_, "session.seal");
  if (payload.size() > kMaxMessageBytes) {
    return ciobase::InvalidArgument("message too large");
  }
  uint64_t seq = next_send_seq_++;
  if (resend_cap_ != 0) {
    resend_window_.emplace_back(
        seq, ciobase::Buffer(payload.begin(), payload.end()));
  }
  CIO_RETURN_IF_ERROR(FrameAndQueue(seq, std::nullopt, payload));
  ++stats_.messages_sent;
  NoteSealed(payload.size());
  return ciobase::OkStatus();
}

ciobase::Status Session::SendControl(CtrlType type, ciobase::ByteSpan body) {
  if (!Established()) {
    return ciobase::FailedPrecondition("channel not established");
  }
  if (body.size() + 1 > kMaxMessageBytes) {
    return ciobase::InvalidArgument("control body too large");
  }
  // Sequence zero: the receive side routes it to the control inbox without
  // touching the dedup state, and it is never resend-window tracked.
  CIO_RETURN_IF_ERROR(FrameAndQueue(0, type, body));
  ++stats_.control_sent;
  return ciobase::OkStatus();
}

std::optional<ControlMessage> Session::PollControl() {
  if (control_inbox_.empty()) {
    return std::nullopt;
  }
  ControlMessage msg = std::move(control_inbox_.front());
  control_inbox_.pop_front();
  return msg;
}

void Session::Rekey() {
  if (tls_ == nullptr || !tls_->established()) {
    return;
  }
  if (tls_->RequestKeyUpdate().ok()) {
    ++stats_.rekeys;
    records_since_rekey_ = 0;
    bytes_since_rekey_ = 0;
    PumpTls();
  }
}

void Session::NoteSealed(size_t payload_bytes) {
  if (!use_tls_ || !rekey_.enabled()) {
    return;
  }
  ++records_since_rekey_;
  bytes_since_rekey_ += payload_bytes;
  if ((rekey_.after_records != 0 &&
       records_since_rekey_ >= rekey_.after_records) ||
      (rekey_.after_bytes != 0 && bytes_since_rekey_ >= rekey_.after_bytes)) {
    Rekey();
  }
}

ciobase::Result<ciobase::Buffer> Session::Receive() {
  if (inbox_.empty()) {
    return ciobase::Unavailable("no message");
  }
  ciobase::Buffer message = std::move(inbox_.front());
  inbox_.pop_front();
  ++stats_.messages_received;
  return message;
}

void Session::ConsumeOutbound(size_t n) {
  outbound_.erase(outbound_.begin(),
                  outbound_.begin() + static_cast<long>(n));
}

ciobase::Status Session::Ingest(ciobase::ByteSpan bytes) {
  CIO_PROF_SCOPE(prof_, "session.open");
  if (use_tls_) {
    if (tls_ == nullptr) {
      return ciobase::FailedPrecondition("channel not started");
    }
    if (!tls_->Feed(bytes).ok()) {
      return ciobase::LinkReset("tls stream corrupt");
    }
    PumpTls();  // the handshake may have produced a reply flight
    for (;;) {
      auto chunk = tls_->ReadMessage();
      if (!chunk.ok()) {
        break;
      }
      ciobase::Append(frame_rx_, *chunk);
    }
  } else {
    ciobase::Append(frame_rx_, bytes);
  }
  bool ack_requested = false;
  CIO_RETURN_IF_ERROR(ParseFrames(ack_requested));
  if (ack_requested) {
    // One standalone ack answers every request this batch carried.
    CIO_RETURN_IF_ERROR(FrameAndQueue(0, CtrlType::kAck, {}));
    ++stats_.acks_sent;
  }
  return ciobase::OkStatus();
}

ciobase::Status Session::ApplyAck(uint64_t ack) {
  if (ack >= next_send_seq_) {
    return ciobase::Tampered("ack of a message never sent");
  }
  if (ack < acked_seq_) {
    // Within one session the peer's delivered count only grows, across
    // reattach and migration too: a smaller ack means the peer lost the
    // session, and its fresh sequence numbers would read as duplicates.
    return ciobase::Tampered("ack went backwards");
  }
  acked_seq_ = ack;
  while (!resend_window_.empty() && resend_window_.front().first <= ack) {
    resend_window_.pop_front();
  }
  return ciobase::OkStatus();
}

ciobase::Status Session::ParseFrames(bool& ack_requested) {
  // Reassemble length-framed, sequence-numbered application messages (both
  // modes frame the stream identically; TLS just protects the framed
  // bytes). The sequence numbers make delivery exactly-once across link
  // resets: replays deduplicate here. Every frame, control frames and
  // duplicates included, carries the peer's ack, which trims the window.
  while (frame_rx_.size() >= 4) {
    const uint32_t word = ciobase::LoadLe32(frame_rx_.data());
    const uint32_t len = word & ~kAckRequestFlag;
    if (len < kSeqAckBytes || len > kMaxFrameLen) {
      return ciobase::Tampered("hostile framing");
    }
    if (frame_rx_.size() < 4 + len) {
      break;
    }
    const uint64_t seq = ciobase::LoadLe64(frame_rx_.data() + 4);
    CIO_RETURN_IF_ERROR(ApplyAck(ciobase::LoadLe64(frame_rx_.data() + 12)));
    const auto body = frame_rx_.begin() + kFrameHeaderBytes;
    const auto end = frame_rx_.begin() + 4 + len;
    if (seq == 0) {
      // Control frame: [ctrl u8][body] routed around the dedup state. A
      // kAck's message was its header.
      if (len == kSeqAckBytes) {
        return ciobase::Tampered("hostile control framing");
      }
      if (*body == static_cast<uint8_t>(CtrlType::kAck)) {
        ack_request_outstanding_ = false;  // answered
      } else {
        control_inbox_.push_back(
            ControlMessage{*body, ciobase::Buffer(body + 1, end)});
        ++stats_.control_received;
      }
    } else if (seq <= last_delivered_seq_) {
      ++stats_.messages_duplicate_dropped;
    } else if (seq != last_delivered_seq_ + 1) {
      // No message leaves a window unacknowledged, so an honest peer
      // never skips one: the gap is forged.
      stats_.messages_lost += seq - last_delivered_seq_ - 1;
      return ciobase::Tampered("sequence gap");
    } else {
      last_delivered_seq_ = seq;
      inbox_.emplace_back(body, end);
    }
    ack_requested = ack_requested || (word & kAckRequestFlag) != 0;
    frame_rx_.erase(frame_rx_.begin(), end);
  }
  return ciobase::OkStatus();
}

void Session::ResetChannel() {
  tls_.reset();
  outbound_.clear();
  frame_rx_.clear();  // a partial frame died with the old channel
  // Undelivered control messages die with the transport incarnation that
  // produced them: a challenge or redirect must not outlive its channel.
  control_inbox_.clear();
  ack_request_outstanding_ = false;  // its answer died with the channel
}

ciobase::Status Session::Replay() {
  for (const auto& [seq, payload] : resend_window_) {
    CIO_RETURN_IF_ERROR(FrameAndQueue(seq, std::nullopt, payload));
    ++stats_.messages_resent;
  }
  return ciobase::OkStatus();
}

ciobase::Buffer Session::SerializeState() const {
  ciobase::Buffer blob;
  auto put32 = [&blob](uint32_t v) {
    size_t at = blob.size();
    blob.resize(at + 4);
    ciobase::StoreLe32(blob.data() + at, v);
  };
  auto put64 = [&blob](uint64_t v) {
    size_t at = blob.size();
    blob.resize(at + 8);
    ciobase::StoreLe64(blob.data() + at, v);
  };
  put32(kSessionMagic);
  put32(use_tls_ ? kFlagUseTls : 0);
  put32(static_cast<uint32_t>(resend_cap_));
  put64(next_send_seq_);
  put64(last_delivered_seq_);
  put64(stats_.messages_sent);
  put64(stats_.messages_received);
  put64(stats_.messages_resent);
  put64(stats_.messages_duplicate_dropped);
  put64(stats_.messages_lost);
  put64(stats_.tls_restarts);
  put64(stats_.rekeys);
  put64(stats_.control_sent);
  put64(stats_.control_received);
  put32(static_cast<uint32_t>(psk_.size()));
  ciobase::Append(blob, psk_);
  put32(static_cast<uint32_t>(resend_window_.size()));
  for (const auto& [seq, payload] : resend_window_) {
    put64(seq);
    put32(static_cast<uint32_t>(payload.size()));
    ciobase::Append(blob, payload);
  }
  // Messages delivered (dedup state advanced) but not yet handed to the
  // application travel with the session: dropping them here would turn
  // "delivered exactly once" into "delivered zero times".
  put32(static_cast<uint32_t>(inbox_.size()));
  for (const auto& message : inbox_) {
    put32(static_cast<uint32_t>(message.size()));
    ciobase::Append(blob, message);
  }
  return blob;
}

ciobase::Result<std::unique_ptr<Session>> Session::Restore(
    ciobase::ByteSpan blob, RekeyPolicy rekey) {
  BlobReader reader(blob);
  uint32_t magic = 0;
  uint32_t flags = 0;
  uint32_t resend_cap = 0;
  if (!reader.U32(magic) || magic != kSessionMagic) {
    return ciobase::Tampered("session blob: bad magic");
  }
  if (!reader.U32(flags) || (flags & ~kFlagUseTls) != 0) {
    return ciobase::Tampered("session blob: bad flags");
  }
  if (!reader.U32(resend_cap) || resend_cap > kMaxRestoreEntries) {
    return ciobase::Tampered("session blob: bad resend cap");
  }
  uint64_t next_send_seq = 0;
  uint64_t last_delivered_seq = 0;
  Stats stats;
  bool header_ok =
      reader.U64(next_send_seq) && reader.U64(last_delivered_seq) &&
      reader.U64(stats.messages_sent) && reader.U64(stats.messages_received) &&
      reader.U64(stats.messages_resent) &&
      reader.U64(stats.messages_duplicate_dropped) &&
      reader.U64(stats.messages_lost) && reader.U64(stats.tls_restarts) &&
      reader.U64(stats.rekeys) && reader.U64(stats.control_sent) &&
      reader.U64(stats.control_received);
  if (!header_ok || next_send_seq == 0) {
    return ciobase::Tampered("session blob: truncated header");
  }
  uint32_t psk_len = 0;
  ciobase::Buffer psk;
  if (!reader.U32(psk_len) || psk_len > kMaxRestorePsk ||
      !reader.Bytes(psk_len, psk)) {
    return ciobase::Tampered("session blob: bad psk");
  }
  auto session = std::make_unique<Session>(
      (flags & kFlagUseTls) != 0, std::move(psk), resend_cap, rekey);
  session->next_send_seq_ = next_send_seq;
  session->last_delivered_seq_ = last_delivered_seq;
  session->stats_ = stats;
  uint32_t window_count = 0;
  if (!reader.U32(window_count) || window_count > kMaxRestoreEntries ||
      window_count > resend_cap) {
    return ciobase::Tampered("session blob: bad window count");
  }
  uint64_t prev_seq = 0;
  for (uint32_t i = 0; i < window_count; ++i) {
    uint64_t seq = 0;
    uint32_t len = 0;
    ciobase::Buffer payload;
    if (!reader.U64(seq) || !reader.U32(len) || len > kMaxMessageBytes ||
        !reader.Bytes(len, payload)) {
      return ciobase::Tampered("session blob: bad window entry");
    }
    // Window entries are strictly increasing and below the send cursor;
    // anything else is a stitched-together blob.
    if (seq <= prev_seq || seq >= next_send_seq) {
      return ciobase::Tampered("session blob: window sequence disorder");
    }
    prev_seq = seq;
    session->resend_window_.emplace_back(seq, std::move(payload));
  }
  // The window held exactly what the peer had not acknowledged, so its
  // lower edge is the trim point. Without a window nothing is trimmed, and
  // any ack the peer sends is believed.
  if (resend_cap != 0) {
    session->acked_seq_ = session->resend_window_.empty()
                              ? next_send_seq - 1
                              : session->resend_window_.front().first - 1;
  }
  uint32_t inbox_count = 0;
  if (!reader.U32(inbox_count) || inbox_count > kMaxRestoreEntries) {
    return ciobase::Tampered("session blob: bad inbox count");
  }
  for (uint32_t i = 0; i < inbox_count; ++i) {
    uint32_t len = 0;
    ciobase::Buffer message;
    if (!reader.U32(len) || len > kMaxMessageBytes ||
        !reader.Bytes(len, message)) {
      return ciobase::Tampered("session blob: bad inbox entry");
    }
    session->inbox_.push_back(std::move(message));
  }
  if (!reader.Done()) {
    return ciobase::Tampered("session blob: trailing bytes");
  }
  // The restored session is parked: established again only after a fresh
  // handshake on the new instance (counted as a TLS restart).
  session->started_once_ = true;
  return session;
}

}  // namespace cio
