#include "src/tls/session.h"

#include <algorithm>

#include "src/crypto/hkdf.h"
#include "src/crypto/hmac.h"
#include "src/prof/profiler.h"

namespace ciotls {

namespace {

constexpr uint8_t kMsgClientHello = 1;
constexpr uint8_t kMsgServerHello = 2;
constexpr uint8_t kMsgFinished = 20;
constexpr size_t kRandomSize = 32;

ciobase::Buffer ExpandSecret(ciobase::ByteSpan secret, std::string_view label,
                             ciobase::ByteSpan context, size_t n) {
  return ciocrypto::HkdfExpandLabel(secret, label, context, n);
}

}  // namespace

TlsSession::TlsSession(TlsRole role, ciobase::ByteSpan psk,
                       std::string psk_id, uint64_t seed)
    : role_(role),
      psk_(psk.begin(), psk.end()),
      psk_id_(std::move(psk_id)),
      rng_(seed) {}

void TlsSession::Start() {
  if (state_ != TlsState::kStart) {
    return;
  }
  if (role_ == TlsRole::kClient) {
    ciobase::Buffer hello;
    hello.push_back(kMsgClientHello);
    ciobase::Buffer random = rng_.Bytes(kRandomSize);
    ciobase::Append(hello, random);
    hello.push_back(static_cast<uint8_t>(psk_id_.size()));
    ciobase::AppendString(hello, psk_id_);
    ciobase::Append(transcript_, hello);
    QueueRecord(FramePlaintextRecord(RecordType::kHandshake, hello));
    state_ = TlsState::kAwaitServerHello;
  } else {
    state_ = TlsState::kAwaitClientHello;
  }
}

void TlsSession::Fail(std::string reason) {
  state_ = TlsState::kFailed;
  failure_ = std::move(reason);
}

ciocrypto::Sha256Digest TlsSession::TranscriptHash() const {
  return ciocrypto::Sha256::Hash(transcript_);
}

void TlsSession::DeriveTrafficKeys() {
  ciocrypto::Sha256Digest early = ciocrypto::HkdfExtract({}, psk_);
  ciobase::Buffer derived = ExpandSecret(early, "derived", {}, 32);
  ciocrypto::Sha256Digest transcript = TranscriptHash();
  ciocrypto::Sha256Digest master = ciocrypto::HkdfExtract(derived, transcript);

  client_secret_ = ExpandSecret(master, "c ap traffic", transcript, 32);
  server_secret_ = ExpandSecret(master, "s ap traffic", transcript, 32);
  client_finished_key_ = ExpandSecret(client_secret_, "finished", {}, 32);
  server_finished_key_ = ExpandSecret(server_secret_, "finished", {}, 32);

  auto make_key = [](ciobase::ByteSpan secret) {
    return SealingKey(ExpandSecret(secret, "key", {}, 32),
                      ExpandSecret(secret, "iv", {}, 12));
  };
  if (role_ == TlsRole::kClient) {
    send_secret_ = client_secret_;
    recv_secret_ = server_secret_;
  } else {
    send_secret_ = server_secret_;
    recv_secret_ = client_secret_;
  }
  send_key_ = make_key(send_secret_);
  recv_key_ = make_key(recv_secret_);
}

ciobase::Buffer TlsSession::FinishedMac(ciobase::ByteSpan base_key) const {
  ciocrypto::Sha256Digest transcript = TranscriptHash();
  ciocrypto::Sha256Digest mac =
      ciocrypto::HmacSha256::Mac(base_key, transcript);
  ciobase::Buffer out(1 + mac.size());
  out[0] = kMsgFinished;
  std::copy(mac.begin(), mac.end(), out.begin() + 1);
  return out;
}

void TlsSession::QueueRecord(ciobase::ByteSpan record_bytes) {
  ciobase::Append(output_, record_bytes);
}

ciobase::Buffer TlsSession::TakeOutput() {
  ciobase::Buffer out;
  out.swap(output_);
  return out;
}

ciobase::Status TlsSession::HandleHandshakeRecord(const Record& record) {
  const ciobase::Buffer& payload = record.payload;
  switch (state_) {
    case TlsState::kAwaitClientHello: {
      if (payload.size() < 2 + kRandomSize ||
          payload[0] != kMsgClientHello) {
        Fail("malformed ClientHello");
        return ciobase::Tampered(failure_);
      }
      size_t id_len = payload[1 + kRandomSize];
      if (payload.size() != 2 + kRandomSize + id_len) {
        Fail("malformed ClientHello length");
        return ciobase::Tampered(failure_);
      }
      std::string id(reinterpret_cast<const char*>(
                         payload.data() + 2 + kRandomSize),
                     id_len);
      if (id != psk_id_) {
        Fail("unknown PSK identity");
        return ciobase::Tampered(failure_);
      }
      ciobase::Append(transcript_, payload);
      ciobase::Buffer hello;
      hello.push_back(kMsgServerHello);
      ciobase::Buffer random = rng_.Bytes(kRandomSize);
      ciobase::Append(hello, random);
      ciobase::Append(transcript_, hello);
      QueueRecord(FramePlaintextRecord(RecordType::kHandshake, hello));
      DeriveTrafficKeys();
      state_ = TlsState::kAwaitFinished;
      return ciobase::OkStatus();
    }
    case TlsState::kAwaitServerHello: {
      if (payload.size() != 1 + kRandomSize ||
          payload[0] != kMsgServerHello) {
        Fail("malformed ServerHello");
        return ciobase::Tampered(failure_);
      }
      ciobase::Append(transcript_, payload);
      DeriveTrafficKeys();
      // Client Finished, protected under the fresh client traffic key.
      ciobase::Buffer finished = FinishedMac(client_finished_key_);
      QueueRecord(send_key_.Seal(RecordType::kHandshake, finished));
      ++stats_.records_sealed;
      state_ = TlsState::kAwaitFinished;
      return ciobase::OkStatus();
    }
    default:
      Fail("unexpected plaintext handshake record");
      return ciobase::Tampered(failure_);
  }
}

ciobase::Status TlsSession::HandleProtectedRecord(const Record& record) {
  CIO_PROF_SCOPE(prof_, "aead.decrypt");
  auto opened = recv_key_.Open(record.type, record.payload);
  if (!opened.ok()) {
    ++stats_.auth_failures;
    Fail("record authentication failed: " + opened.status().message());
    return ciobase::Tampered(failure_);
  }
  ++stats_.records_opened;

  switch (record.type) {
    case RecordType::kHandshake: {
      if (state_ != TlsState::kAwaitFinished) {
        Fail("unexpected Finished");
        return ciobase::Tampered(failure_);
      }
      ciobase::ByteSpan expected_key = role_ == TlsRole::kClient
                                           ? server_finished_key_
                                           : client_finished_key_;
      ciobase::Buffer expected = FinishedMac(expected_key);
      if (!ciobase::ConstantTimeEqual(*opened, expected)) {
        Fail("Finished MAC mismatch");
        return ciobase::Tampered(failure_);
      }
      if (role_ == TlsRole::kServer) {
        // Reply with our own Finished.
        ciobase::Buffer finished = FinishedMac(server_finished_key_);
        QueueRecord(send_key_.Seal(RecordType::kHandshake, finished));
        ++stats_.records_sealed;
      }
      state_ = TlsState::kEstablished;
      return ciobase::OkStatus();
    }
    case RecordType::kApplicationData:
      if (state_ != TlsState::kEstablished) {
        Fail("application data before establishment");
        return ciobase::Tampered(failure_);
      }
      inbox_.push_back(std::move(*opened));
      return ciobase::OkStatus();
    case RecordType::kKeyUpdate:
      if (state_ != TlsState::kEstablished) {
        Fail("key update before establishment");
        return ciobase::Tampered(failure_);
      }
      RotateSecret(recv_secret_, recv_key_);
      ++recv_generation_;
      ++stats_.key_updates;
      return ciobase::OkStatus();
    case RecordType::kAlert:
      Fail("peer alert");
      return ciobase::FailedPrecondition(failure_);
  }
  return ciobase::Internal("unhandled record type");
}

ciobase::Status TlsSession::Feed(ciobase::ByteSpan bytes) {
  if (state_ == TlsState::kFailed) {
    return ciobase::FailedPrecondition("session failed: " + failure_);
  }
  reader_.Feed(bytes);
  for (;;) {
    auto record = reader_.Next();
    if (!record.ok()) {
      if (record.status().code() == ciobase::StatusCode::kUnavailable) {
        return ciobase::OkStatus();
      }
      Fail(record.status().message());
      return record.status();
    }
    ciobase::Status status;
    bool plaintext_phase = state_ == TlsState::kAwaitClientHello ||
                           state_ == TlsState::kAwaitServerHello;
    if (record->type == RecordType::kHandshake && plaintext_phase) {
      status = HandleHandshakeRecord(*record);
    } else {
      status = HandleProtectedRecord(*record);
    }
    if (!status.ok()) {
      return status;
    }
  }
}

void TlsSession::RotateSecret(ciobase::Buffer& secret, SealingKey& key) {
  secret = ExpandSecret(secret, "traffic upd", {}, 32);
  key = SealingKey(ExpandSecret(secret, "key", {}, 32),
                   ExpandSecret(secret, "iv", {}, 12));
}

ciobase::Status TlsSession::WriteMessage(ciobase::ByteSpan plaintext,
                                         ciobase::Buffer& out) {
  if (state_ != TlsState::kEstablished) {
    return ciobase::FailedPrecondition("not established");
  }
  CIO_PROF_SCOPE(prof_, "aead.encrypt");
  size_t offset = 0;
  do {
    size_t n = std::min(kMaxRecordPayload, plaintext.size() - offset);
    // Seal straight into the destination: no per-record temporaries.
    send_key_.SealInto(RecordType::kApplicationData,
                       plaintext.subspan(offset, n), out);
    ++stats_.records_sealed;
    stats_.bytes_protected += n;
    offset += n;
  } while (offset < plaintext.size());
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::Buffer> TlsSession::ReadMessage() {
  if (state_ == TlsState::kFailed) {
    return ciobase::FailedPrecondition("session failed: " + failure_);
  }
  if (inbox_.empty()) {
    return ciobase::Unavailable("no message");
  }
  ciobase::Buffer message = std::move(inbox_.front());
  inbox_.pop_front();
  return message;
}

ciobase::Status TlsSession::RequestKeyUpdate() {
  if (state_ != TlsState::kEstablished) {
    return ciobase::FailedPrecondition("not established");
  }
  uint8_t request = 1;
  QueueRecord(send_key_.Seal(RecordType::kKeyUpdate,
                             ciobase::ByteSpan(&request, 1)));
  ++stats_.records_sealed;
  RotateSecret(send_secret_, send_key_);
  ++send_generation_;
  ++stats_.key_updates;
  return ciobase::OkStatus();
}

}  // namespace ciotls
