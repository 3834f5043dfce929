#include "src/tls/record.h"

#include <algorithm>
#include <cstring>

namespace ciotls {

ciobase::Buffer FramePlaintextRecord(RecordType type,
                                     ciobase::ByteSpan payload) {
  ciobase::Buffer out(kRecordHeaderSize + payload.size());
  out[0] = static_cast<uint8_t>(type);
  ciobase::StoreBe16(out.data() + 1, kRecordVersion);
  ciobase::StoreBe16(out.data() + 3, static_cast<uint16_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), out.begin() + kRecordHeaderSize);
  return out;
}

SealingKey::SealingKey(ciobase::ByteSpan key, ciobase::ByteSpan iv)
    : valid_(true),
      key_(key.begin(), key.end()),
      iv_(iv.begin(), iv.end()) {}

void SealingKey::NonceForSeq(uint64_t seq,
                             uint8_t out[ciocrypto::kAeadNonceSize]) const {
  std::memcpy(out, iv_.data(), ciocrypto::kAeadNonceSize);
  uint8_t seq_be[8];
  ciobase::StoreBe64(seq_be, seq);
  for (int i = 0; i < 8; ++i) {
    out[ciocrypto::kAeadNonceSize - 8 + i] ^= seq_be[i];
  }
}

void SealingKey::SealInto(RecordType type, ciobase::ByteSpan plaintext,
                          ciobase::Buffer& out) {
  uint8_t header[kRecordHeaderSize];
  header[0] = static_cast<uint8_t>(type);
  ciobase::StoreBe16(header + 1, kRecordVersion);
  ciobase::StoreBe16(header + 3, static_cast<uint16_t>(
                                     plaintext.size() +
                                     ciocrypto::kAeadTagSize));
  uint8_t nonce[ciocrypto::kAeadNonceSize];
  NonceForSeq(seq_++, nonce);
  ciobase::Append(out, ciobase::ByteSpan(header, kRecordHeaderSize));
  ciocrypto::AeadSealInto(key_, ciobase::ByteSpan(nonce, sizeof(nonce)),
                          ciobase::ByteSpan(header, kRecordHeaderSize),
                          plaintext, out);
}

ciobase::Buffer SealingKey::Seal(RecordType type, ciobase::ByteSpan plaintext) {
  ciobase::Buffer out;
  SealInto(type, plaintext, out);
  return out;
}

ciobase::Result<ciobase::Buffer> SealingKey::Open(RecordType type,
                                                  ciobase::ByteSpan body) {
  uint8_t header[kRecordHeaderSize];
  header[0] = static_cast<uint8_t>(type);
  ciobase::StoreBe16(header + 1, kRecordVersion);
  ciobase::StoreBe16(header + 3, static_cast<uint16_t>(body.size()));
  uint8_t nonce[ciocrypto::kAeadNonceSize];
  NonceForSeq(seq_, nonce);
  auto opened = ciocrypto::AeadOpen(
      key_, ciobase::ByteSpan(nonce, sizeof(nonce)),
      ciobase::ByteSpan(header, kRecordHeaderSize), body);
  if (!opened.ok()) {
    // Sequence stays put: a replayed/reordered/corrupted record must not
    // desynchronize the direction; the session treats this as fatal anyway.
    return opened.status();
  }
  ++seq_;
  return opened;
}

void RecordReader::Feed(ciobase::ByteSpan bytes) {
  if (head_ == buffer_.size()) {
    // Everything consumed: restart at the front, keeping the capacity.
    buffer_.clear();
    head_ = 0;
  } else if (head_ >= kMaxRecordPayload) {
    // Large consumed prefix: compact so the buffer stays bounded by the
    // unconsumed bytes plus one record's worth of slack.
    buffer_.erase(buffer_.begin(), buffer_.begin() + head_);
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

ciobase::Result<Record> RecordReader::Next() {
  size_t available = buffer_.size() - head_;
  if (available < kRecordHeaderSize) {
    return ciobase::Unavailable("incomplete header");
  }
  const uint8_t* p = buffer_.data() + head_;
  uint8_t type = p[0];
  uint16_t version = ciobase::LoadBe16(p + 1);
  uint16_t length = ciobase::LoadBe16(p + 3);
  if (version != kRecordVersion) {
    return ciobase::Tampered("bad record version");
  }
  if (type < static_cast<uint8_t>(RecordType::kAlert) ||
      type > static_cast<uint8_t>(RecordType::kKeyUpdate)) {
    return ciobase::Tampered("unknown record type");
  }
  if (length > kMaxRecordPayload + ciocrypto::kAeadTagSize) {
    return ciobase::Tampered("record too large");
  }
  if (available < kRecordHeaderSize + length) {
    return ciobase::Unavailable("incomplete record");
  }
  Record record;
  record.type = static_cast<RecordType>(type);
  record.payload.assign(p + kRecordHeaderSize,
                        p + kRecordHeaderSize + length);
  head_ += kRecordHeaderSize + length;
  return record;
}

}  // namespace ciotls
