// TLS-style record layer: framing, AEAD protection, strict sequencing.
//
// This is the "mandatory TLS layer" of the paper's L5 boundary (§3.2): it
// guarantees data integrity and confidentiality against a host that can
// observe, corrupt, replay or reorder TCP payload bytes. Records carry a
// 5-byte header (type, version, length) used as AEAD associated data; the
// nonce is the per-direction static IV XORed with a monotonically increasing
// 64-bit sequence number, so any replayed or reordered record fails
// authentication — exactly the property that lets the confidential unit
// distrust the TCP guarantees provided by the I/O stack.

#ifndef SRC_TLS_RECORD_H_
#define SRC_TLS_RECORD_H_

#include <optional>

#include "src/base/status.h"
#include "src/crypto/aead.h"

namespace ciotls {

enum class RecordType : uint8_t {
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
  kKeyUpdate = 24,
};

inline constexpr size_t kRecordHeaderSize = 5;
inline constexpr uint16_t kRecordVersion = 0x0304;
// Cap per-record plaintext like TLS (2^14).
inline constexpr size_t kMaxRecordPayload = 16384;

struct Record {
  RecordType type;
  ciobase::Buffer payload;
};

// Frames a plaintext record (no protection) — used for the clear-text
// handshake flights.
ciobase::Buffer FramePlaintextRecord(RecordType type,
                                     ciobase::ByteSpan payload);

// One direction of protected traffic.
class SealingKey {
 public:
  SealingKey() = default;
  SealingKey(ciobase::ByteSpan key, ciobase::ByteSpan iv);

  bool valid() const { return valid_; }
  uint64_t seq() const { return seq_; }

  // Produces a full protected record (header || ciphertext || tag).
  ciobase::Buffer Seal(RecordType type, ciobase::ByteSpan plaintext);
  // Appends a full protected record to `out`, reusing its capacity — the
  // zero-allocation send path (plaintext must not alias out).
  void SealInto(RecordType type, ciobase::ByteSpan plaintext,
                ciobase::Buffer& out);
  // Opens `body` (ciphertext||tag) for a record with the given header.
  ciobase::Result<ciobase::Buffer> Open(RecordType type,
                                        ciobase::ByteSpan body);

 private:
  void NonceForSeq(uint64_t seq,
                   uint8_t out[ciocrypto::kAeadNonceSize]) const;

  bool valid_ = false;
  ciobase::Buffer key_;
  ciobase::Buffer iv_;
  uint64_t seq_ = 0;
};

// Incremental record parser over a TCP byte stream: feed bytes, pop records.
// Backed by a contiguous buffer with a consumed-prefix offset: popping a
// record is O(record) and feeding compacts lazily, so steady-state streaming
// reuses one allocation instead of shifting a deque byte by byte.
class RecordReader {
 public:
  void Feed(ciobase::ByteSpan bytes);

  // Returns the next complete raw record (type + body, body still
  // protected if keys are in use), kUnavailable when incomplete, or an
  // error on malformed framing.
  ciobase::Result<Record> Next();

  size_t buffered() const { return buffer_.size() - head_; }

 private:
  ciobase::Buffer buffer_;
  size_t head_ = 0;  // bytes of buffer_ already consumed
};

}  // namespace ciotls

#endif  // SRC_TLS_RECORD_H_
