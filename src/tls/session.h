// TlsSession: a PSK handshake and protected-session state machine in the
// style of TLS 1.3 (RFC 8446), over any reliable byte stream.
//
// The pre-shared key stands in for the attestation-bound secret: in the
// confidential-I/O deployment the peers derive it after verifying each
// other's attestation reports (see ciotee::AttestationAuthority), so a
// successful handshake transitively proves the peer runs the expected
// measured code.
//
// Handshake (both flights as plaintext handshake records, finished MACs
// keyed from the schedule):
//   C -> S : ClientHello  { client_random, psk_id }
//   S -> C : ServerHello  { server_random }
//   C -> S : Finished     { HMAC(client_finished_key, transcript) }
//   S -> C : Finished     { HMAC(server_finished_key, transcript) }
//
// Key schedule (HKDF-SHA256, labels via HkdfExpandLabel):
//   early    = Extract(0, psk)
//   derived  = ExpandLabel(early, "derived", "", 32)
//   master   = Extract(derived, transcript_hash)
//   c_secret = ExpandLabel(master, "c ap traffic", transcript, 32)
//   s_secret = ExpandLabel(master, "s ap traffic", transcript, 32)
//   per-direction key/iv = ExpandLabel(secret, "key"/"iv", "", 32/12)
//
// KeyUpdate records rotate a direction's secret forward
// (ExpandLabel(secret, "traffic upd", "", 32)), giving forward secrecy
// across updates.
//
// Usage: construct, then repeatedly exchange bytes — TakeOutput() gives
// bytes to write to the transport, Feed() consumes bytes read from it.
// Once established(), WriteMessage()/ReadMessage() move application data.

#ifndef SRC_TLS_SESSION_H_
#define SRC_TLS_SESSION_H_

#include <deque>
#include <string>

#include "src/base/rng.h"
#include "src/crypto/sha256.h"
#include "src/tls/record.h"

namespace cioprof {
class ProfRegistry;
}  // namespace cioprof

namespace ciotls {

enum class TlsRole { kClient, kServer };

enum class TlsState {
  kStart,
  kAwaitServerHello,   // client sent CH
  kAwaitClientHello,   // server start
  kAwaitFinished,      // waiting for peer's Finished
  kEstablished,
  kFailed,
};

class TlsSession {
 public:
  // `psk` is the attestation-bound pre-shared key; `psk_id` names it.
  // `seed` drives the random nonces (deterministic for tests).
  TlsSession(TlsRole role, ciobase::ByteSpan psk, std::string psk_id,
             uint64_t seed);

  // Starts the handshake (client queues its ClientHello). Idempotent.
  void Start();

  // Consumes transport bytes. Malformed or forged input moves the session
  // to kFailed with a fatal status (stateless-interface spirit: no retry).
  ciobase::Status Feed(ciobase::ByteSpan bytes);

  // Bytes queued for the transport (handshake flights, protected records).
  ciobase::Buffer TakeOutput();

  bool established() const { return state_ == TlsState::kEstablished; }
  bool failed() const { return state_ == TlsState::kFailed; }
  TlsState state() const { return state_; }
  const std::string& failure() const { return failure_; }

  // --- Application data (established only) ----------------------------------

  // Protects and queues a message (fragmented into records as needed).
  ciobase::Status WriteMessage(ciobase::ByteSpan plaintext) {
    return WriteMessage(plaintext, output_);
  }
  // Protects a message and appends its records to `out` instead of the
  // output queue. Drain TakeOutput() first: records must leave in order.
  ciobase::Status WriteMessage(ciobase::ByteSpan plaintext,
                               ciobase::Buffer& out);
  // Next decrypted application record payload, kUnavailable when none.
  ciobase::Result<ciobase::Buffer> ReadMessage();

  // Rotates our sending keys and tells the peer (KeyUpdate record).
  ciobase::Status RequestKeyUpdate();

  // Ratchet generations: how many times each direction's traffic secret has
  // been rotated forward since this handshake. A healthy pair converges to
  // client.send == server.recv (and vice versa) once the stream is drained.
  uint32_t send_generation() const { return send_generation_; }
  uint32_t recv_generation() const { return recv_generation_; }

  // Hash over CH || SH — the handshake transcript this session's keys are
  // bound to. Attestation-gated admission binds report nonces to it so a
  // report cannot be cut-and-pasted onto a different connection.
  ciocrypto::Sha256Digest transcript_hash() const { return TranscriptHash(); }

  // In-sim profiler of the owning node ("aead.encrypt"/"aead.decrypt"
  // probes around record protection); null = disabled.
  void set_profiler(cioprof::ProfRegistry* profiler) { prof_ = profiler; }

  struct Stats {
    uint64_t records_sealed = 0;
    uint64_t records_opened = 0;
    uint64_t bytes_protected = 0;
    uint64_t key_updates = 0;
    uint64_t auth_failures = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void Fail(std::string reason);
  void DeriveTrafficKeys();
  ciocrypto::Sha256Digest TranscriptHash() const;
  ciobase::Buffer FinishedMac(ciobase::ByteSpan base_key) const;
  ciobase::Status HandleHandshakeRecord(const Record& record);
  ciobase::Status HandleProtectedRecord(const Record& record);
  void QueueRecord(ciobase::ByteSpan record_bytes);
  void RotateSecret(ciobase::Buffer& secret, SealingKey& key);

  TlsRole role_;
  ciobase::Buffer psk_;
  std::string psk_id_;
  ciobase::Rng rng_;
  TlsState state_ = TlsState::kStart;
  std::string failure_;

  ciobase::Buffer transcript_;  // CH || SH bytes
  ciobase::Buffer client_secret_;
  ciobase::Buffer server_secret_;
  ciobase::Buffer client_finished_key_;
  ciobase::Buffer server_finished_key_;
  SealingKey send_key_;
  SealingKey recv_key_;
  ciobase::Buffer send_secret_;
  ciobase::Buffer recv_secret_;

  RecordReader reader_;
  ciobase::Buffer output_;
  std::deque<ciobase::Buffer> inbox_;
  uint32_t send_generation_ = 0;
  uint32_t recv_generation_ = 0;
  cioprof::ProfRegistry* prof_ = nullptr;
  Stats stats_;
};

}  // namespace ciotls

#endif  // SRC_TLS_SESSION_H_
