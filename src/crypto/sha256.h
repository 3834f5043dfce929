// SHA-256 (FIPS 180-4), from scratch.
//
// Used for attestation measurements, the TLS-like transcript hash, HMAC, and
// HKDF. Incremental (Update/Finish) and one-shot interfaces. Whole blocks
// go to the process's kernel (src/crypto/kernel.h): the SHA extensions where
// CPUID reports them, the portable rounds elsewhere.

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/base/bytes.h"

namespace ciocrypto {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(ciobase::ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(ciobase::ByteSpan data);

 private:
  uint32_t state_[8];
  uint64_t length_ = 0;  // total bytes absorbed
  uint8_t buffer_[kSha256BlockSize];
  size_t buffered_ = 0;
};

}  // namespace ciocrypto

#endif  // SRC_CRYPTO_SHA256_H_
