// Poly1305 one-time authenticator (RFC 8439 §2.5), from scratch.
// Implemented with three 44/44/42-bit limbs and 128-bit products (the
// poly1305-donna-64 layout). Where CPUID reports AVX-512 IFMA
// (src/crypto/kernel.h), runs of 16 or more blocks go through eight 52-bit
// multiply-add lanes on the same limbs, with identical tags.

#ifndef SRC_CRYPTO_POLY1305_H_
#define SRC_CRYPTO_POLY1305_H_

#include <array>
#include <cstdint>

#include "src/base/bytes.h"

namespace ciocrypto {

inline constexpr size_t kPoly1305KeySize = 32;
inline constexpr size_t kPoly1305TagSize = 16;

using Poly1305Tag = std::array<uint8_t, kPoly1305TagSize>;

class Poly1305 {
 public:
  explicit Poly1305(const uint8_t key[kPoly1305KeySize]);

  void Update(ciobase::ByteSpan data);
  Poly1305Tag Finish();

  static Poly1305Tag Mac(const uint8_t key[kPoly1305KeySize],
                         ciobase::ByteSpan data);

 private:
  // Absorbs bytes / 16 whole blocks; pad_bit is the 2^128 bit as it sits
  // in limb 2, or 0 for the padded final block.
  void Blocks(const uint8_t* data, size_t bytes, uint64_t pad_bit);

  uint64_t r_[3];
  uint64_t h_[3] = {};
  uint64_t s_[2];  // the "s" half of the key, added at the end
  uint8_t buffer_[16];
  size_t buffered_ = 0;
};

}  // namespace ciocrypto

#endif  // SRC_CRYPTO_POLY1305_H_
