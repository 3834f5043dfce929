// ChaCha20 stream cipher (RFC 8439 §2.4), from scratch.

#ifndef SRC_CRYPTO_CHACHA20_H_
#define SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>

#include "src/base/bytes.h"

namespace ciocrypto {

inline constexpr size_t kChaCha20KeySize = 32;
inline constexpr size_t kChaCha20NonceSize = 12;
inline constexpr size_t kChaCha20BlockSize = 64;

// Produces one 64-byte keystream block for (key, counter, nonce). This is the
// straightforward scalar reference; ChaCha20Xor's 4-block vector path must
// stay bit-identical to a per-block loop over this.
void ChaCha20Block(const uint8_t key[kChaCha20KeySize], uint32_t counter,
                   const uint8_t nonce[kChaCha20NonceSize],
                   uint8_t out[kChaCha20BlockSize]);

// XORs `in` with the keystream starting at block `initial_counter` into
// `out`. in and out may alias (in-place encryption). The state is initialized
// once per call; each inner-loop iteration generates 4 keystream blocks in
// 16-byte vector lanes and XORs them 16 bytes at a time. A final tail of one
// block or less runs the scalar block function instead of a 4-block pass.
// The 4-block path is one source built twice (src/crypto/kernel.h): for the
// baseline ISA, and for AVX-512VL where CPUID reports it. The AVX-512 build
// first runs the same rounds over 16 blocks in 512-bit vectors while at
// least 1 KiB remains.
void ChaCha20Xor(const uint8_t key[kChaCha20KeySize],
                 const uint8_t nonce[kChaCha20NonceSize],
                 uint32_t initial_counter, ciobase::ByteSpan in, uint8_t* out);

}  // namespace ciocrypto

#endif  // SRC_CRYPTO_CHACHA20_H_
