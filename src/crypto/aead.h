// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// This is the mandatory encryption layer of the paper's L5 boundary ("a
// mandatory TLS layer guarantees data integrity and confidentiality") and of
// the blockio encryption-at-rest path.

#ifndef SRC_CRYPTO_AEAD_H_
#define SRC_CRYPTO_AEAD_H_

#include "src/base/status.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"

namespace ciocrypto {

inline constexpr size_t kAeadKeySize = kChaCha20KeySize;    // 32
inline constexpr size_t kAeadNonceSize = kChaCha20NonceSize;  // 12
inline constexpr size_t kAeadTagSize = kPoly1305TagSize;    // 16

// Normalizes an arbitrary-length secret into a kAeadKeySize key: exact-size
// keys pass through verbatim (RFC vectors unchanged), anything else is
// hashed. The Aead* functions REQUIRE a kAeadKeySize key — components that
// accept caller-provided secrets must derive through this instead of handing
// a short buffer to the cipher (which would read past its end).
ciobase::Buffer DeriveAeadKey(ciobase::ByteSpan secret);

// Encrypts `plaintext` with `aad` authenticated; output is
// ciphertext || 16-byte tag.
ciobase::Buffer AeadSeal(ciobase::ByteSpan key, ciobase::ByteSpan nonce,
                         ciobase::ByteSpan aad, ciobase::ByteSpan plaintext);

// Appends ciphertext || tag to `out`, reusing its capacity (zero-allocation
// steady state for record-layer senders). `plaintext` and `aad` must not
// alias `out` (the resize may reallocate). Returns bytes appended.
size_t AeadSealInto(ciobase::ByteSpan key, ciobase::ByteSpan nonce,
                    ciobase::ByteSpan aad, ciobase::ByteSpan plaintext,
                    ciobase::Buffer& out);

// Opens ciphertext || tag. Returns kTampered if authentication fails.
ciobase::Result<ciobase::Buffer> AeadOpen(ciobase::ByteSpan key,
                                          ciobase::ByteSpan nonce,
                                          ciobase::ByteSpan aad,
                                          ciobase::ByteSpan sealed);

// Like AeadOpen but appends the plaintext to `out`, reusing its capacity.
// On tag mismatch `out` is left unchanged. `sealed` and `aad` must not alias
// `out`. Returns bytes appended.
ciobase::Result<size_t> AeadOpenInto(ciobase::ByteSpan key,
                                     ciobase::ByteSpan nonce,
                                     ciobase::ByteSpan aad,
                                     ciobase::ByteSpan sealed,
                                     ciobase::Buffer& out);

}  // namespace ciocrypto

#endif  // SRC_CRYPTO_AEAD_H_
