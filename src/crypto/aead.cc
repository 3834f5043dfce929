#include "src/crypto/aead.h"

#include <cassert>
#include <cstring>

#include "src/crypto/sha256.h"

namespace ciocrypto {

namespace {

// Computes the Poly1305 tag over aad/ciphertext with the one-time key derived
// from ChaCha20 block 0.
Poly1305Tag ComputeTag(const uint8_t key[kAeadKeySize],
                       const uint8_t nonce[kAeadNonceSize],
                       ciobase::ByteSpan aad, ciobase::ByteSpan ciphertext) {
  uint8_t block0[kChaCha20BlockSize];
  ChaCha20Block(key, 0, nonce, block0);

  Poly1305 mac(block0);  // first 32 bytes of block 0 are the one-time key
  static constexpr uint8_t kZeroPad[16] = {0};

  mac.Update(aad);
  if (aad.size() % 16 != 0) {
    mac.Update(ciobase::ByteSpan(kZeroPad, 16 - aad.size() % 16));
  }
  mac.Update(ciphertext);
  if (ciphertext.size() % 16 != 0) {
    mac.Update(ciobase::ByteSpan(kZeroPad, 16 - ciphertext.size() % 16));
  }
  uint8_t lengths[16];
  ciobase::StoreLe64(lengths, aad.size());
  ciobase::StoreLe64(lengths + 8, ciphertext.size());
  mac.Update(ciobase::ByteSpan(lengths, 16));
  return mac.Finish();
}

}  // namespace

ciobase::Buffer DeriveAeadKey(ciobase::ByteSpan secret) {
  if (secret.size() == kAeadKeySize) {
    return ciobase::Buffer(secret.begin(), secret.end());
  }
  Sha256Digest digest = Sha256::Hash(secret);
  return ciobase::Buffer(digest.begin(), digest.end());
}

ciobase::Buffer AeadSeal(ciobase::ByteSpan key, ciobase::ByteSpan nonce,
                         ciobase::ByteSpan aad, ciobase::ByteSpan plaintext) {
  ciobase::Buffer out;
  out.reserve(plaintext.size() + kAeadTagSize);
  AeadSealInto(key, nonce, aad, plaintext, out);
  return out;
}

size_t AeadSealInto(ciobase::ByteSpan key, ciobase::ByteSpan nonce,
                    ciobase::ByteSpan aad, ciobase::ByteSpan plaintext,
                    ciobase::Buffer& out) {
  assert(key.size() == kAeadKeySize);
  assert(nonce.size() == kAeadNonceSize);
  size_t base = out.size();
  out.resize(base + plaintext.size() + kAeadTagSize);
  ChaCha20Xor(key.data(), nonce.data(), 1, plaintext, out.data() + base);
  Poly1305Tag tag =
      ComputeTag(key.data(), nonce.data(), aad,
                 ciobase::ByteSpan(out.data() + base, plaintext.size()));
  std::memcpy(out.data() + base + plaintext.size(), tag.data(), kAeadTagSize);
  return plaintext.size() + kAeadTagSize;
}

ciobase::Result<ciobase::Buffer> AeadOpen(ciobase::ByteSpan key,
                                          ciobase::ByteSpan nonce,
                                          ciobase::ByteSpan aad,
                                          ciobase::ByteSpan sealed) {
  ciobase::Buffer plaintext;
  auto opened = AeadOpenInto(key, nonce, aad, sealed, plaintext);
  if (!opened.ok()) {
    return opened.status();
  }
  return plaintext;
}

ciobase::Result<size_t> AeadOpenInto(ciobase::ByteSpan key,
                                     ciobase::ByteSpan nonce,
                                     ciobase::ByteSpan aad,
                                     ciobase::ByteSpan sealed,
                                     ciobase::Buffer& out) {
  assert(key.size() == kAeadKeySize);
  assert(nonce.size() == kAeadNonceSize);
  if (sealed.size() < kAeadTagSize) {
    return ciobase::Tampered("AEAD input shorter than tag");
  }
  ciobase::ByteSpan ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  ciobase::ByteSpan received_tag = sealed.last(kAeadTagSize);
  Poly1305Tag tag = ComputeTag(key.data(), nonce.data(), aad, ciphertext);
  if (!ciobase::ConstantTimeEqual(tag, received_tag)) {
    return ciobase::Tampered("AEAD tag mismatch");
  }
  size_t base = out.size();
  out.resize(base + ciphertext.size());
  ChaCha20Xor(key.data(), nonce.data(), 1, ciphertext, out.data() + base);
  return ciphertext.size();
}

}  // namespace ciocrypto
