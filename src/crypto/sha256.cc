#include "src/crypto/sha256.h"

#include <cstring>

#include "src/base/bits.h"

namespace ciocrypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

using ciobase::RotR32;

inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline uint32_t BigSigma0(uint32_t x) {
  return RotR32(x, 2) ^ RotR32(x, 13) ^ RotR32(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return RotR32(x, 6) ^ RotR32(x, 11) ^ RotR32(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return RotR32(x, 7) ^ RotR32(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return RotR32(x, 17) ^ RotR32(x, 19) ^ (x >> 10);
}

}  // namespace

void Sha256::Reset() {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
  length_ = 0;
  buffered_ = 0;
}

void Sha256::Compress(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = ciobase::LoadBe32(block + i * 4);
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = SmallSigma1(w[i - 2]) + w[i - 7] + SmallSigma0(w[i - 15]) +
           w[i - 16];
  }
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kK[i] + w[i];
    uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(ciobase::ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer; memcpy forbids it
  }
  length_ += data.size();
  size_t i = 0;
  if (buffered_ > 0) {
    size_t take = std::min(kSha256BlockSize - buffered_, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    i += take;
    if (buffered_ == kSha256BlockSize) {
      Compress(buffer_);
      buffered_ = 0;
    }
  }
  while (i + kSha256BlockSize <= data.size()) {
    Compress(data.data() + i);
    i += kSha256BlockSize;
  }
  if (i < data.size()) {
    std::memcpy(buffer_, data.data() + i, data.size() - i);
    buffered_ = data.size() - i;
  }
}

Sha256Digest Sha256::Finish() {
  uint64_t bit_length = length_ * 8;
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  uint8_t pad[kSha256BlockSize * 2] = {0x80};
  size_t pad_len = (buffered_ < 56) ? (56 - buffered_)
                                    : (kSha256BlockSize + 56 - buffered_);
  Update(ciobase::ByteSpan(pad, pad_len));
  uint8_t len_be[8];
  ciobase::StoreBe64(len_be, bit_length);
  Update(ciobase::ByteSpan(len_be, 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    ciobase::StoreBe32(digest.data() + i * 4, state_[i]);
  }
  Reset();
  return digest;
}

Sha256Digest Sha256::Hash(ciobase::ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace ciocrypto
