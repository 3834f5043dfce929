#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/base/bits.h"
#include "src/crypto/kernel.h"

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

// The portable kernel: FIPS 180-4's rounds on `blocks` consecutive blocks.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = ciobase::LoadBe32(data + i * 4);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = SmallSigma1(w[i - 2]) + w[i - 7] + SmallSigma0(w[i - 15]) +
             w[i - 16];
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
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
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The SHA extensions kernel. sha256rnds2 runs two rounds on the state split
// as ABEF and CDGH; sha256msg1/msg2 extend the message schedule four words
// at a time. The loop below is unrolled, so m[] stays in registers.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  // Byte order of each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4] = {};  // m[i % 4] holds schedule words 4i..4i+3
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        m[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        __m128i w = _mm_sha256msg1_epu32(m[i % 4], m[(i + 1) % 4]);
        w = _mm_add_epi32(
            w, _mm_alignr_epi8(m[(i + 3) % 4], m[(i + 2) % 4], 4));
        m[i % 4] = _mm_sha256msg2_epu32(w, m[(i + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(
          m[i % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      // Two rounds each: the first leaves the new ABEF in `cdgh` and the
      // old ABEF is the new CDGH, so after the second the names hold again.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

// Hands `blocks` whole blocks to this process's kernel.
void Compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
#if defined(__x86_64__)
  if (ActiveKernel(Primitive::kSha256) == Kernel::kAccelerated) {
    CompressShaNi(state, data, blocks);
    return;
  }
#endif
  CompressPortable(state, data, blocks);
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

void Sha256::Update(ciobase::ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer; memcpy forbids it
  }
  length_ += data.size();
  const uint8_t* next = data.data();
  size_t left = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(kSha256BlockSize - buffered_, left);
    std::memcpy(buffer_ + buffered_, next, take);
    buffered_ += take;
    next += take;
    left -= take;
    if (buffered_ < kSha256BlockSize) {
      return;
    }
    Compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  size_t blocks = left / kSha256BlockSize;
  if (blocks > 0) {
    Compress(state_, next, blocks);
    next += blocks * kSha256BlockSize;
    left -= blocks * kSha256BlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_, next, left);
    buffered_ = left;
  }
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
  // fills out one final block or, past 55 buffered bytes, two.
  uint8_t last[kSha256BlockSize * 2] = {};
  std::memcpy(last, buffer_, buffered_);
  last[buffered_] = 0x80;
  size_t blocks = buffered_ < kSha256BlockSize - 8 ? 1 : 2;
  ciobase::StoreBe64(last + blocks * kSha256BlockSize - 8, length_ * 8);
  Compress(state_, last, blocks);

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
