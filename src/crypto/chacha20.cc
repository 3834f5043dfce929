#include "src/crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/base/bits.h"
#include "src/crypto/kernel.h"

namespace ciocrypto {

namespace {

using ciobase::RotL32;

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = RotL32(d, 16);
  c += d;
  b ^= c;
  b = RotL32(b, 12);
  a += b;
  d ^= a;
  d = RotL32(d, 8);
  c += d;
  b ^= c;
  b = RotL32(b, 7);
}

// Fills the 16-word ChaCha20 state for (key, counter, nonce). Done once per
// ChaCha20Xor call; only state[12] (the block counter) changes between blocks.
inline void InitState(uint32_t state[16], const uint8_t key[kChaCha20KeySize],
                      uint32_t counter,
                      const uint8_t nonce[kChaCha20NonceSize]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = ciobase::LoadLe32(key + i * 4);
  }
  state[12] = counter;
  state[13] = ciobase::LoadLe32(nonce);
  state[14] = ciobase::LoadLe32(nonce + 4);
  state[15] = ciobase::LoadLe32(nonce + 8);
}

// One keystream block from an already-initialized state (state[12] = counter).
inline void BlockFromState(const uint32_t state[16],
                           uint8_t out[kChaCha20BlockSize]) {
  uint32_t x[16];
  std::memcpy(x, state, 16 * sizeof(uint32_t));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    ciobase::StoreLe32(out + i * 4, x[i] + state[i]);
  }
}

// Four 32-bit lanes in one 16-byte vector (GCC/Clang vector extensions):
// baseline x86-64 runs them as SSE2 without intrinsics or -march.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

// The vector paths XOR keystream words straight onto input bytes, which
// matches RFC 8439's little-endian serialization on little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "ChaCha20Xor's vector path assumes a little-endian host");

inline constexpr size_t kStride = 4 * kChaCha20BlockSize;  // 256

// Every helper of the vector paths is always_inline, so each build of
// XorStrides (below) compiles all of it for its own target: under
// AVX-512VL, GCC turns each shift-or rotate into one vprold. Helpers take
// vectors by reference, so none passes a 64-byte vector by value.
#define CIO_CHACHA_INLINE inline __attribute__((always_inline))

template <int kBits, typename V>
CIO_CHACHA_INLINE void RotL(V& v) {
  v = (v << kBits) | (v >> (32 - kBits));
}

// One quarter-round on a vector of blocks: lane l of every word is block
// l's.
template <typename V>
CIO_CHACHA_INLINE void QuarterRoundLanes(V& a, V& b, V& c, V& d) {
  a += b;
  d ^= a;
  RotL<16>(d);
  c += d;
  b ^= c;
  RotL<12>(b);
  a += b;
  d ^= a;
  RotL<8>(d);
  c += d;
  b ^= c;
  RotL<7>(b);
}

// The keystream of one block per lane, lane l's block counter in
// counters[l] (consecutive counters each wrap mod 2^32 independently, per
// RFC 8439's 32-bit block counter): on return x[w] holds word w of each
// block.
template <typename V>
CIO_CHACHA_INLINE void KeystreamLanes(const uint32_t state[16],
                                      const V& counters, V x[16]) {
  for (int i = 0; i < 16; ++i) {
    x[i] = V{} + state[i];
  }
  x[12] = counters;
  for (int round = 0; round < 10; ++round) {
    QuarterRoundLanes(x[0], x[4], x[8], x[12]);
    QuarterRoundLanes(x[1], x[5], x[9], x[13]);
    QuarterRoundLanes(x[2], x[6], x[10], x[14]);
    QuarterRoundLanes(x[3], x[7], x[11], x[15]);
    QuarterRoundLanes(x[0], x[5], x[10], x[15]);
    QuarterRoundLanes(x[1], x[6], x[11], x[12]);
    QuarterRoundLanes(x[2], x[7], x[8], x[13]);
    QuarterRoundLanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] += i == 12 ? counters : V{} + state[i];
  }
}

// Transposes the 4x4 word matrix whose rows are a..d.
CIO_CHACHA_INLINE void Transpose(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
}

// Generates 4 consecutive keystream blocks in output order: ks[i] holds
// keystream bytes 16i..16i+15.
CIO_CHACHA_INLINE void KeystreamX4(const uint32_t state[16], uint32_t counter,
                                   U32x4 ks[16]) {
  U32x4 x[16];
  KeystreamLanes(state, counter + U32x4{0, 1, 2, 3}, x);
  // x[w] holds word w of each block; a transposed group of 4 words is 16
  // contiguous bytes of one block.
  for (int w = 0; w < 16; w += 4) {
    Transpose(x[w], x[w + 1], x[w + 2], x[w + 3]);
    for (int l = 0; l < 4; ++l) {
      ks[4 * l + w / 4] = x[w + l];
    }
  }
}

// XORs the first n keystream bytes of ks onto in, 16 bytes at a time
// (memcpy keeps the loads and stores alignment-safe; in and out may alias
// exactly).
CIO_CHACHA_INLINE void XorKeystream(const uint8_t* in, const U32x4* ks,
                                    uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    U32x4 word;
    std::memcpy(&word, in + i, 16);
    word ^= ks[i / 16];
    std::memcpy(out + i, &word, 16);
  }
  const uint8_t* tail = reinterpret_cast<const uint8_t*>(ks);
  for (; i < n; ++i) {
    out[i] = static_cast<uint8_t>(in[i] ^ tail[i]);
  }
}

// The 4-block path: XORs all of `in` but a final tail of one block or less,
// from the counter in state[12], and leaves the tail's counter there.
// Returns the bytes it covered. A tail of 2-4 blocks costs no more as one
// more 4-block pass than as scalar blocks, so it runs here.
CIO_CHACHA_INLINE size_t XorStrides(uint32_t state[16], ciobase::ByteSpan in,
                                    uint8_t* out) {
  uint32_t counter = state[12];
  size_t i = 0;
  while (in.size() - i > kChaCha20BlockSize) {
    U32x4 ks[16];
    KeystreamX4(state, counter, ks);
    size_t n = std::min(in.size() - i, kStride);
    XorKeystream(in.data() + i, ks, out + i, n);
    counter += 4;  // wraps mod 2^32 like the per-block counter
    i += n;
  }
  state[12] = counter;
  return i;
}

#if defined(__x86_64__)
// Sixteen 32-bit lanes in one 512-bit vector, for the AVX-512 build only.
typedef uint32_t U32x16 __attribute__((vector_size(64)));

inline constexpr size_t kWideStride = 16 * kChaCha20BlockSize;  // 1024

#define CIO_CHACHA_AVX512 __attribute__((target("avx512f,avx512vl")))

// Within each 128-bit chunk, transposes the 4x4 word matrix whose rows are
// a..d: Transpose on four groups of blocks at once.
CIO_CHACHA_INLINE CIO_CHACHA_AVX512 void TransposeInChunks(U32x16& a,
                                                           U32x16& b,
                                                           U32x16& c,
                                                           U32x16& d) {
  U32x16 ab_lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 4, 20, 5, 21, 8,
                                         24, 9, 25, 12, 28, 13, 29);
  U32x16 ab_hi = __builtin_shufflevector(a, b, 2, 18, 3, 19, 6, 22, 7, 23, 10,
                                         26, 11, 27, 14, 30, 15, 31);
  U32x16 cd_lo = __builtin_shufflevector(c, d, 0, 16, 1, 17, 4, 20, 5, 21, 8,
                                         24, 9, 25, 12, 28, 13, 29);
  U32x16 cd_hi = __builtin_shufflevector(c, d, 2, 18, 3, 19, 6, 22, 7, 23, 10,
                                         26, 11, 27, 14, 30, 15, 31);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 16, 17, 4, 5, 20, 21, 8, 9,
                              24, 25, 12, 13, 28, 29);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 18, 19, 6, 7, 22, 23, 10, 11,
                              26, 27, 14, 15, 30, 31);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 16, 17, 4, 5, 20, 21, 8, 9,
                              24, 25, 12, 13, 28, 29);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 18, 19, 6, 7, 22, 23, 10, 11,
                              26, 27, 14, 15, 30, 31);
}

// Transposes the 4x4 matrix of 128-bit chunks whose rows are a..d.
CIO_CHACHA_INLINE CIO_CHACHA_AVX512 void TransposeChunks(U32x16& a, U32x16& b,
                                                         U32x16& c,
                                                         U32x16& d) {
  U32x16 ab_lo = __builtin_shufflevector(a, b, 0, 1, 2, 3, 16, 17, 18, 19, 4,
                                         5, 6, 7, 20, 21, 22, 23);
  U32x16 ab_hi = __builtin_shufflevector(a, b, 8, 9, 10, 11, 24, 25, 26, 27,
                                         12, 13, 14, 15, 28, 29, 30, 31);
  U32x16 cd_lo = __builtin_shufflevector(c, d, 0, 1, 2, 3, 16, 17, 18, 19, 4,
                                         5, 6, 7, 20, 21, 22, 23);
  U32x16 cd_hi = __builtin_shufflevector(c, d, 8, 9, 10, 11, 24, 25, 26, 27,
                                         12, 13, 14, 15, 28, 29, 30, 31);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17,
                              18, 19, 20, 21, 22, 23);
  b = __builtin_shufflevector(ab_lo, cd_lo, 8, 9, 10, 11, 12, 13, 14, 15, 24,
                              25, 26, 27, 28, 29, 30, 31);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17,
                              18, 19, 20, 21, 22, 23);
  d = __builtin_shufflevector(ab_hi, cd_hi, 8, 9, 10, 11, 12, 13, 14, 15, 24,
                              25, 26, 27, 28, 29, 30, 31);
}

// The 16-block path: XORs whole 1 KiB strides of `in` while one remains,
// from the counter in state[12], and leaves the next counter there.
// Returns the bytes it covered.
CIO_CHACHA_INLINE CIO_CHACHA_AVX512 size_t
XorWideStrides(uint32_t state[16], ciobase::ByteSpan in, uint8_t* out) {
  uint32_t counter = state[12];
  size_t i = 0;
  for (; in.size() - i >= kWideStride; i += kWideStride) {
    U32x16 x[16];
    KeystreamLanes(state,
                   counter + U32x16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15},
                   x);
    counter += 16;  // wraps mod 2^32 like the per-block counter
    // After the word transpose, chunk c of x[4g + l] holds words
    // 4g..4g+3 of block 4c + l; after the chunk transpose of x[l],
    // x[4 + l], x[8 + l] and x[12 + l], x[4c + l] is all of block 4c + l.
    for (int g = 0; g < 16; g += 4) {
      TransposeInChunks(x[g], x[g + 1], x[g + 2], x[g + 3]);
    }
    for (int l = 0; l < 4; ++l) {
      TransposeChunks(x[l], x[4 + l], x[8 + l], x[12 + l]);
    }
    for (int block = 0; block < 16; ++block) {
      const size_t at = i + block * kChaCha20BlockSize;
      U32x16 word;
      std::memcpy(&word, in.data() + at, sizeof(word));
      word ^= x[block];
      std::memcpy(out + at, &word, sizeof(word));
    }
  }
  state[12] = counter;
  return i;
}

// The 16-block strides, then the 4-block source as the baseline build runs
// it. The scalar tail stays outside, in baseline code run after this
// function's vzeroupper.
CIO_CHACHA_AVX512 size_t XorStridesAvx512(uint32_t state[16],
                                          ciobase::ByteSpan in,
                                          uint8_t* out) {
  size_t i = XorWideStrides(state, in, out);
  return i + XorStrides(state, in.subspan(i), out + i);
}
#endif

// XorStrides on this process's kernel.
size_t XorStridesOnKernel(uint32_t state[16], ciobase::ByteSpan in,
                          uint8_t* out) {
#if defined(__x86_64__)
  if (ActiveKernel(Primitive::kChaCha20) == Kernel::kAccelerated) {
    return XorStridesAvx512(state, in, out);
  }
#endif
  return XorStrides(state, in, out);
}

}  // namespace

void ChaCha20Block(const uint8_t key[kChaCha20KeySize], uint32_t counter,
                   const uint8_t nonce[kChaCha20NonceSize],
                   uint8_t out[kChaCha20BlockSize]) {
  uint32_t state[16];
  InitState(state, key, counter, nonce);
  BlockFromState(state, out);
}

void ChaCha20Xor(const uint8_t key[kChaCha20KeySize],
                 const uint8_t nonce[kChaCha20NonceSize],
                 uint32_t initial_counter, ciobase::ByteSpan in, uint8_t* out) {
  uint32_t state[16];
  InitState(state, key, initial_counter, nonce);
  size_t i = XorStridesOnKernel(state, in, out);
  if (i < in.size()) {
    U32x4 ks[kChaCha20BlockSize / 16];
    BlockFromState(state, reinterpret_cast<uint8_t*>(ks));
    XorKeystream(in.data() + i, ks, out + i, in.size() - i);
  }
}

}  // namespace ciocrypto
