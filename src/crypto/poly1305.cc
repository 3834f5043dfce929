#include "src/crypto/poly1305.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/crypto/kernel.h"

namespace ciocrypto {

namespace {

// GCC and Clang provide 128-bit integers on 64-bit targets.
__extension__ typedef unsigned __int128 Uint128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
// The 2^128 pad bit of a whole block, in limb 2 (which starts at bit 88).
constexpr uint64_t kPadBit = uint64_t{1} << 40;

// h *= r mod 2^130 - 5, where s1 = 20 r1 and s2 = 20 r2. Leaves h0 and h2
// within their limbs and h1 at most a few bits over 2^44.
inline void MultiplyMod(uint64_t& h0, uint64_t& h1, uint64_t& h2, uint64_t r0,
                        uint64_t r1, uint64_t r2, uint64_t s1, uint64_t s2) {
  Uint128 d0 = Uint128{h0} * r0 + Uint128{h1} * s2 + Uint128{h2} * s1;
  Uint128 d1 = Uint128{h0} * r1 + Uint128{h1} * r0 + Uint128{h2} * s2;
  Uint128 d2 = Uint128{h0} * r2 + Uint128{h1} * r1 + Uint128{h2} * r0;

  // Carry propagation.
  uint64_t c = static_cast<uint64_t>(d0 >> 44);
  h0 = static_cast<uint64_t>(d0) & kMask44;
  d1 += c;
  c = static_cast<uint64_t>(d1 >> 44);
  h1 = static_cast<uint64_t>(d1) & kMask44;
  d2 += c;
  c = static_cast<uint64_t>(d2 >> 42);
  h2 = static_cast<uint64_t>(d2) & kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
}

#if defined(__x86_64__)
// The IFMA kernel runs eight lanes, one block each per step, and takes runs
// of at least 16 blocks: from 8, the seven scalar multiplies behind
// r^2..r^8 and the lane sum cost about what one stride saves, and MACs of
// 128-255 B measured up to a fifth slower than the scalar loop.
constexpr size_t kLanes = 8;
constexpr size_t kWideMinBytes = 16 * 16;

// powers[limb][8 - k] = that limb of r^k for k = 1..8, by the scalar
// multiply, so every limb is bounded as MultiplyMod leaves h.
void FillPowers(const uint64_t r[3], uint64_t powers[3][kLanes]) {
  const uint64_t s1 = r[1] * 20;
  const uint64_t s2 = r[2] * 20;
  uint64_t p0 = r[0];
  uint64_t p1 = r[1];
  uint64_t p2 = r[2];
  for (size_t k = 1; k <= kLanes; ++k) {
    if (k > 1) {
      MultiplyMod(p0, p1, p2, r[0], r[1], r[2], s1, s2);
    }
    powers[0][kLanes - k] = p0;
    powers[1][kLanes - k] = p1;
    powers[2][kLanes - k] = p2;
  }
}

// Eight 64-bit lanes in one 512-bit vector. Every helper below is compiled
// for the kernel's own target, so no baseline-ISA function passes one, and
// takes and returns vectors by value: a local vector bound to a reference
// stays in memory under ASan, poisoned and unpoisoned on every step.
typedef uint64_t U64x8 __attribute__((vector_size(64)));

// h, r^8 or r^8..r^1 as 44/44/42-bit limbs, one value per lane.
struct Lanes {
  U64x8 l0, l1, l2;
};

#define CIO_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#define CIO_IFMA_INLINE inline __attribute__((always_inline)) CIO_IFMA_TARGET

// acc plus the low (MulLo) or the high (MulHi) 52 bits of a * b, so that
// the product is lo + hi * 2^52. Only the low 52 bits of a and b take part.
CIO_IFMA_INLINE U64x8 MulLo(U64x8 acc, U64x8 a, U64x8 b) {
  return (U64x8)_mm512_madd52lo_epu64((__m512i)acc, (__m512i)a, (__m512i)b);
}
CIO_IFMA_INLINE U64x8 MulHi(U64x8 acc, U64x8 a, U64x8 b) {
  return (U64x8)_mm512_madd52hi_epu64((__m512i)acc, (__m512i)a, (__m512i)b);
}

// MultiplyMod in every lane: the same nine limb products and the same
// carries, each product split into its low and high 52 bits.
CIO_IFMA_INLINE Lanes MultiplyModLanes(Lanes h, Lanes r) {
  const U64x8 s1 = (r.l1 << 4) + (r.l1 << 2);
  const U64x8 s2 = (r.l2 << 4) + (r.l2 << 2);
  const U64x8 zero = {};
  U64x8 d0lo = MulLo(MulLo(MulLo(zero, h.l0, r.l0), h.l1, s2), h.l2, s1);
  U64x8 d0hi = MulHi(MulHi(MulHi(zero, h.l0, r.l0), h.l1, s2), h.l2, s1);
  U64x8 d1lo = MulLo(MulLo(MulLo(zero, h.l0, r.l1), h.l1, r.l0), h.l2, s2);
  U64x8 d1hi = MulHi(MulHi(MulHi(zero, h.l0, r.l1), h.l1, r.l0), h.l2, s2);
  U64x8 d2lo = MulLo(MulLo(MulLo(zero, h.l0, r.l2), h.l1, r.l1), h.l2, r.l0);
  U64x8 d2hi = MulHi(MulHi(MulHi(zero, h.l0, r.l2), h.l1, r.l1), h.l2, r.l0);
  // d = lo + hi * 2^52, so d >> 44 = (lo >> 44) + (hi << 8).
  U64x8 c = (d0lo >> 44) + (d0hi << 8);
  h.l0 = d0lo & kMask44;
  d1lo += c;
  c = (d1lo >> 44) + (d1hi << 8);
  h.l1 = d1lo & kMask44;
  d2lo += c;
  c = (d2lo >> 42) + (d2hi << 10);
  h.l2 = d2lo & kMask42;
  h.l0 += (c << 2) + c;
  c = h.l0 >> 44;
  h.l0 &= kMask44;
  h.l1 += c;
  return h;
}

// h plus 8 consecutive blocks, block j in lane j.
CIO_IFMA_INLINE Lanes AddBlocks(Lanes h, const uint8_t* data, U64x8 pad) {
  const U64x8 first = (U64x8)_mm512_loadu_si512(data);  // blocks 0-3
  const U64x8 second = (U64x8)_mm512_loadu_si512(data + 64);  // 4-7
  U64x8 t0 = __builtin_shufflevector(first, second, 0, 2, 4, 6, 8, 10, 12, 14);
  U64x8 t1 = __builtin_shufflevector(first, second, 1, 3, 5, 7, 9, 11, 13, 15);
  h.l0 += t0 & kMask44;
  h.l1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
  h.l2 += (t1 >> 24) | pad;
  return h;
}

CIO_IFMA_INLINE uint64_t SumLanes(U64x8 v) {
  v += __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3);
  v += __builtin_shufflevector(v, v, 2, 3, 0, 1, 6, 7, 4, 5);
  v += __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
  return v[0];
}

// Absorbs `blocks` whole blocks, a multiple of 8 and at least 16. Lane j
// takes blocks j, j + 8, j + 16, ... under r^8, lane 0 starting from h; the
// last step multiplies lane j by r^(8 - j) instead, so the lanes sum to
// h's one-block Horner value.
//
// Every IFMA input stays below 2^52: MultiplyModLanes leaves h0, h2 within
// 44 and 42 bits and h1 under 2^44 + 2^13, a block adds under 2^44 per
// limb, and a limb of r^k is bounded like h, so 20 r^k stays under 2^49.
CIO_IFMA_TARGET void BlocksIfma(uint64_t h[3],
                                const uint64_t powers[3][kLanes],
                                const uint8_t* data, size_t blocks,
                                uint64_t pad_bit) {
  const U64x8 pad = U64x8{} + pad_bit;
  Lanes lanes = {{h[0]}, {h[1]}, {h[2]}};
  const Lanes r8 = {U64x8{} + powers[0][0], U64x8{} + powers[1][0],
                    U64x8{} + powers[2][0]};
  for (; blocks > kLanes; blocks -= kLanes, data += 16 * kLanes) {
    lanes = MultiplyModLanes(AddBlocks(lanes, data, pad), r8);
  }
  const Lanes each = {(U64x8)_mm512_loadu_si512(powers[0]),
                      (U64x8)_mm512_loadu_si512(powers[1]),
                      (U64x8)_mm512_loadu_si512(powers[2])};
  lanes = MultiplyModLanes(AddBlocks(lanes, data, pad), each);

  // Each lane sum stays under 2^48; carry it back to MultiplyMod's bounds.
  uint64_t sum0 = SumLanes(lanes.l0);
  uint64_t sum1 = SumLanes(lanes.l1);
  uint64_t sum2 = SumLanes(lanes.l2);
  uint64_t c = sum0 >> 44;
  sum0 &= kMask44;
  sum1 += c;
  c = sum1 >> 44;
  sum1 &= kMask44;
  sum2 += c;
  c = sum2 >> 42;
  sum2 &= kMask42;
  sum0 += c * 5;
  c = sum0 >> 44;
  sum0 &= kMask44;
  sum1 += c;
  h[0] = sum0;
  h[1] = sum1;
  h[2] = sum2;
}
#endif

}  // namespace

Poly1305::Poly1305(const uint8_t key[kPoly1305KeySize]) {
  // r is clamped per the RFC while it is split into 44/44/42-bit limbs.
  uint64_t t0 = ciobase::LoadLe64(key + 0);
  uint64_t t1 = ciobase::LoadLe64(key + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  s_[0] = ciobase::LoadLe64(key + 16);
  s_[1] = ciobase::LoadLe64(key + 24);
}

void Poly1305::Blocks(const uint8_t* data, size_t bytes, uint64_t pad_bit) {
#if defined(__x86_64__)
  if (bytes >= kWideMinBytes &&
      ActiveKernel(Primitive::kPoly1305) == Kernel::kAccelerated) {
    uint64_t powers[3][kLanes];
    FillPowers(r_, powers);
    size_t wide = bytes / (16 * kLanes) * (16 * kLanes);
    BlocksIfma(h_, powers, data, wide / 16, pad_bit);
    data += wide;
    bytes -= wide;
  }
#endif
  const uint64_t r0 = r_[0];
  const uint64_t r1 = r_[1];
  const uint64_t r2 = r_[2];
  // A product that reaches 2^132 wraps to 4 * 5 times itself mod 2^130 - 5.
  const uint64_t s1 = r1 * (5 << 2);
  const uint64_t s2 = r2 * (5 << 2);
  uint64_t h0 = h_[0];
  uint64_t h1 = h_[1];
  uint64_t h2 = h_[2];
  for (; bytes >= 16; data += 16, bytes -= 16) {
    // h += message block (with the pad bit).
    uint64_t t0 = ciobase::LoadLe64(data);
    uint64_t t1 = ciobase::LoadLe64(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | pad_bit;
    MultiplyMod(h0, h1, h2, r0, r1, r2, s1, s2);
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(ciobase::ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry no pointer to copy from
  }
  size_t i = 0;
  if (buffered_ > 0) {
    size_t take = std::min(static_cast<size_t>(16) - buffered_, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    i += take;
    if (buffered_ == 16) {
      Blocks(buffer_, 16, kPadBit);
      buffered_ = 0;
    }
  }
  size_t whole = (data.size() - i) & ~static_cast<size_t>(15);
  Blocks(data.data() + i, whole, kPadBit);
  i += whole;
  if (i < data.size()) {
    std::memcpy(buffer_, data.data() + i, data.size() - i);
    buffered_ = data.size() - i;
  }
}

Poly1305Tag Poly1305::Finish() {
  if (buffered_ > 0) {
    // Final partial block: append 0x01 then zero-pad; no 2^128 bit.
    uint8_t final_block[16] = {0};
    std::memcpy(final_block, buffer_, buffered_);
    final_block[buffered_] = 1;
    Blocks(final_block, 16, 0);
    buffered_ = 0;
  }

  // Full carry, twice round: the first pass's wrap can carry once more.
  uint64_t h0 = h_[0];
  uint64_t h1 = h_[1];
  uint64_t h2 = h_[2];
  uint64_t c = 0;
  for (int pass = 0; pass < 2; ++pass) {
    h1 += c;
    c = h1 >> 44;
    h1 &= kMask44;
    h2 += c;
    c = h2 >> 42;
    h2 &= kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
  }
  h1 += c;

  // Compute h + -p and select it if h >= p (constant-time select).
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);

  uint64_t mask = (g2 >> 63) - 1;  // all-ones if g2 did not underflow
  h0 = (g0 & mask) | (h0 & ~mask);
  h1 = (g1 & mask) | (h1 & ~mask);
  h2 = (g2 & mask) | (h2 & ~mask);

  // Add s mod 2^128, then serialize the low 128 bits.
  uint64_t t0 = s_[0];
  uint64_t t1 = s_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += (t1 >> 24) + c;

  Poly1305Tag tag;
  ciobase::StoreLe64(tag.data(), h0 | (h1 << 44));
  ciobase::StoreLe64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305Tag Poly1305::Mac(const uint8_t key[kPoly1305KeySize],
                          ciobase::ByteSpan data) {
  Poly1305 p(key);
  p.Update(data);
  return p.Finish();
}

}  // namespace ciocrypto
