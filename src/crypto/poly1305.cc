#include "src/crypto/poly1305.h"

#include <cstring>

namespace ciocrypto {

namespace {

// GCC and Clang provide 128-bit integers on 64-bit targets.
__extension__ typedef unsigned __int128 Uint128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
// The 2^128 pad bit of a whole block, in limb 2 (which starts at bit 88).
constexpr uint64_t kPadBit = uint64_t{1} << 40;

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

    // h *= r mod 2^130 - 5.
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
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(ciobase::ByteSpan data) {
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
