#include "src/crypto/hkdf.h"

#include <algorithm>
#include <cassert>

namespace ciocrypto {

Sha256Digest HkdfExtract(ciobase::ByteSpan salt, ciobase::ByteSpan ikm) {
  // If salt is empty, RFC 5869 specifies a string of HashLen zeros.
  if (salt.empty()) {
    static constexpr uint8_t kZeros[kSha256DigestSize] = {0};
    return HmacSha256::Mac(ciobase::ByteSpan(kZeros, sizeof(kZeros)), ikm);
  }
  return HmacSha256::Mac(salt, ikm);
}

ciobase::Buffer HkdfExpand(ciobase::ByteSpan prk, ciobase::ByteSpan info,
                           size_t length) {
  assert(length <= 255 * kSha256DigestSize);
  ciobase::Buffer out;
  out.reserve(length);
  Sha256Digest t{};
  size_t t_len = 0;
  uint8_t counter = 1;
  while (out.size() < length) {
    HmacSha256 h(prk);
    h.Update(ciobase::ByteSpan(t.data(), t_len));
    h.Update(info);
    h.Update(ciobase::ByteSpan(&counter, 1));
    t = h.Finish();
    t_len = t.size();
    size_t take = std::min(length - out.size(), t_len);
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
    ++counter;
  }
  return out;
}

ciobase::Buffer HkdfExpandLabel(ciobase::ByteSpan secret,
                                std::string_view label,
                                ciobase::ByteSpan context, size_t length) {
  // struct { uint16 length; opaque label<7..255>; opaque context<0..255>; }
  constexpr std::string_view kPrefix = "tls13 ";
  const size_t label_size = kPrefix.size() + label.size();
  ciobase::Buffer info(2 + 1 + label_size + 1 + context.size());
  uint8_t* p = info.data();
  ciobase::StoreBe16(p, static_cast<uint16_t>(length));
  p[2] = static_cast<uint8_t>(label_size);
  p = std::copy(kPrefix.begin(), kPrefix.end(), p + 3);
  p = std::copy(label.begin(), label.end(), p);
  *p++ = static_cast<uint8_t>(context.size());
  std::copy(context.begin(), context.end(), p);
  return HkdfExpand(secret, info, length);
}

}  // namespace ciocrypto
