// Crypto tests against published test vectors: SHA-256 (FIPS 180-4 / NIST),
// HMAC-SHA256 (RFC 4231), HKDF (RFC 5869), ChaCha20 (RFC 8439 §2.4.2),
// Poly1305 (RFC 8439 §2.5.2 and Appendix A.3), ChaCha20-Poly1305 AEAD
// (RFC 8439 §2.8.2), plus property tests (the fast paths against per-block
// and 26-bit-limb references, incremental == one-shot, tamper detection).
// The SHA-256, HMAC, HKDF, ChaCha20 and Poly1305 vectors run once per kernel
// (src/crypto/kernel.h) this CPU can execute, and each accelerated kernel
// is cross-checked against the portable one.

#include <gtest/gtest.h>

#include <optional>

#include "src/base/rng.h"
#include "src/crypto/aead.h"
#include "src/crypto/hkdf.h"
#include "src/crypto/hmac.h"
#include "src/crypto/kernel.h"
#include "src/crypto/sha256.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using ciobase::ByteSpan;
using ciobase::HexDecode;
using ciobase::HexEncode;
using namespace ciocrypto;  // NOLINT: test file

std::string HashHex(ByteSpan data) {
  return HexEncode(Sha256::Hash(data));
}

// Runs a test once per kernel of kPrimitive; a kernel this CPU cannot
// execute is skipped.
template <Primitive kPrimitive>
class KernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!KernelAvailable(kPrimitive, GetParam())) {
      GTEST_SKIP() << "this CPU lacks the feature the "
                   << KernelName(kPrimitive, GetParam()) << " kernel needs";
    }
    kernel_.emplace(kPrimitive, GetParam());
  }

 private:
  std::optional<ScopedKernelForTest> kernel_;
};

class Sha256Test : public KernelTest<Primitive::kSha256> {};
class HmacSha256Test : public KernelTest<Primitive::kSha256> {};
class HkdfTest : public KernelTest<Primitive::kSha256> {};
class ChaCha20Test : public KernelTest<Primitive::kChaCha20> {};
class Poly1305Test : public KernelTest<Primitive::kPoly1305> {};

template <Primitive kPrimitive>
std::string KernelParamName(const ::testing::TestParamInfo<Kernel>& info) {
  return KernelName(kPrimitive, info.param);
}

const auto kEveryKernel =
    ::testing::Values(Kernel::kPortable, Kernel::kAccelerated);
INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Test, kEveryKernel,
                         KernelParamName<Primitive::kSha256>);
INSTANTIATE_TEST_SUITE_P(Kernels, HmacSha256Test, kEveryKernel,
                         KernelParamName<Primitive::kSha256>);
INSTANTIATE_TEST_SUITE_P(Kernels, HkdfTest, kEveryKernel,
                         KernelParamName<Primitive::kSha256>);
INSTANTIATE_TEST_SUITE_P(Kernels, ChaCha20Test, kEveryKernel,
                         KernelParamName<Primitive::kChaCha20>);
INSTANTIATE_TEST_SUITE_P(Kernels, Poly1305Test, kEveryKernel,
                         KernelParamName<Primitive::kPoly1305>);

TEST_P(Sha256Test, NistVectors) {
  EXPECT_EQ(HashHex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  Buffer abc = BufferFromString("abc");
  EXPECT_EQ(HashHex(abc),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  Buffer two_blocks = BufferFromString(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(HashHex(two_blocks),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Test, PaddingBoundaries) {
  // 55 bytes is the most that pads within one final block; 56-63 spill the
  // length into a second one.
  const std::pair<size_t, const char*> kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [size, digest] : kVectors) {
    EXPECT_EQ(HashHex(Buffer(size, 'a')), digest) << "size " << size;
  }
}

TEST_P(Sha256Test, MillionA) {
  Sha256 h;
  Buffer chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Test, IncrementalMatchesOneShot) {
  ciobase::Rng rng(3);
  for (size_t size : {1, 63, 64, 65, 127, 128, 1000}) {
    Buffer data = rng.Bytes(size);
    Sha256 h;
    // Feed in awkward pieces.
    size_t i = 0;
    size_t step = 1;
    while (i < data.size()) {
      size_t n = std::min(step, data.size() - i);
      h.Update(ByteSpan(data.data() + i, n));
      i += n;
      step = step * 2 + 1;
    }
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "size " << size;
  }
}

TEST(Sha256Kernels, ShaNiMatchesPortableAtEveryLengthAndChunking) {
  if (!KernelAvailable(Primitive::kSha256, Kernel::kAccelerated)) {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  ciobase::Rng rng(12);
  for (size_t size = 0; size <= 1100; ++size) {
    Buffer data = rng.Bytes(size);
    Sha256Digest portable;
    {
      ScopedKernelForTest selected(Primitive::kSha256, Kernel::kPortable);
      portable = Sha256::Hash(data);
    }
    ScopedKernelForTest selected(Primitive::kSha256, Kernel::kAccelerated);
    ASSERT_EQ(Sha256::Hash(data), portable) << "one-shot, size " << size;
    // Random chunks hand the kernel whole-block runs that start at varied
    // offsets of the input, after varied buffered remainders.
    Sha256 chunked;
    for (size_t i = 0; i < size;) {
      size_t n = std::min<size_t>(size - i, rng.NextInRange(0, 200));
      chunked.Update(ByteSpan(data.data() + i, n));
      i += n;
    }
    ASSERT_EQ(chunked.Finish(), portable) << "chunked, size " << size;
  }
}

TEST_P(HmacSha256Test, Rfc4231Case1) {
  Buffer key(20, 0x0b);
  Buffer data = BufferFromString("Hi There");
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST_P(HmacSha256Test, Rfc4231Case2) {
  Buffer key = BufferFromString("Jefe");
  Buffer data = BufferFromString("what do ya want for nothing?");
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST_P(HmacSha256Test, Rfc4231Case6LongKey) {
  Buffer key(131, 0xaa);
  Buffer data = BufferFromString(
      "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST_P(HmacSha256Test, Rfc4231Case3BinaryData) {
  Buffer key(20, 0xaa);
  Buffer data(50, 0xdd);
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST_P(HmacSha256Test, Rfc4231Case4) {
  Buffer key = HexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819");
  Buffer data(50, 0xcd);
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST_P(HmacSha256Test, Rfc4231Case7LongKeyAndData) {
  Buffer key(131, 0xaa);
  Buffer data = BufferFromString(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST_P(HkdfTest, Rfc5869Case2LongInputs) {
  Buffer ikm = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
      "404142434445464748494a4b4c4d4e4f");
  Buffer salt = HexDecode(
      "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf");
  Buffer info = HexDecode(
      "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf"
      "d0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef"
      "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Sha256Digest prk = HkdfExtract(salt, ikm);
  Buffer okm = HkdfExpand(prk, info, 82);
  EXPECT_EQ(HexEncode(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HmacSha256, VerifyAcceptsAndRejects) {
  Buffer key = BufferFromString("k");
  Buffer data = BufferFromString("d");
  Sha256Digest mac = HmacSha256::Mac(key, data);
  EXPECT_TRUE(HmacSha256::Verify(key, data, mac));
  mac[0] ^= 1;
  EXPECT_FALSE(HmacSha256::Verify(key, data, mac));
}

TEST_P(HkdfTest, Rfc5869Case1) {
  Buffer ikm(22, 0x0b);
  Buffer salt = HexDecode("000102030405060708090a0b0c");
  Buffer info = HexDecode("f0f1f2f3f4f5f6f7f8f9");
  Sha256Digest prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(HexEncode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Buffer okm = HkdfExpand(prk, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST_P(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Buffer ikm(22, 0x0b);
  Sha256Digest prk = HkdfExtract({}, ikm);
  Buffer okm = HkdfExpand(prk, {}, 42);
  EXPECT_EQ(HexEncode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST_P(ChaCha20Test, Rfc8439KeystreamVector) {
  // RFC 8439 §2.4.2.
  Buffer key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Buffer nonce = HexDecode("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Buffer in = BufferFromString(plaintext);
  Buffer out(in.size());
  ChaCha20Xor(key.data(), nonce.data(), 1, in, out.data());
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST_P(ChaCha20Test, Rfc8439FullCiphertext) {
  // RFC 8439 §2.4.2, full 114-byte ciphertext — exercises one 4-block
  // stride plus a partial tail block in the multi-block fast path.
  Buffer key = HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Buffer nonce = HexDecode("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Buffer in = BufferFromString(plaintext);
  Buffer out(in.size());
  ChaCha20Xor(key.data(), nonce.data(), 1, in, out.data());
  EXPECT_EQ(HexEncode(out),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, Rfc8439BlockFunctionVectors) {
  // RFC 8439 appendix A.1 test vectors 1 and 2: zero key, zero nonce.
  uint8_t key[kChaCha20KeySize] = {};
  uint8_t nonce[kChaCha20NonceSize] = {};
  uint8_t block[kChaCha20BlockSize];
  ChaCha20Block(key, 0, nonce, block);
  EXPECT_EQ(HexEncode(ByteSpan(block, sizeof(block))),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  ChaCha20Block(key, 1, nonce, block);
  EXPECT_EQ(HexEncode(ByteSpan(block, sizeof(block))),
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
            "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f");
}

// Per-block reference: ChaCha20Xor must stay bit-identical to this loop.
void ReferenceXor(const uint8_t key[kChaCha20KeySize],
                  const uint8_t nonce[kChaCha20NonceSize], uint32_t counter,
                  ByteSpan in, uint8_t* out) {
  uint8_t block[kChaCha20BlockSize];
  size_t offset = 0;
  while (offset < in.size()) {
    ChaCha20Block(key, counter++, nonce, block);  // counter wraps mod 2^32
    size_t n = std::min(in.size() - offset, kChaCha20BlockSize);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = in[offset + i] ^ block[i];
    }
    offset += n;
  }
}

// 0xfffffffe/0xffffffff make the 32-bit counter wrap inside a 4-block
// stride, 0xfffffff1/0xfffffff4 inside a 16-block one — each lane must wrap
// independently, like the reference loop.
constexpr uint32_t kStrideCounters[] = {
    0,          1,          7,          0x7fffffff,
    0xfffffff1, 0xfffffff4, 0xfffffffe, 0xffffffff};

// Every length through 300 covers each tail shape on both sides of the
// 256-byte stride; the larger ones run several strides, and those around
// 1 KiB and 2 KiB leave the 16-block stride each tail shape.
std::vector<size_t> StrideSizes() {
  std::vector<size_t> sizes;
  for (size_t size = 0; size <= 300; ++size) {
    sizes.push_back(size);
  }
  for (size_t size :
       {511, 960, 1023, 1024, 1025, 2047, 2049, 3136, 4097, 5000, 16384}) {
    sizes.push_back(size);
  }
  return sizes;
}

TEST_P(ChaCha20Test, MultiBlockMatchesPerBlockReference) {
  ciobase::Rng rng(7);
  Buffer key = rng.Bytes(kChaCha20KeySize);
  Buffer nonce = rng.Bytes(kChaCha20NonceSize);
  for (uint32_t counter : kStrideCounters) {
    for (size_t size : StrideSizes()) {
      Buffer in = rng.Bytes(size);
      Buffer expected(size);
      Buffer actual(size);
      ReferenceXor(key.data(), nonce.data(), counter, in, expected.data());
      ChaCha20Xor(key.data(), nonce.data(), counter, in, actual.data());
      EXPECT_EQ(expected, actual) << "counter=" << counter
                                  << " size=" << size;
    }
  }
}

TEST(ChaCha20Kernels, Avx512BuildMatchesBaselineBuild) {
  if (!KernelAvailable(Primitive::kChaCha20, Kernel::kAccelerated)) {
    GTEST_SKIP() << "this CPU has no AVX-512F and AVX-512VL";
  }
  ciobase::Rng rng(13);
  Buffer key = rng.Bytes(kChaCha20KeySize);
  Buffer nonce = rng.Bytes(kChaCha20NonceSize);
  for (uint32_t counter : kStrideCounters) {
    for (size_t size : StrideSizes()) {
      Buffer in = rng.Bytes(size);
      Buffer out[2] = {Buffer(size), Buffer(size)};
      for (Kernel kernel : {Kernel::kPortable, Kernel::kAccelerated}) {
        ScopedKernelForTest selected(Primitive::kChaCha20, kernel);
        ChaCha20Xor(key.data(), nonce.data(), counter, in,
                    out[static_cast<int>(kernel)].data());
      }
      ASSERT_EQ(out[1], out[0]) << "counter=" << counter << " size=" << size;
    }
  }
}

TEST_P(ChaCha20Test, InPlaceMatchesOutOfPlace) {
  ciobase::Rng rng(8);
  Buffer key = rng.Bytes(kChaCha20KeySize);
  Buffer nonce = rng.Bytes(kChaCha20NonceSize);
  for (size_t size : {1, 64, 257, 4096, 16385}) {
    Buffer in = rng.Bytes(size);
    Buffer out(size);
    ChaCha20Xor(key.data(), nonce.data(), 42, in, out.data());
    Buffer in_place = in;
    ChaCha20Xor(key.data(), nonce.data(), 42, in_place, in_place.data());
    EXPECT_EQ(out, in_place) << "size=" << size;
  }
}

TEST_P(Poly1305Test, Rfc8439Vector) {
  // RFC 8439 §2.5.2.
  Buffer key = HexDecode(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Buffer msg = BufferFromString("Cryptographic Forum Research Group");
  Poly1305Tag tag = Poly1305::Mac(key.data(), msg);
  EXPECT_EQ(HexEncode(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST_P(Poly1305Test, Rfc8439AppendixA3Vectors) {
  const std::string ietf =
      "Any submission to the IETF intended by the Contributor for "
      "publication as all or part of an IETF Internet-Draft or RFC and any "
      "statement made within the context of an IETF activity is considered "
      "an \"IETF Contribution\". Such statements include oral statements in "
      "IETF sessions, as well as written and electronic communications made "
      "at any time or place, which are addressed to";
  const std::string jabberwocky =
      "'Twas brillig, and the slithy toves\nDid gyre and gimble in the "
      "wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
  const std::string zero16(32, '0');
  const std::string r2 = "02" + std::string(30, '0');
  const std::string r1 = "01" + std::string(30, '0');
  const std::string r1_4 = "0100000000000000" "0400000000000000";
  const std::string x131 =
      "e33594d7505e43b90000000000000000"
      "3394d7505e4379cd0100000000000000"
      "00000000000000000000000000000000";
  struct Vector {
    std::string key_hex;
    Buffer message;
    const char* tag_hex;
  };
  const Vector kVectors[] = {
      {std::string(64, '0'), Buffer(64, 0),
       "00000000000000000000000000000000"},
      {zero16 + "36e5f6b5c5e06070f0efca96227a863e", BufferFromString(ietf),
       "36e5f6b5c5e06070f0efca96227a863e"},
      {"36e5f6b5c5e06070f0efca96227a863e" + zero16, BufferFromString(ietf),
       "f3477e7cd95417af89a6b8794c310cf0"},
      {"1c9240a5eb55d38af333888604f6b5f0"
       "473917c1402b80099dca5cbc207075c0",
       BufferFromString(jabberwocky), "4541669a7eaaee61e708dc7cbcc5eb62"},
      // #5-#11 probe the reduction's edges: h just past or exactly at
      // 2^130 - 5, s overflowing 2^128, carries out of a full limb.
      {r2 + zero16, Buffer(16, 0xff), "03000000000000000000000000000000"},
      {r2 + std::string(32, 'f'), HexDecode(r2),
       "03000000000000000000000000000000"},
      {r1 + zero16,
       HexDecode(std::string(32, 'f') + "f0" + std::string(30, 'f') + "11" +
                 std::string(30, '0')),
       "05000000000000000000000000000000"},
      {r1 + zero16,
       HexDecode(std::string(32, 'f') + "fbfefefefefefefefefefefefefefefe" +
                 "01010101010101010101010101010101"),
       "00000000000000000000000000000000"},
      {r2 + zero16, HexDecode("fd" + std::string(30, 'f')),
       "faffffffffffffffffffffffffffffff"},
      {r1_4 + zero16, HexDecode(x131 + "01" + std::string(30, '0')),
       "14000000000000005500000000000000"},
      {r1_4 + zero16, HexDecode(x131), "13000000000000000000000000000000"},
  };
  int number = 1;
  for (const Vector& vector : kVectors) {
    Buffer key = HexDecode(vector.key_hex);
    ASSERT_EQ(key.size(), kPoly1305KeySize) << "vector #" << number;
    EXPECT_EQ(HexEncode(Poly1305::Mac(key.data(), vector.message)),
              vector.tag_hex)
        << "vector #" << number;
    ++number;
  }
}

// Test-local reference: the 26-bit-limb Poly1305 (the poly1305-donna-32
// layout) the shipping 44-bit-limb code replaced. Poly1305 must stay
// bit-identical to it.
Poly1305Tag ReferencePoly1305(const uint8_t key[kPoly1305KeySize],
                              ByteSpan message) {
  using ciobase::LoadLe32;
  constexpr uint32_t kMask = 0x3ffffff;
  uint32_t t0 = LoadLe32(key);
  uint32_t t1 = LoadLe32(key + 4);
  uint32_t t2 = LoadLe32(key + 8);
  uint32_t t3 = LoadLe32(key + 12);
  const uint32_t r[5] = {t0 & 0x3ffffff, ((t0 >> 26) | (t1 << 6)) & 0x3ffff03,
                         ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff,
                         ((t2 >> 14) | (t3 << 18)) & 0x3f03fff,
                         (t3 >> 8) & 0x00fffff};
  uint32_t h[5] = {};
  for (size_t offset = 0; offset < message.size(); offset += 16) {
    // A final partial block gets 0x01 appended and no 2^128 bit.
    uint8_t block[17] = {};
    size_t n = std::min<size_t>(16, message.size() - offset);
    std::memcpy(block, message.data() + offset, n);
    block[n] = 1;
    t0 = LoadLe32(block);
    t1 = LoadLe32(block + 4);
    t2 = LoadLe32(block + 8);
    t3 = LoadLe32(block + 12);
    h[0] += t0 & kMask;
    h[1] += ((t0 >> 26) | (t1 << 6)) & kMask;
    h[2] += ((t1 >> 20) | (t2 << 12)) & kMask;
    h[3] += ((t2 >> 14) | (t3 << 18)) & kMask;
    h[4] += (t3 >> 8) | (static_cast<uint32_t>(block[16]) << 24);
    // h *= r mod 2^130 - 5: limbs that wrap past 2^130 come back times 5.
    uint64_t d[5];
    for (int i = 0; i < 5; ++i) {
      d[i] = 0;
      for (int j = 0; j < 5; ++j) {
        uint64_t rj = j <= i ? r[i - j] : 5 * r[i - j + 5];
        d[i] += static_cast<uint64_t>(h[j]) * rj;
      }
    }
    uint64_t c = 0;
    for (int i = 0; i < 5; ++i) {
      d[i] += c;
      c = d[i] >> 26;
      h[i] = static_cast<uint32_t>(d[i]) & kMask;
    }
    h[0] += static_cast<uint32_t>(c * 5);
    h[1] += h[0] >> 26;
    h[0] &= kMask;
  }
  // Full carry, then select h - p when h >= p (mask, no branch).
  uint32_t c = 0;
  for (int i = 1; i < 5; ++i) {
    h[i] += c;
    c = h[i] >> 26;
    h[i] &= kMask;
  }
  h[0] += c * 5;  // the carry out of h[4] wraps around times 5
  h[1] += h[0] >> 26;
  h[0] &= kMask;
  uint32_t g[5];
  c = 5;
  for (int i = 0; i < 4; ++i) {
    g[i] = h[i] + c;
    c = g[i] >> 26;
    g[i] &= kMask;
  }
  g[4] = h[4] + c - (1u << 26);
  uint32_t mask = (g[4] >> 31) - 1;
  for (int i = 0; i < 5; ++i) {
    h[i] = (g[i] & mask) | (h[i] & ~mask);
  }
  const uint32_t w[4] = {h[0] | (h[1] << 26), (h[1] >> 6) | (h[2] << 20),
                         (h[2] >> 12) | (h[3] << 14), (h[3] >> 18) | (h[4] << 8)};
  Poly1305Tag tag;
  uint64_t f = 0;
  for (int i = 0; i < 4; ++i) {
    f = static_cast<uint64_t>(w[i]) + LoadLe32(key + 16 + i * 4) + (f >> 32);
    ciobase::StoreLe32(tag.data() + i * 4, static_cast<uint32_t>(f));
  }
  return tag;
}

// Four random keys, then r at its clamp limits: every bit the clamp keeps
// (with s all ones, so the final addition overflows 2^128), r = 0, and
// r = 2, where one all-0xff block leaves h = 2^130 - 2, so Finish must take
// its subtract-p select (as in Appendix A.3 vector #5).
std::vector<Buffer> Poly1305EdgeKeys(ciobase::Rng& rng) {
  std::vector<Buffer> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(rng.Bytes(kPoly1305KeySize));
  }
  keys.push_back(Buffer(kPoly1305KeySize, 0xff));
  Buffer r_zero = rng.Bytes(kPoly1305KeySize);
  std::fill(r_zero.begin(), r_zero.begin() + 16, 0);
  keys.push_back(r_zero);
  Buffer r_two = r_zero;
  r_two[0] = 2;
  keys.push_back(r_two);
  return keys;
}

// Feeds `message` through Update in random chunks of up to 600 bytes, so
// that runs long enough for the eight IFMA lanes (16 blocks) also start
// after a buffered partial block.
Poly1305Tag ChunkedMac(const uint8_t* key, ByteSpan message,
                       ciobase::Rng& rng) {
  Poly1305 mac(key);
  for (size_t i = 0; i < message.size();) {
    size_t n = std::min<size_t>(message.size() - i, rng.NextInRange(0, 600));
    mac.Update(message.subspan(i, n));
    i += n;
  }
  return mac.Finish();
}

TEST_P(Poly1305Test, MatchesThe26BitReference) {
  ciobase::Rng rng(11);
  std::vector<Buffer> keys = Poly1305EdgeKeys(rng);
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint8_t* key = keys[k].data();
    // Every length through 2,100 covers each tail the 8-lane runs leave,
    // from the shortest run they take (16 blocks) to several strides.
    for (size_t size = 0; size <= 2100; ++size) {
      // All-0xff messages drive h past 2^130 - 5 on most keys.
      for (bool all_ones : {false, true}) {
        Buffer message = all_ones ? Buffer(size, 0xff) : rng.Bytes(size);
        Poly1305Tag expected = ReferencePoly1305(key, message);
        ASSERT_EQ(Poly1305::Mac(key, message), expected)
            << "key " << k << " size " << size << " ones " << all_ones;
        ASSERT_EQ(ChunkedMac(key, message, rng), expected)
            << "chunked: key " << k << " size " << size << " ones "
            << all_ones;
      }
    }
  }
}

TEST(Poly1305Kernels, IfmaMatchesPortable) {
  if (!KernelAvailable(Primitive::kPoly1305, Kernel::kAccelerated)) {
    GTEST_SKIP() << "this CPU has no AVX-512F and AVX-512 IFMA";
  }
  ciobase::Rng rng(17);
  std::vector<Buffer> keys = Poly1305EdgeKeys(rng);
  for (int i = 0; i < 57; ++i) {
    keys.push_back(rng.Bytes(kPoly1305KeySize));
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint8_t* key = keys[k].data();
    for (int trial = 0; trial < 64; ++trial) {
      // All-0xff messages give every lane its largest limbs.
      bool all_ones = trial % 2 == 1;
      size_t size = rng.NextInRange(0, 5000);
      Buffer message = all_ones ? Buffer(size, 0xff) : rng.Bytes(size);
      Poly1305Tag tags[2];
      for (Kernel kernel : {Kernel::kPortable, Kernel::kAccelerated}) {
        ScopedKernelForTest selected(Primitive::kPoly1305, kernel);
        tags[static_cast<int>(kernel)] = Poly1305::Mac(key, message);
      }
      ASSERT_EQ(tags[1], tags[0])
          << "key " << k << " size " << size << " ones " << all_ones;
      ScopedKernelForTest selected(Primitive::kPoly1305, Kernel::kAccelerated);
      ASSERT_EQ(ChunkedMac(key, message, rng), tags[0])
          << "chunked: key " << k << " size " << size << " ones "
          << all_ones;
    }
  }
}

TEST(Poly1305, EmptyUpdateAfterAPartialBlock) {
  ciobase::Rng rng(19);
  Buffer key = rng.Bytes(kPoly1305KeySize);
  Buffer message = rng.Bytes(5);
  Poly1305 mac(key.data());
  mac.Update(message);
  mac.Update({});
  EXPECT_EQ(mac.Finish(), Poly1305::Mac(key.data(), message));
}

TEST(Aead, Rfc8439SealVector) {
  // RFC 8439 §2.8.2.
  Buffer key = HexDecode(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Buffer nonce = HexDecode("070000004041424344454647");
  Buffer aad = HexDecode("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Buffer sealed = AeadSeal(key, nonce, aad, BufferFromString(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  EXPECT_EQ(HexEncode(ByteSpan(sealed.data() + plaintext.size(),
                               kAeadTagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(ciobase::StringFromBytes(*opened), plaintext);
}

TEST(Aead, SealIntoMatchesSealAndReusesBuffer) {
  ciobase::Rng rng(9);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer aad = rng.Bytes(13);
  Buffer out = BufferFromString("prefix-");
  for (size_t size : {0, 1, 64, 1000, 16384}) {
    Buffer plaintext = rng.Bytes(size);
    Buffer expected = AeadSeal(key, nonce, aad, plaintext);
    out.resize(7);  // keep the prefix, reuse capacity across iterations
    size_t appended = AeadSealInto(key, nonce, aad, plaintext, out);
    ASSERT_EQ(appended, expected.size());
    ASSERT_EQ(out.size(), 7 + expected.size());
    EXPECT_EQ(Buffer(out.begin() + 7, out.end()), expected) << size;
  }
}

TEST(Aead, OpenIntoAppendsAndRejectsUntouched) {
  ciobase::Rng rng(10);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer plaintext = rng.Bytes(500);
  Buffer sealed = AeadSeal(key, nonce, {}, plaintext);

  Buffer out = BufferFromString("keep-");
  auto got = AeadOpenInto(key, nonce, {}, sealed, out);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, plaintext.size());
  ASSERT_EQ(out.size(), 5 + plaintext.size());
  EXPECT_EQ(Buffer(out.begin() + 5, out.end()), plaintext);

  Buffer tampered = sealed;
  tampered[3] ^= 1;
  Buffer untouched = BufferFromString("keep-");
  auto bad = AeadOpenInto(key, nonce, {}, tampered, untouched);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ciobase::StatusCode::kTampered);
  EXPECT_EQ(ciobase::StringFromBytes(untouched), "keep-");
}

TEST(Aead, RejectsTamperedCiphertext) {
  ciobase::Rng rng(4);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer aad = rng.Bytes(16);
  Buffer plaintext = rng.Bytes(100);
  Buffer sealed = AeadSeal(key, nonce, aad, plaintext);
  for (size_t i = 0; i < sealed.size(); i += 7) {
    Buffer corrupted = sealed;
    corrupted[i] ^= 0x01;
    auto opened = AeadOpen(key, nonce, aad, corrupted);
    EXPECT_FALSE(opened.ok()) << "byte " << i;
    EXPECT_EQ(opened.status().code(), ciobase::StatusCode::kTampered);
  }
}

TEST(Aead, RejectsWrongAadNonceKey) {
  ciobase::Rng rng(5);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer aad = rng.Bytes(8);
  Buffer plaintext = rng.Bytes(64);
  Buffer sealed = AeadSeal(key, nonce, aad, plaintext);

  Buffer bad_aad = aad;
  bad_aad[0] ^= 1;
  EXPECT_FALSE(AeadOpen(key, nonce, bad_aad, sealed).ok());

  Buffer bad_nonce = nonce;
  bad_nonce[0] ^= 1;
  EXPECT_FALSE(AeadOpen(key, bad_nonce, aad, sealed).ok());

  Buffer bad_key = key;
  bad_key[0] ^= 1;
  EXPECT_FALSE(AeadOpen(bad_key, nonce, aad, sealed).ok());
}

TEST(Aead, RejectsTruncated) {
  ciobase::Rng rng(6);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer sealed = AeadSeal(key, nonce, {}, rng.Bytes(32));
  EXPECT_FALSE(AeadOpen(key, nonce, {}, ByteSpan(sealed.data(), 15)).ok());
  EXPECT_FALSE(
      AeadOpen(key, nonce, {}, ByteSpan(sealed.data(), sealed.size() - 1))
          .ok());
}

class AeadRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadRoundTripTest, SealOpenRoundTrip) {
  ciobase::Rng rng(GetParam() + 1);
  Buffer key = rng.Bytes(kAeadKeySize);
  Buffer nonce = rng.Bytes(kAeadNonceSize);
  Buffer aad = rng.Bytes(GetParam() % 32);
  Buffer plaintext = rng.Bytes(GetParam());
  Buffer sealed = AeadSeal(key, nonce, aad, plaintext);
  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTripTest,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 255,
                                           1024, 16384));

}  // namespace
