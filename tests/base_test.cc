// Unit tests for the base library: Status/Result, byte utilities, masking
// helpers, deterministic RNG, and the cost model.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "src/base/arena.h"
#include "src/base/bits.h"
#include "src/base/bytes.h"
#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/base/status.h"

namespace {

using namespace ciobase;  // NOLINT: test file

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status = HostViolation("ring index forged");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kHostViolation);
  EXPECT_EQ(status.ToString(), "HOST_VIOLATION: ring index forged");
}

TEST(Result, HoldsValue) {
  Result<int> result = 7;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> result = OutOfRange("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// Two CIO_ASSIGN_OR_RETURN in one scope: each names its own temporary, and
// the first error is the one returned.
Result<int> SumOfBoth(Result<int> a, Result<int> b) {
  CIO_ASSIGN_OR_RETURN(int x, std::move(a));
  CIO_ASSIGN_OR_RETURN(int y, std::move(b));
  return x + y;
}

TEST(Result, AssignOrReturnTwiceInOneScope) {
  Result<int> sum = SumOfBoth(2, 3);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 5);
  EXPECT_EQ(SumOfBoth(OutOfRange("first"), 3).status().ToString(),
            "OUT_OF_RANGE: first");
  EXPECT_EQ(SumOfBoth(2, NotFound("second")).status().ToString(),
            "NOT_FOUND: second");
  EXPECT_EQ(SumOfBoth(OutOfRange("first"), NotFound("second")).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Bytes, EndianRoundTrips) {
  uint8_t buf[8];
  StoreLe32(buf, 0x12345678);
  EXPECT_EQ(LoadLe32(buf), 0x12345678u);
  EXPECT_EQ(buf[0], 0x78);
  StoreBe32(buf, 0x12345678);
  EXPECT_EQ(LoadBe32(buf), 0x12345678u);
  EXPECT_EQ(buf[0], 0x12);
  StoreLe64(buf, 0x1122334455667788ULL);
  EXPECT_EQ(LoadLe64(buf), 0x1122334455667788ULL);
  StoreBe64(buf, 0x1122334455667788ULL);
  EXPECT_EQ(LoadBe64(buf), 0x1122334455667788ULL);
  StoreBe16(buf, 0xabcd);
  EXPECT_EQ(LoadBe16(buf), 0xabcd);
}

TEST(Bytes, HexRoundTrip) {
  Buffer data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(HexEncode(data), "deadbeef");
  EXPECT_EQ(HexDecode("deadbeef"), data);
  EXPECT_EQ(HexDecode("DEADBEEF"), data);
  EXPECT_TRUE(HexDecode("xyz").empty());
  EXPECT_TRUE(HexDecode("abc").empty());  // odd length
}

TEST(Bytes, ConstantTimeEqual) {
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 3};
  Buffer c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, ByteSpan(a.data(), 2)));
}

TEST(Bits, PowerOfTwoPredicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(RoundUpPow2(0), 1u);
  EXPECT_EQ(RoundUpPow2(5), 8u);
  EXPECT_EQ(RoundUpPow2(1024), 1024u);
}

TEST(Bits, MaskIndexIsAlwaysInRange) {
  // Property: for any untrusted value, the masked index is in [0, size).
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t untrusted = rng.NextU64();
    for (uint64_t size : {2ULL, 64ULL, 4096ULL, 1ULL << 20}) {
      EXPECT_LT(MaskIndex(untrusted, size), size);
    }
  }
}

TEST(Bits, MaskOffsetStaysInsideArea) {
  Rng rng(2);
  constexpr uint64_t kArea = 1 << 16;
  constexpr uint64_t kChunk = 1 << 11;
  for (int i = 0; i < 10000; ++i) {
    uint64_t offset = MaskOffset(rng.NextU64(), kArea, kChunk);
    EXPECT_LT(offset, kArea);
    EXPECT_LE(offset + kChunk, kArea);
    EXPECT_TRUE(IsAligned(offset, kChunk));
  }
}

TEST(Bits, Alignment) {
  EXPECT_EQ(AlignUp(13, 8), 16u);
  EXPECT_EQ(AlignUp(16, 8), 16u);
  EXPECT_EQ(AlignDown(13, 8), 8u);
  EXPECT_TRUE(IsAligned(4096, 4096));
  EXPECT_FALSE(IsAligned(4097, 4096));
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, FillCoversAllBytes) {
  Rng rng(9);
  Buffer buf = rng.Bytes(1024);
  std::set<uint8_t> seen(buf.begin(), buf.end());
  EXPECT_GT(seen.size(), 200u);  // essentially all byte values present
}

TEST(CostModel, ChargesAndCounts) {
  SimClock clock;
  CostModel costs(&clock);
  costs.ChargeHostExit();
  costs.ChargeCopy(1000);
  costs.ChargeCompartmentSwitch();
  EXPECT_EQ(costs.counter("host_exits"), 1u);
  EXPECT_EQ(costs.counter("bytes_copied"), 1000u);
  EXPECT_EQ(costs.counter("compartment_switches"), 1u);
  uint64_t expected =
      static_cast<uint64_t>(costs.constants().host_exit_ns) +
      static_cast<uint64_t>(costs.constants().copy_ns_per_byte * 1000) +
      static_cast<uint64_t>(costs.constants().compartment_switch_ns);
  EXPECT_EQ(clock.now_ns(), expected);
}

TEST(CostModel, RevocationCheaperThanCopyForLargeBuffers) {
  // The premise of the §3.2 revocation exploration: above some size,
  // un-sharing pages beats copying.
  SimClock clock;
  CostModel costs(&clock);
  const auto& c = costs.constants();
  double copy_64k = c.copy_ns_per_byte * 65536;
  double unshare_64k = c.page_unshare_ns * (65536 / c.page_size);
  EXPECT_GT(copy_64k, unshare_64k);
  double copy_256 = c.copy_ns_per_byte * 256;
  double unshare_256 = c.page_unshare_ns * 1;  // still a whole page
  EXPECT_LT(copy_256, unshare_256);
}


TEST(FrameArena, ReusesReleasedCapacity) {
  FrameArena arena;
  Buffer first = arena.Acquire(2048);
  EXPECT_EQ(first.size(), 2048u);
  const uint8_t* data = first.data();
  arena.Release(std::move(first));
  EXPECT_EQ(arena.stats().pooled, 1u);

  Buffer second = arena.Acquire(1000);
  EXPECT_EQ(second.size(), 1000u);
  // Served from the pool: same backing storage, no fresh allocation.
  EXPECT_EQ(second.data(), data);
  EXPECT_EQ(arena.stats().reuses, 1u);
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().pooled, 0u);
}

TEST(FrameArena, DropsBeyondPoolCap) {
  FrameArena arena(2);
  arena.Release(Buffer(64));
  arena.Release(Buffer(64));
  arena.Release(Buffer(64));  // beyond the cap: dropped, not pooled
  EXPECT_EQ(arena.stats().pooled, 2u);
}

TEST(FrameArena, AcquireWithEmptyPoolAllocates) {
  FrameArena arena;
  Buffer a = arena.Acquire(16);
  Buffer b = arena.Acquire(16);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(arena.stats().reuses, 0u);
  EXPECT_EQ(arena.stats().acquires, 2u);
}

}  // namespace
