// Tests for the simulated TEE: memory-domain policing, TOCTOU tamper hooks,
// compartment isolation (grants, stale handles), the demand-zero pages behind
// regions and heaps, attestation, and the ternary trust model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/clock.h"
#include "src/tee/attestation.h"
#include "src/tee/compartment.h"
#include "src/tee/memory.h"
#include "src/tee/shared_region.h"
#include "src/tee/trust.h"
#include "tests/residency.h"

#if defined(__SANITIZE_ADDRESS__)
#define CIO_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CIO_TEST_ASAN 1
#endif
#endif

namespace {

using ciobase::Buffer;
using ciobase::ByteSpan;
using ciobase::MutableByteSpan;
using namespace ciotee;  // NOLINT: test file
using ciotest::PageOf;
using ciotest::ResidentPages;

// What a denied actor sees at [offset, offset + n) of region 0: the same
// scrambled filler an out-of-bounds read returns there.
Buffer ScrambledFiller(uint64_t offset, size_t n) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kGuestPrivate, 0, "probe");
  Buffer out(n);
  EXPECT_FALSE(memory.Read(Domain::kHost, region, offset, out).ok());
  return out;
}

Buffer Pattern(size_t n, uint8_t first) {
  Buffer out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(first + i);
  }
  return out;
}

// Every page of `bytes` that mincore reports resident holds one of the
// `written` offsets.
void ExpectResidentOnlyWhereWritten(ByteSpan bytes,
                                    const std::vector<uint64_t>& written) {
  std::vector<uintptr_t> allowed;
  for (uint64_t offset : written) {
    allowed.push_back(PageOf(bytes.data() + offset));
  }
  for (uintptr_t page : ResidentPages(bytes)) {
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), page), allowed.end())
        << "page " << (page - PageOf(bytes.data())) / ciotest::PageBytes()
        << " is resident but was never written";
  }
}

// `size` zero bytes with 7 at each of the `written` offsets.
Buffer ZerosExcept(size_t size, const std::vector<uint64_t>& written) {
  Buffer out(size, 0);
  for (uint64_t offset : written) {
    out[offset] = 7;
  }
  return out;
}

TEST(TeeMemory, GuestReadsOwnPrivatePlaintext) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kGuestPrivate, 64, "priv");
  Buffer data = {1, 2, 3, 4};
  ASSERT_TRUE(memory.Write(Domain::kGuest, region, 0, data).ok());
  Buffer out(4);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(memory.violations().empty());
}

TEST(TeeMemory, HostReadOfPrivateSeesCiphertext) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kGuestPrivate, 64, "priv");
  Buffer secret = {'s', 'e', 'c', 'r', 'e', 't'};
  ASSERT_TRUE(memory.Write(Domain::kGuest, region, 0, secret).ok());
  Buffer leaked(6);
  auto status = memory.Read(Domain::kHost, region, 0, leaked);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(leaked, secret);  // scrambled, not plaintext
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kPrivateRead), 1u);
  // Every byte is filler that depends on the offset, never the plaintext.
  ASSERT_TRUE(memory.Write(Domain::kGuest, region, 0, Pattern(64, 7)).ok());
  Buffer seen(48);
  EXPECT_EQ(memory.Read(Domain::kHost, region, 16, seen).code(),
            ciobase::StatusCode::kPermissionDenied);
  EXPECT_EQ(seen, ScrambledFiller(16, 48));
  EXPECT_EQ(memory.violations().size(), 2u);
}

TEST(TeeMemory, HostWriteToPrivateBlocked) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kGuestPrivate, 64, "priv");
  Buffer evil = {0xff};
  EXPECT_FALSE(memory.Write(Domain::kHost, region, 0, evil).ok());
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kPrivateWrite), 1u);
  Buffer out(1);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 0, out).ok());
  EXPECT_EQ(out[0], 0);  // untouched
}

TEST(TeeMemory, SharedIsReadWriteBothSides) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 64, "shared");
  Buffer data = {9, 9};
  ASSERT_TRUE(memory.Write(Domain::kHost, region, 0, data).ok());
  Buffer out(2);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 0, out).ok());
  EXPECT_EQ(out, data);
  // A whole in-bounds access moves exactly its bytes.
  ASSERT_TRUE(memory.Write(Domain::kHost, region, 10, Pattern(40, 1)).ok());
  Buffer window(40);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 10, window).ok());
  EXPECT_EQ(window, Pattern(40, 1));
  Buffer all(64);
  ASSERT_TRUE(memory.Read(Domain::kHost, region, 0, all).ok());
  Buffer expected = data;
  expected.resize(10, 0);
  ciobase::Append(expected, window);
  expected.resize(64, 0);
  EXPECT_EQ(all, expected);
  EXPECT_TRUE(memory.violations().empty());
}

TEST(TeeMemory, OobAccessClampedAndRecorded) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 16, "shared");
  ASSERT_TRUE(memory.Write(Domain::kGuest, region, 0, Pattern(16, 100)).ok());
  Buffer out(32);
  auto status = memory.Read(Domain::kGuest, region, 8, out);
  EXPECT_EQ(status.code(), ciobase::StatusCode::kOutOfRange);
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kOobRead), 1u);
  // The real in-bounds prefix, then scrambled filler.
  EXPECT_EQ(Buffer(out.begin(), out.begin() + 8), Pattern(8, 108));
  EXPECT_EQ(Buffer(out.begin() + 8, out.end()), ScrambledFiller(16, 24));
  Buffer big(32, 1);
  EXPECT_FALSE(memory.Write(Domain::kGuest, region, 8, big).ok());
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kOobWrite), 1u);
  // Only the in-bounds prefix of the write landed.
  Buffer all(16);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 0, all).ok());
  Buffer expected(16, 1);
  const Buffer prefix = Pattern(8, 100);
  std::copy(prefix.begin(), prefix.end(), expected.begin());
  EXPECT_EQ(all, expected);
  EXPECT_EQ(memory.violations().size(), 2u);
}

TEST(TeeMemory, ZeroLengthAccessIsCleanAtAnyOffset) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 16, "shared");
  for (uint64_t offset : {uint64_t{0}, uint64_t{16}, uint64_t{1000},
                          ~uint64_t{0}}) {
    EXPECT_TRUE(memory.Read(Domain::kGuest, region, offset, {}).ok());
    EXPECT_TRUE(memory.Write(Domain::kHost, region, offset, {}).ok());
  }
  EXPECT_TRUE(memory.violations().empty());
}

TEST(TeeMemory, RawWindowRespectsBounds) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 64, "shared");
  EXPECT_EQ(memory.RawWindow(Domain::kGuest, region, 0, 64).size(), 64u);
  EXPECT_TRUE(memory.RawWindow(Domain::kGuest, region, 32, 64).empty());
  EXPECT_TRUE(
      memory.RawWindow(Domain::kHost, region, ~0ULL - 3, 8).empty());
}

// A region costs host memory only for the pages the simulation writes: none
// is resident when it is added, a write makes only its own page resident,
// and every byte never written reads as zero.
TEST(TeeMemory, RegionPagesBecomeResidentOnlyWhenWritten) {
  TeeMemory memory;
  const size_t size = (size_t{1} << 20) + 100;
  RegionId region = memory.AddRegion(RegionKind::kShared, size, "lazy");
  ByteSpan bytes = memory.RawWindow(Domain::kGuest, region, 0, size);
  ASSERT_EQ(bytes.size(), size);
  EXPECT_TRUE(ResidentPages(bytes).empty());
  const std::vector<uint64_t> written = {0, size / 2, size - 1};
  for (uint64_t offset : written) {
    ASSERT_TRUE(memory.Write(Domain::kHost, region, offset, Buffer{7}).ok());
  }
  ExpectResidentOnlyWhereWritten(bytes, written);
  Buffer all(size);
  ASSERT_TRUE(memory.Read(Domain::kGuest, region, 0, all).ok());
  EXPECT_TRUE(all == ZerosExcept(size, written));
}

// Adding regions never moves an earlier one: a window taken first still
// addresses the region's bytes.
TEST(TeeMemory, WindowOutlivesLaterRegions) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 4096, "first");
  MutableByteSpan window = memory.RawWindow(Domain::kGuest, region, 0, 4096);
  ASSERT_EQ(window.size(), 4096u);
  for (int i = 0; i < 100; ++i) {
    memory.AddRegion(RegionKind::kShared, 4096, "more");
  }
  EXPECT_EQ(memory.RawWindow(Domain::kGuest, region, 0, 4096).data(),
            window.data());
  window[5] = 42;
  Buffer out(1);
  ASSERT_TRUE(memory.Read(Domain::kHost, region, 5, out).ok());
  EXPECT_EQ(out[0], 42);
  ASSERT_TRUE(memory.Write(Domain::kHost, region, 4095, Buffer{9}).ok());
  EXPECT_EQ(window[4095], 9);
}

// A zero-size region maps nothing, and every access to it is out of range.
TEST(TeeMemory, ZeroSizeRegionIsOutOfRangeEverywhere) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 0, "empty");
  EXPECT_EQ(memory.RegionSize(region), 0u);
  Buffer out(8);
  EXPECT_EQ(memory.Read(Domain::kGuest, region, 0, out).code(),
            ciobase::StatusCode::kOutOfRange);
  EXPECT_EQ(out, ScrambledFiller(0, 8));
  EXPECT_EQ(memory.Write(Domain::kHost, region, 0, Buffer{1}).code(),
            ciobase::StatusCode::kOutOfRange);
  EXPECT_TRUE(memory.RawWindow(Domain::kGuest, region, 0, 1).empty());
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kOobRead), 2u);
  EXPECT_EQ(memory.ViolationCount(ViolationKind::kOobWrite), 1u);
}

// A raw access past a region's bytes rounded up to 16 lands on the guard
// page behind its mapping, so it faults in every build.
TEST(TeeMemoryDeathTest, RawWriteAtTheRoundedEndFaults) {
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 100, "r");
  volatile uint8_t* bytes =
      memory.RawWindow(Domain::kGuest, region, 0, 100).data();
  EXPECT_DEATH(bytes[112] = 1, "");
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId io = mgr.Create("io", 100);
  auto handle = mgr.Allocate(io, io, 96);  // 100 B would round up past it
  ASSERT_TRUE(handle.ok());
  volatile uint8_t* heap = mgr.Access(io, *handle)->data();
  EXPECT_DEATH(heap[112] = 1, "");
}

// Under AddressSanitizer the slack between a region's size and its 16-B
// rounded end is poisoned, so even a one-byte overrun is reported.
TEST(TeeMemoryDeathTest, OneBytePastTheEndIsReportedUnderAsan) {
#ifndef CIO_TEST_ASAN
  GTEST_SKIP() << "the slack is poisoned only under AddressSanitizer";
#else
  TeeMemory memory;
  RegionId region = memory.AddRegion(RegionKind::kShared, 100, "r");
  volatile uint8_t* bytes =
      memory.RawWindow(Domain::kGuest, region, 0, 100).data();
  EXPECT_DEATH(bytes[100] = 1, "AddressSanitizer");
#endif
}

TEST(SharedRegion, TamperHookRunsOnEveryGuestAccess) {
  TeeMemory memory;
  SharedRegion shared(&memory, 64, "ring");
  int fires = 0;
  shared.SetTamperHook([&](MutableByteSpan bytes) {
    ++fires;
    bytes[0] = static_cast<uint8_t>(fires);
  });
  EXPECT_EQ(shared.GuestReadU8(0), 1);
  EXPECT_EQ(shared.GuestReadU8(0), 2);  // double fetch sees a new value
  EXPECT_EQ(fires, 2);
}

TEST(SharedRegion, SingleFetchDefeatsDoubleFetchFlip) {
  // The paper's "copy as a first-class citizen": one fetch into private
  // memory means validation and use see the same bytes even under attack.
  TeeMemory memory;
  SharedRegion shared(&memory, 64, "ring");
  shared.GuestWriteLe32(0, 100);  // honest length
  bool flip = false;
  shared.SetTamperHook([&](MutableByteSpan bytes) {
    flip = !flip;
    ciobase::StoreLe32(bytes.data(), flip ? 100 : 0xffffffff);
  });
  uint32_t snapshot = shared.GuestReadLe32(0);  // single fetch
  // Whatever value it got, validating and using `snapshot` is consistent.
  uint32_t validated = snapshot;
  uint32_t used = snapshot;
  EXPECT_EQ(validated, used);
  // In-place re-read (the unhardened pattern) diverges:
  uint32_t second = shared.GuestReadLe32(0);
  EXPECT_NE(snapshot, second);
}

TEST(Compartment, GrantedAccessWorks) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId app = mgr.Create("app", 4096);
  CompartmentId io = mgr.Create("io", 4096);
  mgr.GrantAccess(app, io);  // app may touch io's buffers

  auto handle = mgr.Allocate(app, io, 128);
  ASSERT_TRUE(handle.ok());
  auto span = mgr.Access(app, *handle);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->size(), 128u);
  (*span)[0] = 42;
  auto io_view = mgr.Access(io, *handle);  // owner always has access
  ASSERT_TRUE(io_view.ok());
  EXPECT_EQ((*io_view)[0], 42);
}

TEST(Compartment, UngrantedAccessDeniedAndRecorded) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId app = mgr.Create("app", 4096);
  CompartmentId io = mgr.Create("io", 4096);
  // The ternary model: io (untrusted by app) gets NO grant to app memory.
  auto secret = mgr.Allocate(app, app, 64);
  ASSERT_TRUE(secret.ok());
  auto attempt = mgr.Access(io, *secret);
  EXPECT_FALSE(attempt.ok());
  EXPECT_EQ(attempt.status().code(), ciobase::StatusCode::kPermissionDenied);
  ASSERT_EQ(mgr.violations().size(), 1u);
  EXPECT_EQ(mgr.violations()[0].accessor, io);
}

TEST(Compartment, StaleHandleRejected) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId io = mgr.Create("io", 4096);
  auto handle = mgr.Allocate(io, io, 64);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(mgr.Free(io, *handle).ok());
  auto use_after_free = mgr.Access(io, *handle);
  EXPECT_FALSE(use_after_free.ok());
  EXPECT_FALSE(mgr.Free(io, *handle).ok());  // double free rejected
}

// A request whose rounding up to 16 would wrap is refused before it is
// rounded, so it can never come back as a tiny allocation with a huge span.
TEST(Compartment, AllocationWhoseRoundingWrapsIsRefused) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId app = mgr.Create("app", 4096);
  CompartmentId io = mgr.Create("io", 4096);
  mgr.GrantAccess(app, io);
  for (size_t bytes : {SIZE_MAX - 7, SIZE_MAX, size_t{4097}}) {
    EXPECT_EQ(mgr.Allocate(app, io, bytes).status().code(),
              ciobase::StatusCode::kResourceExhausted)
        << bytes;
  }
  auto whole = mgr.Allocate(app, io, 4096);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(mgr.Access(app, *whole)->size(), 4096u);
}

// A heap, like a region, is resident only where it has been written.
TEST(Compartment, HeapPagesBecomeResidentOnlyWhenWritten) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  const size_t size = size_t{1} << 20;
  CompartmentId io = mgr.Create("io", size);
  auto handle = mgr.Allocate(io, io, size);
  ASSERT_TRUE(handle.ok());
  MutableByteSpan heap = *mgr.Access(io, *handle);
  EXPECT_TRUE(ResidentPages(heap).empty());
  const std::vector<uint64_t> written = {size / 4, size - 1};
  for (uint64_t offset : written) {
    heap[offset] = 7;
  }
  ExpectResidentOnlyWhereWritten(heap, written);
  EXPECT_TRUE(Buffer(heap.begin(), heap.end()) == ZerosExcept(size, written));
}

TEST(Compartment, SwitchChargesCost) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  CompartmentManager mgr(&costs);
  CompartmentId a = mgr.Create("a", 64);
  CompartmentId b = mgr.Create("b", 64);
  mgr.SwitchTo(b);
  mgr.SwitchTo(a);
  mgr.SwitchTo(a);  // no-op
  EXPECT_EQ(mgr.switch_count(), 2u);
  EXPECT_EQ(costs.counter("compartment_switches"), 2u);
}

TEST(Attestation, IssueVerifyRoundTrip) {
  Buffer platform_key = {1, 2, 3, 4};
  AttestationAuthority authority(platform_key);
  Buffer config = {0x10, 0x20};
  Measurement m = Measure("cio-l2-transport-v1", config);
  Buffer nonce = {9, 9, 9, 9, 9, 9, 9, 9};
  AttestationReport report = authority.Issue(m, nonce);
  EXPECT_TRUE(authority.Verify(report, m, nonce).ok());
}

TEST(Attestation, DetectsWrongMeasurementNonceAndForgery) {
  Buffer platform_key = {1, 2, 3, 4};
  AttestationAuthority authority(platform_key);
  Measurement m = Measure("code", {});
  Buffer nonce = {1, 2, 3};
  AttestationReport report = authority.Issue(m, nonce);

  Measurement other = Measure("evil code", {});
  EXPECT_FALSE(authority.Verify(report, other, nonce).ok());

  Buffer stale_nonce = {3, 2, 1};
  EXPECT_FALSE(authority.Verify(report, m, stale_nonce).ok());

  AttestationReport forged = report;
  forged.measurement = other;  // MAC no longer matches
  EXPECT_FALSE(authority.Verify(forged, other, nonce).ok());

  AttestationAuthority wrong_key(Buffer{9, 9});
  EXPECT_FALSE(wrong_key.Verify(report, m, nonce).ok());
}

TEST(Attestation, SerializeParseRoundTrip) {
  AttestationAuthority authority(Buffer{5});
  Measurement m = Measure("x", {});
  Buffer nonce = {7, 7};
  AttestationReport report = authority.Issue(m, nonce);
  Buffer wire = report.Serialize();
  auto parsed = AttestationReport::Parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(authority.Verify(*parsed, m, nonce).ok());
  // Truncation rejected.
  EXPECT_FALSE(
      AttestationReport::Parse(ByteSpan(wire.data(), wire.size() - 1)).ok());
}

TEST(TrustModel, ConfigDifferenceCHangesMeasurement) {
  Buffer config_a = {1};
  Buffer config_b = {2};
  EXPECT_NE(Measure("same-code", config_a), Measure("same-code", config_b));
}

TEST(TrustModel, BinaryModelTrustsStack) {
  TrustModel binary = TrustModel::Binary();
  EXPECT_TRUE(binary.Trusts(Actor::kApp, Actor::kIoStack));
  EXPECT_FALSE(binary.Trusts(Actor::kApp, Actor::kHostSw));
  EXPECT_TRUE(binary.MutualDistrust(Actor::kIoStack, Actor::kHostSw));
  // No boundary needed between app and stack: single trusted unit.
  EXPECT_FALSE(binary.BoundaryRequired(Actor::kIoStack, Actor::kApp));
}

TEST(TrustModel, TernaryModelIsSingleDistrustAtL5) {
  TrustModel ternary = TrustModel::Ternary();
  // The app must treat stack data as adversarial...
  EXPECT_TRUE(ternary.BoundaryRequired(Actor::kIoStack, Actor::kApp));
  // ...but the stack trusts the app (single distrust, not mutual).
  EXPECT_FALSE(ternary.MutualDistrust(Actor::kApp, Actor::kIoStack));
  EXPECT_TRUE(ternary.Trusts(Actor::kIoStack, Actor::kApp));
  // Host remains mutually distrusted by everyone inside.
  EXPECT_TRUE(ternary.MutualDistrust(Actor::kApp, Actor::kHostSw));
  EXPECT_TRUE(ternary.MutualDistrust(Actor::kIoStack, Actor::kHostSw));
}

TEST(TrustModel, AttestedDeviceJoinsTcb) {
  TrustModel dda = TrustModel::TernaryWithAttestedDevice();
  EXPECT_TRUE(dda.Trusts(Actor::kApp, Actor::kDevice));
  EXPECT_FALSE(dda.Trusts(Actor::kApp, Actor::kHostSw));
}

}  // namespace
