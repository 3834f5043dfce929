#include "src/tee/memory.h"

#include <cassert>
#include <cstring>

#include "src/base/log.h"

namespace ciotee {

std::string_view RegionKindName(RegionKind kind) {
  switch (kind) {
    case RegionKind::kGuestPrivate:
      return "guest-private";
    case RegionKind::kShared:
      return "shared";
    case RegionKind::kHostOnly:
      return "host-only";
  }
  return "?";
}

std::string_view ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOobRead:
      return "oob-read";
    case ViolationKind::kOobWrite:
      return "oob-write";
    case ViolationKind::kPrivateWrite:
      return "private-write";
    case ViolationKind::kPrivateRead:
      return "private-read";
    case ViolationKind::kHostOnlyAccess:
      return "host-only-access";
  }
  return "?";
}

RegionId TeeMemory::AddRegion(RegionKind kind, size_t size, std::string name) {
  regions_.push_back(Region{kind, std::move(name), ZeroPages(size)});
  return RegionId{static_cast<uint32_t>(regions_.size() - 1)};
}

size_t TeeMemory::RegionSize(RegionId id) const {
  assert(id.value < regions_.size());
  return regions_[id.value].data.size();
}

RegionKind TeeMemory::Kind(RegionId id) const {
  assert(id.value < regions_.size());
  return regions_[id.value].kind;
}

const std::string& TeeMemory::RegionName(RegionId id) const {
  assert(id.value < regions_.size());
  return regions_[id.value].name;
}

bool TeeMemory::AllowPlaintext(Domain actor, RegionKind kind) const {
  switch (kind) {
    case RegionKind::kGuestPrivate:
      return actor == Domain::kGuest;
    case RegionKind::kShared:
      return true;
    case RegionKind::kHostOnly:
      return actor == Domain::kHost;
  }
  return false;
}

bool TeeMemory::AllowWrite(Domain actor, RegionKind kind) const {
  // Same policy as plaintext reads: only the owner of private memory may
  // write it; shared memory is writable by both.
  return AllowPlaintext(actor, kind);
}

void TeeMemory::RecordViolation(ViolationKind kind, Domain actor,
                                uint32_t region, uint64_t offset,
                                uint64_t length, std::string note) {
  CIO_LOG(kDebug) << "violation " << ViolationKindName(kind) << " region="
                  << regions_[region].name << " off=" << offset
                  << " len=" << length << " " << note;
  violations_.push_back(
      ViolationEvent{kind, actor, region, offset, length, std::move(note)});
}

uint8_t TeeMemory::ScrambleByte(uint32_t region, uint64_t offset) const {
  // Cheap deterministic mix — models that the actor sees high-entropy bytes
  // unrelated to the plaintext.
  uint64_t x = offset * 0x9e3779b97f4a7c15ULL ^
               (static_cast<uint64_t>(region) + 1) * 0xd1342543de82ef95ULL;
  x ^= x >> 29;
  return static_cast<uint8_t>(x * 0xff51afd7ed558ccdULL >> 56);
}

ciobase::Status TeeMemory::Read(Domain actor, RegionId id, uint64_t offset,
                                ciobase::MutableByteSpan out) {
  assert(id.value < regions_.size());
  Region& region = regions_[id.value];
  ciobase::Status status = ciobase::OkStatus();

  bool plaintext = AllowPlaintext(actor, region.kind);
  if (!plaintext) {
    if (region.kind == RegionKind::kGuestPrivate) {
      RecordViolation(ViolationKind::kPrivateRead, actor, id.value, offset,
                      out.size(), "host read of encrypted memory");
      status = ciobase::PermissionDenied("ciphertext only");
    } else {
      RecordViolation(ViolationKind::kHostOnlyAccess, actor, id.value, offset,
                      out.size(), "guest read of host-only memory");
      status = ciobase::PermissionDenied("host-only region");
    }
  }

  // Overflow-safe bounds arithmetic: a hostile offset may wrap uint64.
  uint64_t region_size = region.data.size();
  uint64_t in_bounds =
      offset >= region_size ? 0
                            : std::min<uint64_t>(out.size(),
                                                 region_size - offset);
  // One copy for the bytes the actor may see; memmove, so even a span that
  // aliases the region reads what it held before the call.
  size_t visible = plaintext ? in_bounds : 0;
  if (visible > 0) {
    std::memmove(out.data(), region.data.data() + offset, visible);
  }
  for (size_t i = visible; i < out.size(); ++i) {
    out[i] = ScrambleByte(id.value, offset + i);
  }
  if (in_bounds < out.size()) {
    RecordViolation(ViolationKind::kOobRead, actor, id.value, offset,
                    out.size(), "read past region end");
    if (status.ok()) {
      status = ciobase::OutOfRange("read past region end");
    }
  }
  return status;
}

ciobase::Status TeeMemory::Write(Domain actor, RegionId id, uint64_t offset,
                                 ciobase::ByteSpan data) {
  assert(id.value < regions_.size());
  Region& region = regions_[id.value];

  if (!AllowWrite(actor, region.kind)) {
    if (region.kind == RegionKind::kGuestPrivate) {
      RecordViolation(ViolationKind::kPrivateWrite, actor, id.value, offset,
                      data.size(), "host write to encrypted memory");
    } else {
      RecordViolation(ViolationKind::kHostOnlyAccess, actor, id.value, offset,
                      data.size(), "guest write to host-only memory");
    }
    return ciobase::PermissionDenied("write denied by domain policy");
  }

  uint64_t region_size = region.data.size();
  uint64_t in_bounds =
      offset >= region_size ? 0
                            : std::min<uint64_t>(data.size(),
                                                 region_size - offset);
  if (in_bounds > 0) {  // the rest is dropped
    std::memmove(region.data.data() + offset, data.data(), in_bounds);
  }
  if (in_bounds < data.size()) {
    RecordViolation(ViolationKind::kOobWrite, actor, id.value, offset,
                    data.size(), "write past region end");
    return ciobase::OutOfRange("write past region end");
  }
  return ciobase::OkStatus();
}

ciobase::MutableByteSpan TeeMemory::RawWindow(Domain actor, RegionId id,
                                              uint64_t offset,
                                              uint64_t length) {
  assert(id.value < regions_.size());
  Region& region = regions_[id.value];
  if (!AllowPlaintext(actor, region.kind)) {
    RecordViolation(region.kind == RegionKind::kGuestPrivate
                        ? ViolationKind::kPrivateRead
                        : ViolationKind::kHostOnlyAccess,
                    actor, id.value, offset, length, "raw window denied");
    return {};
  }
  if (offset + length > region.data.size() || offset + length < offset) {
    RecordViolation(ViolationKind::kOobRead, actor, id.value, offset, length,
                    "raw window out of range");
    return {};
  }
  return ciobase::MutableByteSpan(region.data.data() + offset, length);
}

size_t TeeMemory::ViolationCount(ViolationKind kind) const {
  size_t n = 0;
  for (const auto& v : violations_) {
    if (v.kind == kind) {
      ++n;
    }
  }
  return n;
}

}  // namespace ciotee
