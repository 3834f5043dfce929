// Simulated TEE physical memory with domain-based access policing.
//
// This stands in for the hardware isolation of SEV-SNP/TDX/SGX (see
// DESIGN.md, substitutions table). Memory is split into regions, each tagged
// with a domain:
//
//   kGuestPrivate — encrypted guest memory. The guest reads/writes plaintext.
//                   A host *read* returns deterministically scrambled bytes
//                   (what ciphertext looks like to the hypervisor); a host
//                   *write* is blocked and recorded as a violation (RMP
//                   semantics).
//   kShared       — bounce/shared memory both sides can access. This is the
//                   only place trust boundaries exchange data, and the only
//                   place the adversary can tamper.
//   kHostOnly     — host-private memory the guest must never touch.
//
// Every access is bounds-checked against its region. Out-of-range accesses
// never corrupt the simulation: they are clamped, serviced with scrambled
// bytes (reads) or dropped (writes), and recorded in the ViolationLog. The
// attack-campaign harness uses the ViolationLog as its ground truth for
// "this design performed an unsafe access under attack".
//
// Each region's bytes are a ZeroPages mapping: a page costs host memory only
// once it is written, and a raw-window overrun past the region's size
// rounded up to 16 B faults on the guard page behind it.

#ifndef SRC_TEE_MEMORY_H_
#define SRC_TEE_MEMORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/tee/zero_pages.h"

namespace ciotee {

enum class Domain {
  kGuest,  // code running inside the TEE
  kHost,   // the untrusted hypervisor / host software
};

enum class RegionKind {
  kGuestPrivate,
  kShared,
  kHostOnly,
};

std::string_view RegionKindName(RegionKind kind);

enum class ViolationKind {
  kOobRead,        // access past the end of a region
  kOobWrite,
  kPrivateWrite,   // host wrote to encrypted guest memory
  kPrivateRead,    // host read encrypted guest memory (sees ciphertext)
  kHostOnlyAccess, // guest touched host-private memory
};

std::string_view ViolationKindName(ViolationKind kind);

struct ViolationEvent {
  ViolationKind kind;
  Domain actor;
  uint32_t region_id;
  uint64_t offset;
  uint64_t length;
  std::string note;
};

// Handle to a region; cheap to copy.
struct RegionId {
  uint32_t value = 0;
  bool operator==(const RegionId&) const = default;
};

class TeeMemory {
 public:
  TeeMemory() = default;

  // Non-copyable: regions hand out stable ids into this object.
  TeeMemory(const TeeMemory&) = delete;
  TeeMemory& operator=(const TeeMemory&) = delete;

  RegionId AddRegion(RegionKind kind, size_t size, std::string name);

  size_t RegionSize(RegionId id) const;
  RegionKind Kind(RegionId id) const;
  const std::string& RegionName(RegionId id) const;

  // Policed accessors. Reads fill `out` completely: in-bounds bytes come from
  // the region (or its scrambled image if policy denies plaintext), the
  // out-of-bounds remainder is scrambled filler. The returned status reports
  // whether the access was clean.
  ciobase::Status Read(Domain actor, RegionId id, uint64_t offset,
                       ciobase::MutableByteSpan out);
  ciobase::Status Write(Domain actor, RegionId id, uint64_t offset,
                        ciobase::ByteSpan data);

  // Direct span for in-bounds, policy-allowed access. Used on hot paths
  // (ring polling) after construction-time validation; never spans regions.
  // Returns an empty span and records a violation if the window is invalid.
  ciobase::MutableByteSpan RawWindow(Domain actor, RegionId id,
                                     uint64_t offset, uint64_t length);

  const std::vector<ViolationEvent>& violations() const { return violations_; }
  size_t ViolationCount(ViolationKind kind) const;
  void ClearViolations() { violations_.clear(); }

 private:
  struct Region {
    RegionKind kind;
    std::string name;
    ZeroPages data;
  };

  bool AllowPlaintext(Domain actor, RegionKind kind) const;
  bool AllowWrite(Domain actor, RegionKind kind) const;
  void RecordViolation(ViolationKind kind, Domain actor, uint32_t region,
                       uint64_t offset, uint64_t length, std::string note);
  // Deterministic "ciphertext" for a byte the actor may not see.
  uint8_t ScrambleByte(uint32_t region, uint64_t offset) const;

  std::vector<Region> regions_;
  std::vector<ViolationEvent> violations_;
};

}  // namespace ciotee

#endif  // SRC_TEE_MEMORY_H_
