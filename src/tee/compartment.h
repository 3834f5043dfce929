// Intra-TEE compartments: the lightweight L5 isolation boundary of §3.1.
//
// The paper's dual-boundary design places the I/O stack in its own
// compartment inside the TEE, isolated from the confidential application by
// a low-latency memory-isolation mechanism (MPK-style [25, 51, 52]) rather
// than a second enclave. We model a compartment as a named heap arena with
// ownership-tagged, generation-counted allocations. Cross-compartment access
// is subject to explicit grants; denied or stale (use-after-free) accesses
// are recorded and fail, which is the ground truth used by the attack
// campaign for "the compromised I/O stack tried to read application memory".

#ifndef SRC_TEE_COMPARTMENT_H_
#define SRC_TEE_COMPARTMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/tee/zero_pages.h"

namespace ciotee {

// Allocate rounds every request up to a multiple of this.
inline constexpr size_t kCompartmentAllocAlign = 16;

struct CompartmentId {
  uint32_t value = 0;
  bool operator==(const CompartmentId&) const = default;
};

// Handle to an allocation inside some compartment's arena. Generation
// counters make stale handles detectable (temporal interface safety [34]).
struct BufferHandle {
  CompartmentId owner;
  uint32_t slot = 0;
  uint32_t generation = 0;
  uint64_t size = 0;
};

class CompartmentManager {
 public:
  explicit CompartmentManager(ciobase::CostModel* costs) : costs_(costs) {}

  CompartmentManager(const CompartmentManager&) = delete;
  CompartmentManager& operator=(const CompartmentManager&) = delete;

  CompartmentId Create(std::string name, size_t heap_bytes);

  const std::string& Name(CompartmentId id) const;

  // Allows `accessor` to touch buffers owned by `owner` (directed grant).
  void GrantAccess(CompartmentId accessor, CompartmentId owner);

  // Allocates in `owner`'s arena. `requester` must be the owner or hold a
  // grant — this is how the paper's "trusted component allocates" policy is
  // expressed: the app (trusted by the I/O stack) allocates directly in the
  // I/O compartment, so no pointer from the stack ever needs verification.
  ciobase::Result<BufferHandle> Allocate(CompartmentId requester,
                                         CompartmentId owner, size_t bytes);
  ciobase::Status Free(CompartmentId requester, BufferHandle handle);

  // Maps a handle for access by `accessor`. Fails (and records a violation)
  // if the accessor lacks a grant, or the handle is stale or malformed.
  ciobase::Result<ciobase::MutableByteSpan> Access(CompartmentId accessor,
                                                   BufferHandle handle);

  // Revokes the owning compartment's access to an allocation and assigns it
  // to `new_owner` (the L5 analog of page un-sharing, §3.2): after the
  // transfer the previous owner's accesses fail like any other ungranted
  // access, so the new owner can parse the bytes in place without a copy.
  ciobase::Status Transfer(CompartmentId requester, BufferHandle handle,
                           CompartmentId new_owner);

  // Domain switch: charges the modeled intra-TEE switch cost.
  void SwitchTo(CompartmentId id);
  CompartmentId current() const { return current_; }
  uint64_t switch_count() const { return switch_count_; }

  struct AccessViolation {
    CompartmentId accessor;
    CompartmentId owner;
    std::string reason;
  };
  const std::vector<AccessViolation>& violations() const {
    return violations_;
  }
  void ClearViolations() { violations_.clear(); }

 private:
  struct Allocation {
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t generation = 0;
    bool live = false;
    // Which compartment's grants govern access; normally the heap's own
    // compartment, changed by Transfer().
    uint32_t access_owner = 0;
  };
  struct Compartment {
    std::string name;
    ZeroPages heap;
    // Bump allocator with whole-heap reclamation: I/O boundary buffers are
    // transient (allocate, cross, free), so the bump pointer rewinds to 0
    // whenever no allocation is live. Slot records are recycled via
    // free_slots but keep their generation counters (stale-handle checks).
    uint64_t bump = 0;
    size_t live_allocations = 0;
    std::vector<Allocation> slots;
    std::vector<uint32_t> free_slots;
  };

  bool HasGrant(CompartmentId accessor, CompartmentId owner) const;

  ciobase::CostModel* costs_;
  std::vector<Compartment> compartments_;
  std::vector<std::pair<uint32_t, uint32_t>> grants_;  // (accessor, owner)
  std::vector<AccessViolation> violations_;
  CompartmentId current_{0};
  uint64_t switch_count_ = 0;
};

}  // namespace ciotee

#endif  // SRC_TEE_COMPARTMENT_H_
