#include "src/tee/compartment.h"

#include <cassert>

#include "src/base/bits.h"

namespace ciotee {

CompartmentId CompartmentManager::Create(std::string name, size_t heap_bytes) {
  Compartment c;
  c.name = std::move(name);
  c.heap = ZeroPages(heap_bytes);
  compartments_.push_back(std::move(c));
  return CompartmentId{static_cast<uint32_t>(compartments_.size() - 1)};
}

const std::string& CompartmentManager::Name(CompartmentId id) const {
  assert(id.value < compartments_.size());
  return compartments_[id.value].name;
}

void CompartmentManager::GrantAccess(CompartmentId accessor,
                                     CompartmentId owner) {
  grants_.emplace_back(accessor.value, owner.value);
}

bool CompartmentManager::HasGrant(CompartmentId accessor,
                                  CompartmentId owner) const {
  if (accessor == owner) {
    return true;
  }
  for (const auto& [a, o] : grants_) {
    if (a == accessor.value && o == owner.value) {
      return true;
    }
  }
  return false;
}

ciobase::Result<BufferHandle> CompartmentManager::Allocate(
    CompartmentId requester, CompartmentId owner, size_t bytes) {
  if (owner.value >= compartments_.size()) {
    return ciobase::InvalidArgument("bad compartment id");
  }
  if (!HasGrant(requester, owner)) {
    violations_.push_back({requester, owner, "allocate without grant"});
    return ciobase::PermissionDenied("allocate without grant");
  }
  Compartment& c = compartments_[owner.value];
  // The unrounded size is compared first: rounding SIZE_MAX - 7 up to a
  // multiple of 16 wraps to 0.
  const uint64_t room = c.heap.size() - c.bump;
  if (bytes > room) {
    return ciobase::ResourceExhausted("compartment heap exhausted: " + c.name);
  }
  const uint64_t aligned =
      ciobase::AlignUp(bytes == 0 ? 1 : bytes, kCompartmentAllocAlign);
  if (aligned > room) {
    return ciobase::ResourceExhausted("compartment heap exhausted: " + c.name);
  }
  uint32_t slot;
  if (!c.free_slots.empty()) {
    slot = c.free_slots.back();
    c.free_slots.pop_back();
  } else {
    slot = static_cast<uint32_t>(c.slots.size());
    c.slots.push_back({});
  }
  Allocation& alloc = c.slots[slot];
  alloc.offset = c.bump;
  alloc.size = bytes;
  alloc.live = true;
  alloc.access_owner = owner.value;
  ++alloc.generation;
  c.bump += aligned;
  ++c.live_allocations;
  return BufferHandle{owner, slot, alloc.generation, bytes};
}

ciobase::Status CompartmentManager::Free(CompartmentId requester,
                                         BufferHandle handle) {
  if (handle.owner.value >= compartments_.size()) {
    return ciobase::InvalidArgument("bad compartment id");
  }
  if (!HasGrant(requester, handle.owner)) {
    violations_.push_back({requester, handle.owner, "free without grant"});
    return ciobase::PermissionDenied("free without grant");
  }
  Compartment& c = compartments_[handle.owner.value];
  if (handle.slot >= c.slots.size() ||
      c.slots[handle.slot].generation != handle.generation ||
      !c.slots[handle.slot].live) {
    violations_.push_back({requester, handle.owner, "stale free"});
    return ciobase::FailedPrecondition("stale or double free");
  }
  c.slots[handle.slot].live = false;
  c.free_slots.push_back(handle.slot);
  if (--c.live_allocations == 0) {
    c.bump = 0;  // heap is empty: rewind (see Compartment comment)
  }
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::MutableByteSpan> CompartmentManager::Access(
    CompartmentId accessor, BufferHandle handle) {
  if (handle.owner.value >= compartments_.size()) {
    return ciobase::InvalidArgument("bad compartment id");
  }
  Compartment& c = compartments_[handle.owner.value];
  if (handle.slot >= c.slots.size()) {
    violations_.push_back({accessor, handle.owner, "forged handle slot"});
    return ciobase::InvalidArgument("forged handle");
  }
  Allocation& alloc = c.slots[handle.slot];
  if (!alloc.live || alloc.generation != handle.generation) {
    violations_.push_back({accessor, handle.owner, "stale handle (UAF)"});
    return ciobase::FailedPrecondition("stale handle");
  }
  // Access is governed by the *current* owner — the heap compartment
  // normally, someone else after a Transfer (L5 revocation).
  CompartmentId owner{alloc.access_owner};
  if (!HasGrant(accessor, owner)) {
    violations_.push_back(
        {accessor, owner, "access without grant (isolation held)"});
    return ciobase::PermissionDenied("no grant from " +
                                     compartments_[owner.value].name);
  }
  if (handle.size > alloc.size) {
    violations_.push_back({accessor, owner, "handle size forgery"});
    return ciobase::OutOfRange("handle larger than allocation");
  }
  return ciobase::MutableByteSpan(c.heap.data() + alloc.offset, alloc.size);
}

ciobase::Status CompartmentManager::Transfer(CompartmentId requester,
                                             BufferHandle handle,
                                             CompartmentId new_owner) {
  if (handle.owner.value >= compartments_.size() ||
      new_owner.value >= compartments_.size()) {
    return ciobase::InvalidArgument("bad compartment id");
  }
  Compartment& c = compartments_[handle.owner.value];
  if (handle.slot >= c.slots.size()) {
    return ciobase::InvalidArgument("forged handle");
  }
  Allocation& alloc = c.slots[handle.slot];
  if (!alloc.live || alloc.generation != handle.generation) {
    return ciobase::FailedPrecondition("stale handle");
  }
  if (!HasGrant(requester, CompartmentId{alloc.access_owner})) {
    violations_.push_back({requester, CompartmentId{alloc.access_owner},
                           "transfer without grant"});
    return ciobase::PermissionDenied("transfer without grant");
  }
  alloc.access_owner = new_owner.value;
  return ciobase::OkStatus();
}

void CompartmentManager::SwitchTo(CompartmentId id) {
  assert(id.value < compartments_.size());
  if (id == current_) {
    return;
  }
  current_ = id;
  ++switch_count_;
  costs_->ChargeCompartmentSwitch();
}

}  // namespace ciotee
