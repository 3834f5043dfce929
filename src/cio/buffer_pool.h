// BufferPool: the registered sealed-buffer pool behind the L5 async
// datapath (SQ/CQ, see src/cio/sqcq.h).
//
// The pool is a fixed array of equally sized slots carved out of ONE
// long-lived allocation in the I/O compartment's heap, registered once at
// channel construction (trusted-component-allocates, amortized over the
// channel's lifetime instead of paid per message). The guest copies sealed
// TLS records into free slots and references them from submission entries
// by index; the I/O stack transmits from them in place and fills them on
// receive. Slot indices are the only currency that crosses the
// boundary — never pointers — so nothing the I/O side (or the host behind
// it) says can direct an access outside the registered region.
//
// Free-list bookkeeping is app-private: the I/O side never allocates or
// frees slots, it only reads/writes the spans named by submitted entries.

#ifndef SRC_CIO_BUFFER_POOL_H_
#define SRC_CIO_BUFFER_POOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/bytes.h"

namespace cio {

class BufferPool {
 public:
  BufferPool() = default;

  // `region` must hold at least `slots * slot_size` bytes; the pool indexes
  // into it and never reallocates.
  void Init(ciobase::MutableByteSpan region, uint32_t slots,
            uint32_t slot_size);

  bool ready() const { return slot_size_ != 0; }
  uint32_t slots() const { return slots_; }
  uint32_t slot_size() const { return slot_size_; }
  size_t free_slots() const { return free_.size(); }

  // Returns a free slot index, or nullopt when the pool is exhausted
  // (backpressure: the caller keeps its bytes and retries after reaping).
  std::optional<uint16_t> Acquire();
  void Release(uint16_t slot);

  // The slot's backing bytes. Indices are masked into range, so even a
  // corrupted index can only alias another slot, never escape the region.
  ciobase::MutableByteSpan SlotSpan(uint16_t slot);

 private:
  ciobase::MutableByteSpan region_;
  uint32_t slots_ = 0;
  uint32_t slot_size_ = 0;
  std::vector<uint16_t> free_;        // LIFO free list
  std::vector<uint8_t> acquired_;     // double-free guard
};

}  // namespace cio

#endif  // SRC_CIO_BUFFER_POOL_H_
