// Shared-memory geometry of the hardened L2 transport.
//
// Everything is sized and aligned at powers of two so that every index and
// offset derived from host-written values can be made safe by masking alone
// (§3.2 "safe ring buffer & shared data area"). The layout is a pure
// function of L2Config — both sides compute it independently; nothing about
// it is ever communicated at runtime.
//
//   region:
//     [counters]        4 cache-line-separated monotonic u64 counters
//     [tx ring]         ring_slots * slot_size
//     [rx ring]         ring_slots * slot_size
//     [tx pool]         ring_slots * slot_size   (shared-pool, indirect)
//     [rx pool]         ring_slots * slot_size   (shared-pool, indirect)
//     [tx indirect]     ring_slots * 64          (indirect only)
//     [rx indirect]     ring_slots * 64          (indirect only)
//
// An area the positioning never reads is not laid out: it is empty, and its
// offset is the end of the last area present (for an inline ring, every pool
// and table offset equals `total`). Each area that is present sits at the
// same offset in every mode that has it.
//
// Slot headers (8 bytes):
//   inline:    [len u32][reserved u32][payload ...]
//   pool:      [len u32][pool offset u32]
//   indirect:  [entry count u32][table offset u32]
// Indirect table entries: [pool offset u32][len u32], up to 4 per slot.
//
// Pool chunks are statically bound to slots (chunk i <-> slot i): there is
// no shared allocator, no free list, and therefore no temporal state to
// attack — the "stateless interface" principle applied to buffer
// management.

#ifndef SRC_CIO_L2_LAYOUT_H_
#define SRC_CIO_L2_LAYOUT_H_

#include "src/base/bits.h"
#include "src/cio/l2_config.h"

namespace cio {

inline constexpr uint64_t kL2SlotHeaderSize = 8;
inline constexpr uint64_t kL2IndirectEntrySize = 8;
inline constexpr uint32_t kL2MaxIndirectEntries = 4;
inline constexpr uint64_t kL2IndirectTableStride = 64;

struct L2Layout {
  explicit L2Layout(const L2Config& config)
      : slots(config.ring_slots), slot_size(config.slot_size) {
    uint64_t ring_bytes = slots * slot_size;
    uint64_t pool_bytes =
        config.positioning == DataPositioning::kInline ? 0 : ring_bytes;
    uint64_t table_bytes = config.positioning == DataPositioning::kIndirect
                               ? slots * kL2IndirectTableStride
                               : 0;
    tx_ring = 256;  // counters occupy [0, 256)
    rx_ring = tx_ring + ring_bytes;
    tx_pool = rx_ring + ring_bytes;
    rx_pool = tx_pool + pool_bytes;
    tx_indirect = rx_pool + pool_bytes;
    rx_indirect = tx_indirect + table_bytes;
    total = rx_indirect + table_bytes;
  }

  // Counter cells (separated to avoid any pretense of shared cache lines).
  uint64_t TxProduced() const { return 0; }
  uint64_t TxConsumed() const { return 64; }
  uint64_t RxProduced() const { return 128; }
  uint64_t RxConsumed() const { return 192; }
  // Reset epochs (recovery protocol): the guest bumps GuestEpoch when it
  // resets the ring; an honest host adopts the new epoch, zeroes its own
  // shadows, and echoes it into HostEpoch. Both live in the counter block's
  // tail — like the counters they are monotonic u64s, never trusted, only
  // compared.
  uint64_t GuestEpoch() const { return 200; }
  uint64_t HostEpoch() const { return 208; }

  uint64_t TxSlot(uint64_t index) const {
    return tx_ring + ciobase::MaskIndex(index, slots) * slot_size;
  }
  uint64_t RxSlot(uint64_t index) const {
    return rx_ring + ciobase::MaskIndex(index, slots) * slot_size;
  }
  // Pool chunk statically paired with a slot index. The pool and table
  // helpers below address areas a positioning may not lay out; only the
  // receive and transmit paths of a mode that has the area call them.
  uint64_t TxChunk(uint64_t index) const {
    return tx_pool + ciobase::MaskIndex(index, slots) * slot_size;
  }
  uint64_t RxChunk(uint64_t index) const {
    return rx_pool + ciobase::MaskIndex(index, slots) * slot_size;
  }
  // Masks an untrusted pool offset into a valid chunk-aligned offset.
  uint64_t MaskRxPoolOffset(uint64_t untrusted) const {
    return rx_pool +
           ciobase::MaskOffset(untrusted, slots * slot_size, slot_size);
  }
  uint64_t TxIndirectTable(uint64_t index) const {
    return tx_indirect +
           ciobase::MaskIndex(index, slots) * kL2IndirectTableStride;
  }
  uint64_t RxIndirectTable(uint64_t index) const {
    return rx_indirect +
           ciobase::MaskIndex(index, slots) * kL2IndirectTableStride;
  }
  uint64_t MaskRxIndirectOffset(uint64_t untrusted) const {
    return rx_indirect + ciobase::MaskOffset(
                             untrusted, slots * kL2IndirectTableStride,
                             kL2IndirectTableStride);
  }

  uint64_t slots;
  uint64_t slot_size;
  uint64_t tx_ring;
  uint64_t rx_ring;
  uint64_t tx_pool;
  uint64_t rx_pool;
  uint64_t tx_indirect;
  uint64_t rx_indirect;
  uint64_t total;
};

}  // namespace cio

#endif  // SRC_CIO_L2_LAYOUT_H_
