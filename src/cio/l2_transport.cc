#include "src/cio/l2_transport.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/base/coverage.h"
#include "src/prof/profiler.h"

namespace cio {

// --- L2Config ----------------------------------------------------------------

std::string_view DataPositioningName(DataPositioning positioning) {
  switch (positioning) {
    case DataPositioning::kInline:
      return "inline";
    case DataPositioning::kSharedPool:
      return "shared-pool";
    case DataPositioning::kIndirect:
      return "indirect";
  }
  return "?";
}

ciobase::Buffer L2Config::Serialize() const {
  ciobase::Buffer out;
  ciobase::Append(out, mac.bytes);
  out.resize(out.size() + 10);
  uint8_t* p = out.data() + 6;
  ciobase::StoreLe16(p, mtu);
  ciobase::StoreLe16(p + 2, ring_slots);
  ciobase::StoreLe32(p + 4, slot_size);
  p[8] = static_cast<uint8_t>(positioning);
  p[9] = static_cast<uint8_t>(rx_ownership) |
         static_cast<uint8_t>(polling ? 0x80 : 0);
  return out;
}

ciotee::Measurement L2Config::Measure() const {
  return ciotee::Measure("cio-l2-transport-v1", Serialize());
}

bool L2Config::Valid() const {
  return ciobase::IsPowerOfTwo(ring_slots) && ciobase::IsPowerOfTwo(slot_size) &&
         slot_size > kL2SlotHeaderSize &&
         mtu + cionet::kEthernetHeaderSize <= SlotPayloadCapacity() &&
         mtu >= 68;
}

// --- L2Transport ---------------------------------------------------------------

namespace {
// Sealed-RX accounting: the bytes the guest must still inspect per frame
// before the AEAD layer takes over (slot header + enough payload prefix for
// the ethernet/IP/TCP headers the guest stack parses).
constexpr size_t kL2SealedSnapshotBytes = 64;
}  // namespace

L2Transport::L2Transport(ciotee::SharedRegion* region, const L2Config& config,
                         ciobase::CostModel* costs,
                         ciovirtio::KickTarget* kick,
                         const ciobase::RecoveryConfig& recovery,
                         std::function<void()> host_poll)
    : region_(region),
      config_(config),
      layout_(config),
      costs_(costs),
      kick_(kick),
      host_poll_(std::move(host_poll)),
      recovery_(recovery),
      watchdog_(recovery) {
  assert(config.Valid());
  assert(recovery.Valid());
  assert(region->size() >= layout_.total);
}

void L2Transport::WriteTxSlot(uint64_t index, ciobase::ByteSpan frame) {
  uint8_t header[kL2SlotHeaderSize];
  switch (config_.positioning) {
    case DataPositioning::kInline: {
      ciobase::StoreLe32(header, static_cast<uint32_t>(frame.size()));
      ciobase::StoreLe32(header + 4, 0);
      costs_->ChargeCopy(frame.size());
      region_->GuestWrite(layout_.TxSlot(index), header);
      region_->GuestWrite(layout_.TxSlot(index) + kL2SlotHeaderSize, frame);
      break;
    }
    case DataPositioning::kSharedPool: {
      uint64_t chunk = layout_.TxChunk(index);
      costs_->ChargeCopy(frame.size());
      region_->GuestWrite(chunk, frame);
      ciobase::StoreLe32(header, static_cast<uint32_t>(frame.size()));
      ciobase::StoreLe32(header + 4,
                         static_cast<uint32_t>(chunk - layout_.tx_pool));
      region_->GuestWrite(layout_.TxSlot(index), header);
      break;
    }
    case DataPositioning::kIndirect: {
      uint64_t chunk = layout_.TxChunk(index);
      uint64_t table = layout_.TxIndirectTable(index);
      costs_->ChargeCopy(frame.size());
      region_->GuestWrite(chunk, frame);
      uint8_t entry[kL2IndirectEntrySize];
      ciobase::StoreLe32(entry,
                         static_cast<uint32_t>(chunk - layout_.tx_pool));
      ciobase::StoreLe32(entry + 4, static_cast<uint32_t>(frame.size()));
      region_->GuestWrite(table, entry);
      ciobase::StoreLe32(header, 1);  // entry count
      ciobase::StoreLe32(header + 4,
                         static_cast<uint32_t>(table - layout_.tx_indirect));
      region_->GuestWrite(layout_.TxSlot(index), header);
      break;
    }
  }
}

ciobase::Result<size_t> L2Transport::SendFrames(
    std::span<const ciobase::ByteSpan> frames) {
  if (frames.empty()) {
    return size_t{0};
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l2.tx");
  // One advisory read of the host's consumed counter covers the whole batch —
  // and within a single simulated instant, all batches (the same-tick cache
  // below). Clamping it into [produced - slots, produced] keeps the
  // arithmetic total; a lying host can only cause overwrites of frames it
  // claimed to have consumed (loss of its own service, not of safety).
  uint64_t now_ns = costs_->clock()->now_ns();
  uint64_t consumed;
  if (tx_consumed_cache_ns_ == now_ns) {
    consumed = tx_consumed_cache_;
  } else {
    consumed = region_->GuestReadLe64(layout_.TxConsumed());
    tx_consumed_cache_ = consumed;
    tx_consumed_cache_ns_ = now_ns;
  }
  uint64_t in_flight = tx_produced_ - std::min(consumed, tx_produced_);
  size_t sent = 0;
  ciobase::Status reject = ciobase::OkStatus();
  for (ciobase::ByteSpan frame : frames) {
    if (frame.size() > config_.SlotPayloadCapacity() ||
        frame.size() > config_.mtu + cionet::kEthernetHeaderSize) {
      reject = ciobase::InvalidArgument("frame exceeds fixed capacity");
      break;
    }
    if (in_flight + sent >= layout_.slots) {
      ++stats_.tx_ring_full;
      reject = ciobase::ResourceExhausted("tx ring full");
      break;
    }
    WriteTxSlot(tx_produced_, frame);
    ++tx_produced_;
    ++stats_.frames_sent;
    ++sent;
  }
  if (sent > 0) {
    // Publish the produced counter once for the whole batch, and service
    // the host once for it (virtio-style event suppression in notify mode).
    region_->GuestWriteLe64(layout_.TxProduced(), tx_produced_);
    ServiceHost();
    // Work is now in flight: the watchdog starts (or keeps) counting until
    // the host visibly consumes it.
    watchdog_.Arm(now_ns);
  }
  if (sent == 0 && !reject.ok()) {
    return reject;
  }
  return sent;
}

void L2Transport::TakePayloadInto(uint64_t masked_offset, uint32_t len,
                                  ciobase::Buffer& out) {
  out.resize(len);
  if (config_.rx_ownership == ReceiveOwnership::kRevoke) {
    // Un-share the chunk's pages: after this, the host cannot touch the
    // bytes, so the read needs no copy discipline (and no copy charge).
    size_t page = costs_->constants().page_size;
    size_t pages = (len + page - 1) / page;
    if (pages == 0) {
      pages = 1;
    }
    costs_->ChargePageUnshare(pages);
    stats_.pages_revoked += pages;
    region_->GuestReadOwned(masked_offset, out);
    // Hand the pages back once the frame has been consumed (the buffer we
    // fill is private), so the host can recycle the chunk.
    costs_->ChargePageReshare(pages);
  } else {
    // Sealed mode: the copy out of shared memory is fused with the AEAD
    // pass above us — account only the header-prefix snapshot the stack
    // parses before the payload is authenticated.
    costs_->ChargeCopy(sealed_rx_ ? std::min<size_t>(len, kL2SealedSnapshotBytes)
                                  : len);
    region_->GuestRead(masked_offset, out);
  }
}

void L2Transport::ReceiveInlineInto(uint64_t index, ciobase::Buffer& out) {
  // ONE fetch of the whole slot: header and payload land in private memory
  // together; this read is simultaneously the validation source, the use
  // source, and the mandatory copy.
  ciobase::Buffer slot = arena_.Acquire(config_.slot_size);
  costs_->ChargeCopy(sealed_rx_ ? kL2SlotHeaderSize + kL2SealedSnapshotBytes
                                : config_.slot_size);
  region_->GuestRead(layout_.RxSlot(index), slot);
  uint32_t len = ciobase::LoadLe32(slot.data());
  uint32_t capacity = config_.SlotPayloadCapacity();
  if (len > capacity) {
    ++stats_.rx_clamped_len;
    CIO_COV("l2.rx.len_clamped", ciobase::StatusCode::kOutOfRange);
    len = capacity;
  }
  out.assign(slot.begin() + kL2SlotHeaderSize,
             slot.begin() + kL2SlotHeaderSize + len);
  arena_.Release(std::move(slot));
}

void L2Transport::ReceivePoolInto(uint64_t index, ciobase::Buffer& out) {
  uint8_t header[kL2SlotHeaderSize];
  region_->GuestRead(layout_.RxSlot(index), header);  // single fetch
  uint32_t len = ciobase::LoadLe32(header);
  uint32_t offset = ciobase::LoadLe32(header + 4);
  if (len > config_.slot_size) {
    ++stats_.rx_clamped_len;
    CIO_COV("l2.rx.len_clamped", ciobase::StatusCode::kOutOfRange);
    len = static_cast<uint32_t>(config_.slot_size);
  }
  // Masking, not checking: whatever `offset` says, the access lands inside
  // the RX pool at a chunk boundary.
  uint64_t masked = layout_.MaskRxPoolOffset(offset);
  TakePayloadInto(masked, len, out);
}

void L2Transport::ReceiveIndirectInto(uint64_t index, ciobase::Buffer& out) {
  uint8_t header[kL2SlotHeaderSize];
  region_->GuestRead(layout_.RxSlot(index), header);  // fetch 1: slot
  uint32_t count = ciobase::LoadLe32(header);
  uint32_t table_offset = ciobase::LoadLe32(header + 4);
  if (count > kL2MaxIndirectEntries) {
    count = kL2MaxIndirectEntries;
  }
  if (count == 0) {
    ++stats_.rx_dropped_empty;
    return;
  }
  uint64_t table = layout_.MaskRxIndirectOffset(table_offset);
  uint8_t entries[kL2MaxIndirectEntries * kL2IndirectEntrySize];
  ciobase::MutableByteSpan entry_span(entries, count * kL2IndirectEntrySize);
  region_->GuestRead(table, entry_span);  // fetch 2: whole table at once
  ciobase::Buffer part = arena_.Acquire(0);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t offset = ciobase::LoadLe32(entries + i * 8);
    uint32_t len = ciobase::LoadLe32(entries + i * 8 + 4);
    if (len > config_.slot_size) {
      ++stats_.rx_clamped_len;
      len = static_cast<uint32_t>(config_.slot_size);
    }
    uint64_t masked = layout_.MaskRxPoolOffset(offset);
    TakePayloadInto(masked, len, part);
    ciobase::Append(out, part);
    if (out.size() > config_.SlotPayloadCapacity()) {
      out.resize(config_.SlotPayloadCapacity());
      ++stats_.rx_clamped_len;
      break;
    }
  }
  arena_.Release(std::move(part));
}

void L2Transport::ReceiveSlotInto(uint64_t index, ciobase::Buffer& out) {
  out.clear();
  switch (config_.positioning) {
    case DataPositioning::kInline:
      ReceiveInlineInto(index, out);
      break;
    case DataPositioning::kSharedPool:
      ReceivePoolInto(index, out);
      break;
    case DataPositioning::kIndirect:
      ReceiveIndirectInto(index, out);
      break;
  }
}

ciobase::Result<size_t> L2Transport::ReceiveFrames(cionet::FrameBatch& batch,
                                                   size_t max_frames) {
  batch.Clear();
  if (max_frames == 0) {
    return size_t{0};
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l2.rx");
  uint64_t now_ns;
  uint64_t produced;
  uint64_t consumed;
  {
    CIO_PROF_SCOPE(costs_->profiler(), "l2.counters");
    costs_->ChargeRingPoll();
    now_ns = costs_->clock()->now_ns();
    produced = region_->GuestReadLe64(layout_.RxProduced());
    consumed = region_->GuestReadLe64(layout_.TxConsumed());
    tx_consumed_cache_ = consumed;
    tx_consumed_cache_ns_ = now_ns;
  }

  // Progress detection for the watchdog: the host visibly advanced if it
  // consumed TX frames (counter moved, coherently) since the last poll.
  bool progress = false;
  if (consumed != last_tx_consumed_ && consumed <= tx_produced_) {
    last_tx_consumed_ = consumed;
    progress = true;
  }

  // At most `slots` frames can genuinely be pending: a stormed counter is
  // incoherent, a rewound counter (pending > 2^63) doubly so.
  uint64_t pending = produced - rx_consumed_;
  bool rx_coherent = pending <= layout_.slots;
  if (pending != 0 && !rx_coherent) {
    ++stats_.rx_incoherent;
    CIO_COV("l2.rx.incoherent_counter", ciobase::StatusCode::kHostViolation);
    if (!recovery_.enabled) {
      // Seed behavior: clamp a stormed claim to the ring size and keep
      // draining (the garbage slots are dropped by validation); treat a
      // rewound counter as "nothing new".
      pending = pending > (1ULL << 63) ? 0 : layout_.slots;
    } else {
      // Recovery mode: an incoherent counter is a stall in disguise — do
      // not chase it; let the watchdog decide.
      pending = 0;
    }
  }

  uint64_t take = std::min<uint64_t>(pending, max_frames);
  for (uint64_t k = 0; k < take; ++k) {
    ciobase::Buffer& out = batch.Append();
    ReceiveSlotInto(rx_consumed_, out);
    ++rx_consumed_;
    if (out.empty()) {
      ++stats_.rx_dropped_empty;
      CIO_COV("l2.rx.dropped_empty", ciobase::StatusCode::kUnavailable);
      batch.DropLast();
    } else {
      ++stats_.frames_received;
      CIO_COV("l2.rx.frame", ciobase::StatusCode::kOk);
    }
  }
  if (take > 0) {
    // Publish the consumed counter once for the whole batch.
    region_->GuestWriteLe64(layout_.RxConsumed(), rx_consumed_);
    progress = true;
  }

  if (progress) {
    watchdog_.NoteProgress(now_ns);
  } else {
    bool work_pending = tx_produced_ > last_tx_consumed_ || !rx_coherent;
    if (work_pending) {
      watchdog_.Arm(now_ns);
    } else {
      watchdog_.Disarm();
    }
    if (watchdog_.Expired(now_ns)) {
      ++stats_.watchdog_fires;
      if (watchdog_.Exhausted()) {
        CIO_COV("l2.watchdog", ciobase::StatusCode::kTimedOut);
        return ciobase::TimedOut("l2 link: reset budget exhausted");
      }
      CIO_COV("l2.watchdog", ciobase::StatusCode::kLinkReset);
      CIO_RETURN_IF_ERROR(ResetRing());
      watchdog_.NoteReset(now_ns);
      return ciobase::LinkReset("l2 ring reset");
    }
  }
  return batch.size();
}

ciobase::Status L2Transport::ResetRing() {
  // Re-verify the fixed geometry before trusting any offset again. The
  // config is attested and immutable, so this can only fail if the region
  // itself shrank — a host violation, not a recoverable fault.
  if (!config_.Valid() || region_->size() < layout_.total) {
    return ciobase::HostViolation("l2 layout no longer fits the region");
  }
  ++epoch_;
  region_->GuestWriteLe64(layout_.GuestEpoch(), epoch_);
  // Fresh counters: both guest shadows and all four shared cells. The
  // host-owned cells live in shared memory, so the guest can zero them; an
  // honest host adopts the epoch and republishes from zero, a hostile one
  // just resumes lying — which the coherence checks absorb as before.
  tx_produced_ = 0;
  rx_consumed_ = 0;
  last_tx_consumed_ = 0;
  tx_consumed_cache_ = 0;
  tx_consumed_cache_ns_ = ~0ull;
  region_->GuestWriteLe64(layout_.TxProduced(), 0);
  region_->GuestWriteLe64(layout_.TxConsumed(), 0);
  region_->GuestWriteLe64(layout_.RxProduced(), 0);
  region_->GuestWriteLe64(layout_.RxConsumed(), 0);
  // Drain the RX ring: zero every slot header so a stale frame from the old
  // epoch can never be re-parsed as fresh (it reads as len 0 and drops).
  uint8_t zero_header[kL2SlotHeaderSize] = {};
  for (uint64_t i = 0; i < layout_.slots; ++i) {
    region_->GuestWrite(layout_.RxSlot(i), zero_header);
  }
  ++stats_.ring_resets;
  ServiceHost();
  return ciobase::OkStatus();
}

void L2Transport::ServiceHost() {
  if (config_.polling) {
    if (host_poll_) {
      host_poll_();
    }
  } else if (kick_ != nullptr) {
    costs_->ChargeNotify();
    kick_->Kick();
  }
}

std::vector<ciohost::SurfaceField> L2Transport::AttackSurface() const {
  using ciohost::FieldKind;
  using ciohost::SurfaceField;
  std::vector<SurfaceField> surface;
  surface.push_back({FieldKind::kIndex, layout_.RxProduced(), 8});
  surface.push_back({FieldKind::kIndex, layout_.TxConsumed(), 8});
  // First few RX slot headers: the length field, and the offset field where
  // the receive path reads one. An inline slot's second word is reserved:
  // its payload follows the header, so no offset is ever fetched.
  const bool reads_offset =
      config_.positioning != DataPositioning::kInline;
  for (uint64_t i = 0; i < std::min<uint64_t>(layout_.slots, 4); ++i) {
    surface.push_back({FieldKind::kLength, layout_.RxSlot(i), 4});
    if (reads_offset) {
      surface.push_back({FieldKind::kOffset, layout_.RxSlot(i) + 4, 4});
    }
  }
  // Payload bytes where this positioning's receive path reads them: the RX
  // slots themselves when frames ride inline, the RX pool otherwise.
  uint64_t payload = config_.positioning == DataPositioning::kInline
                         ? layout_.rx_ring
                         : layout_.rx_pool;
  surface.push_back(
      {FieldKind::kPayload, payload,
       static_cast<uint32_t>(std::min<uint64_t>(layout_.slots * layout_.slot_size,
                                                0xffffffffu))});
  return surface;
}

}  // namespace cio
