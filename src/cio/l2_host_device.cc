#include "src/cio/l2_host_device.h"

namespace cio {

L2HostDevice::L2HostDevice(ciotee::SharedRegion* region,
                           const L2Config& config, cionet::Fabric* fabric,
                           std::string name,
                           std::optional<cionet::Ipv4Address> ip,
                           ciohost::Adversary* adversary,
                           ciohost::ObservabilityLog* observability,
                           ciobase::SimClock* clock)
    : region_(region),
      config_(config),
      layout_(config),
      fabric_(fabric),
      endpoint_(fabric->Attach(std::move(name), config.mac, ip)),
      adversary_(adversary),
      observability_(observability),
      clock_(clock) {}

bool L2HostDevice::Faulted(ciohost::FaultStrategy strategy) const {
  return adversary_ != nullptr &&
         adversary_->FaultActive(strategy, clock_->now_ns());
}

void L2HostDevice::Kick() {
  if (Faulted(ciohost::FaultStrategy::kSwallowDoorbell) ||
      Faulted(ciohost::FaultStrategy::kLinkKill)) {
    ++stats_.kicks_swallowed;
    return;
  }
  ++stats_.kicks;
  if (observability_ != nullptr) {
    observability_->Record(ciohost::ObsCategory::kDoorbell, clock_->now_ns());
  }
  Poll();
}

void L2HostDevice::Poll() {
  // A killed or stalled device touches nothing — not even the epoch cell —
  // so the guest's reset goes unanswered until the fault clears.
  if (Faulted(ciohost::FaultStrategy::kLinkKill) ||
      Faulted(ciohost::FaultStrategy::kStallCounters)) {
    return;
  }
  AdoptGuestEpoch();
  DrainTx();
  FillRx();
}

void L2HostDevice::AdoptGuestEpoch() {
  uint64_t guest_epoch = region_->HostReadLe64(layout_.GuestEpoch());
  if (guest_epoch == epoch_) {
    return;
  }
  // The guest reset the ring: forget everything, start from zero, and echo
  // the epoch so the guest (and tests) can observe the reattach.
  epoch_ = guest_epoch;
  tx_consumed_ = 0;
  rx_produced_ = 0;
  region_->HostWriteLe64(layout_.TxConsumed(), 0);
  region_->HostWriteLe64(layout_.RxProduced(), 0);
  region_->HostWriteLe64(layout_.HostEpoch(), epoch_);
  ++stats_.epoch_adoptions;
}

ciobase::Buffer L2HostDevice::ReadTxFrame(uint64_t index) {
  uint8_t header[kL2SlotHeaderSize];
  region_->HostRead(layout_.TxSlot(index), header);
  uint32_t len = ciobase::LoadLe32(header);
  len = std::min<uint32_t>(len, static_cast<uint32_t>(config_.slot_size));
  ciobase::Buffer frame(len);
  switch (config_.positioning) {
    case DataPositioning::kInline:
      region_->HostRead(layout_.TxSlot(index) + kL2SlotHeaderSize, frame);
      break;
    case DataPositioning::kSharedPool: {
      uint32_t offset = ciobase::LoadLe32(header + 4);
      region_->HostRead(layout_.tx_pool + offset, frame);
      break;
    }
    case DataPositioning::kIndirect: {
      uint32_t count = ciobase::LoadLe32(header);
      uint32_t table_offset = ciobase::LoadLe32(header + 4);
      count = std::min(count, kL2MaxIndirectEntries);
      frame.clear();
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t entry[kL2IndirectEntrySize];
        region_->HostRead(layout_.tx_indirect + table_offset + i * 8, entry);
        uint32_t part_offset = ciobase::LoadLe32(entry);
        uint32_t part_len = std::min<uint32_t>(
            ciobase::LoadLe32(entry + 4),
            static_cast<uint32_t>(config_.slot_size));
        size_t old = frame.size();
        frame.resize(old + part_len);
        region_->HostRead(layout_.tx_pool + part_offset,
                          ciobase::MutableByteSpan(frame.data() + old,
                                                   part_len));
      }
      break;
    }
  }
  return frame;
}

void L2HostDevice::DrainTx() {
  // Per-poll budget: TxProduced is guest-written but lives in shared memory,
  // so a fuzzed/hostile value (e.g. UINT64_MAX) must not spin this loop for
  // an unbounded number of iterations. One ring's worth per poll is all an
  // honest guest can ever have outstanding.
  for (uint64_t budget = 0; budget < layout_.slots; ++budget) {
    uint64_t produced = region_->HostReadLe64(layout_.TxProduced());
    if (tx_consumed_ >= produced) {
      break;
    }
    ciobase::Buffer frame = ReadTxFrame(tx_consumed_);
    if (adversary_ != nullptr) {
      adversary_->MaybeCorruptPayload(frame);
    }
    if (observability_ != nullptr) {
      observability_->Record(ciohost::ObsCategory::kPacketLength, frame.size());
      observability_->Record(ciohost::ObsCategory::kPacketTiming,
                             clock_->now_ns());
    }
    ++stats_.frames_tx;
    if (Faulted(ciohost::FaultStrategy::kDropFrames)) {
      ++stats_.frames_dropped_fault;  // consumed, never injected
    } else {
      (void)fabric_->Inject(endpoint_, frame);
      if (Faulted(ciohost::FaultStrategy::kDuplicateFrames)) {
        (void)fabric_->Inject(endpoint_, frame);
        ++stats_.frames_duplicated_fault;
      }
    }
    ++tx_consumed_;
    uint64_t published = tx_consumed_;
    if (Faulted(ciohost::FaultStrategy::kGarbageCounters)) {
      published = ~0ULL;
    }
    region_->HostWriteLe64(layout_.TxConsumed(), published);
  }
}

void L2HostDevice::WriteRxFrame(uint64_t index, ciobase::ByteSpan frame,
                                bool torn) {
  uint32_t len = static_cast<uint32_t>(frame.size());
  if (adversary_ != nullptr) {
    len = adversary_->MutateUsedLen(len, static_cast<uint32_t>(
                                             config_.SlotPayloadCapacity()));
  }
  // Torn write: the header claims the full length but only the first half
  // of the payload lands — the tail is whatever the slot held before. The
  // guest's clamp discipline keeps this safe; the TCP checksum catches it
  // and retransmission repairs it.
  if (torn) {
    frame = frame.first(frame.size() / 2);
  }
  uint8_t header[kL2SlotHeaderSize];
  switch (config_.positioning) {
    case DataPositioning::kInline:
      ciobase::StoreLe32(header, len);
      ciobase::StoreLe32(header + 4, 0);
      region_->HostWrite(layout_.RxSlot(index), header);
      region_->HostWrite(layout_.RxSlot(index) + kL2SlotHeaderSize, frame);
      break;
    case DataPositioning::kSharedPool: {
      uint64_t chunk = layout_.RxChunk(index);
      region_->HostWrite(chunk, frame);
      ciobase::StoreLe32(header, len);
      ciobase::StoreLe32(header + 4,
                         static_cast<uint32_t>(chunk - layout_.rx_pool));
      region_->HostWrite(layout_.RxSlot(index), header);
      break;
    }
    case DataPositioning::kIndirect: {
      uint64_t chunk = layout_.RxChunk(index);
      uint64_t table = layout_.RxIndirectTable(index);
      region_->HostWrite(chunk, frame);
      uint8_t entry[kL2IndirectEntrySize];
      ciobase::StoreLe32(entry, static_cast<uint32_t>(chunk - layout_.rx_pool));
      ciobase::StoreLe32(entry + 4, len);
      region_->HostWrite(table, entry);
      ciobase::StoreLe32(header, 1);
      ciobase::StoreLe32(header + 4,
                         static_cast<uint32_t>(table - layout_.rx_indirect));
      region_->HostWrite(layout_.RxSlot(index), header);
      break;
    }
  }
}

void L2HostDevice::FillRx() {
  for (;;) {
    uint64_t consumed = region_->HostReadLe64(layout_.RxConsumed());
    if (rx_produced_ - consumed >= layout_.slots) {
      // Ring full: leave frames queued in the fabric until space opens.
      break;
    }
    auto frame = fabric_->Poll(endpoint_);
    if (!frame.ok()) {
      break;
    }
    if (Faulted(ciohost::FaultStrategy::kDropFrames)) {
      ++stats_.frames_dropped_fault;
      continue;
    }
    if (adversary_ != nullptr) {
      adversary_->MaybeCorruptPayload(*frame);
    }
    if (observability_ != nullptr) {
      observability_->Record(ciohost::ObsCategory::kPacketLength,
                             frame->size());
      observability_->Record(ciohost::ObsCategory::kPacketTiming,
                             clock_->now_ns());
    }
    bool torn = Faulted(ciohost::FaultStrategy::kTornWrite);
    int copies = Faulted(ciohost::FaultStrategy::kDuplicateFrames) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      uint64_t consumed_now = region_->HostReadLe64(layout_.RxConsumed());
      if (rx_produced_ - consumed_now >= layout_.slots) {
        break;  // no space for the duplicate
      }
      if (c > 0) {
        ++stats_.frames_duplicated_fault;
      }
      WriteRxFrame(rx_produced_, *frame, torn);
      ++rx_produced_;
      uint64_t published = rx_produced_;
      if (Faulted(ciohost::FaultStrategy::kGarbageCounters)) {
        published = ~0ULL;
      } else if (adversary_ != nullptr) {
        published = adversary_->MutatePublishedCounter(rx_produced_);
      }
      region_->HostWriteLe64(layout_.RxProduced(), published);
      ++stats_.frames_rx;
    }
  }
}

}  // namespace cio
