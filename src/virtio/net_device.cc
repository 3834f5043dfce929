#include "src/virtio/net_device.h"

#include "src/base/bits.h"

namespace ciovirtio {

VirtioNetLayout VirtioNetLayout::Make(uint16_t queue_size,
                                      size_t pool_slot_size,
                                      size_t pool_slot_count) {
  VirtioNetLayout layout;
  layout.config.base = 0;
  layout.tx.base = ConfigLayout::kSize;
  layout.tx.queue_size = queue_size;
  layout.rx.base = ciobase::AlignUp(layout.tx.base + layout.tx.TotalSize(), 64);
  layout.rx.queue_size = queue_size;
  layout.pool_offset =
      ciobase::AlignUp(layout.rx.base + layout.rx.TotalSize(), 4096);
  layout.pool_slot_size = pool_slot_size;
  layout.pool_slot_count = pool_slot_count;
  return layout;
}

VirtioNetDevice::VirtioNetDevice(ciotee::SharedRegion* region,
                                 VirtioNetLayout layout,
                                 cionet::Fabric* fabric, std::string name,
                                 std::optional<cionet::Ipv4Address> ip,
                                 cionet::MacAddress mac, uint16_t mtu,
                                 uint64_t offered_features,
                                 ciohost::Adversary* adversary,
                                 ciohost::ObservabilityLog* observability,
                                 ciobase::SimClock* clock)
    : region_(region),
      layout_(layout),
      tx_(region, layout.tx, adversary),
      rx_(region, layout.rx, adversary),
      fabric_(fabric),
      endpoint_(fabric->Attach(std::move(name), mac, ip)),
      mac_(mac),
      offered_features_(offered_features),
      adversary_(adversary),
      observability_(observability),
      clock_(clock) {
  DeviceInitConfig(region, layout.config, offered_features, mac, mtu);
}

bool VirtioNetDevice::Faulted(ciohost::FaultStrategy strategy) const {
  return adversary_ != nullptr &&
         adversary_->FaultActive(strategy, clock_->now_ns());
}

void VirtioNetDevice::Kick() {
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

void VirtioNetDevice::Poll() {
  // A killed or stalled device touches nothing — not even the reset epoch —
  // so a guest-side reattach goes unanswered until the fault clears.
  if (Faulted(ciohost::FaultStrategy::kLinkKill) ||
      Faulted(ciohost::FaultStrategy::kStallCounters)) {
    return;
  }
  AdoptGuestEpoch();
  DeviceProcessStatus(region_, layout_.config, offered_features_);
  DrainTx();
  FillRx();
  if (Faulted(ciohost::FaultStrategy::kGarbageCounters)) {
    // Publish absurd used indices on both rings; the cells are rewritten
    // honestly (from the device shadows) once the fault window closes.
    region_->HostWriteLe16(layout_.tx.UsedIdx(), 0xffff);
    region_->HostWriteLe16(layout_.rx.UsedIdx(), 0xffff);
  }
}

void VirtioNetDevice::AdoptGuestEpoch() {
  uint64_t guest_epoch =
      region_->HostReadLe64(layout_.config.ResetEpochOffset());
  if (guest_epoch == epoch_) {
    return;
  }
  // The guest reset and is renegotiating: forget both rings' shadows and
  // echo the epoch so the reattach is observable.
  epoch_ = guest_epoch;
  tx_.Reset();
  rx_.Reset();
  region_->HostWriteLe64(layout_.config.DeviceEpochOffset(), epoch_);
  ++stats_.epoch_adoptions;
}

void VirtioNetDevice::DrainTx() {
  // Per-poll work budget: an honest driver never has more than queue_size
  // submissions outstanding, so the cap only bites when the avail index was
  // forged (a hostile or fuzzed guest-side counter must not be able to spin
  // the device model for an unbounded number of iterations in one poll).
  for (uint16_t budget = 0; budget < layout_.tx.queue_size; ++budget) {
    std::optional<uint16_t> head = tx_.PopAvail();
    if (!head.has_value()) {
      break;
    }
    std::vector<VirtqDesc> chain = tx_.ReadChain(*head);
    ciobase::Buffer frame;
    for (const VirtqDesc& desc : chain) {
      if ((desc.flags & kDescFlagWrite) != 0) {
        continue;  // device-writable descriptors carry no TX payload
      }
      // Bound the per-descriptor DMA by the pool slot geometry: an honest
      // driver never posts a descriptor longer than one pool slot, so the
      // clamp only bites forged lengths — which must not buy a multi-GB
      // host-side allocation and copy.
      uint32_t len = std::min<uint32_t>(
          desc.len, static_cast<uint32_t>(layout_.pool_slot_size));
      size_t old_size = frame.size();
      frame.resize(old_size + len);
      region_->HostRead(desc.addr, ciobase::MutableByteSpan(
                                       frame.data() + old_size, len));
    }
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
      ++stats_.frames_dropped_fault;  // completion claimed, frame gone
    } else {
      (void)fabric_->Inject(endpoint_, frame);
      if (Faulted(ciohost::FaultStrategy::kDuplicateFrames)) {
        (void)fabric_->Inject(endpoint_, frame);
        ++stats_.frames_duplicated_fault;
      }
    }
    tx_.PushUsed(*head, static_cast<uint32_t>(frame.size()),
                 static_cast<uint32_t>(frame.size()));
  }
}

void VirtioNetDevice::FillRx() {
  for (;;) {
    auto frame = fabric_->Poll(endpoint_);
    if (!frame.ok()) {
      break;
    }
    if (Faulted(ciohost::FaultStrategy::kDropFrames)) {
      ++stats_.frames_dropped_fault;
      continue;
    }
    int copies = Faulted(ciohost::FaultStrategy::kDuplicateFrames) ? 2 : 1;
    bool torn = Faulted(ciohost::FaultStrategy::kTornWrite);
    for (int c = 0; c < copies; ++c) {
      std::optional<uint16_t> head = rx_.PopAvail();
      if (!head.has_value()) {
        ++stats_.rx_dropped_no_buffer;
        break;
      }
      if (c > 0) {
        ++stats_.frames_duplicated_fault;
      }
      VirtqDesc desc = rx_.ReadDesc(*head);
      if (adversary_ != nullptr) {
        adversary_->MaybeCorruptPayload(*frame);
      }
      uint32_t n = std::min<uint32_t>(static_cast<uint32_t>(frame->size()),
                                      desc.len);
      // Torn write: claim `n` bytes but land only the first half; the tail
      // is stale pool memory. TCP's checksum catches it downstream.
      uint32_t written = torn ? n / 2 : n;
      region_->HostWrite(desc.addr, ciobase::ByteSpan(frame->data(), written));
      if (observability_ != nullptr) {
        observability_->Record(ciohost::ObsCategory::kPacketLength,
                               frame->size());
        observability_->Record(ciohost::ObsCategory::kPacketTiming,
                               clock_->now_ns());
      }
      ++stats_.frames_rx;
      rx_.PushUsed(*head, n, desc.len);
    }
  }
}

}  // namespace ciovirtio
