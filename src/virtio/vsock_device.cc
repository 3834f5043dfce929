#include "src/virtio/vsock_device.h"

#include <algorithm>

#include "src/base/bits.h"
#include "src/base/bytes.h"

namespace ciovirtio {

void EncodeVsockHeader(const VsockPacketHeader& header, uint8_t* out) {
  ciobase::StoreLe64(out, header.src_cid);
  ciobase::StoreLe64(out + 8, header.dst_cid);
  ciobase::StoreLe32(out + 16, header.src_port);
  ciobase::StoreLe32(out + 20, header.dst_port);
  ciobase::StoreLe32(out + 24, header.len);
  ciobase::StoreLe16(out + 28, header.op);
  ciobase::StoreLe16(out + 30, header.flags);
  ciobase::StoreLe32(out + 32, header.buf_alloc);
  ciobase::StoreLe32(out + 36, header.fwd_cnt);
}

VsockPacketHeader DecodeVsockHeader(const uint8_t* in) {
  VsockPacketHeader header;
  header.src_cid = ciobase::LoadLe64(in);
  header.dst_cid = ciobase::LoadLe64(in + 8);
  header.src_port = ciobase::LoadLe32(in + 16);
  header.dst_port = ciobase::LoadLe32(in + 20);
  header.len = ciobase::LoadLe32(in + 24);
  header.op = ciobase::LoadLe16(in + 28);
  header.flags = ciobase::LoadLe16(in + 30);
  header.buf_alloc = ciobase::LoadLe32(in + 32);
  header.fwd_cnt = ciobase::LoadLe32(in + 36);
  return header;
}

VsockLayout VsockLayout::Make(uint16_t queue_size, size_t pool_slot_size,
                              size_t pool_slot_count) {
  VsockLayout layout;
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

VirtioVsockDevice::VirtioVsockDevice(ciotee::SharedRegion* region,
                                     VsockLayout layout, uint64_t guest_cid,
                                     ciohost::Adversary* adversary,
                                     ciohost::ObservabilityLog* observability,
                                     ciobase::SimClock* clock)
    : region_(region),
      layout_(layout),
      tx_(region, layout.tx, adversary),
      rx_(region, layout.rx, adversary),
      guest_cid_(guest_cid),
      adversary_(adversary),
      observability_(observability),
      clock_(clock) {
  // Config block: status + features via the shared helper, then the guest
  // CID over the MAC/MTU bytes (vsock has neither).
  DeviceInitConfig(region, layout.config, kFeatureVersion1,
                   cionet::MacAddress{}, 0);
  region->HostWriteLe64(layout.GuestCidOffset(), guest_cid);
}

bool VirtioVsockDevice::Faulted(ciohost::FaultStrategy strategy) const {
  return adversary_ != nullptr &&
         adversary_->FaultActive(strategy, clock_->now_ns());
}

void VirtioVsockDevice::Kick() {
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

void VirtioVsockDevice::Poll() {
  if (Faulted(ciohost::FaultStrategy::kLinkKill) ||
      Faulted(ciohost::FaultStrategy::kStallCounters)) {
    return;
  }
  AdoptGuestEpoch();
  DeviceProcessStatus(region_, layout_.config, kFeatureVersion1);
  DrainTx();
  if (Faulted(ciohost::FaultStrategy::kGarbageCounters)) {
    region_->HostWriteLe16(layout_.tx.UsedIdx(), 0xffff);
    region_->HostWriteLe16(layout_.rx.UsedIdx(), 0xffff);
  }
}

void VirtioVsockDevice::AdoptGuestEpoch() {
  uint64_t guest_epoch =
      region_->HostReadLe64(layout_.config.ResetEpochOffset());
  if (guest_epoch == epoch_) {
    return;
  }
  epoch_ = guest_epoch;
  tx_.Reset();
  rx_.Reset();
  host_fwd_cnt_ = 0;
  host_tx_cnt_ = 0;
  region_->HostWriteLe64(layout_.config.DeviceEpochOffset(), epoch_);
  ++stats_.epoch_adoptions;
}

void VirtioVsockDevice::DrainTx() {
  // Per-poll budget: bounds the damage of a forged avail index (an honest
  // driver never exceeds queue_size outstanding submissions).
  for (uint16_t budget = 0; budget < layout_.tx.queue_size; ++budget) {
    std::optional<uint16_t> head = tx_.PopAvail();
    if (!head.has_value()) {
      break;
    }
    std::vector<VirtqDesc> chain = tx_.ReadChain(*head);
    ciobase::Buffer packet;
    for (const VirtqDesc& desc : chain) {
      if ((desc.flags & kDescFlagWrite) != 0) {
        continue;
      }
      // Same per-descriptor DMA bound as VirtioNetDevice::DrainTx: honest
      // drivers never exceed one pool slot, so the clamp only defuses
      // forged lengths.
      uint32_t len = std::min<uint32_t>(
          desc.len, static_cast<uint32_t>(layout_.pool_slot_size));
      size_t old_size = packet.size();
      packet.resize(old_size + len);
      region_->HostRead(desc.addr, ciobase::MutableByteSpan(
                                       packet.data() + old_size, len));
    }
    uint32_t consumed = static_cast<uint32_t>(packet.size());
    if (packet.size() < kVsockHeaderSize) {
      ++stats_.malformed_from_guest;
      tx_.PushUsed(*head, consumed, consumed);
      continue;
    }
    ++stats_.packets_rx;
    VsockPacketHeader header = DecodeVsockHeader(packet.data());
    uint32_t payload_len = std::min<uint32_t>(
        header.len,
        static_cast<uint32_t>(packet.size() - kVsockHeaderSize));
    ciobase::ByteSpan payload(packet.data() + kVsockHeaderSize, payload_len);
    if (observability_ != nullptr) {
      observability_->Record(ciohost::ObsCategory::kPacketLength,
                             packet.size());
    }

    // Reply with src/dst swapped; credit fields describe the host side.
    VsockPacketHeader reply;
    reply.src_cid = header.dst_cid;
    reply.dst_cid = header.src_cid;
    reply.src_port = header.dst_port;
    reply.dst_port = header.src_port;
    switch (header.op) {
      case kVsockOpRequest:
        ++stats_.connects;
        reply.op = kVsockOpResponse;
        SendToGuest(reply, {});
        break;
      case kVsockOpRw: {
        host_fwd_cnt_ += payload_len;
        ciobase::Buffer echoed(payload.begin(), payload.end());
        if (adversary_ != nullptr) {
          adversary_->MaybeCorruptPayload(echoed);
        }
        reply.op = kVsockOpRw;
        reply.len = static_cast<uint32_t>(echoed.size());
        host_tx_cnt_ += reply.len;
        stats_.bytes_echoed += reply.len;
        if (Faulted(ciohost::FaultStrategy::kDropFrames)) {
          ++stats_.packets_dropped_fault;
        } else {
          SendToGuest(reply, echoed);
          if (Faulted(ciohost::FaultStrategy::kDuplicateFrames)) {
            ++stats_.packets_duplicated_fault;
            SendToGuest(reply, echoed);
          }
        }
        break;
      }
      case kVsockOpCreditRequest:
        reply.op = kVsockOpCreditUpdate;
        SendToGuest(reply, {});
        break;
      case kVsockOpShutdown:
        reply.op = kVsockOpRst;
        SendToGuest(reply, {});
        break;
      case kVsockOpCreditUpdate:
        break;  // accounting only, no reply
      default:
        ++stats_.malformed_from_guest;
        break;
    }
    tx_.PushUsed(*head, consumed, consumed);
  }
}

void VirtioVsockDevice::SendToGuest(const VsockPacketHeader& header_in,
                                    ciobase::ByteSpan payload) {
  std::optional<uint16_t> head = rx_.PopAvail();
  if (!head.has_value()) {
    ++stats_.tx_dropped_no_buffer;
    return;
  }
  VirtqDesc desc = rx_.ReadDesc(*head);
  VsockPacketHeader header = header_in;
  // Every host->guest packet carries the host's current credit state.
  header.buf_alloc = 1 << 20;
  header.fwd_cnt = host_fwd_cnt_;
  uint8_t raw[kVsockHeaderSize];
  EncodeVsockHeader(header, raw);
  uint32_t n = std::min<uint32_t>(
      desc.len, static_cast<uint32_t>(kVsockHeaderSize + payload.size()));
  bool torn = Faulted(ciohost::FaultStrategy::kTornWrite);
  uint32_t header_bytes = std::min<uint32_t>(n, kVsockHeaderSize);
  region_->HostWrite(desc.addr, ciobase::ByteSpan(raw, header_bytes));
  if (n > kVsockHeaderSize) {
    uint32_t body = n - static_cast<uint32_t>(kVsockHeaderSize);
    // Torn write: claim the full packet but land only half the payload.
    uint32_t written = torn ? body / 2 : body;
    region_->HostWrite(desc.addr + kVsockHeaderSize,
                       ciobase::ByteSpan(payload.data(), written));
  }
  ++stats_.packets_tx;
  rx_.PushUsed(*head, n, desc.len);
}

}  // namespace ciovirtio
