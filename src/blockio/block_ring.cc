#include "src/blockio/block_ring.h"

#include <cassert>

#include "src/base/bits.h"
#include "src/base/coverage.h"

namespace cioblock {

// Submit slot header: [op u32][len u32][lba u64][pad 16] then payload.
// Complete slot header: [status u32][len u32][pad 24] then payload.

bool BlockRingConfig::Valid() const {
  return ciobase::IsPowerOfTwo(block_size) && ciobase::IsPowerOfTwo(ring_slots) &&
         block_count > 0;
}

uint64_t BlockRingConfig::RegionSize() const {
  return BlockLayout(*this).total;
}

BlockLayout::BlockLayout(const BlockRingConfig& config)
    : slots(config.ring_slots), slot_size(config.SlotSize()) {
  submit_ring = 256;
  complete_ring = submit_ring + slots * slot_size;
  total = complete_ring + slots * slot_size;
}

uint64_t BlockLayout::SubmitSlot(uint64_t index) const {
  return submit_ring + ciobase::MaskIndex(index, slots) * slot_size;
}

uint64_t BlockLayout::CompleteSlot(uint64_t index) const {
  return complete_ring + ciobase::MaskIndex(index, slots) * slot_size;
}

// --- RingBlockClient -------------------------------------------------------------

RingBlockClient::RingBlockClient(ciotee::SharedRegion* region,
                                 BlockRingConfig config,
                                 HostBlockDevice* device,
                                 ciobase::CostModel* costs,
                                 ciobase::RecoveryConfig recovery)
    : region_(region),
      config_(config),
      layout_(config),
      device_(device),
      costs_(costs),
      recovery_(recovery),
      watchdog_(recovery) {
  assert(config.Valid());
  assert(region->size() >= layout_.total);
  assert(recovery.Valid());
  last_boot_ = region_->GuestReadLe64(layout_.BootCount());
}

ciobase::Status RingBlockClient::Submit(BlockOp op, uint64_t lba,
                                        ciobase::ByteSpan data) {
  if (lba >= config_.block_count) {
    return ciobase::OutOfRange("lba beyond device");
  }
  if (data.size() > config_.block_size) {
    return ciobase::InvalidArgument("payload exceeds block size");
  }
  uint64_t consumed = region_->GuestReadLe64(layout_.SubmitConsumed());
  if (submit_produced_ - std::min(consumed, submit_produced_) >=
      layout_.slots) {
    return ciobase::ResourceExhausted("submit ring full");
  }
  uint64_t slot = layout_.SubmitSlot(submit_produced_);
  uint8_t header[32] = {0};
  ciobase::StoreLe32(header, static_cast<uint32_t>(op));
  ciobase::StoreLe32(header + 4, static_cast<uint32_t>(data.size()));
  ciobase::StoreLe64(header + 8, lba);
  region_->GuestWrite(slot, header);
  if (!data.empty()) {
    costs_->ChargeCopy(data.size());
    region_->GuestWrite(slot + 32, data);
  }
  ++submit_produced_;
  region_->GuestWriteLe64(layout_.SubmitProduced(), submit_produced_);
  return ciobase::OkStatus();
}

void RingBlockClient::ResetRing() {
  ++stats_.ring_resets;
  ++epoch_;
  submit_produced_ = 0;
  complete_consumed_ = 0;
  region_->GuestWriteLe64(layout_.SubmitProduced(), 0);
  region_->GuestWriteLe64(layout_.CompleteConsumed(), 0);
  region_->GuestWriteLe64(layout_.GuestEpoch(), epoch_);
  // Kick so an honest (or restarted) host can adopt the new epoch now.
  device_->Kick();
  // A changed boot count means the host restarted: its write-back cache is
  // gone, so everything the layers above believe about unflushed state is
  // stale. Latch needs-remount; the store resolves it via Reattach().
  uint64_t boot = region_->GuestReadLe64(layout_.BootCount());
  if (boot != last_boot_) {
    if (last_boot_ != 0) {
      needs_remount_ = true;
      ++stats_.host_restarts;
      CIO_COV("block.boot_count_changed", ciobase::StatusCode::kLinkReset);
    }
    last_boot_ = boot;
  }
}

void RingBlockClient::Reattach() {
  // Reset first: the reset itself may notice a restart no op has seen yet,
  // and this call acknowledges that one too.
  ResetRing();
  needs_remount_ = false;
}

ciobase::Result<ciobase::Buffer> RingBlockClient::Reap(uint32_t expected_len) {
  // Strict FIFO: kick the host device until our completion index appears.
  uint64_t spins = 0;
  for (;;) {
    costs_->ChargeRingPoll();
    device_->Kick();
    // Completions are only meaningful when the host runs our epoch: right
    // after a ring reset the shared counters still hold pre-reset values,
    // and consuming one of those would acknowledge an op the device never
    // executed under the new epoch.
    bool attached = region_->GuestReadLe64(layout_.HostEpoch()) == epoch_;
    uint64_t produced = region_->GuestReadLe64(layout_.CompleteProduced());
    uint64_t pending = produced - complete_consumed_;
    bool coherent = pending <= layout_.slots;
    if (attached && coherent && pending > 0) {
      uint64_t slot = layout_.CompleteSlot(complete_consumed_);
      // Single fetch of the whole completion slot.
      ciobase::Buffer raw(32 + expected_len);
      costs_->ChargeCopy(raw.size());
      region_->GuestRead(slot, raw);
      ++complete_consumed_;
      region_->GuestWriteLe64(layout_.CompleteConsumed(), complete_consumed_);
      watchdog_.NoteProgress(costs_->clock()->now_ns());
      watchdog_.Disarm();

      uint32_t status = ciobase::LoadLe32(raw.data());
      uint32_t len = ciobase::LoadLe32(raw.data() + 4);
      if (len > expected_len) {
        ++stats_.clamped_completions;
        CIO_COV("block.reap.len_clamped", ciobase::StatusCode::kOutOfRange);
        len = expected_len;
      }
      if (status != 0) {
        ++stats_.failed_completions;
        CIO_COV("block.reap.device_failure",
                ciobase::StatusCode::kHostViolation);
        return ciobase::HostViolation("device reported failure");
      }
      CIO_COV("block.reap.completion", ciobase::StatusCode::kOk);
      return ciobase::Buffer(raw.begin() + 32, raw.begin() + 32 + len);
    }
    if (!coherent) {
      ++stats_.incoherent_counters;
      CIO_COV("block.reap.incoherent_counter",
              ciobase::StatusCode::kHostViolation);
    }
    if (!recovery_.enabled) {
      if (++spins >= 1024) {
        return ciobase::Unavailable("completion never arrived");
      }
      continue;
    }
    uint64_t now = costs_->clock()->now_ns();
    watchdog_.Arm(now);
    if (watchdog_.Expired(now)) {
      ++stats_.watchdog_fires;
      if (watchdog_.Exhausted()) {
        CIO_COV("block.watchdog", ciobase::StatusCode::kTimedOut);
        return ciobase::TimedOut("block device dead: reset budget spent");
      }
      CIO_COV("block.watchdog", ciobase::StatusCode::kLinkReset);
      ResetRing();
      watchdog_.NoteReset(costs_->clock()->now_ns());
      return ciobase::LinkReset("block ring reset");
    }
    costs_->clock()->Advance(kPollIntervalNs);
  }
}

ciobase::Result<ciobase::Buffer> RingBlockClient::Execute(
    BlockOp op, uint64_t lba, ciobase::ByteSpan data, uint32_t expected_len) {
  if (needs_remount_) {
    return ciobase::LinkReset("host restarted; remount required");
  }
  for (;;) {
    CIO_RETURN_IF_ERROR(Submit(op, lba, data));
    auto done = Reap(expected_len);
    if (done.ok() ||
        done.status().code() != ciobase::StatusCode::kLinkReset) {
      return done;
    }
    if (needs_remount_) {
      return ciobase::LinkReset("host restarted; remount required");
    }
    // Transient reset within the same host boot: the submission is gone
    // with the old ring; resubmit under the new epoch. Termination is
    // guaranteed by the watchdog's reset budget (kTimedOut above).
  }
}

ciobase::Status RingBlockClient::WriteBlock(uint64_t lba,
                                            ciobase::ByteSpan data) {
  ++stats_.writes;
  return Execute(BlockOp::kWrite, lba, data, 0).status();
}

ciobase::Result<ciobase::Buffer> RingBlockClient::ReadBlock(uint64_t lba) {
  ++stats_.reads;
  return Execute(BlockOp::kRead, lba, {}, config_.block_size);
}

ciobase::Status RingBlockClient::Flush() {
  return Execute(BlockOp::kFlush, 0, {}, 0).status();
}

// --- HostBlockDevice ---------------------------------------------------------------

HostBlockDevice::HostBlockDevice(ciotee::SharedRegion* region,
                                 BlockRingConfig config,
                                 ciohost::Adversary* adversary,
                                 ciohost::ObservabilityLog* observability,
                                 ciobase::SimClock* clock)
    : region_(region),
      config_(config),
      layout_(config),
      adversary_(adversary),
      observability_(observability),
      clock_(clock),
      image_(config.block_count) {
  region_->HostWriteLe64(layout_.BootCount(), boot_count_);
}

bool HostBlockDevice::Faulted(ciohost::FaultStrategy strategy) const {
  return adversary_ != nullptr &&
         adversary_->FaultActive(strategy, clock_->now_ns());
}

ciobase::ByteSpan HostBlockDevice::RawBlock(uint64_t lba) const {
  static const ciobase::Buffer kEmpty;
  if (lba >= image_.size()) {
    return kEmpty;
  }
  auto it = cache_.find(lba);
  if (it != cache_.end()) {
    return it->second;
  }
  return image_[lba];
}

ciobase::ByteSpan HostBlockDevice::RawDurableBlock(uint64_t lba) const {
  static const ciobase::Buffer kEmpty;
  if (lba >= image_.size()) {
    return kEmpty;
  }
  return image_[lba];
}

void HostBlockDevice::FlushCache() {
  for (auto& [lba, data] : cache_) {
    image_[lba] = std::move(data);
  }
  cache_.clear();
}

void HostBlockDevice::SimulateCrash() {
  ++stats_.crashes;
  // Unflushed writes die with the host process.
  cache_.clear();
  ++boot_count_;
  writes_since_crash_ = 0;
  submit_consumed_ = 0;
  complete_produced_ = 0;
  // The restarted host remaps the shared region and waits for a fresh
  // attach: only a *new* guest epoch (a ring reset issued after the crash)
  // brings the device back to life.
  epoch_ = region_->HostReadLe64(layout_.GuestEpoch());
  awaiting_reattach_ = true;
}

void HostBlockDevice::SnapshotImage() { snapshot_ = image_; }

void HostBlockDevice::RestoreSnapshot() {
  image_ = snapshot_;
  cache_.clear();
}

bool HostBlockDevice::CorruptRawByte(uint64_t lba, size_t offset,
                                     uint8_t xor_mask) {
  if (lba >= image_.size()) {
    return false;
  }
  auto it = cache_.find(lba);
  ciobase::Buffer& block = it != cache_.end() ? it->second : image_[lba];
  if (offset >= block.size()) {
    return false;
  }
  block[offset] ^= xor_mask;
  return true;
}

bool HostBlockDevice::TruncateRawBlock(uint64_t lba, size_t new_size) {
  if (lba >= image_.size()) {
    return false;
  }
  auto it = cache_.find(lba);
  ciobase::Buffer& block = it != cache_.end() ? it->second : image_[lba];
  if (new_size >= block.size()) {
    return false;
  }
  block.resize(new_size);
  return true;
}

void HostBlockDevice::AdoptGuestEpoch() {
  uint64_t guest_epoch = region_->HostReadLe64(layout_.GuestEpoch());
  if (guest_epoch == epoch_) {
    return;
  }
  epoch_ = guest_epoch;
  submit_consumed_ = 0;
  complete_produced_ = 0;
  region_->HostWriteLe64(layout_.SubmitConsumed(), 0);
  region_->HostWriteLe64(layout_.CompleteProduced(), 0);
  region_->HostWriteLe64(layout_.HostEpoch(), epoch_);
  region_->HostWriteLe64(layout_.BootCount(), boot_count_);
  awaiting_reattach_ = false;
  ++stats_.epoch_adoptions;
}

void HostBlockDevice::Kick() {
  if (Faulted(ciohost::FaultStrategy::kSwallowDoorbell) ||
      Faulted(ciohost::FaultStrategy::kLinkKill)) {
    ++stats_.kicks_swallowed;
    return;
  }
  Poll();
}

void HostBlockDevice::Poll() {
  AdoptGuestEpoch();
  if (awaiting_reattach_) {
    return;  // crashed host: nothing happens until the guest reattaches
  }
  if (Faulted(ciohost::FaultStrategy::kStallCounters) ||
      Faulted(ciohost::FaultStrategy::kLinkKill)) {
    return;
  }
  // Per-poll budget: SubmitProduced is guest-written shared memory; a fuzzed
  // value must not spin the device model unboundedly in one poll. An honest
  // guest never has more than one ring of submissions outstanding.
  for (uint64_t budget = 0; budget < layout_.slots; ++budget) {
    uint64_t produced = region_->HostReadLe64(layout_.SubmitProduced());
    if (submit_consumed_ >= produced) {
      break;
    }
    uint64_t slot = layout_.SubmitSlot(submit_consumed_);
    uint8_t header[32];
    region_->HostRead(slot, header);
    // Validate the opcode once, on fetch; unknown ops complete with a
    // status error instead of being silently ignored.
    uint32_t op = ciobase::LoadLe32(header);
    bool known_op = op == static_cast<uint32_t>(BlockOp::kRead) ||
                    op == static_cast<uint32_t>(BlockOp::kWrite) ||
                    op == static_cast<uint32_t>(BlockOp::kFlush);
    uint32_t len = std::min<uint32_t>(ciobase::LoadLe32(header + 4),
                                      config_.block_size);
    uint64_t lba = ciobase::LoadLe64(header + 8);
    ++submit_consumed_;
    region_->HostWriteLe64(layout_.SubmitConsumed(), submit_consumed_);
    ++stats_.ops;

    if (observability_ != nullptr) {
      // The storage access pattern the host inevitably observes [3].
      observability_->Record(ciohost::ObsCategory::kCallArgs, lba);
      observability_->Record(ciohost::ObsCategory::kMessageBoundary, len);
      observability_->Record(ciohost::ObsCategory::kPacketTiming,
                             clock_->now_ns());
    }

    uint32_t status = 0;
    ciobase::Buffer payload;
    if (!known_op) {
      ++stats_.bad_op;
      status = 1;
    } else if (lba >= image_.size() &&
               op != static_cast<uint32_t>(BlockOp::kFlush)) {
      ++stats_.bad_lba;
      status = 1;
    } else if (op == static_cast<uint32_t>(BlockOp::kWrite)) {
      ciobase::Buffer data(len);
      region_->HostRead(slot + 32, data);
      if (Faulted(ciohost::FaultStrategy::kTornWrite) && len > 1) {
        // Only the first half of the sector reaches the medium; the tail
        // keeps whatever was there before (zero for never-written blocks).
        ++stats_.torn_writes;
        ciobase::ByteSpan prev = RawBlock(lba);
        for (size_t i = len / 2; i < data.size(); ++i) {
          data[i] = i < prev.size() ? prev[i] : 0;
        }
      }
      cache_[lba] = std::move(data);
      ++stats_.cached_writes;
      if (crash_after_writes_ > 0 &&
          ++writes_since_crash_ >= crash_after_writes_) {
        // Deterministic crash point: the host dies before completing this
        // write (it is cached, not durable, and the completion never lands).
        SimulateCrash();
        return;
      }
    } else if (op == static_cast<uint32_t>(BlockOp::kRead)) {
      ciobase::ByteSpan current = RawBlock(lba);
      payload.assign(current.begin(), current.end());
      if (Faulted(ciohost::FaultStrategy::kBitRot) && !payload.empty()) {
        // The returned copy rots; the medium itself is intact, so the
        // guest can get a clean read once the window closes.
        payload[stats_.bit_rot_reads % payload.size()] ^= 0x04;
        ++stats_.bit_rot_reads;
      }
      if (adversary_ != nullptr) {
        // Corrupt the stored bytes (not the zero padding appended below).
        adversary_->MaybeCorruptPayload(payload);
      }
      payload.resize(config_.block_size, 0);
    } else if (op == static_cast<uint32_t>(BlockOp::kFlush)) {
      FlushCache();
      ++stats_.flushes;
    }

    if (Faulted(ciohost::FaultStrategy::kDropCompletions)) {
      ++stats_.completions_dropped;
      continue;  // the op executed, but the guest never hears about it
    }

    uint64_t complete_slot = layout_.CompleteSlot(complete_produced_);
    uint8_t complete_header[32] = {0};
    uint32_t reported_len = static_cast<uint32_t>(payload.size());
    if (adversary_ != nullptr) {
      reported_len =
          adversary_->MutateUsedLen(reported_len, config_.block_size);
    }
    ciobase::StoreLe32(complete_header, status);
    ciobase::StoreLe32(complete_header + 4, reported_len);
    region_->HostWrite(complete_slot, complete_header);
    if (!payload.empty()) {
      region_->HostWrite(complete_slot + 32, payload);
    }
    ++complete_produced_;
    uint64_t published = complete_produced_;
    if (Faulted(ciohost::FaultStrategy::kGarbageCounters)) {
      published = ~0ULL - 7;
    } else if (adversary_ != nullptr) {
      published = adversary_->MutatePublishedCounter(published);
    }
    region_->HostWriteLe64(layout_.CompleteProduced(), published);
  }
}

}  // namespace cioblock
