// Hardened block I/O boundary: the paper's §3.3 ("the first boundary would
// be at a low-level interface, e.g. disk driver or block layer") built with
// the same principles as the L2 network transport:
//
//   * Stateless, strictly FIFO: submission i completes as completion i.
//     There are no request ids, no completion reordering, and therefore no
//     temporal state for the host to confuse.
//   * Fixed geometry: block size and ring size are launch-time constants;
//     counters are monotonic u64s; every index is masked.
//   * Single-fetch completions: the guest reads a completion slot once into
//     private memory; lengths are clamped to the fixed block size.
//
// The host block device stores whatever bytes the guest hands it — the
// guest encrypts (crypt_client.h), so the device only ever holds
// ciphertext. What the host *does* see is the access pattern (LBA, size,
// timing), which is exactly the storage observability the paper points at
// [3]; the device reports those to the observability log.
//
// Fault model (PR-2 architecture extended to storage): the device keeps a
// write-back cache of unflushed writes, which makes kFlush semantically
// real — a simulated host crash discards the cache, so only flushed state
// survives. The device also consults the adversary's transient fault
// windows (swallowed doorbells, stalled/garbage counters, torn writes,
// dropped completions, bit rot, link kill) and can snapshot/restore its
// durable image to model a rollback attack. The guest client mirrors the
// L2 recovery machinery: a LinkWatchdog notices the stall, the ring is
// reset under a new epoch, and a changed host boot count (the host
// restarted, losing unflushed writes) latches a needs-remount condition
// that the store above resolves by remounting the whole stack.

#ifndef SRC_BLOCKIO_BLOCK_RING_H_
#define SRC_BLOCKIO_BLOCK_RING_H_

#include <map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/recovery.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/tee/shared_region.h"

namespace cioblock {

enum class BlockOp : uint32_t { kRead = 1, kWrite = 2, kFlush = 3 };

struct BlockRingConfig {
  uint32_t block_size = 4096;   // payload bytes per op (power of two)
  uint32_t ring_slots = 64;     // power of two
  uint64_t block_count = 4096;  // device capacity in blocks

  bool Valid() const;
  // Slot = 32-byte header + block payload.
  uint64_t SlotSize() const { return 32 + block_size; }
  uint64_t RegionSize() const;
};

struct BlockLayout {
  explicit BlockLayout(const BlockRingConfig& config);
  uint64_t SubmitProduced() const { return 0; }
  uint64_t SubmitConsumed() const { return 64; }
  uint64_t CompleteProduced() const { return 128; }
  uint64_t CompleteConsumed() const { return 192; }
  // Reattach handshake cells (PR-2 epoch scheme, plus a host boot count so
  // the guest can tell "host stalled" from "host restarted and forgot my
  // unflushed writes").
  uint64_t GuestEpoch() const { return 224; }
  uint64_t HostEpoch() const { return 232; }
  uint64_t BootCount() const { return 240; }
  uint64_t SubmitSlot(uint64_t index) const;
  uint64_t CompleteSlot(uint64_t index) const;

  uint64_t slots;
  uint64_t slot_size;
  uint64_t submit_ring;
  uint64_t complete_ring;
  uint64_t total;
};

// --- Guest side ----------------------------------------------------------------

class BlockClient {
 public:
  virtual ~BlockClient() = default;
  virtual ciobase::Status WriteBlock(uint64_t lba, ciobase::ByteSpan data) = 0;
  virtual ciobase::Result<ciobase::Buffer> ReadBlock(uint64_t lba) = 0;
  virtual ciobase::Status Flush() = 0;
  virtual uint32_t block_size() const = 0;
  virtual uint64_t block_count() const = 0;
};

class HostBlockDevice;

// Synchronous ring client: submit, kick the host device, reap.
//
// With recovery enabled, a completion that never arrives trips the
// LinkWatchdog: the client resets the ring under a fresh epoch and resubmits
// (bounded by the reset budget). If the host's boot count changed across a
// reset the host crashed — unflushed writes are gone and everything the
// layers above cached about the disk is suspect, so the client fails all
// operations with kLinkReset until Reattach() is called (by the store's
// Remount path).
class RingBlockClient final : public BlockClient {
 public:
  RingBlockClient(ciotee::SharedRegion* region, BlockRingConfig config,
                  HostBlockDevice* device, ciobase::CostModel* costs,
                  ciobase::RecoveryConfig recovery = {});

  ciobase::Status WriteBlock(uint64_t lba, ciobase::ByteSpan data) override;
  ciobase::Result<ciobase::Buffer> ReadBlock(uint64_t lba) override;
  ciobase::Status Flush() override;
  uint32_t block_size() const override { return config_.block_size; }
  uint64_t block_count() const override { return config_.block_count; }

  // True after a host restart was detected; every op returns kLinkReset
  // until Reattach().
  bool needs_remount() const { return needs_remount_; }
  // Acknowledges a host restart, also one no op has detected yet: resets
  // the ring under a fresh epoch and resumes issuing ops. The caller is
  // responsible for remounting the layers above (their cached view of the
  // disk is stale).
  void Reattach();

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t clamped_completions = 0;
    uint64_t failed_completions = 0;
    uint64_t ring_resets = 0;
    uint64_t watchdog_fires = 0;
    uint64_t host_restarts = 0;
    uint64_t incoherent_counters = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Modeled time per empty poll iteration while waiting on the host.
  static constexpr uint64_t kPollIntervalNs = 1000;

  ciobase::Status Submit(BlockOp op, uint64_t lba, ciobase::ByteSpan data);
  // Waits (by kicking the host device) for the next FIFO completion.
  ciobase::Result<ciobase::Buffer> Reap(uint32_t expected_len);
  // Submit + reap with watchdog-driven reset-and-resubmit on kLinkReset.
  ciobase::Result<ciobase::Buffer> Execute(BlockOp op, uint64_t lba,
                                           ciobase::ByteSpan data,
                                           uint32_t expected_len);
  // Abandons in-flight state, bumps the epoch, republishes zeroed guest
  // counters, and checks the host boot count for a restart.
  void ResetRing();

  ciotee::SharedRegion* region_;
  BlockRingConfig config_;
  BlockLayout layout_;
  HostBlockDevice* device_;
  ciobase::CostModel* costs_;
  ciobase::RecoveryConfig recovery_;
  ciobase::LinkWatchdog watchdog_;
  uint64_t submit_produced_ = 0;
  uint64_t complete_consumed_ = 0;
  uint64_t epoch_ = 0;
  uint64_t last_boot_ = 0;
  bool needs_remount_ = false;
  Stats stats_;
};

// --- Host side -----------------------------------------------------------------

class HostBlockDevice {
 public:
  HostBlockDevice(ciotee::SharedRegion* region, BlockRingConfig config,
                  ciohost::Adversary* adversary,
                  ciohost::ObservabilityLog* observability,
                  ciobase::SimClock* clock);

  // Guest doorbell: runs the device unless the fault model swallows it.
  void Kick();
  // Executes pending submissions, pushes completions.
  void Poll();

  // --- Storage fault machinery ------------------------------------------------

  // Models a host crash: every unflushed (cached) write is discarded, the
  // device forgets its ring positions, bumps its boot count, and waits for
  // the guest to reattach with a fresh epoch.
  void SimulateCrash();
  // Arms a deterministic crash after the next `k` executed writes (0
  // disarms). Re-arms itself after each crash, so a workload crosses every
  // crash point k writes apart.
  void CrashAfterWrites(uint64_t k) {
    crash_after_writes_ = k;
    writes_since_crash_ = 0;
  }
  // Rollback attack: capture / restore the durable image (the cache is
  // dropped on restore — a restored disk has no pending writes).
  void SnapshotImage();
  void RestoreSnapshot();

  // Test support: corrupt durable bytes directly (bit rot / torn metadata
  // for the fsck fuzz tests). Returns false if lba/offset is out of range
  // or the block was never written.
  bool CorruptRawByte(uint64_t lba, size_t offset, uint8_t xor_mask);
  bool TruncateRawBlock(uint64_t lba, size_t new_size);

  struct Stats {
    uint64_t ops = 0;
    uint64_t bad_lba = 0;
    uint64_t bad_op = 0;
    uint64_t flushes = 0;
    uint64_t cached_writes = 0;
    uint64_t crashes = 0;
    uint64_t kicks_swallowed = 0;
    uint64_t completions_dropped = 0;
    uint64_t torn_writes = 0;
    uint64_t bit_rot_reads = 0;
    uint64_t epoch_adoptions = 0;
  };
  const Stats& stats() const { return stats_; }
  uint64_t boot_count() const { return boot_count_; }

  // Direct image access for tests: the host's current view of the block
  // (write-back cache first, then the durable image).
  ciobase::ByteSpan RawBlock(uint64_t lba) const;
  // Only the durable (flushed) bytes — what survives a crash.
  ciobase::ByteSpan RawDurableBlock(uint64_t lba) const;

 private:
  bool Faulted(ciohost::FaultStrategy strategy) const;
  // Adopts a changed guest epoch: zero this side's ring positions and
  // publish the current boot count.
  void AdoptGuestEpoch();
  void FlushCache();

  ciotee::SharedRegion* region_;
  BlockRingConfig config_;
  BlockLayout layout_;
  ciohost::Adversary* adversary_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
  std::vector<ciobase::Buffer> image_;        // durable (flushed) state
  std::map<uint64_t, ciobase::Buffer> cache_; // unflushed writes
  std::vector<ciobase::Buffer> snapshot_;     // rollback attack material
  uint64_t submit_consumed_ = 0;
  uint64_t complete_produced_ = 0;
  uint64_t epoch_ = 0;
  uint64_t boot_count_ = 1;
  bool awaiting_reattach_ = false;
  uint64_t crash_after_writes_ = 0;
  uint64_t writes_since_crash_ = 0;
  Stats stats_;
};

}  // namespace cioblock

#endif  // SRC_BLOCKIO_BLOCK_RING_H_
