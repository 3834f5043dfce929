// ConfidentialStore: the full §3.3 dual-boundary storage stack.
//
//   app compartment          storage compartment            host
//   ───────────────          ───────────────────            ────
//   Put/Get/Delete   ──►     ExtentFs (untrusted      ──►   block device
//   + AEAD of values  file   by the app)              ring  (ciphertext
//     before crossing  ops                                   image only)
//
// Mirrors the network design one-to-one: the low boundary is the hardened
// block ring (masked, stateless, FIFO); the high boundary is a
// single-distrust compartment crossing where the app allocates and seals
// values before handing them to the filesystem. A compromised filesystem
// can drop or withhold objects (availability) and observe object names and
// sizes (observability) but can neither read nor undetectably modify
// values. Encryption-at-rest below the FS additionally blinds the host.
//
// Recovery: with options.recovery.enabled the ring client rides out
// transient host faults transparently. A host *crash* (restart with its
// write-back cache lost) surfaces as kLinkReset with needs_remount()
// latched on the ring client; the application then calls Remount(), which
// reattaches the ring, reloads (and freshness-checks) the generation
// table, and replays the filesystem journal. With options.rollback_counter
// set, generations are durable: a host that rolls the image back to an
// older snapshot is caught at Remount (or at first read) with kTampered.

#ifndef SRC_BLOCKIO_STORE_H_
#define SRC_BLOCKIO_STORE_H_

#include <memory>

#include "src/blockio/crypt_client.h"
#include "src/blockio/extent_fs.h"
#include "src/tee/compartment.h"

namespace cioblock {

class ConfidentialStore {
 public:
  struct Options {
    BlockRingConfig ring;
    ciobase::Buffer disk_key;   // encryption at rest (below the FS)
    ciobase::Buffer value_key;  // app-side sealing (above the FS)
    uint32_t inode_count = 64;
    // Ring-level fault recovery (watchdog + reset-and-reattach).
    ciobase::RecoveryConfig recovery;
    // Non-null enables durable generations (rollback detection across
    // remounts) anchored in this hardware monotonic counter.
    ciotee::MonotonicCounter* rollback_counter = nullptr;
  };

  // Builds the whole stack: shared region, host device, ring client,
  // encrypted client, filesystem in the storage compartment.
  ConfidentialStore(ciotee::TeeMemory* memory,
                    ciotee::CompartmentManager* compartments,
                    ciotee::CompartmentId app, ciotee::CompartmentId storage,
                    ciobase::CostModel* costs,
                    ciohost::Adversary* adversary,
                    ciohost::ObservabilityLog* observability,
                    ciobase::SimClock* clock, Options options);

  ciobase::Status Format();

  ciobase::Status Put(std::string_view name, ciobase::ByteSpan value);
  // kTampered if the FS/host returned a forged or stale value.
  ciobase::Result<ciobase::Buffer> Get(std::string_view name);
  ciobase::Status Delete(std::string_view name);
  // kFailedPrecondition while the filesystem is unmounted.
  ciobase::Result<std::vector<std::string>> List();
  // Durability barrier: after a successful Flush the durable image needs
  // no journal replay. An acknowledged Put or Delete is durable without
  // it.
  ciobase::Status Flush();
  // Reattaches the ring, reloads the generation table (kTampered on
  // rollback of the image), and remounts the filesystem (journal replay).
  //   * Clean remount (a filesystem is mounted and the ring has latched no
  //     host restart): commits first, like Flush(). A Put or Delete leaves
  //     its in-place inode-table write unflushed (extent_fs.h); the commit
  //     makes the reloaded root cover it. A commit failure other than a
  //     host restart is returned, and nothing is reloaded.
  //   * After a host restart (ops returned kLinkReset with
  //     ring_client()->needs_remount(), or the commit just met one): the
  //     host's cache is gone, so it reloads the durable root and journal
  //     replay restores what the cache held.
  // Before Format() it commits nothing and fails kFailedPrecondition (no
  // filesystem).
  ciobase::Status Remount();

  HostBlockDevice* host_device() { return device_.get(); }
  RingBlockClient* ring_client() { return ring_client_.get(); }
  EncryptedBlockClient* crypt_client() { return crypt_client_.get(); }
  ExtentFs* fs() { return fs_.get(); }

  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t seal_failures = 0;
    uint64_t remounts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  ciotee::CompartmentManager* compartments_;
  ciotee::CompartmentId app_;
  ciotee::CompartmentId storage_;
  ciobase::CostModel* costs_;
  Options options_;

  std::unique_ptr<ciotee::SharedRegion> shared_;
  std::unique_ptr<HostBlockDevice> device_;
  std::unique_ptr<RingBlockClient> ring_client_;
  std::unique_ptr<EncryptedBlockClient> crypt_client_;
  std::unique_ptr<ExtentFs> fs_;
  uint64_t value_counter_ = 0;  // nonce uniqueness across Puts
  Stats stats_;
};

}  // namespace cioblock

#endif  // SRC_BLOCKIO_STORE_H_
