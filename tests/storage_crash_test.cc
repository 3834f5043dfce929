// Crash/fault tests for the §3.3 storage path: ring-level recovery
// (watchdog reset-and-reattach, host-restart detection), ExtentFs crash
// consistency (journaled WriteFile/DeleteFile under a crash at every
// device-write boundary), corrupt-image mounting (fsck never crashes and
// never accepts an inconsistent image), durable anti-rollback across
// remounts, generation-table commits (dirty chunks + root, crash points,
// replayed table blocks, no nonce sealing two plaintexts), full-store
// remounts (a clean remount commits before it reloads; one after an
// unseen host restart reloads and replays; a failed one leaves the store
// unmounted), and single cells of the storage campaign (so the whole
// machinery also runs under ASan in the test suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/rng.h"
#include "src/blockio/crypt_client.h"
#include "src/blockio/extent_fs.h"
#include "src/blockio/store.h"
#include "src/cio/storage_campaign.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using ciobase::StatusCode;
using namespace cioblock;  // NOLINT: test file

// A block ring with the recovery machinery on, an adversary for fault
// windows, and direct access to the host device's crash levers.
struct RecoveryWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  ciohost::Adversary adversary{7};
  ciohost::ObservabilityLog observability;
  BlockRingConfig config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<HostBlockDevice> device;
  std::unique_ptr<RingBlockClient> client;

  explicit RecoveryWorld(uint64_t blocks = 256) {
    config.block_count = blocks;
    ciobase::RecoveryConfig recovery;
    recovery.enabled = true;
    shared = std::make_unique<ciotee::SharedRegion>(
        &memory, config.RegionSize(), "crash-ring");
    device = std::make_unique<HostBlockDevice>(shared.get(), config,
                                               &adversary, &observability,
                                               &clock);
    client = std::make_unique<RingBlockClient>(shared.get(), config,
                                               device.get(), &costs,
                                               recovery);
  }
};

// --- Ring-level recovery --------------------------------------------------------

TEST(RingRecovery, TransientFaultWindowRiddenOut) {
  RecoveryWorld world;
  ASSERT_TRUE(world.client->WriteBlock(1, BufferFromString("warm")).ok());
  world.adversary.InjectFault({ciohost::FaultStrategy::kSwallowDoorbell,
                               world.clock.now_ns(), 12'000'000});
  // The op blocks through the window on watchdog resets, then succeeds.
  EXPECT_TRUE(world.client->WriteBlock(2, BufferFromString("mid")).ok());
  EXPECT_GT(world.client->stats().watchdog_fires, 0u);
  EXPECT_GT(world.client->stats().ring_resets, 0u);
  auto read = world.client->ReadBlock(2);
  ASSERT_TRUE(read.ok());
  read->resize(3);
  EXPECT_EQ(*read, BufferFromString("mid"));
}

TEST(RingRecovery, PermanentlyDeadDeviceTimesOut) {
  RecoveryWorld world;
  world.adversary.InjectFault(
      {ciohost::FaultStrategy::kLinkKill, world.clock.now_ns(), 0});
  auto status = world.client->WriteBlock(1, BufferFromString("x"));
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);  // reset budget spent
}

TEST(RingRecovery, HostCrashLatchesRemountUntilReattach) {
  RecoveryWorld world;
  ASSERT_TRUE(world.client->WriteBlock(1, BufferFromString("durable")).ok());
  ASSERT_TRUE(world.client->Flush().ok());
  ASSERT_TRUE(world.client->WriteBlock(2, BufferFromString("cached")).ok());

  world.device->SimulateCrash();
  // The next op trips the watchdog, sees a changed boot count, and fails
  // with kLinkReset; every further op fails fast until Reattach().
  EXPECT_EQ(world.client->WriteBlock(3, BufferFromString("y")).code(),
            StatusCode::kLinkReset);
  EXPECT_TRUE(world.client->needs_remount());
  EXPECT_EQ(world.client->ReadBlock(1).status().code(),
            StatusCode::kLinkReset);
  EXPECT_GT(world.client->stats().host_restarts, 0u);

  world.client->Reattach();
  EXPECT_FALSE(world.client->needs_remount());
  // Flushed state survived; the unflushed write died with the host.
  auto flushed = world.client->ReadBlock(1);
  ASSERT_TRUE(flushed.ok());
  flushed->resize(7);
  EXPECT_EQ(*flushed, BufferFromString("durable"));
  auto lost = world.client->ReadBlock(2);
  ASSERT_TRUE(lost.ok());
  EXPECT_EQ((*lost)[0], 0);  // discarded with the write-back cache
}

// A restart no op has run into yet: Reattach's own ring reset is the first
// to see the new boot count, and Reattach acknowledges it there and then
// instead of leaving the ring latched.
TEST(RingRecovery, ReattachAcknowledgesARestartNoOpHasSeen) {
  RecoveryWorld world;
  ASSERT_TRUE(world.client->WriteBlock(1, BufferFromString("durable")).ok());
  ASSERT_TRUE(world.client->Flush().ok());

  world.device->SimulateCrash();
  world.client->Reattach();
  EXPECT_FALSE(world.client->needs_remount());
  EXPECT_EQ(world.client->stats().host_restarts, 1u);
  auto read = world.client->ReadBlock(1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  read->resize(7);
  EXPECT_EQ(*read, BufferFromString("durable"));
}

// --- ExtentFs crash consistency -------------------------------------------------

// Crash the host after every k-th device write during an overwrite; after
// reattach + remount the file must hold exactly the old or the new
// content, and the filesystem must be fully writable again.
TEST(ExtentFsCrash, OverwriteAtomicAtEveryCrashPoint) {
  ciobase::Rng rng(21);
  Buffer v1 = BufferFromString("version-one-content");
  // v2 spans ~8 data blocks, so even stride-8 crash points land inside
  // the overwrite (data writes + journal record + inode table write).
  Buffer v2 = rng.Bytes(30'000);
  Buffer v3 = BufferFromString("post-recovery-write");
  for (uint64_t stride : {1, 2, 3, 4, 5, 8}) {
    RecoveryWorld world;
    ExtentFs fs(world.client.get());
    ASSERT_TRUE(fs.Format().ok());
    ASSERT_TRUE(fs.WriteFile("f", v1).ok());

    world.device->CrashAfterWrites(stride);
    auto status = fs.WriteFile("f", v2);
    world.device->CrashAfterWrites(0);
    EXPECT_GT(world.device->stats().crashes, 0u) << "stride " << stride;

    world.client->Reattach();
    ExtentFs remounted(world.client.get());
    ASSERT_TRUE(remounted.Mount().ok()) << "stride " << stride;
    auto read = remounted.ReadFile("f");
    ASSERT_TRUE(read.ok()) << "stride " << stride;
    if (status.ok()) {
      // Acknowledged means committed: only the new content is legal.
      EXPECT_EQ(*read, v2) << "stride " << stride;
    } else {
      EXPECT_TRUE(*read == v1 || *read == v2)
          << "stride " << stride << ": torn or invented content";
    }
    // Full service after recovery.
    ASSERT_TRUE(remounted.WriteFile("f", v3).ok()) << "stride " << stride;
    auto after = remounted.ReadFile("f");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, v3);
  }
}

TEST(ExtentFsCrash, DeleteAtomicAtEveryCrashPoint) {
  Buffer v1 = BufferFromString("doomed-but-never-torn");
  for (uint64_t stride : {1, 2, 3, 4}) {
    RecoveryWorld world;
    ExtentFs fs(world.client.get());
    ASSERT_TRUE(fs.Format().ok());
    ASSERT_TRUE(fs.WriteFile("victim", v1).ok());

    world.device->CrashAfterWrites(stride);
    auto status = fs.DeleteFile("victim");
    world.device->CrashAfterWrites(0);

    world.client->Reattach();
    ExtentFs remounted(world.client.get());
    ASSERT_TRUE(remounted.Mount().ok()) << "stride " << stride;
    auto read = remounted.ReadFile("victim");
    if (status.ok()) {
      // Acknowledged delete must stay deleted.
      EXPECT_FALSE(read.ok()) << "stride " << stride;
    } else if (read.ok()) {
      EXPECT_EQ(*read, v1) << "stride " << stride;  // intact, not torn
    }
    // Either way the name is reusable afterwards.
    ASSERT_TRUE(remounted.WriteFile("victim", v1).ok()) << "stride " << stride;
  }
}

// --- Corrupt-image mounting (fsck fuzz) -----------------------------------------

// A plaintext ExtentFs directly over the ring so the test can reach every
// on-disk structure by lba: block 0 superblock, 1..8 journal, 9+ inode
// table. Mount must never crash, and must never succeed on an image with
// a corrupt superblock or (strict mode) a corrupt inode table.
TEST(ExtentFsFsck, SuperblockBitFlipsNeverMountNeverCrash) {
  RecoveryWorld world;
  ExtentFs fs(world.client.get());
  ASSERT_TRUE(fs.Format().ok());
  ASSERT_TRUE(fs.WriteFile("f", BufferFromString("payload")).ok());

  for (size_t offset = 0; offset < 32; ++offset) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
      ASSERT_TRUE(world.device->CorruptRawByte(0, offset, mask));
      ExtentFs victim(world.client.get());
      auto status = victim.Mount();
      EXPECT_FALSE(status.ok()) << "offset " << offset;
      EXPECT_TRUE(status.code() == StatusCode::kTampered ||
                  status.code() == StatusCode::kFailedPrecondition)
          << "offset " << offset << ": " << status.message();
      // ScanAndRepair cannot conjure geometry from a corrupt superblock
      // either — but it must also fail cleanly, not crash.
      ExtentFs fsck(world.client.get());
      EXPECT_FALSE(fsck.ScanAndRepair().ok()) << "offset " << offset;
      // xor is self-inverse: restore and prove the image is fine again.
      ASSERT_TRUE(world.device->CorruptRawByte(0, offset, mask));
    }
  }
  ExtentFs healthy(world.client.get());
  EXPECT_TRUE(healthy.Mount().ok());
}

TEST(ExtentFsFsck, TruncatedSuperblockRejected) {
  RecoveryWorld world;
  ExtentFs fs(world.client.get());
  ASSERT_TRUE(fs.Format().ok());
  ASSERT_TRUE(world.device->TruncateRawBlock(0, 12));
  ExtentFs victim(world.client.get());
  EXPECT_FALSE(victim.Mount().ok());
}

TEST(ExtentFsFsck, NeverFormattedDeviceIsNotAFilesystem) {
  RecoveryWorld world;
  ExtentFs fs(world.client.get());
  auto status = fs.Mount();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ExtentFsFsck, JournalCorruptionIsToleratedAsCrashDebris) {
  RecoveryWorld world;
  ExtentFs fs(world.client.get());
  ASSERT_TRUE(fs.Format().ok());
  Buffer v = BufferFromString("survives journal damage");
  ASSERT_TRUE(fs.WriteFile("f", v).ok());
  // Mangle the first byte of every journal slot: live records lose their
  // magic, retired slots become garbage. Both are legitimate crash debris
  // and must not fail the mount.
  for (uint64_t lba = 1; lba <= ExtentFs::kJournalBlocks; ++lba) {
    ASSERT_TRUE(world.device->CorruptRawByte(lba, 0, 0xFF)) << lba;
  }
  ExtentFs remounted(world.client.get());
  ASSERT_TRUE(remounted.Mount().ok());
  auto read = remounted.ReadFile("f");  // inode table already had the data
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v);
}

TEST(ExtentFsFsck, InodeTableCorruptionStrictFailsRepairSalvages) {
  RecoveryWorld world;
  ExtentFs fs(world.client.get());
  ASSERT_TRUE(fs.Format().ok());
  ASSERT_TRUE(fs.WriteFile("f", BufferFromString("inode payload")).ok());
  // Flip a byte inside the first inode-table block (lba 9).
  ASSERT_TRUE(world.device->CorruptRawByte(9, 17, 0x40));

  ExtentFs strict(world.client.get());
  auto status = strict.Mount();
  EXPECT_EQ(status.code(), StatusCode::kTampered);

  ExtentFs fsck(world.client.get());
  auto report = fsck.ScanAndRepair();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->dropped_inode_blocks, 1u);
  EXPECT_TRUE(report->repaired());
  // The damaged block's files are gone, but the filesystem is consistent
  // and fully writable again — and the table was rewritten clean.
  ASSERT_TRUE(fsck.WriteFile("g", BufferFromString("fresh")).ok());
  ExtentFs again(world.client.get());
  EXPECT_TRUE(again.Mount().ok());
}

// The same fuzz through encryption-at-rest: any flipped ciphertext byte
// surfaces as kTampered, never as a crash or a successful mount.
TEST(ExtentFsFsck, CorruptionBelowCryptLayerIsTampered) {
  RecoveryWorld world;
  EncryptedBlockClient crypt(world.client.get(),
                             BufferFromString("disk-key-32-bytes-long-....."),
                             &world.costs);
  ExtentFs fs(&crypt);
  ASSERT_TRUE(fs.Format().ok());
  ASSERT_TRUE(world.device->CorruptRawByte(0, 40, 0x01));
  ExtentFs victim(&crypt);
  auto status = victim.Mount();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTampered);
}

// --- Durable generations (anti-rollback) ----------------------------------------

TEST(DurableGenerations, TablePersistsAcrossClientInstances) {
  RecoveryWorld world;
  ciotee::MonotonicCounter counter;
  CryptClientOptions options;
  options.durable_generations = true;
  options.rollback_counter = &counter;
  Buffer key = BufferFromString("disk-key-32-bytes-long-.....");

  {
    EncryptedBlockClient crypt(world.client.get(), key, &world.costs,
                               options);
    ASSERT_TRUE(crypt.geometry_status().ok());
    ASSERT_TRUE(crypt.WriteBlock(3, BufferFromString("sealed v1")).ok());
    ASSERT_TRUE(crypt.Flush().ok());
    EXPECT_GT(counter.value(), 0u);
    EXPECT_GT(crypt.stats().table_flushes, 0u);
  }
  // A fresh client (fresh mount) reloads the table from the epoch blocks
  // and still authenticates the data block.
  EncryptedBlockClient crypt2(world.client.get(), key, &world.costs,
                              options);
  auto read = crypt2.ReadBlock(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("sealed v1"));
  EXPECT_GT(crypt2.stats().table_loads, 0u);
  EXPECT_GT(crypt2.stats().entries_loaded, 0u);
  EXPECT_GT(crypt2.Generation(3), 0u);
}

// Satellite regression: host snapshots the image, the guest overwrites and
// flushes, the host restores. This must be detected at read AND at remount
// — and it passes only because generations are durably persisted, which
// the volatile control test below demonstrates.
TEST(DurableGenerations, RollbackAcrossRemountDetected) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments(&costs);
  auto app = compartments.Create("app", 1 << 20);
  auto storage = compartments.Create("storage", 1 << 20);
  ciohost::Adversary adversary(11);
  ciohost::ObservabilityLog observability;
  ciotee::MonotonicCounter counter;

  ConfidentialStore::Options options;
  options.ring.block_count = 512;
  options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaaa");
  options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbbbb");
  options.recovery.enabled = true;
  options.rollback_counter = &counter;
  ConfidentialStore store(&memory, &compartments, app, storage, &costs,
                          &adversary, &observability, &clock, options);
  ASSERT_TRUE(store.Format().ok());

  ASSERT_TRUE(store.Put("victim", BufferFromString("version-1")).ok());
  store.host_device()->SnapshotImage();
  ASSERT_TRUE(store.Put("victim", BufferFromString("version-2")).ok());
  store.host_device()->RestoreSnapshot();

  auto read = store.Get("victim");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kTampered);
  EXPECT_EQ(store.Remount().code(), StatusCode::kTampered);
}

TEST(DurableGenerations, VolatileControlAcceptsStaleImageAfterRemount) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments(&costs);
  auto app = compartments.Create("app", 1 << 20);
  auto storage = compartments.Create("storage", 1 << 20);
  ciohost::Adversary adversary(12);
  ciohost::ObservabilityLog observability;

  ConfidentialStore::Options options;
  options.ring.block_count = 512;
  options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaaa");
  options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbbbb");
  options.recovery.enabled = true;  // no rollback counter: volatile
  ConfidentialStore store(&memory, &compartments, app, storage, &costs,
                          &adversary, &observability, &clock, options);
  ASSERT_TRUE(store.Format().ok());

  ASSERT_TRUE(store.Put("victim", BufferFromString("version-1")).ok());
  store.host_device()->SnapshotImage();
  ASSERT_TRUE(store.Put("victim", BufferFromString("version-2")).ok());
  store.host_device()->RestoreSnapshot();

  // In-session the volatile generation map still catches the rollback...
  EXPECT_EQ(store.Get("victim").status().code(), StatusCode::kTampered);
  // ...but a remount forgets it and serves the stale value: exactly the
  // gap durable generations close.
  ASSERT_TRUE(store.Remount().ok());
  auto stale = store.Get("victim");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, BufferFromString("version-1"));
}

// --- Generation-table commits (shadow paging) -----------------------------------

// Sits between a durable EncryptedBlockClient and the ring and records what
// the host is handed: every write (also one a crash then discards) and
// every flush.
class RecordingClient final : public BlockClient {
 public:
  struct Write {
    uint64_t lba;
    Buffer bytes;
  };

  explicit RecordingClient(BlockClient* inner) : inner_(inner) {}

  ciobase::Status WriteBlock(uint64_t lba, ciobase::ByteSpan data) override {
    writes.push_back({lba, Buffer(data.begin(), data.end())});
    return inner_->WriteBlock(lba, data);
  }
  ciobase::Result<Buffer> ReadBlock(uint64_t lba) override {
    return inner_->ReadBlock(lba);
  }
  ciobase::Status Flush() override {
    ++flushes;
    return inner_->Flush();
  }
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }

  std::vector<Write> writes;
  uint64_t flushes = 0;

 private:
  BlockClient* inner_;
};

struct DurableWorld : RecoveryWorld {
  ciotee::MonotonicCounter counter;
  RecordingClient recorder{client.get()};
  std::unique_ptr<EncryptedBlockClient> crypt;

  explicit DurableWorld(uint64_t blocks = 256) : RecoveryWorld(blocks) {
    CryptClientOptions options;
    options.durable_generations = true;
    options.rollback_counter = &counter;
    crypt = std::make_unique<EncryptedBlockClient>(
        &recorder, BufferFromString("disk-key-32-bytes-long-....."), &costs,
        options);
  }

  // Two root slots, then two homes per table chunk (crypt_client.h).
  uint64_t chunks() const { return (crypt->reserved_blocks() - 2) / 2; }

  // A fixed-size key: GCC 12 at -O3 reports a false -Wstringop-overread
  // on a std::map keyed by std::vector<uint8_t>.
  using Nonce = std::array<uint8_t, 12>;

  // The nonce `bytes` was sealed under at inner block `lba`: a root stores
  // its synthetic nonce whole in its first 12 bytes; a chunk or data block
  // stores its generation in the first 8, and the last 4 are its chunk
  // index or data LBA.
  Nonce NonceOf(const RecordingClient::Write& write) const {
    Nonce nonce{};
    std::copy_n(write.bytes.begin(), nonce.size(), nonce.begin());
    if (write.lba >= 2) {
      uint64_t reserved = crypt->reserved_blocks();
      uint64_t index = write.lba < reserved ? (write.lba - 2) / 2
                                            : write.lba - reserved;
      ciobase::StoreLe32(nonce.data() + 8, static_cast<uint32_t>(index));
    }
    return nonce;
  }

  // The invariant in crypt_client.h: no nonce ever seals two different
  // plaintexts. Two recorded writes under one nonce must be the same bytes.
  void ExpectNoNonceSealsTwoPlaintexts() const {
    std::map<Nonce, const RecordingClient::Write*> sealed;
    for (const auto& write : recorder.writes) {
      auto [it, fresh] = sealed.emplace(NonceOf(write), &write);
      EXPECT_TRUE(fresh || it->second->bytes == write.bytes)
          << "inner block " << write.lba << " reuses the nonce of inner block "
          << it->second->lba << " for different bytes";
    }
  }
};

// A host crash discards a persist; the remount and the next persist then
// seal table blocks again. A remount that resealed the lost persist's
// epoch over the same table block, with different bytes, would reuse its
// nonce.
TEST(TableCommit, NoNonceSealsTwoPlaintextsAcrossALostPersist) {
  DurableWorld world;
  EncryptedBlockClient& crypt = *world.crypt;
  ASSERT_TRUE(crypt.WriteBlock(3, BufferFromString("first")).ok());
  ASSERT_TRUE(crypt.Flush().ok());
  ASSERT_TRUE(crypt.WriteBlock(4, BufferFromString("second")).ok());
  world.device->CrashAfterWrites(1);
  EXPECT_FALSE(crypt.Flush().ok());
  world.device->CrashAfterWrites(0);
  world.client->Reattach();
  ASSERT_TRUE(crypt.Remount().ok());
  ASSERT_TRUE(crypt.WriteBlock(5, BufferFromString("third")).ok());
  ASSERT_TRUE(crypt.Flush().ok());
  world.ExpectNoNonceSealsTwoPlaintexts();
  auto read = crypt.ReadBlock(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("first"));
}

// A host that failed a flush holds two different roots of one epoch: the
// lost persist's and the next mount's burn. It offers one to a mount whose
// burn it then crashes, and the other to the next mount. Both burns derive
// the same next epoch from different roots; their nonces must differ.
TEST(TableCommit, TwoRootsOfOneEpochNeverShareABurnNonce) {
  DurableWorld world;
  EncryptedBlockClient& crypt = *world.crypt;
  ASSERT_TRUE(crypt.WriteBlock(0, BufferFromString("a")).ok());
  ASSERT_TRUE(crypt.Flush().ok());
  ASSERT_TRUE(crypt.WriteBlock(0, BufferFromString("b")).ok());
  size_t lost = world.recorder.writes.size();  // persist: chunk, then root
  world.device->CrashAfterWrites(2);
  EXPECT_FALSE(crypt.Flush().ok());
  world.device->CrashAfterWrites(0);
  ASSERT_EQ(world.recorder.writes.size(), lost + 2);
  RecordingClient::Write lost_chunk = world.recorder.writes[lost];
  RecordingClient::Write lost_root = world.recorder.writes[lost + 1];

  world.client->Reattach();
  size_t burn = world.recorder.writes.size();
  ASSERT_TRUE(crypt.Remount().ok());  // loads the flushed root, burns
  RecordingClient::Write burn_root = world.recorder.writes[burn];
  ASSERT_EQ(burn_root.lba, lost_root.lba);  // same slot, other bytes

  // The host puts the lost persist back; the mount adopts it, and the host
  // crashes that mount's burn.
  ASSERT_TRUE(world.client->WriteBlock(lost_chunk.lba, lost_chunk.bytes).ok());
  ASSERT_TRUE(world.client->WriteBlock(lost_root.lba, lost_root.bytes).ok());
  ASSERT_TRUE(world.client->Flush().ok());
  world.device->CrashAfterWrites(1);
  EXPECT_FALSE(crypt.Remount().ok());
  world.device->CrashAfterWrites(0);
  world.client->Reattach();

  // Now the host offers the first burn's root of the same epoch instead.
  ASSERT_TRUE(world.client->WriteBlock(burn_root.lba, burn_root.bytes).ok());
  ASSERT_TRUE(world.client->Flush().ok());
  ASSERT_TRUE(crypt.Remount().ok());
  world.ExpectNoNonceSealsTwoPlaintexts();
  auto read = crypt.ReadBlock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("a"));
}

// A host death between the inner flush and the counter bump leaves the
// newest root one epoch ahead of the counter: Remount adopts it.
TEST(TableCommit, RootOneEpochAheadOfTheCounterIsAdopted) {
  DurableWorld world;
  ASSERT_TRUE(world.crypt->WriteBlock(0, BufferFromString("v1")).ok());
  ASSERT_TRUE(world.crypt->Flush().ok());
  uint64_t epoch = world.counter.value();
  ciotee::MonotonicCounter lagging(epoch - 1);
  EncryptedBlockClient crypt(&world.recorder,
                             BufferFromString("disk-key-32-bytes-long-....."),
                             &world.costs, {true, &lagging});
  ASSERT_TRUE(crypt.Remount().ok());
  EXPECT_GT(lagging.value(), epoch);  // adopted, then a new salt burned
  auto read = crypt.ReadBlock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("v1"));
}

// Store-mixed's 4,096-block device has 9 table chunks. A flush after one
// write seals one chunk and the root; with every chunk dirty it seals all
// of them and the root. Each flush is one inner flush.
TEST(TableCommit, FlushWritesOnlyDirtyChunksAndTheRoot) {
  DurableWorld world(4096);
  EncryptedBlockClient& crypt = *world.crypt;
  ASSERT_EQ(world.chunks(), 9u);
  ASSERT_TRUE(crypt.WriteBlock(1, BufferFromString("one")).ok());
  size_t writes = world.recorder.writes.size();
  uint64_t flushes = world.recorder.flushes;
  ASSERT_TRUE(crypt.Flush().ok());
  EXPECT_EQ(world.recorder.writes.size() - writes, 2u);
  EXPECT_EQ(world.recorder.flushes - flushes, 1u);
  EXPECT_EQ(crypt.stats().table_chunk_writes, 1u);
  EXPECT_EQ(crypt.stats().table_flushes, 1u);

  uint64_t per_chunk = crypt.block_size() / 8;
  for (uint64_t c = 0; c < world.chunks(); ++c) {
    ASSERT_LT(c * per_chunk, crypt.block_count());
    ASSERT_TRUE(
        crypt.WriteBlock(c * per_chunk, BufferFromString("every")).ok());
  }
  writes = world.recorder.writes.size();
  flushes = world.recorder.flushes;
  ASSERT_TRUE(crypt.Flush().ok());
  EXPECT_EQ(world.recorder.writes.size() - writes, world.chunks() + 1);
  EXPECT_EQ(world.recorder.flushes - flushes, 1u);
  // A flush with nothing dirty writes nothing.
  writes = world.recorder.writes.size();
  ASSERT_TRUE(crypt.Flush().ok());
  EXPECT_EQ(world.recorder.writes.size(), writes);
}

// Crash the host after every k-th inner write of a write + flush that
// touches two chunks (2 data writes, 2 chunks, 1 root). Remount always
// succeeds and both blocks read as one version: the old one, or the new
// one if the flush was acknowledged.
TEST(TableCommit, CrashAtEveryInnerWriteRemountsOldOrNew) {
  for (uint64_t k = 1; k <= 6; ++k) {
    DurableWorld world(4096);
    EncryptedBlockClient& crypt = *world.crypt;
    const uint64_t lbas[] = {7, crypt.block_size() / 8 + 7};  // chunks 0, 1
    for (uint64_t lba : lbas) {
      ASSERT_TRUE(crypt.WriteBlock(lba, BufferFromString("old")).ok());
    }
    ASSERT_TRUE(crypt.Flush().ok());

    world.device->CrashAfterWrites(k);
    ciobase::Status status = crypt.WriteBlock(lbas[0], BufferFromString("new"));
    if (status.ok()) {
      status = crypt.WriteBlock(lbas[1], BufferFromString("new"));
    }
    if (status.ok()) {
      status = crypt.Flush();
    }
    world.device->CrashAfterWrites(0);
    EXPECT_EQ(status.ok(), k == 6) << "k " << k;

    world.client->Reattach();
    ASSERT_TRUE(crypt.Remount().ok()) << "k " << k;
    auto first = crypt.ReadBlock(lbas[0]);
    auto second = crypt.ReadBlock(lbas[1]);
    ASSERT_TRUE(first.ok() && second.ok()) << "k " << k;
    EXPECT_EQ(*first, *second) << "k " << k << ": torn commit";
    EXPECT_EQ(*first, BufferFromString(status.ok() ? "new" : "old"))
        << "k " << k;
  }
}

// The host copies a chunk's previous authentic home over its current home.
// In session nothing reads the table, and the next persist of that chunk
// writes its other home, which heals it; a remount before that is
// kTampered.
TEST(TableCommit, StaleChunkOverCurrentHomeFailsRemountUntilRewritten) {
  DurableWorld world;
  EncryptedBlockClient& crypt = *world.crypt;
  auto flush_home = [&](const char* value) {
    EXPECT_TRUE(crypt.WriteBlock(0, BufferFromString(value)).ok());
    size_t mark = world.recorder.writes.size();
    EXPECT_TRUE(crypt.Flush().ok());
    return world.recorder.writes.at(mark).lba;  // the chunk precedes the root
  };
  auto copy_over = [&](uint64_t from, uint64_t to) {
    auto stale = world.client->ReadBlock(from);
    ASSERT_TRUE(stale.ok());
    ASSERT_TRUE(world.client->WriteBlock(to, *stale).ok());
    ASSERT_TRUE(world.client->Flush().ok());
  };

  uint64_t old_home = flush_home("v1");
  uint64_t current_home = flush_home("v2");
  ASSERT_NE(old_home, current_home);
  copy_over(old_home, current_home);
  auto read = crypt.ReadBlock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("v2"));
  EXPECT_EQ(flush_home("v3"), old_home);  // healed: the other home
  ASSERT_TRUE(crypt.Remount().ok());
  read = crypt.ReadBlock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("v3"));

  copy_over(current_home, old_home);  // v2's chunk over v3's
  EXPECT_EQ(crypt.Remount().code(), StatusCode::kTampered);
}

// Generations never wrap within a salt: near the end of the 2^24 low-bit
// range a write first burns a fresh epoch, so generations keep rising, and
// every block written on either side reads back after a remount.
TEST(TableCommit, GenerationsBurnAFreshSaltInsteadOfWrapping) {
  DurableWorld world;
  EncryptedBlockClient& crypt = *world.crypt;
  ASSERT_TRUE(crypt.WriteBlock(0, BufferFromString("block-0")).ok());
  crypt.set_session_writes_for_test(EncryptedBlockClient::kGenerationsPerSalt -
                                    40);
  uint64_t counter = world.counter.value();
  uint64_t previous = crypt.Generation(0);
  for (uint64_t lba = 1; lba <= 60; ++lba) {
    std::string value = "block-" + std::to_string(lba);
    ASSERT_TRUE(crypt.WriteBlock(lba, BufferFromString(value)).ok());
    EXPECT_GT(crypt.Generation(lba), previous) << "lba " << lba;
    previous = crypt.Generation(lba);
  }
  EXPECT_GT(world.counter.value(), counter);  // a salt was burned
  ASSERT_TRUE(crypt.Flush().ok());
  ASSERT_TRUE(crypt.Remount().ok());
  for (uint64_t lba = 0; lba <= 60; ++lba) {
    auto read = crypt.ReadBlock(lba);
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    EXPECT_EQ(*read, BufferFromString("block-" + std::to_string(lba)));
  }
  world.ExpectNoNonceSealsTwoPlaintexts();
}

// --- Full-stack crash recovery --------------------------------------------------

TEST(ConfidentialStoreCrash, CrashRemountRecovers) {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments(&costs);
  auto app = compartments.Create("app", 1 << 20);
  auto storage = compartments.Create("storage", 1 << 20);
  ciohost::Adversary adversary(13);
  ciohost::ObservabilityLog observability;
  ciotee::MonotonicCounter counter;

  ConfidentialStore::Options options;
  options.ring.block_count = 512;
  options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaaa");
  options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbbbb");
  options.recovery.enabled = true;
  options.rollback_counter = &counter;
  ConfidentialStore store(&memory, &compartments, app, storage, &costs,
                          &adversary, &observability, &clock, options);
  ASSERT_TRUE(store.Format().ok());
  ASSERT_TRUE(store.Put("k1", BufferFromString("survives")).ok());

  store.host_device()->SimulateCrash();
  EXPECT_EQ(store.Put("k2", BufferFromString("x")).code(),
            StatusCode::kLinkReset);
  EXPECT_TRUE(store.ring_client()->needs_remount());
  ASSERT_TRUE(store.Remount().ok());
  EXPECT_GT(store.stats().remounts, 0u);

  auto read = store.Get("k1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, BufferFromString("survives"));
  ASSERT_TRUE(store.Put("k2", BufferFromString("post-crash")).ok());
  auto read2 = store.Get("k2");
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(*read2, BufferFromString("post-crash"));
}

// A formatted store with durable generations and ring recovery, the
// configuration perfbench store-mixed runs. A Put or Delete flushes once,
// at its journal commit, and leaves its in-place inode-table write in the
// host's write-back cache.
struct DurableStoreWorld {
  static constexpr uint64_t kBlocks = 512;
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments{&costs};
  ciohost::Adversary adversary{17};
  ciohost::ObservabilityLog observability;
  ciotee::MonotonicCounter counter;
  std::unique_ptr<ConfidentialStore> store;

  DurableStoreWorld() {
    ConfidentialStore::Options options;
    options.ring.block_count = kBlocks;
    options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaaa");
    options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbbbb");
    options.recovery.enabled = true;
    options.rollback_counter = &counter;
    auto app = compartments.Create("app", 1 << 20);
    auto storage = compartments.Create("storage", 1 << 20);
    store = std::make_unique<ConfidentialStore>(
        &memory, &compartments, app, storage, &costs, &adversary,
        &observability, &clock, options);
    EXPECT_TRUE(store->Format().ok());
  }

  void ExpectValue(const char* name, const char* value) {
    auto read = store->Get(name);
    ASSERT_TRUE(read.ok()) << name << ": " << read.status().ToString();
    EXPECT_EQ(*read, BufferFromString(value)) << name;
  }
};

// The clean remount commits before it reloads, so the root it reloads
// covers the Put's in-place table write the host still caches: no replay.
TEST(ConfidentialStoreCrash, CleanRemountRightAfterAPutServesIt) {
  DurableStoreWorld world;
  ConfidentialStore& store = *world.store;
  ASSERT_TRUE(store.Put("k1", BufferFromString("acknowledged")).ok());
  ASSERT_TRUE(store.Remount().ok());
  EXPECT_EQ(store.fs()->stats().journal_replays, 0u);
  world.ExpectValue("k1", "acknowledged");
}

// The second Put rides out a counter stall on ring resets; the host keeps
// its cache across them, and the clean remount still commits it first.
TEST(ConfidentialStoreCrash, CleanRemountAfterARingResetServesBothPuts) {
  DurableStoreWorld world;
  ConfidentialStore& store = *world.store;
  ASSERT_TRUE(store.Put("k1", BufferFromString("before")).ok());
  uint64_t resets = store.ring_client()->stats().ring_resets;
  world.adversary.InjectFault({ciohost::FaultStrategy::kStallCounters,
                               world.clock.now_ns(), 3'000'000});
  ASSERT_TRUE(store.Put("k2", BufferFromString("through")).ok());
  EXPECT_GT(store.ring_client()->stats().ring_resets, resets);
  EXPECT_FALSE(store.ring_client()->needs_remount());
  ASSERT_TRUE(store.Remount().ok());
  world.ExpectValue("k1", "before");
  world.ExpectValue("k2", "through");
}

// The host restarts and no op notices before Remount: the remount's commit
// runs into the restart, so it reloads, and replay restores the second
// Put's table write, which died with the host's cache.
TEST(ConfidentialStoreCrash,
     RemountAfterAnUnseenRestartServesEveryAcknowledgedPut) {
  DurableStoreWorld world;
  ConfidentialStore& store = *world.store;
  ASSERT_TRUE(store.Put("k1", BufferFromString("first")).ok());
  ASSERT_TRUE(store.Put("k2", BufferFromString("second")).ok());
  store.host_device()->SimulateCrash();
  ASSERT_TRUE(store.Remount().ok());
  EXPECT_EQ(store.fs()->stats().journal_replays, 1u);
  world.ExpectValue("k1", "first");
  world.ExpectValue("k2", "second");
}

// Puts k1 (flushed) and k2 (committed), then plays a hostile host that
// persists k2's in-place table write across a crash but not the root the
// next commit would have written.
void PersistTableWriteWithoutItsRoot(ConfidentialStore& store) {
  HostBlockDevice& host = *store.host_device();
  ASSERT_TRUE(store.Put("k1", BufferFromString("flushed")).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Put("k2", BufferFromString("committed")).ok());

  // All the host still caches is k2's in-place table write.
  std::vector<std::pair<uint64_t, Buffer>> cached;
  for (uint64_t lba = 0; lba < DurableStoreWorld::kBlocks; ++lba) {
    ciobase::ByteSpan current = host.RawBlock(lba);
    ciobase::ByteSpan durable = host.RawDurableBlock(lba);
    if (!std::equal(current.begin(), current.end(), durable.begin(),
                    durable.end())) {
      cached.emplace_back(lba, Buffer(current.begin(), current.end()));
    }
  }
  ASSERT_EQ(cached.size(), 1u);
  const auto& [lba, bytes] = cached[0];
  host.SimulateCrash();
  // The restarted host writes it to the medium anyway.
  Buffer durable(host.RawDurableBlock(lba).begin(),
                 host.RawDurableBlock(lba).end());
  ASSERT_EQ(durable.size(), bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (durable[i] != bytes[i]) {
      ASSERT_TRUE(host.CorruptRawByte(lba, i, durable[i] ^ bytes[i]));
    }
  }
}

// The table block then fails its generation check: denial of service at
// Remount, never a wrong value.
TEST(ConfidentialStoreCrash, TableWritePersistedWithoutItsRootIsNeverBelieved) {
  DurableStoreWorld world;
  ConfidentialStore& store = *world.store;
  ASSERT_NO_FATAL_FAILURE(PersistTableWriteWithoutItsRoot(store));

  ciobase::Status remount = store.Remount();
  EXPECT_TRUE(remount.ok() || remount.code() == StatusCode::kTampered)
      << remount.ToString();
  const std::pair<const char*, const char*> puts[] = {{"k1", "flushed"},
                                                      {"k2", "committed"}};
  for (const auto& [name, value] : puts) {
    auto read = store.Get(name);
    if (read.ok()) {
      EXPECT_EQ(*read, BufferFromString(value)) << name;
    }
  }
}

// A remount that fails leaves the store unmounted: no operation runs on the
// half-loaded inode table, so no write can paper over the corrupt block and
// make a later remount succeed without the flushed k1.
TEST(ConfidentialStoreCrash, FailedRemountLeavesTheStoreUnmounted) {
  DurableStoreWorld world;
  ConfidentialStore& store = *world.store;
  ASSERT_NO_FATAL_FAILURE(PersistTableWriteWithoutItsRoot(store));

  ciobase::Status remount = store.Remount();
  ASSERT_EQ(remount.code(), StatusCode::kTampered) << remount.ToString();
  EXPECT_FALSE(store.fs()->mounted());
  EXPECT_EQ(store.Put("k3", BufferFromString("after")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Get("k1").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Delete("k2").code(), StatusCode::kFailedPrecondition);
  // Listing and sizing refuse too: an unmounted table is not an empty one.
  EXPECT_EQ(store.List().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.fs()->FileSize("k1").status().code(),
            StatusCode::kFailedPrecondition);

  for (int attempt = 0; attempt < 2; ++attempt) {
    ciobase::Status again = store.Remount();
    if (again.ok()) {
      world.ExpectValue("k1", "flushed");
    } else {
      EXPECT_EQ(again.code(), StatusCode::kTampered) << again.ToString();
    }
  }
}

// --- Campaign cells (also exercised under ASan via the test suite) --------------

TEST(StorageCampaign, CrashCellSurvives) {
  cio::StorageCampaignOptions options;
  options.ops_per_run = 20;
  options.max_crashes = 4;
  auto cell = cio::RunStorageCrashCell(3, options);
  EXPECT_TRUE(cell.survived) << cell.note;
  EXPECT_GT(cell.crashes, 0u);
  EXPECT_EQ(cell.lost_committed, 0u);
  EXPECT_EQ(cell.wrong_values, 0u);
  EXPECT_EQ(cell.tamper_alarms, 0u);
}

TEST(StorageCampaign, TornWriteFaultCellRecovers) {
  cio::StorageCampaignOptions options;
  options.ops_per_run = 20;
  auto cell =
      cio::RunStorageFaultCell(ciohost::FaultStrategy::kTornWrite, options);
  EXPECT_TRUE(cell.recovered) << cell.note;
  EXPECT_GT(cell.fault_events, 0u);
  EXPECT_EQ(cell.wrong_values, 0u);
  EXPECT_EQ(cell.lost_committed, 0u);
}

TEST(StorageCampaign, RollbackProbesShowTheGap) {
  auto durable = cio::RunStorageRollbackProbe(/*durable_generations=*/true);
  EXPECT_TRUE(durable.read_detected);
  EXPECT_TRUE(durable.remount_detected);
  EXPECT_FALSE(durable.stale_accepted);

  auto volatile_arm =
      cio::RunStorageRollbackProbe(/*durable_generations=*/false);
  EXPECT_TRUE(volatile_arm.read_detected);
  EXPECT_FALSE(volatile_arm.remount_detected);
  EXPECT_TRUE(volatile_arm.stale_accepted);
}

}  // namespace
