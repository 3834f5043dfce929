// ExtentFs: a small crash-consistent extent filesystem over a BlockClient.
//
// This is the high-level half of the §3.3 storage story: it plays the role
// of the filesystem that would live in the storage compartment, exposing
// file operations at the upper boundary while the block ring below is the
// hardened low-level boundary. Deliberately simple but complete: a flat
// namespace, an inode table with up to four extents per file, a block
// allocation bitmap, and create/write/read/delete/list operations.
//
// On-disk layout (logical blocks of the underlying client):
//   block 0                      superblock (checksummed)
//   blocks 1..kJournalBlocks     write-ahead journal ring (one record/slot)
//   next inode_blocks blocks     inode table (trailing checksum per block)
//   the rest                     data blocks
//
// Crash consistency: WriteFile/DeleteFile are atomic against host crashes.
// The sequence is (1) write the new data extents, (2) append a checksummed,
// sequence-stamped journal record carrying the new inode, (3) flush — the
// commit point, and the operation's only flush: once it is acknowledged
// the update is durable — then (4) rewrite the inode-table block in place,
// unflushed. The next operation's commit flush, an explicit Flush(), or a
// clean remount (ConfidentialStore::Remount) makes (4) durable. A crash
// before (3) leaves the old version; a crash after (3) loses (4) with the
// host's write-back cache and is repaired by Mount(), which replays
// surviving journal records in sequence order over the inode table
// (idempotently: records are whole-inode images, and a slot is only ever
// overwritten by a record kJournalBlocks sequence numbers later, so the
// journal can never hold an older image of an inode while missing a newer
// one, and a record is dropped only after the next commit persisted its
// step (4)). ScanAndRepair() is the fsck path: it additionally drops
// corrupt inode-table blocks and inodes with out-of-range or overlapping
// extents instead of refusing to mount.
//
// Write semantics are whole-file (write replaces content), which matches
// the Put/Get object-store surface the examples build on.

#ifndef SRC_BLOCKIO_EXTENT_FS_H_
#define SRC_BLOCKIO_EXTENT_FS_H_

#include <string>
#include <vector>

#include "src/blockio/block_ring.h"

namespace cioblock {

class ExtentFs {
 public:
  static constexpr uint32_t kMagic = 0xC10F5AFE;
  static constexpr uint32_t kVersion = 2;
  static constexpr size_t kMaxName = 31;
  static constexpr int kMaxExtents = 4;
  static constexpr uint32_t kJournalBlocks = 8;

  explicit ExtentFs(BlockClient* client) : client_(client) {}

  // Initializes an empty filesystem (destroys existing content) and
  // flushes, so a freshly formatted image survives an immediate crash.
  ciobase::Status Format(uint32_t inode_count = 64);
  // Loads the superblock and inode table, replays the journal, and
  // validates extents. Fails (without crashing) on inconsistent images:
  // kFailedPrecondition for "not a filesystem", kTampered for corruption.
  // A failed Format, Mount or ScanAndRepair leaves the filesystem
  // unmounted: file operations fail kFailedPrecondition until one succeeds.
  ciobase::Status Mount();

  // fsck: like Mount, but salvages what it can — corrupt inode-table
  // blocks and inodes with invalid extents are dropped (and rewritten
  // clean) rather than failing the mount. The superblock must still be
  // intact; there is no geometry to repair from if it is not.
  struct RepairReport {
    uint32_t dropped_inode_blocks = 0;
    uint32_t dropped_inodes = 0;
    uint32_t invalid_journal_slots = 0;
    uint32_t journal_replays = 0;
    bool repaired() const {
      return dropped_inode_blocks != 0 || dropped_inodes != 0 ||
             journal_replays != 0;
    }
  };
  ciobase::Result<RepairReport> ScanAndRepair();

  ciobase::Status WriteFile(std::string_view name, ciobase::ByteSpan data);
  ciobase::Result<ciobase::Buffer> ReadFile(std::string_view name);
  ciobase::Status DeleteFile(std::string_view name);
  // Like every file call, kFailedPrecondition while unmounted: an
  // unmounted table is not an empty one.
  ciobase::Result<std::vector<std::string>> ListFiles() const;
  ciobase::Result<size_t> FileSize(std::string_view name) const;
  // Durability barrier for everything written so far.
  ciobase::Status Flush();

  size_t FreeBlocks() const;
  bool mounted() const { return mounted_; }

  struct Stats {
    uint64_t mounts = 0;
    uint64_t journal_replays = 0;
    uint64_t invalid_journal_slots = 0;
    uint64_t journal_appends = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Extent {
    uint32_t start = 0;
    uint32_t count = 0;
  };
  struct Inode {
    bool used = false;
    uint64_t size = 0;
    std::string name;
    Extent extents[kMaxExtents];
  };

  static constexpr size_t kInodeRecordSize = 80;
  static constexpr size_t kSuperblockSize = 32;
  // Journal record: [magic u32][op u32][seq u64][inode u32][rsvd u32]
  //                 [inode record 80][checksum u64].
  static constexpr size_t kJournalRecordSize = 112;
  static constexpr uint32_t kJournalMagic = 0x4A524E31;  // "JRN1"
  static constexpr uint32_t kJournalOpSet = 1;
  static constexpr uint32_t kJournalOpClear = 2;

  uint32_t InodeTableStart() const { return 1 + kJournalBlocks; }
  uint32_t DataStart() const { return InodeTableStart() + inode_blocks_; }
  int FindInode(std::string_view name) const;
  int FindFreeInode() const;
  static void SerializeInode(const Inode& inode, uint8_t* out);
  static Inode ParseInode(const uint8_t* p);
  ciobase::Status CheckGeometry() const;
  ciobase::Status WriteSuperblock();
  ciobase::Status LoadSuperblock();
  // Serializes the whole table block containing `index` from memory
  // (checksummed); no read-modify-write, so it also repairs corrupt blocks.
  ciobase::Status WriteInodeTableBlock(uint32_t table_block);
  ciobase::Status FlushInode(int index);
  // repair == nullptr: strict (corruption fails the mount).
  ciobase::Status ReadInodeTable(RepairReport* repair);
  // The journal is always read leniently: torn records are legitimate
  // crash debris, never a reason to refuse the mount.
  ciobase::Status ReplayJournal(RepairReport* repair, uint32_t* replayed);
  ciobase::Status ValidateInodesAndRebuildBitmap(RepairReport* repair);
  ciobase::Status AppendJournal(uint32_t op, uint32_t index,
                                const Inode& record);
  // Allocates `blocks` data blocks into at most kMaxExtents extents.
  ciobase::Result<std::vector<Extent>> AllocateExtents(size_t blocks);
  void ReleaseExtents(const Inode& inode);
  size_t InodesPerBlock() const {
    return (client_->block_size() - 8) / kInodeRecordSize;
  }

  BlockClient* client_;
  bool mounted_ = false;
  uint32_t inode_count_ = 0;
  uint32_t inode_blocks_ = 0;
  uint64_t journal_seq_ = 0;
  std::vector<Inode> inodes_;
  std::vector<bool> block_used_;  // data-block allocation bitmap
  Stats stats_;
};

}  // namespace cioblock

#endif  // SRC_BLOCKIO_EXTENT_FS_H_
