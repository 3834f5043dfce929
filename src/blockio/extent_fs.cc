#include "src/blockio/extent_fs.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/sha256.h"

namespace cioblock {

// Inode record (80 bytes):
//   [used u8][name 31 bytes zero-padded][size u64]
//   [extents: 4 x {start u32, count u32}]  (= 32 bytes)
//   [reserved to 80]
//
// Superblock (32 bytes):
//   [magic u32][version u32][inode_count u32][inode_blocks u32]
//   [journal_blocks u32][reserved u32][checksum u64 over bytes 0..24]
//
// Inode table block: InodesPerBlock() records, then a trailing u64
// checksum over everything before it. Plaintext deployments get corruption
// detection from the checksums; under EncryptedBlockClient the AEAD
// already rejects flipped bits, and the checksums catch software bugs.

namespace {

uint64_t Checksum64(ciobase::ByteSpan data) {
  auto digest = ciocrypto::Sha256::Hash(data);
  return ciobase::LoadLe64(digest.data());
}

}  // namespace

void ExtentFs::SerializeInode(const Inode& inode, uint8_t* p) {
  std::memset(p, 0, kInodeRecordSize);
  p[0] = inode.used ? 1 : 0;
  std::memcpy(p + 1, inode.name.data(), std::min(inode.name.size(), kMaxName));
  ciobase::StoreLe64(p + 32, inode.size);
  for (int e = 0; e < kMaxExtents; ++e) {
    ciobase::StoreLe32(p + 40 + e * 8, inode.extents[e].start);
    ciobase::StoreLe32(p + 44 + e * 8, inode.extents[e].count);
  }
}

ExtentFs::Inode ExtentFs::ParseInode(const uint8_t* p) {
  Inode inode;
  inode.used = p[0] != 0;
  if (!inode.used) {
    return Inode{};
  }
  size_t name_len = 0;
  while (name_len < kMaxName && p[1 + name_len] != 0) {
    ++name_len;
  }
  inode.name.assign(reinterpret_cast<const char*>(p + 1), name_len);
  inode.size = ciobase::LoadLe64(p + 32);
  for (int e = 0; e < kMaxExtents; ++e) {
    inode.extents[e].start = ciobase::LoadLe32(p + 40 + e * 8);
    inode.extents[e].count = ciobase::LoadLe32(p + 44 + e * 8);
  }
  return inode;
}

ciobase::Status ExtentFs::CheckGeometry() const {
  // Need room in a block for at least one inode record + checksum and for
  // a journal record (also guards the InodesPerBlock division).
  if (client_->block_size() < 128) {
    return ciobase::InvalidArgument("client block size too small for fs");
  }
  return ciobase::OkStatus();
}

ciobase::Status ExtentFs::WriteSuperblock() {
  ciobase::Buffer super(kSuperblockSize, 0);
  ciobase::StoreLe32(super.data(), kMagic);
  ciobase::StoreLe32(super.data() + 4, kVersion);
  ciobase::StoreLe32(super.data() + 8, inode_count_);
  ciobase::StoreLe32(super.data() + 12, inode_blocks_);
  ciobase::StoreLe32(super.data() + 16, kJournalBlocks);
  ciobase::StoreLe64(super.data() + 24,
                     Checksum64(ciobase::ByteSpan(super.data(), 24)));
  return client_->WriteBlock(0, super);
}

ciobase::Status ExtentFs::Format(uint32_t inode_count) {
  mounted_ = false;  // until the fresh image is written
  CIO_RETURN_IF_ERROR(CheckGeometry());
  inode_count_ = inode_count;
  inode_blocks_ = static_cast<uint32_t>(
      (inode_count + InodesPerBlock() - 1) / InodesPerBlock());
  if (DataStart() + 8 > client_->block_count()) {
    return ciobase::InvalidArgument("device too small");
  }
  CIO_RETURN_IF_ERROR(WriteSuperblock());
  // Kill any journal records left by a previous filesystem: a stale but
  // valid record would replay into the fresh image on the next mount.
  ciobase::Buffer dead(4, 0);
  for (uint32_t j = 0; j < kJournalBlocks; ++j) {
    CIO_RETURN_IF_ERROR(client_->WriteBlock(1 + j, dead));
  }
  inodes_.assign(inode_count_, Inode{});
  for (uint32_t b = 0; b < inode_blocks_; ++b) {
    CIO_RETURN_IF_ERROR(WriteInodeTableBlock(b));
  }
  block_used_.assign(client_->block_count() - DataStart(), false);
  journal_seq_ = 0;
  mounted_ = true;
  // A formatted filesystem should survive an immediate host crash.
  return client_->Flush();
}

ciobase::Status ExtentFs::LoadSuperblock() {
  CIO_RETURN_IF_ERROR(CheckGeometry());
  auto super = client_->ReadBlock(0);
  if (!super.ok()) {
    return super.status();
  }
  if (super->size() < kSuperblockSize ||
      ciobase::LoadLe32(super->data()) != kMagic) {
    return ciobase::FailedPrecondition("no filesystem (bad magic)");
  }
  if (ciobase::LoadLe64(super->data() + 24) !=
      Checksum64(ciobase::ByteSpan(super->data(), 24))) {
    return ciobase::Tampered("superblock checksum mismatch");
  }
  if (ciobase::LoadLe32(super->data() + 4) != kVersion) {
    return ciobase::FailedPrecondition("unsupported filesystem version");
  }
  inode_count_ = ciobase::LoadLe32(super->data() + 8);
  inode_blocks_ = ciobase::LoadLe32(super->data() + 12);
  if (ciobase::LoadLe32(super->data() + 16) != kJournalBlocks ||
      inode_count_ == 0 || inode_count_ > 4096 ||
      inode_blocks_ != (inode_count_ + InodesPerBlock() - 1) /
                           InodesPerBlock() ||
      DataStart() + 1 > client_->block_count()) {
    return ciobase::Tampered("superblock geometry inconsistent");
  }
  return ciobase::OkStatus();
}

ciobase::Status ExtentFs::ReadInodeTable(RepairReport* repair) {
  inodes_.assign(inode_count_, Inode{});
  size_t per_block = InodesPerBlock();
  size_t block_size = client_->block_size();
  for (uint32_t b = 0; b < inode_blocks_; ++b) {
    auto block = client_->ReadBlock(InodeTableStart() + b);
    bool bad = false;
    if (!block.ok()) {
      if (block.status().code() != ciobase::StatusCode::kTampered) {
        return block.status();  // transport trouble, not corruption
      }
      bad = true;
    } else if (block->empty()) {
      continue;  // never-written table block: all free
    } else if (block->size() < block_size ||
               ciobase::LoadLe64(block->data() + block_size - 8) !=
                   Checksum64(
                       ciobase::ByteSpan(block->data(), block_size - 8))) {
      bad = true;
    }
    if (bad) {
      if (repair == nullptr) {
        return ciobase::Tampered("inode table block corrupt");
      }
      ++repair->dropped_inode_blocks;
      continue;  // those inodes read as free; journal replay may revive them
    }
    for (size_t i = 0; i < per_block; ++i) {
      size_t index = b * per_block + i;
      if (index >= inode_count_) {
        break;
      }
      inodes_[index] = ParseInode(block->data() + i * kInodeRecordSize);
    }
  }
  return ciobase::OkStatus();
}

ciobase::Status ExtentFs::ReplayJournal(RepairReport* repair,
                                        uint32_t* replayed) {
  journal_seq_ = 0;
  struct Record {
    uint64_t seq;
    uint32_t op;
    uint32_t index;
    Inode inode;
  };
  std::vector<Record> records;
  for (uint32_t j = 0; j < kJournalBlocks; ++j) {
    auto block = client_->ReadBlock(1 + j);
    if (!block.ok()) {
      if (block.status().code() != ciobase::StatusCode::kTampered) {
        return block.status();
      }
      // A corrupt journal slot is legitimate crash debris (a torn commit
      // record): the record simply did not commit.
      ++stats_.invalid_journal_slots;
      if (repair != nullptr) {
        ++repair->invalid_journal_slots;
      }
      continue;
    }
    if (block->size() < kJournalRecordSize) {
      continue;  // empty or retired slot
    }
    const uint8_t* p = block->data();
    if (ciobase::LoadLe32(p) == 0) {
      continue;  // retired slot (zero-padded read of a dead record)
    }
    if (ciobase::LoadLe32(p) != kJournalMagic ||
        ciobase::LoadLe64(p + 104) !=
            Checksum64(ciobase::ByteSpan(p, 104))) {
      ++stats_.invalid_journal_slots;
      if (repair != nullptr) {
        ++repair->invalid_journal_slots;
      }
      continue;
    }
    Record rec;
    rec.op = ciobase::LoadLe32(p + 4);
    rec.seq = ciobase::LoadLe64(p + 8);
    rec.index = ciobase::LoadLe32(p + 16);
    rec.inode = ParseInode(p + 24);
    if ((rec.op != kJournalOpSet && rec.op != kJournalOpClear) ||
        rec.index >= inode_count_) {
      ++stats_.invalid_journal_slots;
      if (repair != nullptr) {
        ++repair->invalid_journal_slots;
      }
      continue;
    }
    records.push_back(std::move(rec));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  for (const Record& rec : records) {
    journal_seq_ = std::max(journal_seq_, rec.seq);
    Inode target = rec.op == kJournalOpSet ? rec.inode : Inode{};
    uint8_t current[kInodeRecordSize];
    uint8_t wanted[kInodeRecordSize];
    SerializeInode(inodes_[rec.index], current);
    SerializeInode(target, wanted);
    if (std::memcmp(current, wanted, kInodeRecordSize) == 0) {
      continue;  // table already reflects this record
    }
    inodes_[rec.index] = std::move(target);
    CIO_RETURN_IF_ERROR(FlushInode(static_cast<int>(rec.index)));
    ++stats_.journal_replays;
    if (repair != nullptr) {
      ++repair->journal_replays;
    }
    if (replayed != nullptr) {
      ++*replayed;
    }
  }
  return ciobase::OkStatus();
}

ciobase::Status ExtentFs::ValidateInodesAndRebuildBitmap(
    RepairReport* repair) {
  std::vector<bool> used(client_->block_count() - DataStart(), false);
  size_t block_size = client_->block_size();
  for (size_t index = 0; index < inodes_.size(); ++index) {
    Inode& inode = inodes_[index];
    if (!inode.used) {
      continue;
    }
    std::vector<uint64_t> covered;
    bool valid = true;
    for (const Extent& extent : inode.extents) {
      for (uint32_t i = 0; i < extent.count && valid; ++i) {
        uint64_t block = static_cast<uint64_t>(extent.start) + i;
        if (block < DataStart() || block - DataStart() >= used.size() ||
            used[block - DataStart()]) {
          valid = false;  // out of range or overlapping another inode
          break;
        }
        covered.push_back(block - DataStart());
      }
    }
    if (valid && inode.size > covered.size() * block_size) {
      valid = false;  // claims more bytes than its extents hold
    }
    if (!valid) {
      if (repair == nullptr) {
        return ciobase::Tampered("inode extents inconsistent");
      }
      ++repair->dropped_inodes;
      inode = Inode{};
      CIO_RETURN_IF_ERROR(FlushInode(static_cast<int>(index)));
      continue;
    }
    for (uint64_t b : covered) {
      used[b] = true;
    }
  }
  block_used_ = std::move(used);
  return ciobase::OkStatus();
}

ciobase::Status ExtentFs::Mount() {
  mounted_ = false;  // until the whole image has loaded
  CIO_RETURN_IF_ERROR(LoadSuperblock());
  CIO_RETURN_IF_ERROR(ReadInodeTable(nullptr));
  uint32_t replayed = 0;
  CIO_RETURN_IF_ERROR(ReplayJournal(nullptr, &replayed));
  CIO_RETURN_IF_ERROR(ValidateInodesAndRebuildBitmap(nullptr));
  if (replayed > 0) {
    // Make the replay repairs durable so the journal work is not redone
    // (and cannot be lost) on the next crash.
    CIO_RETURN_IF_ERROR(client_->Flush());
  }
  mounted_ = true;
  ++stats_.mounts;
  return ciobase::OkStatus();
}

ciobase::Result<ExtentFs::RepairReport> ExtentFs::ScanAndRepair() {
  RepairReport report;
  mounted_ = false;  // until the whole image has loaded
  // No geometry, nothing to repair from.
  CIO_RETURN_IF_ERROR(LoadSuperblock());
  CIO_RETURN_IF_ERROR(ReadInodeTable(&report));
  CIO_RETURN_IF_ERROR(ReplayJournal(&report, nullptr));
  CIO_RETURN_IF_ERROR(ValidateInodesAndRebuildBitmap(&report));
  // Rewrite dropped table blocks clean so the next strict Mount succeeds.
  if (report.dropped_inode_blocks > 0) {
    for (uint32_t b = 0; b < inode_blocks_; ++b) {
      CIO_RETURN_IF_ERROR(WriteInodeTableBlock(b));
    }
  }
  if (report.repaired()) {
    CIO_RETURN_IF_ERROR(client_->Flush());
  }
  mounted_ = true;
  ++stats_.mounts;
  return report;
}

ciobase::Status ExtentFs::WriteInodeTableBlock(uint32_t table_block) {
  size_t per_block = InodesPerBlock();
  size_t block_size = client_->block_size();
  ciobase::Buffer data(block_size, 0);
  for (size_t i = 0; i < per_block; ++i) {
    size_t index = table_block * per_block + i;
    if (index >= inodes_.size()) {
      break;
    }
    SerializeInode(inodes_[index], data.data() + i * kInodeRecordSize);
  }
  ciobase::StoreLe64(data.data() + block_size - 8,
                     Checksum64(ciobase::ByteSpan(data.data(),
                                                  block_size - 8)));
  return client_->WriteBlock(InodeTableStart() + table_block, data);
}

ciobase::Status ExtentFs::FlushInode(int index) {
  return WriteInodeTableBlock(
      static_cast<uint32_t>(index / InodesPerBlock()));
}

ciobase::Status ExtentFs::AppendJournal(uint32_t op, uint32_t index,
                                        const Inode& record) {
  ++journal_seq_;
  ciobase::Buffer rec(kJournalRecordSize, 0);
  ciobase::StoreLe32(rec.data(), kJournalMagic);
  ciobase::StoreLe32(rec.data() + 4, op);
  ciobase::StoreLe64(rec.data() + 8, journal_seq_);
  ciobase::StoreLe32(rec.data() + 16, index);
  SerializeInode(record, rec.data() + 24);
  ciobase::StoreLe64(rec.data() + 104,
                     Checksum64(ciobase::ByteSpan(rec.data(), 104)));
  ++stats_.journal_appends;
  return client_->WriteBlock(1 + (journal_seq_ % kJournalBlocks), rec);
}

int ExtentFs::FindInode(std::string_view name) const {
  for (size_t i = 0; i < inodes_.size(); ++i) {
    if (inodes_[i].used && inodes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int ExtentFs::FindFreeInode() const {
  for (size_t i = 0; i < inodes_.size(); ++i) {
    if (!inodes_[i].used) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t ExtentFs::FreeBlocks() const {
  size_t free_count = 0;
  for (bool used : block_used_) {
    if (!used) {
      ++free_count;
    }
  }
  return free_count;
}

ciobase::Result<std::vector<ExtentFs::Extent>> ExtentFs::AllocateExtents(
    size_t blocks) {
  std::vector<Extent> extents;
  size_t remaining = blocks;
  size_t i = 0;
  while (remaining > 0 && i < block_used_.size()) {
    if (block_used_[i]) {
      ++i;
      continue;
    }
    // Grow a run from i.
    size_t run = 0;
    while (i + run < block_used_.size() && !block_used_[i + run] &&
           run < remaining) {
      ++run;
    }
    if (extents.size() == kMaxExtents) {
      return ciobase::ResourceExhausted("file too fragmented");
    }
    extents.push_back(Extent{static_cast<uint32_t>(DataStart() + i),
                             static_cast<uint32_t>(run)});
    for (size_t j = 0; j < run; ++j) {
      block_used_[i + j] = true;
    }
    remaining -= run;
    i += run;
  }
  if (remaining > 0) {
    // Roll back.
    for (const Extent& extent : extents) {
      for (uint32_t j = 0; j < extent.count; ++j) {
        block_used_[extent.start - DataStart() + j] = false;
      }
    }
    return ciobase::ResourceExhausted("out of space");
  }
  return extents;
}

void ExtentFs::ReleaseExtents(const Inode& inode) {
  for (const Extent& extent : inode.extents) {
    for (uint32_t j = 0; j < extent.count; ++j) {
      uint64_t block = extent.start + j;
      if (block >= DataStart() &&
          block - DataStart() < block_used_.size()) {
        block_used_[block - DataStart()] = false;
      }
    }
  }
}

ciobase::Status ExtentFs::WriteFile(std::string_view name,
                                    ciobase::ByteSpan data) {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  if (name.empty() || name.size() > kMaxName) {
    return ciobase::InvalidArgument("bad file name");
  }
  int index = FindInode(name);
  bool existed = index >= 0;
  if (!existed) {
    index = FindFreeInode();
    if (index < 0) {
      return ciobase::ResourceExhausted("out of inodes");
    }
  }
  Inode old = inodes_[index];
  size_t block_size = client_->block_size();
  size_t blocks = (data.size() + block_size - 1) / block_size;

  // Free old extents first so rewrites can reuse their own space.
  if (existed) {
    ReleaseExtents(old);
  }
  auto extents = AllocateExtents(blocks);
  auto restore_old = [&]() {
    if (extents.ok()) {
      for (const Extent& extent : *extents) {
        for (uint32_t j = 0; j < extent.count; ++j) {
          block_used_[extent.start - DataStart() + j] = false;
        }
      }
    }
    if (existed) {
      for (const Extent& extent : old.extents) {
        for (uint32_t j = 0; j < extent.count; ++j) {
          block_used_[extent.start - DataStart() + j] = true;
        }
      }
    }
  };
  if (!extents.ok()) {
    restore_old();
    return extents.status();
  }

  // 1. Data lands in the NEW extents; the old version stays intact and
  //    referenced by the durable inode until the journal record commits.
  size_t written = 0;
  for (const Extent& extent : *extents) {
    for (uint32_t j = 0; j < extent.count; ++j) {
      size_t n = std::min(block_size, data.size() - written);
      ciobase::Status st =
          client_->WriteBlock(extent.start + j, data.subspan(written, n));
      if (!st.ok()) {
        // Nothing journaled yet: the old version is still the truth.
        restore_old();
        return st;
      }
      written += n;
    }
  }

  Inode updated;
  updated.used = true;
  updated.name = std::string(name);
  updated.size = data.size();
  for (int e = 0; e < kMaxExtents; ++e) {
    updated.extents[e] =
        e < static_cast<int>(extents->size()) ? (*extents)[e] : Extent{};
  }
  inodes_[index] = updated;

  // 2.+3. Journal the whole-inode commit record and flush: the commit
  // point. From here on we never roll the in-memory state back — on error
  // the commit is merely *uncertain* (the caller sees the error; a crash
  // resolves it via journal replay at the next mount).
  CIO_RETURN_IF_ERROR(
      AppendJournal(kJournalOpSet, static_cast<uint32_t>(index), updated));
  CIO_RETURN_IF_ERROR(client_->Flush());

  // 4. In-place table update, left unflushed: replay of the commit record
  //    restores it after a crash, and the next commit, a Flush() or a
  //    clean remount persists it, long before the record's slot is reused
  //    kJournalBlocks commits later.
  return FlushInode(index);
}

ciobase::Result<ciobase::Buffer> ExtentFs::ReadFile(std::string_view name) {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  int index = FindInode(name);
  if (index < 0) {
    return ciobase::NotFound("no such file");
  }
  const Inode& inode = inodes_[index];
  ciobase::Buffer out;
  out.reserve(inode.size);
  for (const Extent& extent : inode.extents) {
    for (uint32_t j = 0; j < extent.count && out.size() < inode.size; ++j) {
      auto block = client_->ReadBlock(extent.start + j);
      if (!block.ok()) {
        return block.status();
      }
      size_t take = std::min<size_t>(client_->block_size(),
                                     inode.size - out.size());
      block->resize(std::max(block->size(), take), 0);
      out.insert(out.end(), block->begin(),
                 block->begin() + static_cast<long>(take));
    }
  }
  if (out.size() != inode.size) {
    return ciobase::Tampered("file shorter than inode size");
  }
  return out;
}

ciobase::Status ExtentFs::DeleteFile(std::string_view name) {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  int index = FindInode(name);
  if (index < 0) {
    return ciobase::NotFound("no such file");
  }
  Inode old = inodes_[index];
  inodes_[index] = Inode{};
  ciobase::Status st =
      AppendJournal(kJournalOpClear, static_cast<uint32_t>(index), Inode{});
  if (!st.ok()) {
    inodes_[index] = old;  // nothing journaled: the file still exists
    return st;
  }
  // Commit point. Extents are released only once the clear record is
  // durable — reusing them earlier could let a new file claim blocks an
  // old (still-durable) inode references, which a crash would surface as
  // an extent overlap.
  CIO_RETURN_IF_ERROR(client_->Flush());
  ReleaseExtents(old);
  return FlushInode(index);  // unflushed, as in WriteFile's step 4
}

ciobase::Result<std::vector<std::string>> ExtentFs::ListFiles() const {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  std::vector<std::string> names;
  for (const Inode& inode : inodes_) {
    if (inode.used) {
      names.push_back(inode.name);
    }
  }
  return names;
}

ciobase::Result<size_t> ExtentFs::FileSize(std::string_view name) const {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  int index = FindInode(name);
  if (index < 0) {
    return ciobase::NotFound("no such file");
  }
  return static_cast<size_t>(inodes_[index].size);
}

ciobase::Status ExtentFs::Flush() {
  if (!mounted_) {
    return ciobase::FailedPrecondition("not mounted");
  }
  return client_->Flush();
}

}  // namespace cioblock
