#include "src/blockio/crypt_client.h"

#include <algorithm>
#include <cstring>

#include "src/base/coverage.h"
#include "src/crypto/hkdf.h"

namespace cioblock {
namespace {

// A data block or chunk stores its generation, the head of its nonce.
constexpr size_t kGenerationBytes = 8;
// A root stores its whole synthetic nonce.
constexpr size_t kRootOverhead =
    ciocrypto::kAeadNonceSize + 4 + ciocrypto::kAeadTagSize;
// Root plaintext: [epoch u64], then per chunk [generation u64][home u8].
constexpr size_t kRootEpochBytes = 8;
constexpr size_t kRootEntryBytes = 9;
// Bound into a root's associated data in place of an LBA.
constexpr uint64_t kRootLba = ~0ULL;
constexpr int kSaltShift = 24;

}  // namespace

// Stored block layout: [nonce head][sealed_len u32][ciphertext || tag].
// The head (a generation, or a root's whole nonce) and sealed_len are bound
// into the AEAD associated data along with the LBA, so the host cannot
// tamper with them undetected.

EncryptedBlockClient::EncryptedBlockClient(BlockClient* inner,
                                           ciobase::ByteSpan key,
                                           ciobase::CostModel* costs,
                                           CryptClientOptions options)
    : inner_(inner), key_(ciocrypto::DeriveAeadKey(key)), costs_(costs),
      options_(options) {
  // Satellite fix: the old code computed inner block_size - kOverhead
  // unconditionally, underflowing for tiny inner blocks. Validate the
  // geometry once here; an invalid client fails every op cleanly.
  uint32_t inner_bs = inner_->block_size();
  uint64_t inner_count = inner_->block_count();
  if (inner_bs <= kOverhead) {
    geometry_status_ = ciobase::InvalidArgument(
        "inner block size too small for AEAD overhead");
    return;
  }
  usable_block_size_ = inner_bs - kOverhead;
  if (options_.durable_generations) {
    if (options_.rollback_counter == nullptr) {
      geometry_status_ = ciobase::InvalidArgument(
          "durable generations require a rollback counter");
      return;
    }
    // Two root slots and two homes for each of T chunks at the head of the
    // inner device: smallest T whose chunks cover every remaining data
    // block's generation entry, i.e. T * epc >= count - 2 - 2T.
    uint64_t epc = EntriesPerChunk();
    uint64_t t = 1;
    if (inner_count > kRootSlots + 2) {
      t = (inner_count - kRootSlots + epc + 1) / (epc + 2);  // rounded up
    }
    if (kRootSlots + 2 * t >= inner_count) {
      geometry_status_ = ciobase::InvalidArgument(
          "device too small for the generation table");
      return;
    }
    if (kRootOverhead + kRootEpochBytes + t * kRootEntryBytes > inner_bs) {
      geometry_status_ = ciobase::InvalidArgument(
          "generation table root does not fit one block");
      return;
    }
    reserved_blocks_ = kRootSlots + 2 * t;
    chunks_.resize(t);
    root_nonce_key_ = ciocrypto::HkdfExpandLabel(key_, "root nonce", {},
                                                 ciocrypto::kAeadKeySize);
  } else {
    session_established_ = true;  // volatile mode needs no mount handshake
  }
  data_block_count_ = inner_count - reserved_blocks_;
}

ciobase::Buffer EncryptedBlockClient::NonceFor(uint64_t lba,
                                               uint64_t generation) const {
  // Generations are globally unique across the disk's lifetime (volatile:
  // per-process counter; durable: session epoch salt in the high bits), so
  // the nonce is unique even before mixing in the LBA.
  ciobase::Buffer nonce(ciocrypto::kAeadNonceSize, 0);
  ciobase::StoreLe64(nonce.data(), generation);
  ciobase::StoreLe32(nonce.data() + 8, static_cast<uint32_t>(lba));
  return nonce;
}

ciobase::Buffer EncryptedBlockClient::Seal(uint64_t lba,
                                           ciobase::ByteSpan nonce,
                                           size_t head,
                                           ciobase::ByteSpan plaintext) const {
  uint32_t sealed_len =
      static_cast<uint32_t>(plaintext.size() + ciocrypto::kAeadTagSize);
  ciobase::Buffer stored;
  stored.reserve(head + 4 + sealed_len);
  stored.assign(nonce.begin(), nonce.begin() + head);
  stored.resize(head + 4);
  ciobase::StoreLe32(stored.data() + head, sealed_len);
  uint8_t aad[8 + ciocrypto::kAeadNonceSize + 4];
  ciobase::StoreLe64(aad, lba);
  std::memcpy(aad + 8, stored.data(), stored.size());
  if (costs_ != nullptr) {
    costs_->ChargeAead(plaintext.size());
  }
  ciocrypto::AeadSealInto(key_, nonce, ciobase::ByteSpan(aad, 8 + head + 4),
                          plaintext, stored);
  return stored;
}

ciobase::Result<ciobase::Buffer> EncryptedBlockClient::Open(
    uint64_t lba, ciobase::ByteSpan nonce, size_t head,
    ciobase::ByteSpan stored) const {
  if (stored.size() < head + 4 + ciocrypto::kAeadTagSize) {
    CIO_COV("crypt.open.truncated", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("stored block truncated");
  }
  uint32_t sealed_len = ciobase::LoadLe32(stored.data() + head);
  if (sealed_len < ciocrypto::kAeadTagSize ||
      head + 4 + static_cast<size_t>(sealed_len) > stored.size()) {
    CIO_COV("crypt.open.length_forged", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("stored block length forged");
  }
  uint8_t aad[8 + ciocrypto::kAeadNonceSize + 4];
  ciobase::StoreLe64(aad, lba);
  std::memcpy(aad + 8, stored.data(), head + 4);
  if (costs_ != nullptr) {
    costs_->ChargeAead(sealed_len);
  }
  auto opened = ciocrypto::AeadOpen(key_, nonce,
                                    ciobase::ByteSpan(aad, 8 + head + 4),
                                    stored.subspan(head + 4, sealed_len));
  if (!opened.ok()) {
    CIO_COV("crypt.open.auth_failed", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("block authentication failed");
  }
  CIO_COV("crypt.open.ok", ciobase::StatusCode::kOk);
  return opened;
}

ciobase::Result<uint64_t> EncryptedBlockClient::NextGeneration() {
  if (!options_.durable_generations) {
    return ++session_writes_;
  }
  if (session_writes_ + 1 >= kGenerationsPerSalt) {
    // The low bits would wrap onto generations this salt already issued.
    // WriteBlock burns a new salt well before this; only commits that keep
    // failing get here.
    return ciobase::ResourceExhausted("session salt spent; remount");
  }
  ++session_writes_;
  return (session_salt_ << kSaltShift) | session_writes_;
}

ciobase::Status EncryptedBlockClient::EnsureSession() {
  CIO_RETURN_IF_ERROR(geometry_status_);
  if (session_established_) {
    return ciobase::OkStatus();
  }
  return Remount();
}

ciobase::Status EncryptedBlockClient::WriteBlock(uint64_t lba,
                                                 ciobase::ByteSpan data) {
  CIO_RETURN_IF_ERROR(EnsureSession());
  if (lba >= data_block_count_) {
    return ciobase::OutOfRange("lba beyond usable device");
  }
  if (data.size() > usable_block_size_) {
    return ciobase::InvalidArgument("plaintext exceeds usable block size");
  }
  // Burn a fresh salt while this one still has room for this write, one
  // commit before the next write, and the burn's own commit: a commit
  // seals at most one generation per chunk.
  if (options_.durable_generations &&
      session_writes_ + 2 * chunks_.size() + 1 >= kGenerationsPerSalt) {
    CIO_RETURN_IF_ERROR(Commit(/*burn=*/true));
  }
  CIO_ASSIGN_OR_RETURN(uint64_t generation, NextGeneration());
  CIO_RETURN_IF_ERROR(inner_->WriteBlock(
      lba + reserved_blocks_,
      Seal(lba, NonceFor(lba, generation), kGenerationBytes, data)));
  generations_[lba] = generation;
  if (options_.durable_generations) {
    dirty_chunks_.insert(lba / EntriesPerChunk());
  }
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::Buffer> EncryptedBlockClient::ReadBlock(
    uint64_t lba) {
  CIO_RETURN_IF_ERROR(EnsureSession());
  if (lba >= data_block_count_) {
    return ciobase::OutOfRange("lba beyond usable device");
  }
  auto stored = inner_->ReadBlock(lba + reserved_blocks_);
  if (!stored.ok()) {
    return stored.status();
  }
  // Never-written blocks are all-zero images; report them as empty.
  bool all_zero = true;
  for (uint8_t b : *stored) {
    if (b != 0) {
      all_zero = false;
      break;
    }
  }
  auto it = generations_.find(lba);
  if (all_zero) {
    if (it != generations_.end()) {
      return ciobase::Tampered("host erased a written block");
    }
    return ciobase::Buffer{};
  }
  if (stored->size() < kOverhead) {
    return ciobase::Tampered("stored block truncated");
  }
  uint64_t generation = ciobase::LoadLe64(stored->data());
  if (it != generations_.end()) {
    if (generation != it->second) {
      return ciobase::Tampered("block rollback or replay detected");
    }
  } else if (options_.durable_generations) {
    // Durable mode tracks every flushed block; an untracked non-zero block
    // can only be host fabrication (unflushed writes die wholesale).
    return ciobase::Tampered("block not in the generation table");
  }
  auto opened =
      Open(lba, NonceFor(lba, generation), kGenerationBytes, *stored);
  if (!opened.ok()) {
    return opened.status();
  }
  // Volatile mode adopts authenticated blocks it has not seen (fresh
  // client over an existing image).
  generations_[lba] = generation;
  return opened;
}

ciobase::Buffer EncryptedBlockClient::ChunkPlaintext(uint64_t chunk) const {
  uint64_t epc = EntriesPerChunk();
  ciobase::Buffer plain(epc * 8, 0);
  for (auto it = generations_.lower_bound(chunk * epc);
       it != generations_.end() && it->first < (chunk + 1) * epc; ++it) {
    ciobase::StoreLe64(plain.data() + (it->first - chunk * epc) * 8,
                       it->second);
  }
  return plain;
}

ciobase::Status EncryptedBlockClient::PersistGenerations() {
  std::vector<ChunkRef> next = chunks_;
  for (uint64_t c : dirty_chunks_) {
    CIO_ASSIGN_OR_RETURN(uint64_t generation, NextGeneration());
    ChunkRef ref{generation, static_cast<uint8_t>(1 - chunks_[c].home)};
    uint64_t lba = kTableLbaBase + c;
    CIO_RETURN_IF_ERROR(inner_->WriteBlock(
        ChunkBlock(c, ref.home), Seal(lba, NonceFor(lba, generation),
                                      kGenerationBytes, ChunkPlaintext(c))));
    next[c] = ref;
    ++stats_.table_chunk_writes;
  }
  CIO_RETURN_IF_ERROR(WriteRoot(next));
  dirty_chunks_.clear();
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::WriteRoot(
    const std::vector<ChunkRef>& chunks) {
  uint64_t epoch = last_epoch_ + 1;
  ciobase::Buffer plain(kRootEpochBytes + chunks.size() * kRootEntryBytes);
  ciobase::StoreLe64(plain.data(), epoch);
  for (size_t c = 0; c < chunks.size(); ++c) {
    uint8_t* entry = plain.data() + kRootEpochBytes + c * kRootEntryBytes;
    ciobase::StoreLe64(entry, chunks[c].generation);
    entry[8] = chunks[c].home;
  }
  // Synthetic nonce: equal nonces mean equal plaintexts.
  ciocrypto::Sha256Digest mac =
      ciocrypto::HmacSha256::Mac(root_nonce_key_, plain);
  if (costs_ != nullptr) {
    costs_->ChargeAead(plain.size());  // the keyed hash
  }
  ciobase::ByteSpan nonce(mac.data(), ciocrypto::kAeadNonceSize);
  uint8_t slot = static_cast<uint8_t>(1 - root_slot_);
  CIO_RETURN_IF_ERROR(inner_->WriteBlock(
      slot, Seal(kRootLba, nonce, ciocrypto::kAeadNonceSize, plain)));
  chunks_ = chunks;
  root_slot_ = slot;
  last_epoch_ = epoch;
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::Commit(bool burn) {
  if (burn || !dirty_chunks_.empty()) {
    CIO_RETURN_IF_ERROR(PersistGenerations());
  }
  CIO_RETURN_IF_ERROR(inner_->Flush());
  // Every root written so far is durable now, including one whose own
  // flush failed earlier.
  options_.rollback_counter->BumpTo(last_epoch_);
  if (burn) {
    session_salt_ = last_epoch_;
    session_writes_ = 0;
  }
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::LoadChunks(
    const std::vector<ChunkRef>& chunks,
    std::map<uint64_t, uint64_t>& table) {
  uint64_t epc = EntriesPerChunk();
  for (uint64_t c = 0; c < chunks.size(); ++c) {
    if (chunks[c].generation == 0) {
      continue;  // never written
    }
    auto stored = inner_->ReadBlock(ChunkBlock(c, chunks[c].home));
    if (!stored.ok()) {
      return stored.status();
    }
    if (stored->size() < kOverhead ||
        ciobase::LoadLe64(stored->data()) != chunks[c].generation) {
      return ciobase::Tampered("table chunk not at its recorded generation");
    }
    uint64_t lba = kTableLbaBase + c;
    CIO_ASSIGN_OR_RETURN(ciobase::Buffer plain,
                         Open(lba, NonceFor(lba, chunks[c].generation),
                              kGenerationBytes, *stored));
    if (plain.size() != epc * 8) {
      return ciobase::Tampered("table chunk has the wrong size");
    }
    for (uint64_t i = 0; i < epc; ++i) {
      uint64_t idx = c * epc + i;
      uint64_t generation = ciobase::LoadLe64(plain.data() + i * 8);
      if (idx < data_block_count_ && generation != 0) {
        table[idx] = generation;
      }
    }
  }
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::LoadGenerations() {
  uint64_t counter = options_.rollback_counter->value();
  size_t root_size = kRootEpochBytes + chunks_.size() * kRootEntryBytes;
  struct Root {
    uint64_t epoch = 0;
    uint8_t slot = 0;
    std::vector<ChunkRef> chunks;
  };
  std::vector<Root> roots;
  for (uint8_t slot = 0; slot < kRootSlots; ++slot) {
    auto stored = inner_->ReadBlock(slot);
    if (!stored.ok()) {
      if (stored.status().code() == ciobase::StatusCode::kTampered) {
        continue;  // corrupted slot; the other one may still be good
      }
      return stored.status();  // transport trouble: propagate, retryable
    }
    if (stored->size() < ciocrypto::kAeadNonceSize) {
      continue;  // not a root
    }
    ciobase::ByteSpan nonce(stored->data(), ciocrypto::kAeadNonceSize);
    auto plain = Open(kRootLba, nonce, ciocrypto::kAeadNonceSize, *stored);
    if (!plain.ok() || plain->size() != root_size) {
      continue;  // never written, torn, or forged: not a root
    }
    Root root{ciobase::LoadLe64(plain->data()), slot,
              std::vector<ChunkRef>(chunks_.size())};
    for (size_t c = 0; c < root.chunks.size(); ++c) {
      const uint8_t* entry =
          plain->data() + kRootEpochBytes + c * kRootEntryBytes;
      root.chunks[c] = {ciobase::LoadLe64(entry),
                        static_cast<uint8_t>(entry[8] & 1)};
    }
    roots.push_back(std::move(root));
  }
  std::sort(roots.begin(), roots.end(), [](const Root& a, const Root& b) {
    return a.epoch > b.epoch;
  });
  for (const Root& root : roots) {
    if (root.epoch < counter) {
      break;  // this root and any older one: the host rolled back
    }
    std::map<uint64_t, uint64_t> table;
    ciobase::Status status = LoadChunks(root.chunks, table);
    if (status.code() == ciobase::StatusCode::kTampered) {
      continue;  // a chunk failed; the older root may still be whole
    }
    CIO_RETURN_IF_ERROR(status);
    generations_ = std::move(table);
    chunks_ = root.chunks;
    root_slot_ = root.slot;
    last_epoch_ = root.epoch;
    options_.rollback_counter->BumpTo(root.epoch);
    ++stats_.table_loads;
    stats_.entries_loaded += generations_.size();
    return ciobase::OkStatus();
  }
  if (counter != 0) {
    return ciobase::Tampered(
        "no usable generation table root: rolled back past the last flush "
        "or corrupted");
  }
  // Nothing was ever committed: an empty table is the truth.
  generations_.clear();
  std::fill(chunks_.begin(), chunks_.end(), ChunkRef{});
  root_slot_ = 1;
  last_epoch_ = 0;
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::Remount() {
  CIO_RETURN_IF_ERROR(geometry_status_);
  session_established_ = false;
  generations_.clear();
  if (!options_.durable_generations) {
    // A rebooted volatile client has no memory of past generations; it
    // re-adopts whatever authenticates. (This is exactly the gap the
    // durable mode closes — see the rollback-across-remount test.)
    session_established_ = true;
    return ciobase::OkStatus();
  }
  dirty_chunks_.clear();
  CIO_RETURN_IF_ERROR(LoadGenerations());
  // Burn a fresh epoch as this session's nonce salt: root + flush + bump.
  // Generations handed to writes that a later crash discards are then
  // never reissued (the next mount burns a higher epoch).
  CIO_RETURN_IF_ERROR(Commit(/*burn=*/true));
  session_established_ = true;
  return ciobase::OkStatus();
}

ciobase::Status EncryptedBlockClient::Flush() {
  CIO_RETURN_IF_ERROR(EnsureSession());
  if (!options_.durable_generations) {
    return inner_->Flush();
  }
  bool persisted = !dirty_chunks_.empty();
  CIO_RETURN_IF_ERROR(Commit(/*burn=*/false));
  if (persisted) {
    ++stats_.table_flushes;
  }
  return ciobase::OkStatus();
}

uint64_t EncryptedBlockClient::Generation(uint64_t lba) const {
  auto it = generations_.find(lba);
  return it == generations_.end() ? 0 : it->second;
}

}  // namespace cioblock
