// EncryptedBlockClient: AEAD encryption-at-rest above any BlockClient.
//
// The guest holds the disk key; the host block device only ever stores
// sealed blocks. Every write gets a globally unique generation number (so
// AEAD nonces never repeat, even across host crashes that discard writes),
// and the LBA, generation, and length are bound into the associated data —
// a malicious host can neither forge block contents nor swap blocks around
// (a relocated block fails authentication), and replaying an *old* version
// of a block fails the exact-generation check.
//
// Freshness across remounts (the SGX-LKL property): with durable
// generations enabled, the generation table itself is persisted at the
// head of the inner device by shadow paging, bound to a hardware
// MonotonicCounter (src/tee/monotonic_counter.h). Inner layout:
//   0, 1                two root slots
//   2 + 2c + h          home h (0 or 1) of table chunk c
//   reserved + lba      data block lba
// A chunk holds the generations of block_size() / 8 consecutive data
// blocks. The root, one sealed block, holds the table epoch and each
// chunk's current home and generation; generation 0 means the chunk was
// never written, so it is neither written nor read.
//
// Flush order: every chunk dirtied since the last persist goes to its
// *other* home, then the root (epoch e) goes to the *other* root slot,
// then one inner flush, then counter := e — the commit point. A persist
// never overwrites a home or slot the current root references, so one
// that dies part-way leaves the previous root loadable. Remount loads the
// newest root whose chunks all authenticate at their recorded homes under
// their recorded generations and whose epoch is not behind the counter (a
// root at counter+1, written before a host death between the flush and
// the bump, is adopted). A host that restores an older image presents
// only roots behind the counter, so Remount fails with kTampered, and so
// does rollback of any single data block (its stored generation no longer
// matches the loaded table). A chunk the host corrupts also makes Remount
// fail kTampered — denial of service, as for a corrupt superblock — until
// a session dirties that chunk again and writes it to its other home.
//
// Nonces. Every seal this client makes uses a nonce that never seals two
// different plaintexts:
//   * a data block or table chunk is sealed under a generation that
//     NextGeneration() issues once: (session salt << 24) | n, n >= 1. The
//     salt is an epoch burned (root written, inner flush, counter bumped)
//     at mount, before the session's first write, and burned afresh before
//     n would wrap, so no salt serves two sessions or two 2^24 ranges;
//   * a root is sealed under a synthetic nonce, a keyed hash of its own
//     plaintext, so two roots share a nonce only if they are the same
//     bytes. (A remount's burn root is a function of the root it loaded,
//     and a host that failed earlier flushes can offer two different roots
//     of one epoch; a nonce drawn from the epoch would seal both burns'
//     different plaintexts under one nonce.)

#ifndef SRC_BLOCKIO_CRYPT_CLIENT_H_
#define SRC_BLOCKIO_CRYPT_CLIENT_H_

#include <map>
#include <set>
#include <vector>

#include "src/blockio/block_ring.h"
#include "src/crypto/aead.h"
#include "src/tee/monotonic_counter.h"

namespace cioblock {

struct CryptClientOptions {
  // Persist the generation table (root + chunks) at the head of the inner
  // device. Requires rollback_counter. Off by default: the volatile mode
  // matches the pre-durability behavior (rollback detected only within
  // one session).
  bool durable_generations = false;
  ciotee::MonotonicCounter* rollback_counter = nullptr;
};

class EncryptedBlockClient final : public BlockClient {
 public:
  // Stored block = [generation u64][sealed_len u32][ciphertext || tag].
  // Usable plaintext per block = inner block_size - kOverhead.
  static constexpr uint32_t kOverhead = 12 + ciocrypto::kAeadTagSize;
  // Durable mode: generations one session salt can issue (the low bits).
  static constexpr uint64_t kGenerationsPerSalt = 1ULL << 24;

  // `costs` may be null (AEAD work then goes unmodeled; tests only).
  EncryptedBlockClient(BlockClient* inner, ciobase::ByteSpan key,
                       ciobase::CostModel* costs = nullptr,
                       CryptClientOptions options = {});

  ciobase::Status WriteBlock(uint64_t lba, ciobase::ByteSpan data) override;
  // Returns the decrypted plaintext; kTampered if the host corrupted,
  // forged, relocated, or rolled back the block. Never-written blocks read
  // as empty.
  ciobase::Result<ciobase::Buffer> ReadBlock(uint64_t lba) override;
  // Durable mode: persists the dirty chunks and a root (epoch e), flushes
  // the inner device, then bumps the rollback counter to e — the commit
  // point for everything written since the previous flush.
  ciobase::Status Flush() override;
  uint32_t block_size() const override { return usable_block_size_; }
  uint64_t block_count() const override { return data_block_count_; }

  // Drops the in-memory generation state, reloads it from the newest
  // usable root (no-op load in volatile mode), and burns a fresh epoch as
  // the session salt. kTampered if no root is usable: every root is
  // behind the rollback counter (host rolled the image back) or has a
  // chunk that fails authentication. Called by ConfidentialStore::Remount
  // after a host restart; safe to call on a freshly formatted device.
  ciobase::Status Remount();

  // kInvalidArgument when the inner geometry cannot host this layer
  // (block size <= kOverhead, no room for the generation table, or a root
  // that would not fit one block).
  ciobase::Status geometry_status() const { return geometry_status_; }
  // Inner blocks reserved at the head of the device for the root slots
  // and chunk homes (0 in volatile mode).
  uint64_t reserved_blocks() const { return reserved_blocks_; }

  // Write generation last observed for `lba` (0 = never seen).
  uint64_t Generation(uint64_t lba) const;

  // Durable mode: sets how many generations the current salt has issued,
  // to reach the wrap boundary without 2^24 writes.
  void set_session_writes_for_test(uint64_t writes) {
    session_writes_ = writes;
  }

  struct Stats {
    uint64_t table_flushes = 0;       // Flush() calls that persisted
    uint64_t table_chunk_writes = 0;  // table chunks persists sealed
    uint64_t table_loads = 0;
    uint64_t entries_loaded = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Table chunks get sealed under synthetic LBAs far above any data LBA so
  // their nonces/AAD can never collide with data blocks.
  static constexpr uint64_t kTableLbaBase = 1ULL << 62;
  static constexpr uint64_t kRootSlots = 2;

  // A chunk as a root records it.
  struct ChunkRef {
    uint64_t generation = 0;  // 0: never written
    uint8_t home = 0;
  };

  ciobase::Buffer NonceFor(uint64_t lba, uint64_t generation) const;
  // Stored block = [first `head` nonce bytes][sealed_len u32][ciphertext ||
  // tag]. A data block or chunk stores its generation (8 bytes; the LBA
  // half of the nonce is implied); a root stores its whole synthetic
  // nonce, and its plaintext is [epoch u64] then per chunk [generation
  // u64][home u8].
  ciobase::Buffer Seal(uint64_t lba, ciobase::ByteSpan nonce, size_t head,
                       ciobase::ByteSpan plaintext) const;
  ciobase::Result<ciobase::Buffer> Open(uint64_t lba, ciobase::ByteSpan nonce,
                                        size_t head,
                                        ciobase::ByteSpan stored) const;
  // Next globally unique write generation. Durable mode: never wraps —
  // kResourceExhausted once the salt is spent (WriteBlock burns a new
  // salt well before that).
  ciobase::Result<uint64_t> NextGeneration();
  // Lazily establishes the durable session (initial Remount) on first use.
  ciobase::Status EnsureSession();
  // Writes each dirty chunk to its other home, then the root (no inner
  // flush; Commit() sequences that).
  ciobase::Status PersistGenerations();
  // Writes a root of epoch last_epoch_ + 1 naming `chunks` into the other
  // root slot and installs it as the current root.
  ciobase::Status WriteRoot(const std::vector<ChunkRef>& chunks);
  // Persist (if dirty, or always with `burn`) + inner flush + counter
  // bump. With `burn` the new epoch becomes the session salt.
  ciobase::Status Commit(bool burn);
  // Loads the newest usable root; enforces the counter bound.
  ciobase::Status LoadGenerations();
  // Reads and opens the chunks `chunks` names into `table`. kTampered if
  // one fails authentication; any other error is the transport's.
  ciobase::Status LoadChunks(const std::vector<ChunkRef>& chunks,
                             std::map<uint64_t, uint64_t>& table);
  ciobase::Buffer ChunkPlaintext(uint64_t chunk) const;

  uint64_t EntriesPerChunk() const { return usable_block_size_ / 8; }
  uint64_t ChunkBlock(uint64_t chunk, uint8_t home) const {
    return kRootSlots + 2 * chunk + home;
  }

  BlockClient* inner_;
  ciobase::Buffer key_;
  ciobase::Buffer root_nonce_key_;  // keys the roots' synthetic nonces
  ciobase::CostModel* costs_;
  CryptClientOptions options_;
  ciobase::Status geometry_status_;
  uint32_t usable_block_size_ = 0;
  uint64_t data_block_count_ = 0;
  uint64_t reserved_blocks_ = 0;
  // Guest-private generation tracking (anti-rollback). Exact match on
  // read; persisted through the table chunks in durable mode.
  std::map<uint64_t, uint64_t> generations_;
  std::vector<ChunkRef> chunks_;     // as the current root names them
  std::set<uint64_t> dirty_chunks_;  // changed since the last persist
  uint8_t root_slot_ = 1;            // slot of the current root
  bool session_established_ = false;
  uint64_t session_salt_ = 0;      // last burned epoch; high gen bits
  uint64_t session_writes_ = 0;    // low gen bits (volatile: whole gen)
  uint64_t last_epoch_ = 0;        // epoch of the current root
  Stats stats_;
};

}  // namespace cioblock

#endif  // SRC_BLOCKIO_CRYPT_CLIENT_H_
