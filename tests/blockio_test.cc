// Tests for the §3.3 storage stack: the hardened block ring (FIFO,
// masking, clamping under attack), encryption at rest (host sees only
// ciphertext; corruption/rollback/relocation detected), the extent
// filesystem (create/write/read/delete/list, fragmentation, remount), and
// the ConfidentialStore end to end.

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/base/rng.h"
#include "src/blockio/crypt_client.h"
#include "src/blockio/extent_fs.h"
#include "src/blockio/store.h"

namespace {

using ciobase::Buffer;
using ciobase::BufferFromString;
using namespace cioblock;  // NOLINT: test file

struct BlockWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  ciohost::Adversary adversary{3};
  ciohost::ObservabilityLog observability;
  BlockRingConfig config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<HostBlockDevice> device;
  std::unique_ptr<RingBlockClient> client;

  explicit BlockWorld(uint64_t blocks = 512) {
    config.block_count = blocks;
    shared = std::make_unique<ciotee::SharedRegion>(
        &memory, config.RegionSize(), "block-ring");
    device = std::make_unique<HostBlockDevice>(shared.get(), config,
                                               &adversary, &observability,
                                               &clock);
    client = std::make_unique<RingBlockClient>(shared.get(), config,
                                               device.get(), &costs);
  }
};

TEST(BlockRing, WriteReadRoundTrip) {
  BlockWorld world;
  Buffer data = BufferFromString("block contents");
  ASSERT_TRUE(world.client->WriteBlock(7, data).ok());
  auto read = world.client->ReadBlock(7);
  ASSERT_TRUE(read.ok());
  read->resize(data.size());
  EXPECT_EQ(*read, data);
}

TEST(BlockRing, ManyBlocksFifo) {
  BlockWorld world;
  ciobase::Rng rng(1);
  std::vector<Buffer> blocks;
  for (uint64_t lba = 0; lba < 100; ++lba) {
    blocks.push_back(rng.Bytes(4096));
    ASSERT_TRUE(world.client->WriteBlock(lba, blocks.back()).ok());
  }
  for (uint64_t lba = 0; lba < 100; ++lba) {
    auto read = world.client->ReadBlock(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, blocks[lba]) << "lba " << lba;
  }
}

TEST(BlockRing, RejectsBadGeometry) {
  BlockWorld world;
  Buffer data(4096, 1);
  EXPECT_FALSE(world.client->WriteBlock(99999, data).ok());  // lba OOB
  Buffer too_big(5000, 1);
  EXPECT_FALSE(world.client->WriteBlock(0, too_big).ok());
  EXPECT_TRUE(world.client->Flush().ok());
}

TEST(BlockRing, LenInflationClampedNoOob) {
  BlockWorld world;
  ASSERT_TRUE(world.client->WriteBlock(1, BufferFromString("x")).ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kUsedLenInflation);
  auto read = world.client->ReadBlock(1);
  ASSERT_TRUE(read.ok());
  EXPECT_LE(read->size(), world.config.block_size);
  EXPECT_GT(world.client->stats().clamped_completions, 0u);
  EXPECT_EQ(world.memory.ViolationCount(ciotee::ViolationKind::kOobRead), 0u);
}

TEST(BlockRing, UnknownOpcodeCompletedWithError) {
  // Satellite: an op the device does not know must be completed with a
  // status error (keeping the FIFO in lockstep), not silently dropped.
  // Craft a raw submission with op=99 the way a compromised guest driver
  // (or a fuzzer) would.
  BlockWorld world;
  BlockLayout layout(world.config);
  uint8_t header[32] = {0};
  ciobase::StoreLe32(header, 99);      // unknown op
  ciobase::StoreLe32(header + 4, 0);   // len
  ciobase::StoreLe64(header + 8, 1);   // lba
  world.shared->GuestWrite(layout.SubmitSlot(0), header);
  world.shared->GuestWriteLe64(layout.SubmitProduced(), 1);
  world.device->Kick();
  EXPECT_EQ(world.device->stats().bad_op, 1u);
  // The completion exists and carries a non-zero status.
  EXPECT_EQ(world.shared->GuestReadLe64(layout.CompleteProduced()), 1u);
  uint8_t complete[32] = {0};
  world.shared->GuestRead(layout.CompleteSlot(0), complete);
  EXPECT_NE(ciobase::LoadLe32(complete), 0u);
  // The ring stays usable for well-formed traffic afterwards: the device
  // consumed the bad submission, so the client's view (which never saw the
  // raw injection) would be off by one — use a fresh client to confirm the
  // device itself still serves ops.
  world.shared->GuestWriteLe64(layout.CompleteConsumed(), 1);
  uint8_t good[32] = {0};
  ciobase::StoreLe32(good, static_cast<uint32_t>(BlockOp::kFlush));
  world.shared->GuestWrite(layout.SubmitSlot(1), good);
  world.shared->GuestWriteLe64(layout.SubmitProduced(), 2);
  world.device->Kick();
  world.shared->GuestRead(layout.CompleteSlot(1), complete);
  EXPECT_EQ(ciobase::LoadLe32(complete), 0u);  // flush completed ok
}

TEST(BlockRing, HostObservesAccessPattern) {
  BlockWorld world;
  ASSERT_TRUE(world.client->WriteBlock(42, BufferFromString("p")).ok());
  EXPECT_GT(world.observability.CountOf(ciohost::ObsCategory::kCallArgs), 0u);
}

// --- Encryption at rest ---------------------------------------------------------

struct CryptWorld : BlockWorld {
  EncryptedBlockClient crypt{client.get(),
                             BufferFromString("disk-key-32-bytes-long-......")};
};

TEST(CryptBlock, RoundTripAndHostSeesCiphertext) {
  CryptWorld world;
  Buffer secret = BufferFromString("top secret tenant data");
  ASSERT_TRUE(world.crypt.WriteBlock(5, secret).ok());
  auto read = world.crypt.ReadBlock(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, secret);
  // The host's raw image must not contain the plaintext.
  ciobase::ByteSpan raw = world.device->RawBlock(5);
  ASSERT_FALSE(raw.empty());
  std::string raw_str(reinterpret_cast<const char*>(raw.data()), raw.size());
  EXPECT_EQ(raw_str.find("top secret"), std::string::npos);
}

TEST(CryptBlock, NeverWrittenReadsEmpty) {
  CryptWorld world;
  auto read = world.crypt.ReadBlock(17);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(CryptBlock, CorruptionDetected) {
  CryptWorld world;
  ASSERT_TRUE(world.crypt.WriteBlock(5, BufferFromString("value")).ok());
  world.adversary.set_strategy(ciohost::AttackStrategy::kCorruptPayload);
  auto read = world.crypt.ReadBlock(5);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ciobase::StatusCode::kTampered);
}

TEST(CryptBlock, RollbackDetected) {
  CryptWorld world;
  ASSERT_TRUE(world.crypt.WriteBlock(5, BufferFromString("v1")).ok());
  // Host snapshots the old version...
  Buffer old(world.device->RawBlock(5).begin(),
             world.device->RawBlock(5).end());
  ASSERT_TRUE(world.crypt.WriteBlock(5, BufferFromString("v2")).ok());
  // ...and rolls the block back by replaying it through a fresh write of
  // the raw image (simulated by writing the old bytes via the raw client).
  ASSERT_TRUE(world.client->WriteBlock(5, old).ok());
  auto read = world.crypt.ReadBlock(5);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ciobase::StatusCode::kTampered);
}

TEST(CryptBlock, RelocationDetected) {
  CryptWorld world;
  ASSERT_TRUE(world.crypt.WriteBlock(5, BufferFromString("lba5 data")).ok());
  Buffer block5(world.device->RawBlock(5).begin(),
                world.device->RawBlock(5).end());
  // Host copies block 5's ciphertext into block 9.
  ASSERT_TRUE(world.client->WriteBlock(9, block5).ok());
  auto read = world.crypt.ReadBlock(9);
  EXPECT_FALSE(read.ok());  // AAD binds the LBA
}

TEST(CryptBlock, ErasureDetected) {
  CryptWorld world;
  ASSERT_TRUE(world.crypt.WriteBlock(5, BufferFromString("precious")).ok());
  Buffer zeros(world.config.block_size, 0);
  ASSERT_TRUE(world.client->WriteBlock(5, zeros).ok());
  auto read = world.crypt.ReadBlock(5);
  EXPECT_FALSE(read.ok());
}

TEST(CryptBlock, TinyInnerBlockGeometryRejected) {
  // Satellite fix: an inner block size at or below the AEAD overhead used
  // to underflow usable_block_size_. It must now fail cleanly at
  // construction with kInvalidArgument on every operation.
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  BlockRingConfig tiny;
  tiny.block_size = 16;  // < kOverhead (28)
  tiny.block_count = 64;
  ciotee::SharedRegion shared(&memory, tiny.RegionSize(), "tiny-ring");
  HostBlockDevice device(&shared, tiny, nullptr, nullptr, &clock);
  RingBlockClient ring(&shared, tiny, &device, &costs);
  EncryptedBlockClient crypt(&ring, BufferFromString("k"), &costs);
  EXPECT_EQ(crypt.geometry_status().code(),
            ciobase::StatusCode::kInvalidArgument);
  EXPECT_EQ(crypt.block_size(), 0u);
  EXPECT_EQ(crypt.WriteBlock(0, BufferFromString("x")).code(),
            ciobase::StatusCode::kInvalidArgument);
  EXPECT_EQ(crypt.ReadBlock(0).status().code(),
            ciobase::StatusCode::kInvalidArgument);
  EXPECT_EQ(crypt.Flush().code(), ciobase::StatusCode::kInvalidArgument);
}

TEST(CryptBlock, DurableModeRequiresCounter) {
  BlockWorld world;
  CryptClientOptions options;
  options.durable_generations = true;  // but no counter supplied
  EncryptedBlockClient crypt(world.client.get(), BufferFromString("k"),
                             &world.costs, options);
  EXPECT_EQ(crypt.geometry_status().code(),
            ciobase::StatusCode::kInvalidArgument);
}

// The durable root names every table chunk's home and generation in one
// sealed block. 512-byte blocks hold 60 entries per chunk, so 8,192 blocks
// need 133 chunks, a 1,237-byte root; 1,024 blocks need 17 (193 bytes).
TEST(CryptBlock, DurableRootMustFitOneBlock) {
  for (uint64_t blocks : {uint64_t{8192}, uint64_t{1024}}) {
    ciobase::SimClock clock;
    ciobase::CostModel costs(&clock);
    ciotee::TeeMemory memory;
    ciotee::MonotonicCounter counter;
    BlockRingConfig config;
    config.block_size = 512;
    config.block_count = blocks;
    ciotee::SharedRegion shared(&memory, config.RegionSize(), "root-ring");
    HostBlockDevice device(&shared, config, nullptr, nullptr, &clock);
    RingBlockClient ring(&shared, config, &device, &costs);
    CryptClientOptions options;
    options.durable_generations = true;
    options.rollback_counter = &counter;
    EncryptedBlockClient crypt(&ring, BufferFromString("k"), &costs, options);
    if (blocks == 8192) {
      EXPECT_EQ(crypt.geometry_status().code(),
                ciobase::StatusCode::kInvalidArgument);
      EXPECT_EQ(crypt.Flush().code(), ciobase::StatusCode::kInvalidArgument);
    } else {
      ASSERT_TRUE(crypt.geometry_status().ok());
      EXPECT_EQ(crypt.reserved_blocks(), 2u + 2 * 17);
      EXPECT_EQ(crypt.block_count(), 988u);
      ASSERT_TRUE(crypt.WriteBlock(987, BufferFromString("last")).ok());
      ASSERT_TRUE(crypt.Flush().ok());
      ASSERT_TRUE(crypt.Remount().ok());
      auto read = crypt.ReadBlock(987);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(*read, BufferFromString("last"));
    }
  }
}

// --- Extent filesystem -----------------------------------------------------------

struct FsWorld : CryptWorld {
  ExtentFs fs{&crypt};
  FsWorld() { EXPECT_TRUE(fs.Format().ok()); }
};

TEST(ExtentFs, CreateWriteReadDelete) {
  FsWorld world;
  Buffer data = BufferFromString("hello filesystem");
  ASSERT_TRUE(world.fs.WriteFile("greeting.txt", data).ok());
  auto read = world.fs.ReadFile("greeting.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  auto size = world.fs.FileSize("greeting.txt");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, data.size());
  ASSERT_TRUE(world.fs.DeleteFile("greeting.txt").ok());
  EXPECT_FALSE(world.fs.ReadFile("greeting.txt").ok());
}

TEST(ExtentFs, MultiBlockFiles) {
  FsWorld world;
  ciobase::Rng rng(9);
  Buffer big = rng.Bytes(50'000);  // spans many logical blocks
  ASSERT_TRUE(world.fs.WriteFile("big.bin", big).ok());
  auto read = world.fs.ReadFile("big.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, big);
}

TEST(ExtentFs, OverwriteReusesSpace) {
  FsWorld world;
  ciobase::Rng rng(2);
  size_t before = world.fs.FreeBlocks();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(world.fs.WriteFile("rolling", rng.Bytes(20'000)).ok());
  }
  Buffer last = rng.Bytes(20'000);
  ASSERT_TRUE(world.fs.WriteFile("rolling", last).ok());
  auto read = world.fs.ReadFile("rolling");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, last);
  // Space usage is bounded by one file's worth, not ten.
  EXPECT_GT(world.fs.FreeBlocks() + 10, before - 10);
}

TEST(ExtentFs, ListsFiles) {
  FsWorld world;
  ASSERT_TRUE(world.fs.WriteFile("a", BufferFromString("1")).ok());
  ASSERT_TRUE(world.fs.WriteFile("b", BufferFromString("2")).ok());
  auto names = world.fs.ListFiles();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_NE(std::find(names->begin(), names->end(), "a"), names->end());
  EXPECT_NE(std::find(names->begin(), names->end(), "b"), names->end());
}

TEST(ExtentFs, RemountRecoversState) {
  FsWorld world;
  Buffer data = BufferFromString("persisted across mount");
  ASSERT_TRUE(world.fs.WriteFile("persist.txt", data).ok());
  // A fresh ExtentFs over the same device: mount, not format.
  ExtentFs remounted(&world.crypt);
  ASSERT_TRUE(remounted.Mount().ok());
  auto read = remounted.ReadFile("persist.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(ExtentFs, RejectsBadNames) {
  FsWorld world;
  EXPECT_FALSE(world.fs.WriteFile("", BufferFromString("x")).ok());
  std::string long_name(64, 'n');
  EXPECT_FALSE(world.fs.WriteFile(long_name, BufferFromString("x")).ok());
}

TEST(ExtentFs, OutOfSpaceFailsCleanly) {
  FsWorld world;
  ciobase::Rng rng(3);
  // The 512-block device holds ~2 MB; ask for far more.
  auto status = world.fs.WriteFile("huge", rng.Bytes(4'000'000));
  EXPECT_FALSE(status.ok());
  // Existing operation still works afterwards.
  EXPECT_TRUE(world.fs.WriteFile("ok", BufferFromString("fine")).ok());
}

// --- ConfidentialStore -------------------------------------------------------------

struct StoreWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments{&costs};
  ciotee::CompartmentId app = compartments.Create("app", 1 << 20);
  ciotee::CompartmentId storage = compartments.Create("storage", 1 << 20);
  ciohost::Adversary adversary{4};
  ciohost::ObservabilityLog observability;
  std::unique_ptr<ConfidentialStore> store;

  StoreWorld() {
    ConfidentialStore::Options options;
    options.ring.block_count = 512;
    options.disk_key = BufferFromString("disk-key-aaaaaaaaaaaaaaaaaaaaaaa");
    options.value_key = BufferFromString("value-key-bbbbbbbbbbbbbbbbbbbbbb");
    store = std::make_unique<ConfidentialStore>(
        &memory, &compartments, app, storage, &costs, &adversary,
        &observability, &clock, options);
    EXPECT_TRUE(store->Format().ok());
  }
};

TEST(ConfidentialStore, PutGetDeleteList) {
  StoreWorld world;
  Buffer value = BufferFromString("tenant secret record");
  ASSERT_TRUE(world.store->Put("record-1", value).ok());
  auto read = world.store->Get("record-1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, value);
  auto names = world.store->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  ASSERT_TRUE(world.store->Delete("record-1").ok());
  EXPECT_FALSE(world.store->Get("record-1").ok());
}

TEST(ConfidentialStore, CompromisedFsSeesOnlyCiphertext) {
  StoreWorld world;
  ASSERT_TRUE(
      world.store->Put("key", BufferFromString("plaintext-value-xyz")).ok());
  // A compromised FS can read the stored file bytes directly...
  world.compartments.SwitchTo(world.storage);
  auto stored = world.store->fs()->ReadFile("key");
  world.compartments.SwitchTo(world.app);
  ASSERT_TRUE(stored.ok());
  std::string raw(reinterpret_cast<const char*>(stored->data()),
                  stored->size());
  // ...but they are sealed by the app.
  EXPECT_EQ(raw.find("plaintext-value"), std::string::npos);
}

TEST(ConfidentialStore, FsTamperingDetectedAtApp) {
  StoreWorld world;
  ASSERT_TRUE(world.store->Put("key", BufferFromString("v")).ok());
  // The compromised FS swaps in different bytes.
  world.compartments.SwitchTo(world.storage);
  ASSERT_TRUE(
      world.store->fs()->WriteFile("key", BufferFromString("forged")).ok());
  world.compartments.SwitchTo(world.app);
  auto read = world.store->Get("key");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ciobase::StatusCode::kTampered);
}

TEST(ConfidentialStore, HostImageLeaksNeitherNamesNorValues) {
  // Encryption-at-rest sits BELOW the filesystem, so even object names
  // (inode table contents) are ciphertext to the host.
  StoreWorld world;
  ASSERT_TRUE(world.store
                  ->Put("visible-object-name",
                        BufferFromString("visible-object-value"))
                  .ok());
  bool name_found = false;
  bool value_found = false;
  for (uint64_t lba = 0; lba < 512; ++lba) {
    ciobase::ByteSpan raw = world.store->host_device()->RawBlock(lba);
    std::string bytes(reinterpret_cast<const char*>(raw.data()), raw.size());
    if (bytes.find("visible-object-name") != std::string::npos) {
      name_found = true;
    }
    if (bytes.find("visible-object-value") != std::string::npos) {
      value_found = true;
    }
  }
  EXPECT_FALSE(name_found);
  EXPECT_FALSE(value_found);
}

TEST(ConfidentialStore, ManyObjects) {
  StoreWorld world;
  ciobase::Rng rng(11);
  std::map<std::string, Buffer> objects;
  for (int i = 0; i < 20; ++i) {
    std::string name = "object-" + std::to_string(i);
    objects[name] = rng.Bytes(rng.NextInRange(10, 5000));
    ASSERT_TRUE(world.store->Put(name, objects[name]).ok()) << name;
  }
  for (const auto& [name, value] : objects) {
    auto read = world.store->Get(name);
    ASSERT_TRUE(read.ok()) << name;
    EXPECT_EQ(*read, value) << name;
  }
  auto names = world.store->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 20u);
}

}  // namespace
