// §3.3 storage benchmarks: 4 KiB-class operations through the layers of
// the dual-boundary storage stack — raw hardened block ring, + encryption
// at rest, + durable generations (the encrypted layer with a rollback
// counter, flushed every 16th write, so each flush commits the generation
// table), + the full ConfidentialStore (extent FS, compartment boundary
// and app-side sealing). Sequential and random access, modeled clock.
//
// `--json <path>` additionally writes the table as a JSON array, one
// object per (layer, access) row — the bench-trajectory format consumed by
// tools/run_bench.sh to track storage performance across revisions.
//
// Every result is checked: a failed op, or a read or Get that does not
// return the bytes written, counts as a failure, and the bench exits 1
// unless there are none (a failing store must not time as a fast one).

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/blockio/store.h"
#include "src/tee/monotonic_counter.h"

namespace {

struct StorageWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  cioblock::BlockRingConfig config;
  std::unique_ptr<ciotee::SharedRegion> shared;
  std::unique_ptr<cioblock::HostBlockDevice> device;
  std::unique_ptr<cioblock::RingBlockClient> ring;
  ciotee::MonotonicCounter rollback_counter;
  std::unique_ptr<cioblock::EncryptedBlockClient> crypt;

  explicit StorageWorld(bool durable_generations = false) {
    config.block_count = 2048;
    shared = std::make_unique<ciotee::SharedRegion>(
        &memory, config.RegionSize(), "ring");
    device = std::make_unique<cioblock::HostBlockDevice>(
        shared.get(), config, nullptr, nullptr, &clock);
    ring = std::make_unique<cioblock::RingBlockClient>(shared.get(), config,
                                                       device.get(), &costs);
    cioblock::CryptClientOptions options;
    options.durable_generations = durable_generations;
    options.rollback_counter = &rollback_counter;
    crypt = std::make_unique<cioblock::EncryptedBlockClient>(
        ring.get(), ciobase::BufferFromString("disk-key-0123456789abcdef"),
        &costs, options);
  }
};

// Failed ops, plus reads and Gets that returned other bytes than written.
uint64_t g_failures = 0;

void Expect(bool ok) {
  if (!ok) {
    ++g_failures;
  }
}

struct Row {
  std::string layer;
  std::string access;
  double write_ops_per_sec = 0.0;
  double read_ops_per_sec = 0.0;
};

double OpsPerSec(uint64_t ops, uint64_t modeled_ns) {
  return modeled_ns == 0 ? 0.0
                         : 1e9 * static_cast<double>(ops) /
                               static_cast<double>(modeled_ns);
}

// `flush_every` > 0 flushes after every that-many writes, inside the
// timed write loop.
Row BenchClient(const char* name, cioblock::BlockClient* client,
                ciobase::SimClock* clock, bool random_access,
                int flush_every = 0) {
  ciobase::Rng rng(5);
  ciobase::Buffer block = rng.Bytes(client->block_size());
  constexpr int kOps = 300;
  std::vector<bool> written(1024, false);
  uint64_t start_ns = clock->now_ns();
  for (int i = 0; i < kOps; ++i) {
    uint64_t lba = random_access ? rng.NextBounded(1024)
                                 : static_cast<uint64_t>(i % 1024);
    Expect(client->WriteBlock(lba, block).ok());
    written[lba] = true;
    if (flush_every > 0 && (i + 1) % flush_every == 0) {
      Expect(client->Flush().ok());
    }
  }
  uint64_t write_ns = clock->now_ns() - start_ns;
  start_ns = clock->now_ns();
  for (int i = 0; i < kOps; ++i) {
    uint64_t lba = random_access ? rng.NextBounded(1024)
                                 : static_cast<uint64_t>(i % 1024);
    auto read = client->ReadBlock(lba);
    Expect(read.ok() && (!written[lba] || *read == block));
  }
  uint64_t read_ns = clock->now_ns() - start_ns;
  Row row{name, random_access ? "rand" : "seq", OpsPerSec(kOps, write_ns),
          OpsPerSec(kOps, read_ns)};
  std::printf("%-22s %6s %14.0f %14.0f\n", row.layer.c_str(),
              row.access.c_str(), row.write_ops_per_sec,
              row.read_ops_per_sec);
  return row;
}

void WriteJson(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"layer\": \"%s\", \"access\": \"%s\", "
                 "\"write_ops_per_sec\": %.1f, "
                 "\"read_ops_per_sec\": %.1f}%s\n",
                 r.layer.c_str(), r.access.c_str(), r.write_ops_per_sec,
                 r.read_ops_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::vector<Row> rows;
  std::printf("== block I/O (4 KiB-class ops, modeled) ==\n");
  std::printf("%-22s %6s %14s %14s\n", "layer", "access", "write ops/s",
              "read ops/s");
  std::printf("%s\n", std::string(60, '-').c_str());
  for (bool random_access : {false, true}) {
    {
      StorageWorld world;
      rows.push_back(BenchClient("raw hardened ring", world.ring.get(),
                                 &world.clock, random_access));
    }
    {
      StorageWorld world;
      rows.push_back(BenchClient("+ encryption at rest", world.crypt.get(),
                                 &world.clock, random_access));
    }
    {
      StorageWorld world(/*durable_generations=*/true);
      rows.push_back(BenchClient("+ durable generations", world.crypt.get(),
                                 &world.clock, random_access,
                                 /*flush_every=*/16));
    }
  }

  // Full store with compartment boundary and app-side sealing.
  {
    ciobase::SimClock clock;
    ciobase::CostModel costs(&clock);
    ciotee::TeeMemory memory;
    ciotee::CompartmentManager compartments(&costs);
    auto app = compartments.Create("app", 1 << 20);
    auto storage = compartments.Create("storage", 1 << 20);
    ciohost::ObservabilityLog observability;
    cioblock::ConfidentialStore::Options options;
    options.ring.block_count = 2048;
    options.disk_key = ciobase::BufferFromString("disk-key-0123456789abcdef");
    options.value_key = ciobase::BufferFromString("value-key-0123456789abcd");
    cioblock::ConfidentialStore store(&memory, &compartments, app, storage,
                                      &costs, nullptr, &observability,
                                      &clock, options);
    Expect(store.Format().ok());
    ciobase::Rng rng(6);
    ciobase::Buffer value = rng.Bytes(3000);
    constexpr int kOps = 200;
    uint64_t start_ns = clock.now_ns();
    for (int i = 0; i < kOps; ++i) {
      Expect(store.Put("obj-" + std::to_string(i % 32), value).ok());
    }
    uint64_t put_ns = clock.now_ns() - start_ns;
    start_ns = clock.now_ns();
    for (int i = 0; i < kOps; ++i) {
      auto read = store.Get("obj-" + std::to_string(i % 32));
      Expect(read.ok() && *read == value);
    }
    uint64_t get_ns = clock.now_ns() - start_ns;
    Row row{"full dual-boundary", "3KB", OpsPerSec(kOps, put_ns),
            OpsPerSec(kOps, get_ns)};
    std::printf("%-22s %6s %14.0f %14.0f\n", row.layer.c_str(),
                row.access.c_str(), row.write_ops_per_sec,
                row.read_ops_per_sec);
    rows.push_back(row);
  }
  if (json_path != nullptr) {
    WriteJson(json_path, rows);
  }
  std::printf(
      "\nShape: the hardened ring itself costs one copy per op; encryption\n"
      "adds the AEAD per block; durable generations add a table commit per\n"
      "flush; the full store adds the compartment crossing and value\n"
      "sealing — the same layering as the network path.\n");
  std::printf("\nfailed ops or wrong bytes: %llu\n",
              static_cast<unsigned long long>(g_failures));
  return g_failures == 0 ? 0 : 1;
}
