// confidential_store: the §3.3 storage generalization in action — a
// dual-boundary object store where the filesystem runs in its own
// compartment, values are sealed by the app before they cross the file-ops
// boundary, and blocks are encrypted again before they cross the block-ring
// boundary to the host. The demo stores tenant records, survives a
// remount, shows the host's view is ciphertext, and demonstrates that a
// tampering filesystem/host is detected rather than believed. Generations
// are durable (anchored in a monotonic counter), so the remount also
// checks the image for rollback. Exits 1 if any of that does not hold.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/blockio/store.h"
#include "src/tee/monotonic_counter.h"

int main() {
  ciobase::SimClock clock;
  ciobase::CostModel costs(&clock);
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments(&costs);
  ciotee::CompartmentId app = compartments.Create("app", 1 << 20);
  ciotee::CompartmentId storage = compartments.Create("storage", 1 << 20);
  ciohost::Adversary adversary(21);
  ciohost::ObservabilityLog observability;
  ciotee::MonotonicCounter rollback_counter;

  cioblock::ConfidentialStore::Options options;
  options.ring.block_count = 1024;
  options.disk_key = ciobase::BufferFromString("disk-key-................");
  options.value_key = ciobase::BufferFromString("value-key-...............");
  options.rollback_counter = &rollback_counter;
  cioblock::ConfidentialStore store(&memory, &compartments, app, storage,
                                    &costs, &adversary, &observability,
                                    &clock, options);
  if (!store.Format().ok()) {
    std::printf("store: format failed\n");
    return 1;
  }

  // Store tenant records. Each acknowledged Put is durable; none is
  // followed by a Flush.
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 10; ++i) {
    records.emplace_back("patient-" + std::to_string(1000 + i),
                         "diagnosis: confidential; visit " +
                             std::to_string(i));
    const auto& [name, record] = records.back();
    if (!store.Put(name, ciobase::BufferFromString(record)).ok()) {
      std::printf("store: put %s failed\n", name.c_str());
      return 1;
    }
  }
  auto stored = store.List();
  if (!stored.ok()) {
    std::printf("store: list failed: %s\n", stored.status().ToString().c_str());
    return 1;
  }
  std::printf("store: stored %zu objects\n", stored->size());

  // Remount: reload the generation table, check it for rollback, remount
  // the filesystem, and read every record back.
  ciobase::Status remount = store.Remount();
  if (!remount.ok()) {
    std::printf("store: remount failed: %s\n", remount.ToString().c_str());
    return 1;
  }
  size_t intact = 0;
  for (const auto& [name, record] : records) {
    auto read = store.Get(name);
    if (read.ok() && *read == ciobase::BufferFromString(record)) {
      ++intact;
    } else {
      std::printf("store: %s differs after the remount\n", name.c_str());
    }
  }
  std::printf("store: after a remount, %zu/%zu records read back intact\n",
              intact, records.size());
  if (intact != records.size()) {
    return 1;
  }

  auto record = store.Get("patient-1003");
  if (record.ok()) {
    std::printf("store: read back: %s\n",
                ciobase::StringFromBytes(*record).c_str());
  }

  // What does the HOST hold? Scan its raw image for plaintext.
  bool plaintext_found = false;
  for (uint64_t lba = 0; lba < options.ring.block_count; ++lba) {
    ciobase::ByteSpan raw = store.host_device()->RawBlock(lba);
    std::string bytes(reinterpret_cast<const char*>(raw.data()), raw.size());
    if (bytes.find("diagnosis") != std::string::npos) {
      plaintext_found = true;
    }
  }
  std::printf("store: host image contains plaintext: %s\n",
              plaintext_found ? "YES (bug!)" : "no — ciphertext only");
  if (plaintext_found) {
    return 1;
  }
  std::printf("store: host observed %zu LBA access events (the residual "
              "storage side channel the paper notes [3])\n",
              observability.CountOf(ciohost::ObsCategory::kCallArgs));

  // Host corruption is detected, not believed.
  adversary.set_strategy(ciohost::AttackStrategy::kCorruptPayload);
  auto tampered = store.Get("patient-1001");
  std::printf("store: read under host corruption: %s\n",
              tampered.ok() ? "unexpectedly succeeded"
                            : tampered.status().ToString().c_str());
  adversary.set_strategy(ciohost::AttackStrategy::kNone);
  if (tampered.ok()) {
    return 1;
  }

  // The boundary cost profile of this workload.
  std::printf("store: compartment switches=%llu, bytes copied=%llu, "
              "AEAD bytes=%llu\n",
              static_cast<unsigned long long>(
                  costs.counter("compartment_switches")),
              static_cast<unsigned long long>(costs.counter("bytes_copied")),
              static_cast<unsigned long long>(costs.counter("bytes_aead")));
  return 0;
}
