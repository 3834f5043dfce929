#include "src/fuzz/target.h"

#include <deque>

#include "src/base/coverage.h"
#include "src/blockio/block_ring.h"
#include "src/blockio/crypt_client.h"
#include "src/cio/attack_campaign.h"
#include "src/cio/engine.h"

namespace ciofuzz {
namespace {

using cio::StackConfig;
using cio::StackProfile;

size_t GuestViolations(const ciotee::TeeMemory& memory) {
  size_t count = 0;
  for (const ciotee::ViolationEvent& event : memory.violations()) {
    if (event.actor == ciotee::Domain::kGuest) {
      ++count;
    }
  }
  return count;
}

size_t NonOkEdges() {
  size_t count = 0;
  for (const ciobase::CoverageMap::Edge& edge :
       ciobase::CoverageMap::Instance().Edges()) {
    if (edge.code != 0) {
      ++count;
    }
  }
  return count;
}

TargetWindow Spec(const char* name, uint64_t length, uint32_t weight) {
  TargetWindow window;
  window.name = name;
  window.length = length;
  window.weight = weight;
  return window;
}

// --- Network targets -------------------------------------------------------------

class NetTarget final : public FuzzTarget {
 public:
  explicit NetTarget(StackProfile profile)
      : profile_(profile),
        name_("net-" + std::string(cio::StackProfileName(profile))) {}

  std::string_view name() const override { return name_; }

  bool expect_vulnerable() const override {
    // These profiles run VirtioNetDriver with HardeningOptions::Passthrough()
    // (see the profile switch in ConfidentialNode's constructor): completion
    // ids, lengths, and descriptors are trusted, so forged entries steer the
    // driver out of bounds by design — the catalogued CVE pattern, not a
    // regression.
    return profile_ == StackProfile::kPassthroughL2 ||
           profile_ == StackProfile::kTunneledL2;
  }

  std::vector<TargetWindow> WindowSpecs() const override {
    std::vector<TargetWindow> specs;
    if (profile_ == StackProfile::kDualBoundary) {
      // Dual-boundary is the only profile on the L2 ring transport; it adds
      // the in-guest L5 SQ/CQ window on top.
      specs.push_back(Spec("l2.counters", 256, 8));
      specs.push_back(Spec("l2.rings", 1 << 16, 4));
      specs.push_back(Spec("l5.ctrl", 64, 8));
      specs.push_back(Spec("l5.cq", 4096, 4));
      specs.push_back(Spec("l5.all", 1 << 16, 1));
    } else {
      // passthrough-l2 / hardened-virtio / tunneled-l2 all ride the virtio
      // region: config words [0,64), then descriptor tables, avail/used
      // rings, and the bounce pool.
      specs.push_back(Spec("virtio.config", 64, 6));
      specs.push_back(Spec("virtio.rest", 1 << 16, 4));
    }
    return specs;
  }

  RunResult Run(const FuzzInput& input, Mutator& mutator,
                const TargetOptions& options) override {
    ciobase::CoverageMap::Instance().ResetHits();
    RunResult result;

    StackConfig client_config = StackConfig::DefaultsFor(profile_, 1);
    client_config.seed = options.seed * 1000003 + 17;
    cio::TuneTcpForFaultWindows(client_config);
    StackConfig server_config = StackConfig::DefaultsFor(profile_, 2);
    server_config.seed = client_config.seed + 7;
    cio::TuneTcpForFaultWindows(server_config);

    cio::LinkedPair pair(client_config, server_config);
    cio::ConfidentialNode& client = *pair.client;
    cio::ConfidentialNode& server = *pair.server;
    if (!pair.Establish()) {
      result.gated = true;
      result.kind = "establish-failed";
      result.note = "link never established with no mutation applied";
      return result;
    }

    std::vector<TargetWindow> windows = BindWindows(client);

    size_t violations_before =
        GuestViolations(client.memory()) + GuestViolations(server.memory());
    size_t compartment_before = 0;
    if (client.compartments() != nullptr) {
      compartment_before = client.compartments()->violations().size();
    }

    // Deterministic payloads (a function of the seed only).
    ciobase::Rng payload_rng(options.seed * 7919 + 3);
    std::vector<ciobase::Buffer> to_send;
    for (size_t i = 0; i < options.messages; ++i) {
      to_send.push_back(payload_rng.Bytes(options.message_size));
    }

    size_t sent = 0;
    std::vector<ciobase::Buffer> client_received;
    std::vector<ciobase::Buffer> server_received;
    std::deque<ciobase::Buffer> echo_pending;

    for (uint32_t round = 0; round < options.pump_rounds; ++round) {
      result.steps_applied += mutator.ApplyRound(input, round, windows);
      pair.Pump();

      for (auto m = server.ReceiveMessage(); m.ok();
           m = server.ReceiveMessage()) {
        server_received.push_back(*m);
        echo_pending.push_back(std::move(*m));
      }
      while (!echo_pending.empty() &&
             server.SendMessage(echo_pending.front()).ok()) {
        echo_pending.pop_front();
      }
      for (auto m = client.ReceiveMessage(); m.ok();
           m = client.ReceiveMessage()) {
        client_received.push_back(std::move(*m));
      }
      if (sent < to_send.size() && round % 4 == 0) {
        if (client.SendMessage(to_send[sent]).ok()) {
          ++sent;
        }
      }

      bool net_done = client_received.size() >= to_send.size();
      if (net_done && input.steps.empty()) {
        break;  // baseline runs stop as soon as the workload completes
      }
      if (net_done && result.steps_applied == TotalSteps(input)) {
        break;  // every scheduled mutation fired and the workload survived
      }
    }

    bool net_done = client_received.size() >= to_send.size();
    result.completed = net_done;
    result.non_ok_edges = NonOkEdges();

    size_t violations_after =
        GuestViolations(client.memory()) + GuestViolations(server.memory());
    size_t compartment_after = 0;
    if (client.compartments() != nullptr) {
      compartment_after = client.compartments()->violations().size();
    }
    size_t corrupted = cio::CorruptedCount(to_send, server_received) +
                       cio::CorruptedCount(to_send, client_received);

    if (violations_after > violations_before) {
      result.gated = true;
      result.kind = "memory-violation";
      result.note = "guest-actor TEE violation under mutation";
    } else if (compartment_after > compartment_before) {
      result.gated = true;
      result.kind = "compartment-violation";
      result.note = "app/io compartment isolation break";
    } else if (corrupted > 0) {
      result.gated = true;
      result.kind = "silent-corruption";
      result.note = "delivered message matches nothing sent";
    } else if (!net_done && !client.Failed() && result.non_ok_edges == 0 &&
               result.steps_applied > 0) {
      result.gated = true;
      result.kind = "hang";
      result.note = "net workload wedged with no typed detection";
    }
    return result;
  }

 private:
  static size_t TotalSteps(const FuzzInput& input) {
    return input.steps.size();
  }

  std::vector<TargetWindow> BindWindows(cio::ConfidentialNode& node) const {
    std::vector<TargetWindow> windows = WindowSpecs();
    for (TargetWindow& window : windows) {
      if (window.name == "l2.counters") {
        BindRegion(window, node.shared_region(), 0, 256);
      } else if (window.name == "l2.rings") {
        BindRegion(window, node.shared_region(), 256, UINT64_MAX);
      } else if (window.name == "virtio.config") {
        BindRegion(window, node.shared_region(), 0, 64);
      } else if (window.name == "virtio.rest") {
        BindRegion(window, node.shared_region(), 64, UINT64_MAX);
      } else if (node.l5() != nullptr) {
        ciobase::MutableByteSpan queue = node.l5()->queue_region_for_test();
        const cio::L5QueueConfig& geometry = node.config().l5_queue;
        if (window.name == "l5.ctrl") {
          window.raw = queue.subspan(0, cio::kSqcqControlBytes);
        } else if (window.name == "l5.cq") {
          window.raw = queue.subspan(geometry.CqOffset(),
                                     geometry.cq_entries * cio::kCqeSize);
        } else if (window.name == "l5.all") {
          window.raw = queue;
        }
        window.length = window.raw.size();
      }
    }
    return windows;
  }

  static void BindRegion(TargetWindow& window, ciotee::SharedRegion* region,
                         uint64_t base, uint64_t length) {
    if (region == nullptr) {
      return;  // stays unbound; ApplyRound skips it
    }
    window.region = region;
    window.base_offset = base;
    uint64_t available = region->size() > base ? region->size() - base : 0;
    window.length = std::min(length, available);
  }

  StackProfile profile_;
  std::string name_;
};

// --- Storage target --------------------------------------------------------------

class StorageTarget final : public FuzzTarget {
 public:
  std::string_view name() const override { return "storage-ring"; }

  std::vector<TargetWindow> WindowSpecs() const override {
    return {Spec("block.cells", 256, 8), Spec("block.rest", 1 << 15, 4)};
  }

  RunResult Run(const FuzzInput& input, Mutator& mutator,
                const TargetOptions& options) override {
    ciobase::CoverageMap::Instance().ResetHits();
    RunResult result;

    ciobase::SimClock clock;
    ciobase::CostModel costs{&clock};
    ciotee::TeeMemory memory;
    ciohost::Adversary adversary{options.seed};
    ciohost::ObservabilityLog observability;

    cioblock::BlockRingConfig config;
    config.block_count = 128;
    ciotee::SharedRegion shared(&memory, config.RegionSize(), "fuzz-block");
    cioblock::HostBlockDevice device(&shared, config, &adversary,
                                     &observability, &clock);
    // Recovery bounds every wait: a wedged ring fires the watchdog and
    // eventually kTimedOut instead of spinning the synchronous client.
    ciobase::RecoveryConfig recovery;
    recovery.enabled = true;
    recovery.watchdog_timeout_ns = 100'000;
    recovery.backoff_initial_ns = 100'000;
    recovery.backoff_cap_ns = 400'000;
    recovery.max_resets = 3;
    cioblock::RingBlockClient ring(&shared, config, &device, &costs, recovery);
    cioblock::EncryptedBlockClient crypt(
        &ring, ciobase::BufferFromString("fuzz-storage-value-key-000000000"));

    std::vector<TargetWindow> windows = WindowSpecs();
    for (TargetWindow& window : windows) {
      window.region = &shared;
      if (window.name == "block.cells") {
        window.base_offset = 0;
        window.length = 256;
      } else {
        window.base_offset = 256;
        window.length = shared.size() - 256;
      }
    }

    size_t violations_before = GuestViolations(memory);
    ciobase::Rng payload_rng(options.seed * 7919 + 3);
    size_t ops = options.messages * 2;
    uint32_t rounds_per_op =
        std::max<uint32_t>(1, options.pump_rounds / std::max<size_t>(ops, 1));

    std::vector<ciobase::Buffer> written(options.messages);
    bool detected = false;
    bool corrupted = false;
    uint32_t round = 0;
    for (size_t op = 0; op < ops && !detected && !corrupted; ++op) {
      for (uint32_t r = 0; r < rounds_per_op; ++r, ++round) {
        result.steps_applied += mutator.ApplyRound(input, round, windows);
        device.Poll();
        clock.Advance(1000);
      }
      size_t index = op % options.messages;
      uint64_t lba = 1 + index;
      if (op < options.messages) {
        written[index] = payload_rng.Bytes(
            std::min<size_t>(options.message_size, crypt.block_size()));
        ciobase::Status status = crypt.WriteBlock(lba, written[index]);
        if (!status.ok()) {
          detected = true;  // typed error: the guest noticed
        }
      } else {
        auto read = crypt.ReadBlock(lba);
        if (!read.ok()) {
          detected = true;
        } else {
          read->resize(written[index].size());
          if (!(*read == written[index])) {
            corrupted = true;
          }
        }
      }
      if (ring.needs_remount()) {
        // The client latched a host restart; reattach (the store layer's
        // Remount path in miniature) and count it as detection.
        ring.Reattach();
        if (!crypt.Remount().ok()) {
          detected = true;
        }
      }
    }
    // Fire any mutation steps scheduled past the op budget (coverage only).
    for (; round < options.pump_rounds; ++round) {
      if (mutator.ApplyRound(input, round, windows) > 0) {
        device.Poll();
      }
    }

    result.completed = !corrupted;
    result.non_ok_edges = NonOkEdges();
    if (GuestViolations(memory) > violations_before) {
      result.gated = true;
      result.kind = "memory-violation";
      result.note = "guest-actor TEE violation under mutation";
    } else if (corrupted) {
      result.gated = true;
      result.kind = "silent-corruption";
      result.note = "block read returned wrong bytes without kTampered";
    }
    (void)detected;
    return result;
  }
};

}  // namespace

std::vector<std::unique_ptr<FuzzTarget>> AllFuzzTargets() {
  std::vector<std::unique_ptr<FuzzTarget>> targets;
  for (StackProfile profile :
       {StackProfile::kPassthroughL2, StackProfile::kHardenedVirtio,
        StackProfile::kDualBoundary, StackProfile::kTunneledL2}) {
    targets.push_back(std::make_unique<NetTarget>(profile));
  }
  targets.push_back(std::make_unique<StorageTarget>());
  return targets;
}

std::unique_ptr<FuzzTarget> MakeFuzzTarget(std::string_view name) {
  for (auto& target : AllFuzzTargets()) {
    if (target->name() == name) {
      return std::move(target);
    }
  }
  return nullptr;
}

}  // namespace ciofuzz
