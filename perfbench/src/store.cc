// store-mixed: one caller in a closed loop over cioblock::ConfidentialStore
// with durable generations (a rollback counter is set). The mix is 70% Get,
// 25% Put and 5% Delete over 48 keys with values of 256 B - 12 KiB, and a
// Flush after every 16th Put. A Put pays the journal commit and reseals the
// generation table while a Get does neither, so a change that helps one at
// the other's cost shows. This is the only workload of src/blockio.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/base/rng.h"
#include "src/blockio/store.h"
#include "src/hostsim/observability.h"
#include "src/tee/memory.h"
#include "src/tee/monotonic_counter.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kKeys = 48;
constexpr uint32_t kMinValueBytes = 256;
constexpr uint32_t kMaxValueBytes = 12 * 1024;
constexpr int kPutsPerFlush = 16;
constexpr size_t kPoolBytes = 1 << 20;
constexpr int kSetups = 15;    // set-ups timed per run; the median counts
constexpr int kSegments = 30;  // wall-rate slices of the run; see WallRate()
// Sizing: host cost per operation on the reference host, and the share of
// --seconds the run should take.
constexpr double kWallUsPerOp = 200;
constexpr double kRunShare = 0.85;

struct StoreWorld {
  ciobase::SimClock clock;
  ciobase::CostModel costs{&clock};
  ciotee::TeeMemory memory;
  ciotee::CompartmentManager compartments{&costs};
  ciohost::ObservabilityLog observability;
  ciotee::MonotonicCounter rollback_counter;
  std::unique_ptr<cioblock::ConfidentialStore> store;

  StoreWorld() {
    const ciotee::CompartmentId app = compartments.Create("app", 1 << 20);
    const ciotee::CompartmentId storage =
        compartments.Create("storage", 1 << 20);
    cioblock::ConfidentialStore::Options options;
    options.disk_key = ciobase::BufferFromString("perfbench-disk-key-0123456");
    options.value_key = ciobase::BufferFromString("perfbench-value-key-012345");
    options.rollback_counter = &rollback_counter;
    store = std::make_unique<cioblock::ConfidentialStore>(
        &memory, &compartments, app, storage, &costs, nullptr, &observability,
        &clock, options);
  }
};

// A value is a slice of the seeded pool.
struct Value {
  bool present = false;
  uint32_t bytes = 0;
  uint32_t offset = 0;
};
using Shadow = std::array<Value, kKeys>;

Value RandomValue(ciobase::Rng& rng) {
  Value value;
  value.present = true;
  value.bytes =
      static_cast<uint32_t>(rng.NextInRange(kMinValueBytes, kMaxValueBytes));
  value.offset =
      static_cast<uint32_t>(rng.NextBounded(kPoolBytes - value.bytes + 1));
  return value;
}

ciobase::ByteSpan Bytes(const ciobase::Buffer& pool, const Value& value) {
  return ciobase::ByteSpan(pool.data() + value.offset, value.bytes);
}

// A present value reads back byte-exact; an absent key reads as kNotFound.
bool Matches(const ciobase::Buffer& pool, const Value& expected,
             const ciobase::Result<ciobase::Buffer>& got) {
  if (!expected.present) {
    return !got.ok() && got.status().code() == ciobase::StatusCode::kNotFound;
  }
  return got.ok() && got->size() == expected.bytes &&
         std::memcmp(got->data(), pool.data() + expected.offset,
                     expected.bytes) == 0;
}

enum class OpKind : uint8_t { kGet, kPut, kDelete };

struct StoreOp {
  OpKind kind = OpKind::kGet;
  uint8_t key = 0;
  bool flush = false;  // a Flush follows this Put
  Value value;         // Put only
};

// The seeded op mix. Delete picks only keys that exist at that point, so a
// correct store fails no operation; a Get may hit a deleted key.
std::vector<StoreOp> MakeOps(ciobase::Rng& rng, size_t count) {
  std::array<bool, kKeys> present;
  present.fill(true);  // preloaded
  std::vector<StoreOp> ops(count);
  int puts = 0;
  for (StoreOp& op : ops) {
    const double draw = rng.NextDouble();
    op.key = static_cast<uint8_t>(rng.NextBounded(kKeys));
    if (draw < 0.70) {
      op.kind = OpKind::kGet;
    } else if (draw < 0.95 || !present[op.key]) {
      op.kind = OpKind::kPut;
      op.value = RandomValue(rng);
      op.flush = ++puts % kPutsPerFlush == 0;
      present[op.key] = true;
    } else {
      op.kind = OpKind::kDelete;
      present[op.key] = false;
    }
  }
  return ops;
}

std::vector<std::string> KeyNames() {
  std::vector<std::string> names;
  for (int key = 0; key < kKeys; ++key) {
    names.push_back("key-" + std::to_string(key));
  }
  return names;
}

// Builds the store, formats it and preloads every key with a seeded value;
// null when any step fails.
std::unique_ptr<StoreWorld> BuildStore(uint64_t seed,
                                       const ciobase::Buffer& pool,
                                       const std::vector<std::string>& names,
                                       Shadow& shadow) {
  auto world = std::make_unique<StoreWorld>();
  if (!world->store->Format().ok()) {
    return nullptr;
  }
  ciobase::Rng rng(seed * kSeedMix + 4);
  for (int key = 0; key < kKeys; ++key) {
    shadow[key] = RandomValue(rng);
    if (!world->store->Put(names[key], Bytes(pool, shadow[key])).ok()) {
      return nullptr;
    }
  }
  if (!world->store->Flush().ok()) {
    return nullptr;
  }
  return world;
}

Counters StoreCounters(StoreWorld& world) {
  Counters c;
  AddCosts(c, world.costs);
  cioblock::ConfidentialStore& store = *world.store;
  c["blockio.ring.ops"] = store.ring_client()->stats().reads +
                          store.ring_client()->stats().writes;
  c["blockio.device.flushes"] = store.host_device()->stats().flushes;
  c["blockio.crypt.table_flushes"] =
      store.crypt_client()->stats().table_flushes;
  c["blockio.fs.journal_appends"] = store.fs()->stats().journal_appends;
  return c;
}

// Host time of the store's Get and Put calls (traced runs only).
struct StoreTracer {
  WallSpan get;
  WallSpan put;
};

struct StoreRun {
  std::vector<double> op_us;  // modeled, every Get, Put and Delete
  std::vector<double> get_us;
  std::vector<double> put_us;
  std::vector<double> flush_us;
  uint64_t ops = 0;
  uint64_t failed = 0;      // Put, Delete or Flush returned an error
  uint64_t mismatched = 0;  // a Get disagreed with the shadow
  uint64_t sim_ns = 0;      // modeled duration, Flushes included
  double establish_ms = 0;  // modeled set-up: format + preload
  std::vector<double> segment_rates;  // operations per wall second
  double wall_s = 0;
  Counters delta;
};

StoreRun RunOps(StoreWorld& world, const std::vector<StoreOp>& ops,
                const ciobase::Buffer& pool,
                const std::vector<std::string>& names, Shadow& shadow,
                StoreTracer* tracer) {
  auto span = [tracer](WallSpan StoreTracer::*member) {
    return tracer == nullptr ? nullptr : &(tracer->*member);
  };
  cioblock::ConfidentialStore& store = *world.store;
  StoreRun run;
  run.establish_ms = world.clock.now_ns() / 1e6;
  run.op_us.reserve(ops.size());
  const Counters before = StoreCounters(world);
  const uint64_t sim_start = world.clock.now_ns();
  const size_t per_segment = std::max<size_t>(1, ops.size() / kSegments);
  const WallClock::time_point start = WallClock::now();
  WallClock::time_point segment_start = start;
  for (size_t i = 0; i < ops.size(); ++i) {
    const StoreOp& op = ops[i];
    const std::string& name = names[op.key];
    Value& expected = shadow[op.key];
    const uint64_t t0 = world.clock.now_ns();
    switch (op.kind) {
      case OpKind::kGet: {
        const auto got = [&] {
          SpanTimer timer(span(&StoreTracer::get));
          return store.Get(name);
        }();
        run.mismatched += Matches(pool, expected, got) ? 0 : 1;
        run.get_us.push_back((world.clock.now_ns() - t0) / 1e3);
        break;
      }
      case OpKind::kPut: {
        const ciobase::Status status = [&] {
          SpanTimer timer(span(&StoreTracer::put));
          return store.Put(name, Bytes(pool, op.value));
        }();
        if (status.ok()) {
          expected = op.value;
        } else {
          ++run.failed;
        }
        run.put_us.push_back((world.clock.now_ns() - t0) / 1e3);
        break;
      }
      case OpKind::kDelete: {
        const ciobase::Status status = store.Delete(name);
        if (status.ok()) {
          expected.present = false;
        } else {
          ++run.failed;
        }
        break;
      }
    }
    run.op_us.push_back((world.clock.now_ns() - t0) / 1e3);
    if (op.flush) {
      const uint64_t flush_start = world.clock.now_ns();
      const ciobase::Status status = store.Flush();
      run.failed += status.ok() ? 0 : 1;
      run.flush_us.push_back((world.clock.now_ns() - flush_start) / 1e3);
    }
    ++run.ops;
    if ((i + 1) % per_segment == 0 && run.segment_rates.size() < kSegments) {
      const WallClock::time_point now = WallClock::now();
      const double seconds =
          std::chrono::duration<double>(now - segment_start).count();
      if (seconds > 0) {
        run.segment_rates.push_back(per_segment / seconds);
      }
      segment_start = now;
    }
  }
  run.wall_s = SecondsSince(start);
  run.sim_ns = world.clock.now_ns() - sim_start;
  run.delta = Delta(StoreCounters(world), before);
  return run;
}

// Keys whose stored state disagrees with the shadow after the run.
size_t FinalMismatches(StoreWorld& world, const ciobase::Buffer& pool,
                       const std::vector<std::string>& names,
                       const Shadow& shadow) {
  size_t mismatches = 0;
  for (int key = 0; key < kKeys; ++key) {
    mismatches +=
        Matches(pool, shadow[key], world.store->Get(names[key])) ? 0 : 1;
  }
  return mismatches;
}

Values ModeledFigures(const StoreRun& run) {
  Values f;
  f["sim_p50_us"] = Percentile(run.op_us, 0.50);
  f["sim_p99_us"] = Percentile(run.op_us, 0.99);
  f["sim_ops_per_s"] = run.sim_ns > 0 ? run.ops / (run.sim_ns / 1e9) : 0;
  f["sim_get_p50_us"] = Percentile(run.get_us, 0.50);
  f["sim_get_p99_us"] = Percentile(run.get_us, 0.99);
  f["sim_put_p50_us"] = Percentile(run.put_us, 0.50);
  f["sim_put_p99_us"] = Percentile(run.put_us, 0.99);
  f["sim_flush_p50_us"] = Percentile(run.flush_us, 0.50);
  f["sim_samples"] = run.op_us.size();
  f["sim_gets"] = run.get_us.size();
  f["sim_puts"] = run.put_us.size();
  f["sim_ms"] = run.sim_ns / 1e6;
  f["sim_establish_ms"] = run.establish_ms;
  for (const auto& [name, value] : run.delta) {
    f["counter." + name] = value;
  }
  return f;
}

void CheckRun(Report& report, const std::string& prefix,
              const StoreRun& run) {
  report.Check(prefix + "store.ops_succeeded", run.failed == 0,
               std::to_string(run.failed) + " failed");
  report.Check(prefix + "store.gets_match_shadow", run.mismatched == 0,
               std::to_string(run.mismatched) + " mismatched");
  report.AddAttempted(run.ops);
  report.AddFailed(run.failed + run.mismatched);
}

}  // namespace

bool RunStoreWorkload(const Args& args, Report& report, Values& values) {
  if (args.workload != "store-mixed") {
    return false;
  }
  const ciobase::Buffer pool =
      ciobase::Rng(args.seed * kSeedMix + 3).Bytes(kPoolBytes);
  const std::vector<std::string> names = KeyNames();
  ciobase::Rng op_rng(args.seed * kSeedMix + 5);
  const std::vector<StoreOp> ops = MakeOps(
      op_rng, std::max<size_t>(1000, static_cast<size_t>(
                                         args.seconds * kRunShare * 1e6 /
                                         kWallUsPerOp)));
  Shadow shadow;

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<StoreWorld> world;
    for (int i = 0; i < kSetups; ++i) {
      world.reset();  // one store at a time
      const WallClock::time_point start = WallClock::now();
      world = BuildStore(args.seed, pool, names, shadow);
      setup_s.push_back(SecondsSince(start));
      if (world == nullptr) {
        break;
      }
    }
    report.Check("setup.store_formatted_and_preloaded", world != nullptr);
    if (world == nullptr) {
      return true;
    }
    const StoreRun run = RunOps(*world, ops, pool, names, shadow, nullptr);
    CheckRun(report, "", run);
    report.Check("store.final_state_matches_shadow",
                 FinalMismatches(*world, pool, names, shadow) == 0);
    const Values figures = ModeledFigures(run);
    for (const auto& [name, value] : figures) {
      report.Sim(name, value);
    }
    report.Note("sim_samples", figures.at("sim_samples"), "count");
    report.Note("sim_ops_per_s", figures.at("sim_ops_per_s"), "ops/s");
    for (const char* name : {"sim_get_p50_us", "sim_get_p99_us",
                             "sim_put_p50_us", "sim_put_p99_us",
                             "sim_flush_p50_us"}) {
      report.Note(name, figures.at(name), "us");
    }
    report.Note("run.wall_s", run.wall_s, "s");
    report.Note("wall_ops_per_s", WallRate(run.segment_rates), "ops/s");
    values["sim_p50_us"] = figures.at("sim_p50_us");
    values["sim_p99_us"] = figures.at("sim_p99_us");
    // One caller in a closed loop: its capacity is its completion rate.
    values["sim_capacity_ops_per_s"] = figures.at("sim_ops_per_s");
    values["setup_s"] = Median(setup_s);
    values["peak_rss_mb"] = PeakRssMb();
    return true;
  }

  // Traced: the untraced run, then the traced run of the same seed.
  StoreRun untraced;
  {
    Shadow untraced_shadow;
    auto world = BuildStore(args.seed, pool, names, untraced_shadow);
    report.Check("untraced.setup.store_formatted_and_preloaded",
                 world != nullptr);
    if (world == nullptr) {
      return true;
    }
    untraced = RunOps(*world, ops, pool, names, untraced_shadow, nullptr);
    CheckRun(report, "untraced.", untraced);
  }
  auto world = BuildStore(args.seed, pool, names, shadow);
  report.Check("setup.store_formatted_and_preloaded", world != nullptr);
  if (world == nullptr) {
    return true;
  }
  StoreTracer tracer;
  const StoreRun run = RunOps(*world, ops, pool, names, shadow, &tracer);
  CheckRun(report, "", run);
  report.Check("store.final_state_matches_shadow",
               FinalMismatches(*world, pool, names, shadow) == 0);
  report.CheckTracedFigures(ModeledFigures(untraced), ModeledFigures(run));

  const double ops_done = std::max<double>(1, run.ops);
  auto per_call_us = [](const WallSpan& span) {
    return span.ns / 1e3 / std::max<uint64_t>(1, span.calls);
  };
  auto per_op = [&](const char* counter) {
    return static_cast<double>(CounterOf(run.delta, counter)) / ops_done;
  };
  values["blockio.store.get.wall_us_per_op"] = per_call_us(tracer.get);
  values["blockio.store.put.wall_us_per_op"] = per_call_us(tracer.put);
  values["blockio.ring.ops_per_op"] = per_op("blockio.ring.ops");
  values["blockio.device.flushes_per_op"] = per_op("blockio.device.flushes");
  values["blockio.crypt.table_flushes_per_op"] =
      per_op("blockio.crypt.table_flushes");
  values["blockio.fs.journal_appends_per_op"] =
      per_op("blockio.fs.journal_appends");
  FillCostLayers(values, run.delta, ops_done);
  FillAeadLayers(values, CalibrateAead(0.6), run.delta, run.wall_s);
  values["setup.establish.sim_ms"] = run.establish_ms;
  values["trace.overhead_pct"] =
      100 * (WallRate(untraced.segment_rates) / WallRate(run.segment_rates) - 1);
  return true;
}

}  // namespace perfbench
