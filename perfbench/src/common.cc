#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/base/rng.h"
#include "src/crypto/aead.h"

namespace perfbench {

uint64_t CounterOf(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters delta;
  for (const auto& [name, value] : after) {
    const uint64_t base = CounterOf(before, name);
    delta[name] = value > base ? value - base : 0;
  }
  return delta;
}

void AddCosts(Counters& counters, const ciobase::CostModel& costs) {
  for (size_t i = 0; i < ciobase::kCostCounterCount; ++i) {
    const auto slot = static_cast<ciobase::CostCounter>(i);
    counters["cost." + std::string(ciobase::CostCounterName(slot))] +=
        costs.slots()[i];
  }
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : 0.5 * (samples[mid - 1] + samples[mid]);
}

double WallRate(const std::vector<double>& slice_rates) {
  return Percentile(slice_rates, 0.9);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double Interpolate(const std::array<double, 3>& ns_per_byte, double bytes) {
  const auto& sizes = AeadCalibration::kSizes;
  double x = std::log(std::clamp(bytes, sizes.front(), sizes.back()));
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    double x0 = std::log(sizes[i]);
    double x1 = std::log(sizes[i + 1]);
    if (x <= x1) {
      double t = (x - x0) / (x1 - x0);
      return ns_per_byte[i] + t * (ns_per_byte[i + 1] - ns_per_byte[i]);
    }
  }
  return ns_per_byte.back();
}

}  // namespace

double AeadCalibration::SealNsPerByte(double bytes) const {
  return Interpolate(seal_ns_per_byte, bytes);
}

double AeadCalibration::OpenNsPerByte(double bytes) const {
  return Interpolate(open_ns_per_byte, bytes);
}

AeadCalibration CalibrateAead(double budget_seconds) {
  AeadCalibration calibration;
  ciobase::Rng rng(0xae4d);
  ciobase::Buffer key = rng.Bytes(ciocrypto::kAeadKeySize);
  ciobase::Buffer nonce = rng.Bytes(ciocrypto::kAeadNonceSize);
  ciobase::Buffer aad = rng.Bytes(13);
  const double per_size = budget_seconds / AeadCalibration::kSizes.size();
  for (size_t i = 0; i < AeadCalibration::kSizes.size(); ++i) {
    ciobase::Buffer plaintext =
        rng.Bytes(static_cast<size_t>(AeadCalibration::kSizes[i]));
    ciobase::Buffer sealed = ciocrypto::AeadSeal(key, nonce, aad, plaintext);
    // Alternate short seal and open batches and keep the fastest batch of
    // each: the one least disturbed by other work on the host.
    double best_seal = 1e30;
    double best_open = 1e30;
    uint64_t sink = 0;
    auto start = WallClock::now();
    while (SecondsSince(start) < per_size) {
      constexpr int kBatch = 16;
      auto t0 = WallClock::now();
      for (int b = 0; b < kBatch; ++b) {
        sink += ciocrypto::AeadSeal(key, nonce, aad, plaintext)[b];
      }
      auto t1 = WallClock::now();
      for (int b = 0; b < kBatch; ++b) {
        auto opened = ciocrypto::AeadOpen(key, nonce, aad, sealed);
        sink += opened.ok() ? (*opened)[b] : 1;
      }
      auto t2 = WallClock::now();
      double bytes = kBatch * AeadCalibration::kSizes[i];
      best_seal = std::min(
          best_seal,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / bytes);
      best_open = std::min(
          best_open,
          std::chrono::duration<double, std::nano>(t2 - t1).count() / bytes);
    }
    // Keeps the timed calls' results observable.
    if (sink == 0) {
      std::fprintf(stderr, "aead calibration produced no output\n");
    }
    calibration.seal_ns_per_byte[i] = best_seal;
    calibration.open_ns_per_byte[i] = best_open;
  }
  return calibration;
}

void FillCostLayers(Values& values, const Counters& delta, double ops) {
  static constexpr std::pair<const char*, const char*> kCostLayers[] = {
      {"cost.host_exits_per_op", "cost.host_exits"},
      {"cost.notifies_per_op", "cost.notifies"},
      {"cost.compartment_switches_per_op", "cost.compartment_switches"},
      {"cost.ring_polls_per_op", "cost.ring_polls"},
      {"cost.copies_per_op", "cost.copies"},
      {"cost.bytes_copied_per_op", "cost.bytes_copied"},
      {"cost.aead_bytes_per_op", "cost.bytes_aead"},
      {"cost.pages_unshared_per_op", "cost.pages_unshared"},
  };
  for (const auto& [metric, counter] : kCostLayers) {
    values[metric] = static_cast<double>(CounterOf(delta, counter)) / ops;
  }
}

void FillAeadLayers(Values& values, const AeadCalibration& aead,
                    const Counters& delta, double wall_s) {
  const double tls_records = CounterOf(delta, "tls.records_sealed");
  const double tls_bytes = CounterOf(delta, "tls.bytes_protected");
  const double cost_ops = CounterOf(delta, "cost.aead_ops");
  const double cost_bytes = CounterOf(delta, "cost.bytes_aead");
  // Calibrated at the mean protected payload: a TLS record, else one AEAD
  // operation of the cost model.
  double payload = AeadCalibration::kSizes[1];
  if (tls_records > 0) {
    payload = tls_bytes / tls_records;
  } else if (cost_ops > 0) {
    payload = cost_bytes / cost_ops;
  }
  const double seal = aead.SealNsPerByte(payload);
  const double open = aead.OpenNsPerByte(payload);
  values["crypto.aead_wall_ns_per_byte"] = (seal + open) / 2;
  const double aead_ns =
      tls_bytes * (seal + open) + cost_bytes * (seal + open) / 2;
  values["crypto.aead_wall_share_pct"] =
      wall_s > 0 ? 100 * aead_ns / (wall_s * 1e9) : 0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  char line[256];
  std::snprintf(line, sizeof(line), "metric %-36s %.6g %s", name.c_str(),
                value, unit.c_str());
  lines_.emplace_back(line);
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof(line), "note   %-36s %.6g %s", name.c_str(), value,
                unit.c_str());
  lines_.emplace_back(line);
}

void Report::Sim(const std::string& name, double value) {
  sims_[name] = value;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) {
    ++failed_checks_;
  }
  std::string line = "check  " + name + (ok ? " ok" : " FAILED");
  if (!ok && !detail.empty()) {
    line += ": " + detail;
  }
  lines_.push_back(line);
}

void Report::CheckTracedFigures(const Values& untraced, const Values& traced) {
  std::string differs;
  for (const auto& [name, value] : untraced) {
    const auto it = traced.find(name);
    if (it == traced.end() || it->second != value) {
      differs = name;
      break;
    }
  }
  if (differs.empty() && traced.size() != untraced.size()) {
    differs = "the set of figures";
  }
  Check("trace.modeled_figures_match_untraced", differs.empty(),
        differs + " differs");
  for (const auto& [name, value] : traced) {
    Sim(name, value);
  }
}

void Report::Print() const {
  for (const std::string& line : lines_) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [name, value] : sims_) {
    std::printf("sim    %-36s %.17g\n", name.c_str(), value);
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  if (correct()) {
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
