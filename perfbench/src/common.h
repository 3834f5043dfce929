// Shared pieces of the repository benchmark: arguments, sample statistics,
// module-counter snapshots, wall-clock spans for the traced run, the AEAD
// calibration, and the report that ends every run with one JSON line.
//
// Two clocks stay apart throughout. `sim_*` figures come from the modeled
// ciobase::SimClock and repeat exactly for a seed; `wall_*` figures, spans
// and set-up times come from std::chrono::steady_clock on the host.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/clock.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Spreads a run's seed over the independent random streams it derives
// (seed * kSeedMix + stream).
inline constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

// Metric or figure name -> value.
using Values = std::map<std::string, double>;

// Module counters by name, summed over the nodes of a world.
using Counters = std::map<std::string, uint64_t>;

uint64_t CounterOf(const Counters& counters, const std::string& name);
// after - before per name, clamped at 0: a session restarted by recovery
// starts its own counts again.
Counters Delta(const Counters& after, const Counters& before);
// Adds a CostModel's counter slots as "cost.<slot name>".
void AddCosts(Counters& counters, const ciobase::CostModel& costs);

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// Operations per wall second of a timed phase, from the rates of its equal
// slices: the 90th percentile. A shared host slows a run down in bursts of
// a fraction of a second to seconds; the slices it did not disturb keep the
// figure steady from run to run, and a change that makes the work itself
// slower still moves every slice.
double WallRate(const std::vector<double>& slice_rates);

// Peak resident set of this process, in MB.
double PeakRssMb();

// Accumulated host time of the calls one span wraps.
struct WallSpan {
  uint64_t ns = 0;
  uint64_t calls = 0;
};

// Times its scope into `span`; a null span (untraced run) costs one branch.
class SpanTimer {
 public:
  explicit SpanTimer(WallSpan* span) : span_(span) {
    if (span_ != nullptr) {
      start_ = WallClock::now();
    }
  }
  ~SpanTimer() {
    if (span_ != nullptr) {
      span_->ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              WallClock::now() - start_)
              .count());
      ++span_->calls;
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  WallSpan* span_;
  WallClock::time_point start_{};
};

// Host cost of ciocrypto::AeadSeal / AeadOpen, measured in this process at
// three payload sizes, so traced runs can attribute host CPU to AEAD from
// the byte counts the modules keep.
struct AeadCalibration {
  static constexpr std::array<double, 3> kSizes = {512, 1400, 16384};
  std::array<double, 3> seal_ns_per_byte{};
  std::array<double, 3> open_ns_per_byte{};

  // Interpolated on log(size), clamped to the calibrated range.
  double SealNsPerByte(double bytes) const;
  double OpenNsPerByte(double bytes) const;
};
AeadCalibration CalibrateAead(double budget_seconds);

// The cost.* per-layer metrics from summed CostModel counter deltas.
void FillCostLayers(Values& values, const Counters& delta, double ops);
// crypto.aead_wall_ns_per_byte and crypto.aead_wall_share_pct. TLS bytes are
// sealed once and opened once; bytes the cost model charged as AEAD
// (blockio) are one seal or one open each. `wall_s` is the phase's host time.
void FillAeadLayers(Values& values, const AeadCalibration& aead,
                    const Counters& delta, double wall_s);

// Collects checks, figures and the metrics of the final JSON line.
class Report {
 public:
  // A metric of the result line; also printed.
  void Metric(const std::string& name, double value, const std::string& unit);
  // A figure printed for the reader only.
  void Note(const std::string& name, double value, const std::string& unit);
  // A modeled-clock figure or module counter: it repeats exactly for one
  // seed, so the self-test compares these across runs.
  void Sim(const std::string& name, double value);
  // A correctness check; any failure turns the result into a failure.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // Records the traced run's modeled figures and checks them against the
  // untraced run of the same seed: tracing never charges the modeled clock.
  void CheckTracedFigures(const Values& untraced, const Values& traced);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  bool correct() const { return failed_checks_ == 0; }

  // Prints every line, then the JSON result as the last line. A failed run
  // reports "correct": false and no metrics.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::string> lines_;
  std::vector<Entry> metrics_;
  Values sims_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int failed_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
