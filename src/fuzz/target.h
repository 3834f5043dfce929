// Fuzz targets: one scripted guest workload per fuzzable stack, plus the
// oracle that classifies what hostile shared-memory mutation did to it.
//
// Each target builds a FRESH world per input (determinism: nothing leaks
// between iterations), binds its host-writable windows by name, then runs a
// fixed echo workload while the mutation schedule fires round by round.
//
// Oracle — what gates (a real interface-hardening bug):
//   * memory-violation:   a guest-actor TEE violation (the hostile input
//                         steered a guest driver out of bounds),
//   * compartment-violation: an isolation break between app and I/O domains,
//   * silent-corruption:  a delivered payload that matches nothing the peer
//                         sent — TLS (net) and AEAD-at-rest (storage) make
//                         every corruption typed, so a mismatch means a
//                         check was bypassed,
//   * hang:               the net workload stopped with NO typed non-OK
//                         coverage edge and the node not Failed() — the
//                         guest wedged without noticing anything.
// Everything else — lost messages, watchdog resets, dead links, rejected
// completions — is degraded service: availability is explicitly not the
// property under test (the host can always just stop running us).
//
// Unhardened profiles (passthrough-l2, tunneled-l2 run the driver with
// HardeningOptions::Passthrough()) are expected to produce memory
// violations under mutation — that is the CVE class the paper catalogues,
// reproduced on purpose. Their targets report expect_vulnerable() and the
// campaign counts those hits separately instead of failing the gate; the
// same violation on a hardened profile still gates hard.
//
// Fuzzed stacks: passthrough-l2, hardened-virtio, dual-boundary,
// tunneled-l2 (each over its shared-memory transport), and the storage
// block ring. syscall-l5 and direct-device are not fuzzed: neither exposes
// a host-writable shared-memory window (syscalls marshal by value; the
// attested DDA device is inside the TCB).

#ifndef SRC_FUZZ_TARGET_H_
#define SRC_FUZZ_TARGET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fuzz/mutator.h"

namespace ciofuzz {

struct TargetOptions {
  uint64_t seed = 1;        // world seed (TLS nonces, payload bytes)
  size_t messages = 3;      // echo messages per run
  size_t message_size = 64;
  uint32_t pump_rounds = 160;  // mutation/pump rounds after establish
};

struct RunResult {
  bool completed = false;   // the scripted workload finished
  bool gated = false;       // oracle found a real bug
  std::string kind;         // gated failure class (empty otherwise)
  std::string note;
  size_t steps_applied = 0;
  size_t non_ok_edges = 0;  // coverage edges with code != kOk this run
};

class FuzzTarget {
 public:
  virtual ~FuzzTarget() = default;

  virtual std::string_view name() const = 0;

  // True when this target's guest stack is deliberately unhardened, so a
  // memory-violation under mutation demonstrates the known CVE class
  // rather than a regression. The fuzzer tallies these separately.
  virtual bool expect_vulnerable() const { return false; }

  // Unbound window specs (name/length/weight) for input generation; Run()
  // binds the same names against the freshly built world.
  virtual std::vector<TargetWindow> WindowSpecs() const = 0;

  // Builds a world, applies `input` round by round while the workload runs,
  // and classifies the outcome. Resets the global CoverageMap hit counts on
  // entry, so coverage observed after Run() belongs to this run alone.
  virtual RunResult Run(const FuzzInput& input, Mutator& mutator,
                        const TargetOptions& options) = 0;
};

// All fuzzable targets, in a fixed order (the fuzzer round-robins them).
std::vector<std::unique_ptr<FuzzTarget>> AllFuzzTargets();

// Lookup by name ("net-dual-boundary", "storage-ring", ...); nullptr if
// unknown.
std::unique_ptr<FuzzTarget> MakeFuzzTarget(std::string_view name);

}  // namespace ciofuzz

#endif  // SRC_FUZZ_TARGET_H_
