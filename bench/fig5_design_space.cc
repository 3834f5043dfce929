// Regenerates Figure 5: the confidential-I/O design space — security (app
// TCB size, observability by the host) versus performance — measured on
// this repository's four stack profiles, which map onto the paper's
// annotated systems:
//
//   syscall-l5       ~ Graphene / CCF            (TCB S,  Obs XL, slow)
//   passthrough-l2   ~ ShieldBox/SafeBricks/rkt-io (TCB L, Obs M,  fast)
//   hardened-virtio  ~ lift-and-shift CVM stacks  (TCB L,  Obs M,  mid)
//   dual-boundary    = this work                  (TCB S,  Obs M,  fast)
//
// Performance is a bulk TCP+TLS transfer measured against the modeled
// clock (boundary crossings, copies, page ops are charged; see
// src/base/clock.h). Absolute numbers are simulation-relative; the figure's
// claim is the *shape*: this work reaches passthrough-class performance and
// syscall-class TCB at network-level observability. Exits 1 when a profile
// fails to establish or a shape check reads NO.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/cio/tcb.h"

int main() {
  using namespace cio;  // NOLINT
  std::printf("== Figure 5: design space ==\n\n");
  std::printf("%-18s %12s %12s %10s %14s %12s\n", "profile", "thru (rel)",
              "Gbit/s(sim)", "appTCB KLoC", "xnet bits/op", "len entropy");
  std::printf("%s\n", std::string(86, '-').c_str());

  bool failed = false;
  double baseline_gbps = 0.0;
  struct Row {
    StackProfile profile;
    double gbps;
    double tcb_kloc;
    double bits_per_op;
    double length_entropy;
  };
  std::vector<Row> rows;
  for (StackProfile profile : AllStackProfiles()) {
    cio::LinkedPair pair(ciobench::MakeNode(profile, 1),
                         ciobench::MakeNode(profile, 2));
    if (!pair.Establish()) {
      std::printf("%-18s  FAILED TO ESTABLISH\n",
                  std::string(StackProfileName(profile)).c_str());
      failed = true;
      continue;
    }
    pair.client->observability().Clear();
    auto result = ciobench::BulkTransfer(pair, 400, 1024);
    Row row;
    row.profile = profile;
    row.gbps = result.GbitPerSec();
    row.tcb_kloc = static_cast<double>(ProfileTcb(profile).AppTcbLines()) /
                   1000.0;
    row.bits_per_op = pair.client->observability().BeyondNetworkBitsPerOp(
        pair.client->app_ops());
    row.length_entropy =
        pair.client->observability().PacketLengthEntropyBits();
    rows.push_back(row);
    if (profile == StackProfile::kPassthroughL2) {
      baseline_gbps = row.gbps;
    }
  }
  for (const Row& row : rows) {
    std::printf("%-18s %11.2fx %12.2f %10.1f %14.1f %12.2f\n",
                std::string(StackProfileName(row.profile)).c_str(),
                baseline_gbps == 0 ? 0 : row.gbps / baseline_gbps, row.gbps,
                row.tcb_kloc, row.bits_per_op, row.length_entropy);
  }

  std::printf(
      "\nShape checks (paper's Figure 5 claims):\n");
  auto check = [&](bool holds) {
    failed = failed || !holds;
    return holds ? "yes" : "NO";
  };
  auto find = [&](StackProfile profile) -> const Row* {
    for (const Row& row : rows) {
      if (row.profile == profile) {
        return &row;
      }
    }
    return nullptr;
  };
  const Row* syscall = find(StackProfile::kSyscallL5);
  const Row* passthrough = find(StackProfile::kPassthroughL2);
  const Row* dual = find(StackProfile::kDualBoundary);
  const Row* virtio = find(StackProfile::kHardenedVirtio);
  if (syscall && passthrough && dual && virtio) {
    std::printf("  this-work throughput within %.0f%% of passthrough: %s\n",
                100.0 * (1.0 - dual->gbps / passthrough->gbps),
                check(dual->gbps > 0.5 * passthrough->gbps));
    std::printf("  this-work faster than syscall-L5: %s (%.1fx)\n",
                check(dual->gbps > syscall->gbps),
                syscall->gbps == 0 ? 0 : dual->gbps / syscall->gbps);
    std::printf("  this-work TCB ~= syscall TCB, << passthrough TCB: %s\n",
                check(dual->tcb_kloc < 1.2 * syscall->tcb_kloc &&
                      dual->tcb_kloc < 0.7 * passthrough->tcb_kloc));
    std::printf("  this-work leaks ~no beyond-network metadata, syscall "
                "does: %s (%.1f vs %.1f bits/op)\n",
                check(dual->bits_per_op < 1.0 && syscall->bits_per_op > 10.0),
                dual->bits_per_op, syscall->bits_per_op);
    std::printf("  hardened-virtio slower than this-work: %s (%.2fx)\n",
                check(virtio->gbps < dual->gbps),
                virtio->gbps == 0 ? 0 : dual->gbps / virtio->gbps);
    const Row* tunneled = find(StackProfile::kTunneledL2);
    if (tunneled != nullptr) {
      std::printf("  tunneled-l2 (LightBox corner) hides even packet sizes "
                  "(%.2f vs %.2f entropy bits) at the largest TCB: %s\n",
                  tunneled->length_entropy, passthrough->length_entropy,
                  check(tunneled->length_entropy < 0.3 &&
                        tunneled->tcb_kloc > dual->tcb_kloc));
    }
  }
  return failed ? 1 : 0;
}
