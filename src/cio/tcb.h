// TCB accounting: which code is inside the confidential application's
// trusted computing base under each stack profile — the "TCB" axis of
// Figure 5.
//
// Line counts are hand-maintained per module, typed in from earlier
// measurements of this repository (tools/count_loc.sh reports per-library
// totals). No test checks them against the live tree, so they can drift
// until the counts are computed from the tree itself. What matters for the
// figure is the *ratio* between profiles, which is structural: the
// dual-boundary and syscall profiles exclude the network stack from the
// app's TCB; the L2 profiles include it.

#ifndef SRC_CIO_TCB_H_
#define SRC_CIO_TCB_H_

#include <string>
#include <vector>

#include "src/cio/engine.h"

namespace cio {

struct TcbModule {
  std::string name;
  size_t lines;
};

struct TcbReport {
  // Code the application must trust with its data (compromise = game over).
  std::vector<TcbModule> app_tcb;
  // Code inside the confidential unit but OUTSIDE the app's TCB (the
  // isolated I/O compartment): its compromise only raises observability.
  std::vector<TcbModule> isolated;
  // Untrusted host-side code the design relies on for service only.
  std::vector<TcbModule> host_side;

  size_t AppTcbLines() const;
  size_t IsolatedLines() const;
  std::string ToString() const;
};

// The per-module line counts used by the reports.
const std::vector<TcbModule>& ModuleLineCounts();

TcbReport ProfileTcb(StackProfile profile);

}  // namespace cio

#endif  // SRC_CIO_TCB_H_
