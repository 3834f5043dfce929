// Attack campaign: runs every adversary strategy against every stack
// profile and classifies the outcome from ground truth (§2.2's two
// vulnerability vectors, made measurable).
//
// For each (profile, strategy) cell the harness builds a two-node world,
// arms the adversary against the victim's shared region and host device,
// pushes application messages both ways, and then inspects:
//
//   * the TEE memory model's violation log (out-of-bounds / private-memory
//     accesses the victim's transport performed under attack),
//   * the compartment manager's violation log (isolation held or not),
//   * delivered-vs-sent message payloads (end-to-end integrity),
//   * TLS authentication failures and link liveness,
//   * plaintext-payload observability events (confidentiality).
//
// Outcome order is worst-first; a cell is classified by the worst evidence
// found. The paper's claim (§3.1) is that the dual-boundary design turns
// every cell into kBlocked or, at worst, kDegradedService — attacks on the
// I/O path can deny service (out of scope) but cannot break memory safety,
// integrity, or confidentiality of the application.
//
// The RECOVERY campaign is the second dimension: transient host faults
// (ciohost::FaultStrategy) opened for a bounded window mid-transfer. Here
// the question is not "does the guest stay uncorrupted" but "does the guest
// come back": each cell records whether the link re-established, the time
// from fault injection to full catch-up, and how many in-flight messages
// were lost or duplicated. The dual-boundary profile (watchdog + ring
// reset + TLS re-establishment + resend window, all enabled by
// StackConfig::DefaultsFor) is expected to recover from every transient
// fault with zero losses; the baselines ship without recovery and wedge
// wherever TCP retransmission alone cannot save them.

#ifndef SRC_CIO_ATTACK_CAMPAIGN_H_
#define SRC_CIO_ATTACK_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/cio/engine.h"
#include "src/hostsim/adversary.h"

namespace cio {

enum class AttackOutcome {
  kMemoryViolation = 0,     // victim performed unsafe shared-memory access
  kConfidentialityLeak = 1, // plaintext reached the host
  kIntegrityBreak = 2,      // app accepted data the peer never sent
  kDegradedService = 3,     // messages lost / link killed (DoS — out of scope)
  kBlocked = 4,             // everything delivered correctly
};

std::string_view AttackOutcomeName(AttackOutcome outcome);

struct CampaignCell {
  StackProfile profile;
  ciohost::AttackStrategy strategy;
  AttackOutcome outcome;
  // Evidence.
  uint64_t oob_accesses = 0;
  uint64_t isolation_violations = 0;
  uint64_t tls_auth_failures = 0;
  uint64_t payload_observations = 0;
  size_t messages_attempted = 0;
  size_t messages_delivered = 0;
  size_t messages_corrupted = 0;
  std::string note;
};

struct CampaignOptions {
  size_t messages_per_cell = 20;
  size_t message_size = 512;
  uint64_t seed = 1;
  bool use_tls = true;
  std::vector<StackProfile> profiles = AllStackProfiles();
  std::vector<ciohost::AttackStrategy> strategies =
      ciohost::AllAttackStrategies();
};

// Runs one cell.
CampaignCell RunAttackCell(StackProfile profile,
                           ciohost::AttackStrategy strategy,
                           const CampaignOptions& options);

// Runs the full matrix.
std::vector<CampaignCell> RunCampaign(const CampaignOptions& options);

// Formats the matrix as the table bench_attack_resilience prints.
std::string CampaignTable(const std::vector<CampaignCell>& cells);

// --- Recovery dimension ------------------------------------------------------

struct RecoveryCell {
  StackProfile profile;
  ciohost::FaultStrategy fault;
  // Did the node come back: link re-ready, nobody terminally failed, and
  // every accepted message delivered within the round budget after the
  // fault window closed.
  bool recovered = false;
  uint64_t time_to_recovery_ns = 0;  // fault injection -> full catch-up
  // Message accounting, both directions summed. "Lost" is the engines'
  // count of messages skipped by a sequence gap, which the session refuses
  // as kTampered (nothing leaves a resend window unacknowledged), so it
  // reads 0; exactly-once delivery means delivered == attempted and
  // duplicates (replays of what the peer had already delivered) were
  // dropped, not re-read.
  size_t messages_attempted = 0;
  size_t messages_delivered = 0;
  uint64_t messages_lost = 0;
  uint64_t messages_duplicate_dropped = 0;
  // Recovery machinery engaged (victim side).
  uint64_t ring_resets = 0;
  uint64_t watchdog_fires = 0;
  uint64_t reconnects = 0;
  uint64_t tls_restarts = 0;
  uint64_t fault_events = 0;  // host-side fault hits (0 = fault never bit)
  // Safety must hold even mid-fault.
  uint64_t oob_accesses = 0;
  uint64_t payload_observations = 0;
  size_t messages_corrupted = 0;
  std::string note;
};

struct RecoveryOptions {
  size_t messages_before = 6;  // steady traffic pre-fault
  size_t messages_during = 6;  // offered while the fault window is open
  size_t messages_after = 6;   // offered after the host resumes honesty
  size_t message_size = 256;
  uint64_t seed = 1;
  // The hostile window outlives the campaign's TCP retry budget (~7.5 ms
  // under TuneTcpForFaultWindows), so faults that starve the link kill the TCP
  // connection: profiles without recovery wedge, the dual-boundary profile
  // reconnects, re-runs TLS, and replays from its resend window.
  uint64_t fault_duration_ns = 12'000'000;  // 12 ms
  // Pump budget (rounds of LinkedPair::Pump, 10 µs each) for each send
  // retry and for the final catch-up phase.
  int send_retry_rounds = 2000;
  int catchup_rounds = 30000;
  // Only profiles whose datapath traverses an adversary-mediated host
  // device are faultable: the syscall profile calls straight into the host
  // and the attested DDA device sits inside the TCB, so transient host
  // faults have nowhere to bite.
  std::vector<StackProfile> profiles = {
      StackProfile::kPassthroughL2, StackProfile::kHardenedVirtio,
      StackProfile::kDualBoundary, StackProfile::kTunneledL2};
  std::vector<ciohost::FaultStrategy> faults = ciohost::AllFaultStrategies();
};

// Delivered messages that match no sent one in sent order: every delivered
// message must be some sent message, in sent order (TCP+TLS keep order, the
// sequence numbers drop duplicates). The campaigns and the fuzz oracle
// share this count.
size_t CorruptedCount(const std::vector<ciobase::Buffer>& sent,
                      const std::vector<ciobase::Buffer>& received);

// Runs one (profile, transient-fault) recovery cell.
RecoveryCell RunRecoveryCell(StackProfile profile,
                             ciohost::FaultStrategy fault,
                             const RecoveryOptions& options);

// Runs the full recovery matrix.
std::vector<RecoveryCell> RunRecoveryCampaign(const RecoveryOptions& options);

// Formats the recovery matrix as the table bench_attack_resilience prints.
std::string RecoveryTable(const std::vector<RecoveryCell>& cells);

}  // namespace cio

#endif  // SRC_CIO_ATTACK_CAMPAIGN_H_
