#include "src/cio/attack_campaign.h"

#include <algorithm>
#include <cstdio>

#include "src/base/rng.h"

namespace cio {

std::string_view AttackOutcomeName(AttackOutcome outcome) {
  switch (outcome) {
    case AttackOutcome::kMemoryViolation:
      return "MEMORY-VIOLATION";
    case AttackOutcome::kConfidentialityLeak:
      return "CONFIDENTIALITY-LEAK";
    case AttackOutcome::kIntegrityBreak:
      return "INTEGRITY-BREAK";
    case AttackOutcome::kDegradedService:
      return "degraded-service";
    case AttackOutcome::kBlocked:
      return "blocked";
  }
  return "?";
}

size_t CorruptedCount(const std::vector<ciobase::Buffer>& sent,
                      const std::vector<ciobase::Buffer>& received) {
  size_t bad = 0;
  size_t next = 0;
  for (const auto& message : received) {
    size_t match = next;
    while (match < sent.size() && !(sent[match] == message)) {
      ++match;
    }
    if (match == sent.size()) {
      ++bad;
    } else {
      next = match + 1;
    }
  }
  return bad;
}

CampaignCell RunAttackCell(StackProfile profile,
                           ciohost::AttackStrategy strategy,
                           const CampaignOptions& options) {
  CampaignCell cell;
  cell.profile = profile;
  cell.strategy = strategy;
  cell.messages_attempted = options.messages_per_cell;

  StackConfig victim_config = StackConfig::DefaultsFor(profile, 1);
  victim_config.seed = options.seed * 101 + static_cast<uint64_t>(strategy);
  victim_config.use_tls = options.use_tls;
  // Link recovery needs the handshake (StackConfig::Valid).
  victim_config.recovery.enabled =
      victim_config.recovery.enabled && options.use_tls;
  StackConfig peer_config = victim_config;
  peer_config.node_id = 2;
  peer_config.seed += 7;

  LinkedPair pair(victim_config, peer_config);
  if (!pair.Establish()) {
    cell.outcome = AttackOutcome::kDegradedService;
    cell.note = "link never established (pre-attack)";
    return cell;
  }

  // Arm the adversary against the VICTIM (the client node): behavioral
  // attacks through its host device, memory attacks on its shared region.
  ConfidentialNode& victim = *pair.client;
  ConfidentialNode& peer = *pair.server;
  victim.adversary().set_strategy(strategy);
  if (victim.shared_region() != nullptr) {
    std::vector<ciohost::SurfaceField> surface;
    if (victim.l2_transport() != nullptr) {
      surface = victim.l2_transport()->AttackSurface();
    } else if (victim.virtio_driver() != nullptr) {
      surface = victim.virtio_driver()->AttackSurface();
    } else if (victim.dda_transport() != nullptr) {
      surface = victim.dda_transport()->AttackSurface();
    }
    if (!surface.empty()) {
      victim.adversary().Arm(victim.shared_region(), surface);
    }
  }
  victim.memory().ClearViolations();

  // Push messages both ways under attack; track what survives.
  ciobase::Rng rng(options.seed);
  std::vector<ciobase::Buffer> sent_to_peer;
  std::vector<ciobase::Buffer> received_at_peer;
  std::vector<ciobase::Buffer> sent_to_victim;
  std::vector<ciobase::Buffer> received_at_victim;

  for (size_t i = 0; i < options.messages_per_cell; ++i) {
    ciobase::Buffer to_peer = rng.Bytes(options.message_size);
    ciobase::Buffer to_victim = rng.Bytes(options.message_size);
    if (victim.SendMessage(to_peer).ok()) {
      sent_to_peer.push_back(to_peer);
    }
    if (peer.SendMessage(to_victim).ok()) {
      sent_to_victim.push_back(to_victim);
    }
    for (int round = 0; round < 60; ++round) {
      pair.Pump();
      auto at_peer = peer.ReceiveMessage();
      if (at_peer.ok()) {
        received_at_peer.push_back(*at_peer);
      }
      auto at_victim = victim.ReceiveMessage();
      if (at_victim.ok()) {
        received_at_victim.push_back(*at_victim);
      }
    }
    if (victim.Failed() || peer.Failed()) {
      break;
    }
  }
  // Grace period for stragglers.
  for (int round = 0; round < 3000 && !victim.Failed() && !peer.Failed();
       ++round) {
    pair.Pump();
    auto at_peer = peer.ReceiveMessage();
    if (at_peer.ok()) {
      received_at_peer.push_back(*at_peer);
    }
    auto at_victim = victim.ReceiveMessage();
    if (at_victim.ok()) {
      received_at_victim.push_back(*at_victim);
    }
  }
  victim.adversary().Disarm();

  // --- Evidence collection ----------------------------------------------------

  cell.oob_accesses =
      victim.memory().ViolationCount(ciotee::ViolationKind::kOobRead) +
      victim.memory().ViolationCount(ciotee::ViolationKind::kOobWrite);
  if (victim.compartments() != nullptr) {
    cell.isolation_violations = victim.compartments()->violations().size();
  }
  if (victim.tls() != nullptr) {
    cell.tls_auth_failures += victim.tls()->stats().auth_failures;
  }
  cell.payload_observations =
      victim.observability().CountOf(ciohost::ObsCategory::kPayload);
  cell.messages_delivered = std::min(received_at_peer.size(),
                                     received_at_victim.size());

  cell.messages_corrupted = CorruptedCount(sent_to_peer, received_at_peer) +
                            CorruptedCount(sent_to_victim, received_at_victim);

  // --- Classification (worst evidence wins) -----------------------------------

  if (cell.oob_accesses > 0) {
    cell.outcome = AttackOutcome::kMemoryViolation;
    cell.note = "transport performed out-of-bounds shared-memory access";
  } else if (cell.payload_observations > 0) {
    cell.outcome = AttackOutcome::kConfidentialityLeak;
    cell.note = "host observed plaintext payloads";
  } else if (cell.messages_corrupted > 0) {
    cell.outcome = AttackOutcome::kIntegrityBreak;
    cell.note = "application accepted corrupted data";
  } else if (received_at_peer.size() < sent_to_peer.size() ||
             received_at_victim.size() < sent_to_victim.size() ||
             victim.Failed() || peer.Failed()) {
    cell.outcome = AttackOutcome::kDegradedService;
    cell.note = "messages lost or link killed (availability only)";
  } else {
    cell.outcome = AttackOutcome::kBlocked;
    cell.note = "all messages delivered intact";
  }
  return cell;
}

std::vector<CampaignCell> RunCampaign(const CampaignOptions& options) {
  std::vector<CampaignCell> cells;
  for (StackProfile profile : options.profiles) {
    for (ciohost::AttackStrategy strategy : options.strategies) {
      cells.push_back(RunAttackCell(profile, strategy, options));
    }
  }
  return cells;
}

std::string CampaignTable(const std::vector<CampaignCell>& cells) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %-22s %-22s %s\n", "profile",
                "strategy", "outcome", "evidence");
  out += line;
  out += std::string(90, '-') + "\n";
  for (const auto& cell : cells) {
    std::snprintf(
        line, sizeof(line),
        "%-18s %-22s %-22s oob=%llu iso=%llu tls=%llu del=%zu/%zu\n",
        std::string(StackProfileName(cell.profile)).c_str(),
        std::string(ciohost::AttackStrategyName(cell.strategy)).c_str(),
        std::string(AttackOutcomeName(cell.outcome)).c_str(),
        static_cast<unsigned long long>(cell.oob_accesses),
        static_cast<unsigned long long>(cell.isolation_violations),
        static_cast<unsigned long long>(cell.tls_auth_failures),
        cell.messages_delivered, cell.messages_attempted);
    out += line;
  }
  return out;
}

// --- Recovery dimension ------------------------------------------------------

RecoveryCell RunRecoveryCell(StackProfile profile,
                             ciohost::FaultStrategy fault,
                             const RecoveryOptions& options) {
  RecoveryCell cell;
  cell.profile = profile;
  cell.fault = fault;

  StackConfig victim_config = StackConfig::DefaultsFor(profile, 1);
  victim_config.seed = options.seed * 131 + static_cast<uint64_t>(fault);
  TuneTcpForFaultWindows(victim_config);
  StackConfig peer_config = victim_config;
  peer_config.node_id = 2;
  peer_config.seed += 7;

  LinkedPair pair(victim_config, peer_config);
  if (!pair.Establish()) {
    cell.note = "link never established (pre-fault)";
    return cell;
  }
  ConfidentialNode& victim = *pair.client;
  ConfidentialNode& peer = *pair.server;
  victim.memory().ClearViolations();

  ciobase::Rng rng(options.seed + static_cast<uint64_t>(fault) * 17);
  std::vector<ciobase::Buffer> sent_to_peer;
  std::vector<ciobase::Buffer> received_at_peer;
  std::vector<ciobase::Buffer> sent_to_victim;
  std::vector<ciobase::Buffer> received_at_victim;
  size_t refused = 0;

  auto drain = [&] {
    for (auto m = peer.ReceiveMessage(); m.ok(); m = peer.ReceiveMessage()) {
      received_at_peer.push_back(*m);
    }
    for (auto m = victim.ReceiveMessage(); m.ok();
         m = victim.ReceiveMessage()) {
      received_at_victim.push_back(*m);
    }
  };
  // Offers one message, retrying while the node is mid-recovery or its
  // resend window is full. A message counts as attempted only once
  // SendMessage accepted it (the engine then owns its exactly-once
  // delivery).
  auto offer = [&](ConfidentialNode& from, std::vector<ciobase::Buffer>& log) {
    ciobase::Buffer message = rng.Bytes(options.message_size);
    for (int round = 0; round < options.send_retry_rounds; ++round) {
      if (from.Failed()) {
        break;
      }
      if (from.SendMessage(message).ok()) {
        log.push_back(message);
        return true;
      }
      pair.Pump();
      drain();
    }
    ++refused;
    return false;
  };
  // Every accepted message delivered at the far end: nothing leaves a
  // resend window unacknowledged, so none may be missing.
  auto accounted = [&] {
    return received_at_peer.size() == sent_to_peer.size() &&
           received_at_victim.size() == sent_to_victim.size();
  };
  auto settle = [&](int budget) {
    for (int round = 0; round < budget; ++round) {
      pair.Pump();
      drain();
      if (accounted() && victim.Ready() && peer.Ready() && !victim.Failed() &&
          !peer.Failed()) {
        return true;
      }
    }
    return false;
  };

  // Phase 1: steady traffic with an honest host.
  for (size_t i = 0; i < options.messages_before; ++i) {
    offer(victim, sent_to_peer);
    offer(peer, sent_to_victim);
  }
  if (!settle(options.catchup_rounds)) {
    cell.note = "pre-fault traffic stalled";
    cell.messages_attempted = sent_to_peer.size() + sent_to_victim.size();
    cell.messages_delivered =
        received_at_peer.size() + received_at_victim.size();
    return cell;
  }

  // Phase 2: open the fault window and keep offering traffic through it.
  const uint64_t fault_start_ns = pair.clock.now_ns();
  victim.adversary().InjectFault(
      {fault, fault_start_ns, options.fault_duration_ns});
  for (size_t i = 0; i < options.messages_during; ++i) {
    offer(victim, sent_to_peer);
    offer(peer, sent_to_victim);
  }
  // Pump through whatever remains of the hostile window.
  while (pair.clock.now_ns() < fault_start_ns + options.fault_duration_ns) {
    pair.Pump();
    drain();
  }

  // Phase 3: the host is honest again — does the guest come back?
  uint64_t recovered_at_ns = 0;
  if (settle(options.catchup_rounds)) {
    recovered_at_ns = pair.clock.now_ns();
  }

  // Phase 4: the revived link must carry new work, not just drain backlog.
  if (recovered_at_ns != 0) {
    for (size_t i = 0; i < options.messages_after; ++i) {
      offer(victim, sent_to_peer);
      offer(peer, sent_to_victim);
    }
    if (settle(options.catchup_rounds) && refused == 0) {
      cell.recovered = true;
      cell.time_to_recovery_ns = recovered_at_ns - fault_start_ns;
    } else {
      cell.note = "link revived but post-fault traffic stalled";
    }
  } else {
    cell.note = victim.Failed() || peer.Failed()
                    ? "node wedged (terminal failure)"
                    : "catch-up budget exhausted";
  }

  // --- Evidence collection ----------------------------------------------------

  cell.messages_attempted = sent_to_peer.size() + sent_to_victim.size();
  cell.messages_delivered =
      received_at_peer.size() + received_at_victim.size();
  cell.messages_lost = victim.recovery_stats().messages_lost +
                       peer.recovery_stats().messages_lost;
  cell.messages_duplicate_dropped =
      victim.recovery_stats().messages_duplicate_dropped +
      peer.recovery_stats().messages_duplicate_dropped;
  if (victim.l2_transport() != nullptr) {
    cell.ring_resets = victim.l2_transport()->stats().ring_resets;
    cell.watchdog_fires = victim.l2_transport()->stats().watchdog_fires;
  } else if (victim.virtio_driver() != nullptr) {
    cell.ring_resets = victim.virtio_driver()->stats().ring_resets;
    cell.watchdog_fires = victim.virtio_driver()->stats().watchdog_fires;
  }
  cell.reconnects = victim.recovery_stats().reconnects +
                    peer.recovery_stats().reconnects;
  cell.tls_restarts = victim.recovery_stats().tls_restarts +
                      peer.recovery_stats().tls_restarts;
  cell.fault_events = victim.adversary().fault_events();
  cell.oob_accesses =
      victim.memory().ViolationCount(ciotee::ViolationKind::kOobRead) +
      victim.memory().ViolationCount(ciotee::ViolationKind::kOobWrite);
  cell.payload_observations =
      victim.observability().CountOf(ciohost::ObsCategory::kPayload);
  cell.messages_corrupted = CorruptedCount(sent_to_peer, received_at_peer) +
                            CorruptedCount(sent_to_victim, received_at_victim);
  if (refused > 0 && cell.note.empty()) {
    cell.note = "sender refused messages mid-fault";
  }
  return cell;
}

std::vector<RecoveryCell> RunRecoveryCampaign(const RecoveryOptions& options) {
  std::vector<RecoveryCell> cells;
  for (StackProfile profile : options.profiles) {
    for (ciohost::FaultStrategy fault : options.faults) {
      cells.push_back(RunRecoveryCell(profile, fault, options));
    }
  }
  return cells;
}

std::string RecoveryTable(const std::vector<RecoveryCell>& cells) {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-18s %-18s %-9s %9s %9s %5s %5s %7s %7s  %s\n",
                "profile", "fault", "recovered", "ttr_ms", "del/att", "lost",
                "dup", "resets", "reconn", "note");
  out += line;
  out += std::string(110, '-') + "\n";
  for (const auto& cell : cells) {
    char ttr[32];
    if (cell.recovered) {
      std::snprintf(ttr, sizeof(ttr), "%.2f",
                    static_cast<double>(cell.time_to_recovery_ns) / 1e6);
    } else {
      std::snprintf(ttr, sizeof(ttr), "-");
    }
    char delivered[32];
    std::snprintf(delivered, sizeof(delivered), "%zu/%zu",
                  cell.messages_delivered, cell.messages_attempted);
    std::snprintf(
        line, sizeof(line), "%-18s %-18s %-9s %9s %9s %5llu %5llu %7llu %7llu  %s\n",
        std::string(StackProfileName(cell.profile)).c_str(),
        std::string(ciohost::FaultStrategyName(cell.fault)).c_str(),
        cell.recovered ? "yes" : "WEDGED",
        ttr, delivered,
        static_cast<unsigned long long>(cell.messages_lost),
        static_cast<unsigned long long>(cell.messages_duplicate_dropped),
        static_cast<unsigned long long>(cell.ring_resets),
        static_cast<unsigned long long>(cell.reconnects),
        cell.note.c_str());
    out += line;
  }
  return out;
}

}  // namespace cio
