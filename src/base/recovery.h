// Guest-side link recovery policy: watchdog timeouts with capped exponential
// backoff.
//
// The paper's threat model concedes that a malicious host "can deny service";
// what a production confidential node must guarantee is that denial is the
// *only* thing the host gets, and that transient misbehavior (a swallowed
// doorbell, a stalled counter, a killed link) is survived rather than wedging
// the guest forever. The recovery machinery is deliberately layered:
//
//   L2/virtio : LinkWatchdog notices the host stopped consuming or producing,
//               and the transport resets + reattaches the shared ring.
//   TCP       : retransmission replays segments lost across the reset.
//   TLS/engine: the secure channel is re-established and the application
//               resend window replays unacknowledged messages exactly once.
//
// Every timeout, backoff cap, and retry budget lives in RecoveryConfig so a
// deployment (or an attack-campaign cell) tunes recovery in one place.

#ifndef SRC_BASE_RECOVERY_H_
#define SRC_BASE_RECOVERY_H_

#include <cstdint>

namespace ciobase {

struct RecoveryConfig {
  // Master switch. Baseline profiles ship with recovery off — that is the
  // point of the campaign's recovery dimension: the baselines wedge.
  bool enabled = false;

  // The watchdog arms whenever the guest has work in flight that the host
  // has not consumed (or the host's published counters are incoherent), and
  // fires after this much modeled time without progress.
  uint64_t watchdog_timeout_ns = 2'000'000;  // 2 ms

  // After each reset the next watchdog window doubles, bounded by the cap,
  // so a persistently hostile host costs the guest bounded reset churn.
  uint64_t backoff_initial_ns = 2'000'000;   // 2 ms
  uint64_t backoff_cap_ns = 32'000'000;      // 32 ms

  // Consecutive ring resets tolerated before the transport gives up and
  // reports the link dead (kTimedOut). Any successful reattach (counter
  // progress after a reset) clears the count.
  uint32_t max_resets = 8;

  // How many sent-but-unacknowledged application messages the engine keeps
  // for replay after a TLS re-establishment. A full window refuses new
  // sends (kResourceExhausted) until the peer acknowledges; nothing is
  // evicted.
  size_t resend_window = 64;

  // TLS/TCP reconnect attempts before the node declares itself failed.
  uint32_t max_reconnects = 8;

  bool Valid() const {
    if (!enabled) {
      return true;
    }
    return watchdog_timeout_ns > 0 && backoff_initial_ns > 0 &&
           backoff_cap_ns >= backoff_initial_ns && max_resets > 0 &&
           resend_window > 0 && max_reconnects > 0;
  }
};

// Tracks host progress against a deadline. The owner calls NoteProgress()
// whenever the host visibly advanced (consumed TX, produced RX), Arm()/
// Disarm() as in-flight work appears and drains, and Expired() from its poll
// loop. After a reset, NoteReset() doubles the window (capped) and counts
// the reset; a later NoteProgress() call restores the initial window.
class LinkWatchdog {
 public:
  explicit LinkWatchdog(const RecoveryConfig& config)
      : config_(config), timeout_ns_(config.watchdog_timeout_ns) {}

  // Host made visible progress: reset the deadline and forgive past resets.
  void NoteProgress(uint64_t now_ns) {
    deadline_armed_ = false;
    armed_since_ns_ = now_ns;
    timeout_ns_ = config_.watchdog_timeout_ns;
    consecutive_resets_ = 0;
  }

  // Work is in flight; start the clock if it is not already running.
  void Arm(uint64_t now_ns) {
    if (!deadline_armed_) {
      deadline_armed_ = true;
      armed_since_ns_ = now_ns;
    }
  }

  // No work in flight and counters coherent: stop the clock.
  void Disarm() { deadline_armed_ = false; }

  bool armed() const { return deadline_armed_; }

  bool Expired(uint64_t now_ns) const {
    return config_.enabled && deadline_armed_ &&
           now_ns - armed_since_ns_ >= timeout_ns_;
  }

  // A reset happened: back off (doubling, capped) and re-arm from now.
  void NoteReset(uint64_t now_ns) {
    ++consecutive_resets_;
    uint64_t doubled = timeout_ns_ * 2;
    timeout_ns_ = doubled > config_.backoff_cap_ns ? config_.backoff_cap_ns
                                                   : doubled;
    deadline_armed_ = true;
    armed_since_ns_ = now_ns;
  }

  // True once the reset budget is spent without an intervening reattach.
  bool Exhausted() const { return consecutive_resets_ >= config_.max_resets; }

  uint32_t consecutive_resets() const { return consecutive_resets_; }
  uint64_t timeout_ns() const { return timeout_ns_; }

 private:
  RecoveryConfig config_;
  uint64_t timeout_ns_;
  bool deadline_armed_ = false;
  uint64_t armed_since_ns_ = 0;
  uint32_t consecutive_resets_ = 0;
};

}  // namespace ciobase

#endif  // SRC_BASE_RECOVERY_H_
