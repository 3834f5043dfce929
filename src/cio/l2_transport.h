// L2Transport: the paper's hardened host/TEE network interface (§3.2),
// guest side. Safe by construction, not by checks:
//
//  * Stateless interface — two monotonic counters per direction and a ring
//    of self-contained slots. No descriptors, no completion ids, no free
//    lists, no negotiation, no error paths: a slot that fails validation is
//    dropped and counted, and the protocol position still advances.
//  * Copy as a first-class citizen — the RX fetch of a slot is ONE read
//    into private memory, early, and it doubles as the mandatory
//    shared-to-private copy. Validation and use operate on the same private
//    bytes, so double fetches are impossible by construction. On TX the
//    copy into shared memory is required anyway (the host must read it);
//    there is no second copy.
//  * No notifications — polling by default. The optional doorbell is
//    stateless and idempotent (it carries no payload; ringing it twice or
//    never merely changes when the host polls).
//  * Zero (re-)negotiation — all parameters come from the immutable
//    L2Config, which is part of the attestation measurement.
//  * Masked rings and pools — every index/offset derived from host-written
//    bytes is masked into its power-of-two area (see l2_layout.h); lengths
//    are clamped to the fixed chunk capacity. No host value can direct a
//    guest access outside the shared region, no matter what it contains.
//
// Data positioning (inline / shared pool / indirect) and RX ownership
// (copy / revoke) are the §3.2 performance explorations, selected in
// L2Config and benchmarked in bench_data_positioning and
// bench_copy_vs_revocation.

#ifndef SRC_CIO_L2_TRANSPORT_H_
#define SRC_CIO_L2_TRANSPORT_H_

#include <functional>
#include <span>
#include <vector>

#include "src/base/arena.h"
#include "src/base/clock.h"
#include "src/base/recovery.h"
#include "src/cio/l2_layout.h"
#include "src/hostsim/adversary.h"
#include "src/net/port.h"
#include "src/tee/shared_region.h"
#include "src/virtio/net_device.h"  // for KickTarget

namespace cio {

class L2Transport final : public cionet::FramePort {
 public:
  // `kick` is the notify-mode doorbell; it may be null in polling mode.
  // `host_poll` is the polled host backend: in polling mode it runs at every
  // guest publish (the TX produced counter, a ring-reset epoch), exactly
  // where a kick would land, but it charges no notify and shows the host no
  // doorbell. It stands in for a backend that watches the ring concurrently
  // with the guest. It may be null, leaving the host to be polled by hand.
  // `recovery` enables the watchdog + ring-reset machinery; the default
  // leaves it off (a wedged host wedges the link, exactly like the seed
  // behavior).
  L2Transport(ciotee::SharedRegion* region, const L2Config& config,
              ciobase::CostModel* costs, ciovirtio::KickTarget* kick,
              const ciobase::RecoveryConfig& recovery = {},
              std::function<void()> host_poll = {});

  // --- cionet::FramePort -----------------------------------------------------

  // Batched ring ops: the host counters are read once per batch, the
  // produced/consumed pointers are published once per batch, and the host
  // is serviced once per published batch (one coalesced kick in notify
  // mode, one `host_poll` in polling mode). Every slot goes through the
  // single-fetch validation discipline — there is exactly one datapath per
  // direction, and this is it.
  //
  // ReceiveFrames doubles as the recovery poll: it watches the host's
  // counters for progress, arms the watchdog while work is in flight or the
  // counters are incoherent, and on expiry resets the ring (kLinkReset) or —
  // once the reset budget is exhausted — declares the link dead (kTimedOut).
  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override;
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override;

  cionet::MacAddress mac() const override { return config_.mac; }
  uint16_t mtu() const override { return config_.mtu; }

  const L2Config& config() const { return config_; }
  const L2Layout& layout() const { return layout_; }

  // Sealed receive: the layer above authenticates every payload byte (L5
  // AEAD), so the defensive RX copy is redundant — model only a header
  // snapshot per frame and hand the payload over for in-place unsealing.
  // Runtime-selected (not part of L2Config) so the attestation measurement
  // of the wire format is unchanged; it alters accounting, not layout.
  void set_sealed_rx(bool sealed) { sealed_rx_ = sealed; }
  bool sealed_rx() const { return sealed_rx_; }

  // Attestation measurement covering code identity + fixed config.
  ciotee::Measurement Measure() const { return config_.Measure(); }

  // Attack-surface registration for the adversary (header fields, counters,
  // pool payload bytes).
  std::vector<ciohost::SurfaceField> AttackSurface() const;

  // Reset-and-reattach protocol: bumps the guest epoch, zeroes all four
  // shared counters and the guest shadows, drains (zeroes) every RX slot
  // header, and re-verifies the layout against the fixed config. In-flight
  // frames on the old ring are gone — callers above TCP rely on
  // retransmission. Exposed for tests; the watchdog calls it on expiry.
  ciobase::Status ResetRing();

  uint64_t epoch() const { return epoch_; }

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_received = 0;
    uint64_t tx_ring_full = 0;
    uint64_t rx_clamped_len = 0;   // host lied about a length; clamped
    uint64_t rx_dropped_empty = 0; // slot failed sanity (len 0 after clamp)
    uint64_t pages_revoked = 0;
    uint64_t rx_incoherent = 0;    // host counter outside the legal window
    uint64_t watchdog_fires = 0;
    uint64_t ring_resets = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Writes one frame into TX slot `index` per the configured positioning.
  // Counter publication and the doorbell are the caller's job, so the
  // per-frame and batched send paths share this verbatim.
  void WriteTxSlot(uint64_t index, ciobase::ByteSpan frame);

  // Fetches RX slot `index` into `out` (cleared first), applying the full
  // validation discipline. An `out` left empty means the slot was dropped.
  // Shared by ReceiveFrame and ReceiveFrames so the single-fetch path exists
  // exactly once. Scratch space comes from arena_, so steady-state receive
  // does no heap allocation.
  void ReceiveSlotInto(uint64_t index, ciobase::Buffer& out);
  void ReceiveInlineInto(uint64_t index, ciobase::Buffer& out);
  void ReceivePoolInto(uint64_t index, ciobase::Buffer& out);
  void ReceiveIndirectInto(uint64_t index, ciobase::Buffer& out);
  // Reads `len` payload bytes at a masked shared offset into `out`, honoring
  // the configured ownership model (copy vs revoke).
  void TakePayloadInto(uint64_t masked_offset, uint32_t len,
                       ciobase::Buffer& out);
  // Drives the host after a guest publish: the charged kick in notify mode,
  // the uncharged `host_poll_` in polling mode.
  void ServiceHost();

  ciotee::SharedRegion* region_;
  L2Config config_;
  L2Layout layout_;
  ciobase::CostModel* costs_;
  ciovirtio::KickTarget* kick_;
  std::function<void()> host_poll_;
  ciobase::FrameArena arena_;
  ciobase::RecoveryConfig recovery_;
  ciobase::LinkWatchdog watchdog_;

  bool sealed_rx_ = false;

  // Guest-private counter shadows; never read back from shared memory.
  uint64_t tx_produced_ = 0;
  uint64_t rx_consumed_ = 0;
  // Last advisory TxConsumed observed; progress detection for the watchdog.
  uint64_t last_tx_consumed_ = 0;
  // Same-tick cache of the advisory TxConsumed counter: back-to-back sends
  // within one simulated instant (a batch flush) open one TOCTOU window
  // instead of one per call. The host may have consumed more since (it is
  // serviced at every publish), but the counter is advisory only (clamped
  // into the legal window), so a stale value is at worst conservative.
  uint64_t tx_consumed_cache_ = 0;
  uint64_t tx_consumed_cache_ns_ = ~0ull;
  uint64_t epoch_ = 0;
  Stats stats_;
};

}  // namespace cio

#endif  // SRC_CIO_L2_TRANSPORT_H_
