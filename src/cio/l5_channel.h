// L5Channel: the lightweight single-distrust boundary between the
// confidential application and the I/O-stack compartment (§3.1/§3.2).
//
// The ternary trust model makes this boundary asymmetric: the I/O stack
// trusts the application, the application does not trust the I/O stack.
// That single distrust is what the design exploits:
//
//  * "Avoid the need to verify pointers": the application registers ONE
//    queue region (control block + SQ + CQ + sealed-buffer pool) in the
//    I/O compartment's heap at construction (trusted-component-allocates
//    policy [34]). The stack only ever touches that region, addressed by
//    slot index — it never validates an app pointer, the app never
//    dereferences a stack pointer.
//  * Async datapath: the app copies already-sealed TLS records into
//    registered slots (its one write into registered memory), queues
//    submission entries (scatter-gather for large messages), and rings the
//    doorbell ONCE per batch — one boundary crossing amortized over every
//    queued operation, instead of a crossing per message. Completions are
//    reaped lazily from the CQ with no crossing at all.
//  * Completion-driven receive: every socket the channel connected or
//    accepted stays armed with receive entries, re-armed app-side before
//    each doorbell, so one doorbell harvests inbound bytes for every
//    socket and a receive is a drain of already-harvested events. The same
//    doorbell returns each listener's pending-accept count through the call
//    gate, so an idle round crosses once, for the doorbell alone.
//  * Receive trust: everything the I/O side writes back — CQ indices,
//    completion codes, lengths — is hostile-host-writable, so the reaper
//    validates each entry against its private in-flight shadow (typed
//    kTampered on mismatch) and then materializes payload bytes per the
//    receive-mode policy: copy-before-parse (kCopy), ownership revocation
//    (kRevoke), or sealed-in-place (kSealed — the AEAD layer above already
//    rejects any byte the host flips, so no defensive copy is charged).
//
// The boundary crossing itself is either an intra-TEE compartment switch
// (the paper's choice) or a full TEE-to-TEE switch (the rejected dual-
// enclave alternative), selectable for the ablation benchmark.

#ifndef SRC_CIO_L5_CHANNEL_H_
#define SRC_CIO_L5_CHANNEL_H_

#include <deque>
#include <functional>
#include <map>

#include "src/base/clock.h"
#include "src/cio/buffer_pool.h"
#include "src/cio/connection.h"
#include "src/cio/sqcq.h"
#include "src/net/stack.h"
#include "src/tee/compartment.h"

namespace cio {

enum class L5ReceiveMode { kCopy, kRevoke, kSealed };
enum class L5BoundaryKind { kCompartment, kDualTee };

// The dual-boundary profile's SocketLayer: every socket call of the app
// goes through this channel into the I/O compartment.
class L5Channel final : public SocketLayer {
 public:
  // `host_poll` runs the host backend under the stack (the node's L2 host
  // device) before each Poll()'s doorbell, so the doorbell harvests what
  // the fabric has delivered by now.
  L5Channel(ciotee::CompartmentManager* compartments,
            ciotee::CompartmentId app, ciotee::CompartmentId io,
            cionet::NetStack* stack, ciobase::CostModel* costs,
            L5ReceiveMode receive_mode, L5BoundaryKind boundary_kind,
            const L5QueueConfig& queues = L5QueueConfig{},
            std::function<void()> host_poll = {});

  // Connection management: thin crossings into the I/O compartment. A
  // socket from Connect or Accept is kept armed for receive until Close or
  // Abort retires it.
  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override;
  // Records the listener: every doorbell reads its pending-accept count.
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override;
  // kUnavailable with no crossing when the last doorbell counted nothing
  // pending. The count is the I/O side's hint: too low only delays a
  // connection, too high costs one failing crossing.
  ciobase::Result<Accepted> Accept(cionet::SocketId listener) override;
  // Close and Abort retire the socket in the crossing that runs TcpClose /
  // TcpAbort: its queued entries, held completions, harvested events, pool
  // slots and receiver all go. Close returns kUnavailable, with no
  // crossing, while the socket still has sends in flight.
  ciobase::Status Close(cionet::SocketId socket) override;
  ciobase::Status Abort(cionet::SocketId socket) override;
  // Queues sealed bytes with no crossing (SubmitStream); the owner rings
  // the doorbell once after its flush.
  ciobase::Result<size_t> SendBytes(cionet::SocketId socket,
                                    ciobase::ByteSpan data) override {
    return SubmitStream(socket, data);
  }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId socket, size_t max,
                                       ciobase::Buffer& out) override {
    return ReceiveOne(socket, max, out);
  }
  // The host backend fills RX first, then the round's doorbell. Nothing
  // polls the backend afterwards: the polled L2 host services the ring at
  // every guest publish, so frames this doorbell emits leave when they are
  // published, as a notify-mode kick would send them.
  ciobase::Status Poll() override {
    if (host_poll_) {
      host_poll_();
    }
    return Doorbell();
  }

  // --- Async datapath --------------------------------------------------------

  bool queues_ready() const { return queues_ready_; }
  const L5QueueConfig& queue_config() const { return queues_; }

  // How many sockets the pool can keep armed at once: one slot each for
  // their first receive entry, beside the send reserve.
  size_t ArmableSockets() const;

  // The one way sealed bytes enter the SQ: copies `data` into freshly
  // acquired slots (the app's one write into registered memory) and queues
  // scatter-gather send entries, with no crossing; the next doorbell
  // carries them. Returns bytes accepted — short on SQ or pool pushback;
  // the caller keeps the rest, in order, and retries after the next
  // doorbell.
  ciobase::Result<size_t> SubmitStream(cionet::SocketId socket,
                                       ciobase::ByteSpan data);

  // THE one crossing of the async path: re-arms every open socket's
  // receive entries app-side, publishes queued SQEs, drives the stack,
  // services sends/receives into registered slots, completes receive
  // entries armed beyond the current share empty, posts CQEs, and then
  // reaps + validates completions app-side. Returns the link status
  // (kLinkReset / kTimedOut) or kTampered when a CQ entry fails validation.
  ciobase::Status Doorbell();

  // Full ring reset for recovery: bumps the epoch (completions from the old
  // generation reap as stale, not as tampering), drops every in-flight
  // entry and returns its slots. The caller replays from the session resend
  // window once the channel is re-established.
  void AbandonInFlight();

  // --- Byte-stream surface (SocketLayer) -------------------------------------

  // Drains this socket's already-harvested receive events into `out`
  // (cleared; capacity reused) — no doorbell, no crossing. Ok(0) = nothing
  // harvested, kFailedPrecondition = orderly EOF, kLinkReset = the
  // connection died underneath the app. `max_bytes` is a hint — slot
  // granularity may return more.
  ciobase::Result<size_t> ReceiveOne(cionet::SocketId socket,
                                     size_t max_bytes, ciobase::Buffer& out);

  struct Stats {
    uint64_t crossings = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t receive_copies = 0;
    uint64_t receive_revocations = 0;
    uint64_t doorbells = 0;
    uint64_t sq_submitted = 0;
    uint64_t cq_completions = 0;
    uint64_t cq_stale_dropped = 0;  // old-epoch completions after recovery
    uint64_t sq_backpressure = 0;   // SQ-full / pool-empty pushback
    uint64_t send_failures = 0;     // failed send completions (resend covers)
  };
  const Stats& stats() const { return stats_; }

  // Test hooks: the raw shared region (hostile-host tests scribble CQ
  // entries through this) and ring bookkeeping.
  ciobase::MutableByteSpan queue_region_for_test() { return region_; }
  uint32_t epoch() const { return epoch_; }
  size_t free_slots() const { return pool_.free_slots(); }
  size_t in_flight_entries() const { return in_flight_.size(); }
  // In-flight entries of one opcode (kSqOpSend / kSqOpRecv) and the pool
  // slots they hold.
  size_t in_flight_entries(uint8_t op) const;
  size_t in_flight_slots(uint8_t op) const;
  // A live user_data of `op` on `socket` (the oldest), 0 when none.
  uint64_t in_flight_user_data_for_test(cionet::SocketId socket,
                                        uint8_t op) const;

 private:
  // RAII crossing: enter the I/O compartment, return to the app.
  class Crossing {
   public:
    explicit Crossing(L5Channel* channel);
    ~Crossing();

   private:
    L5Channel* channel_;
  };

  struct InFlight {
    uint8_t op = 0;
    uint8_t seg_count = 0;
    uint32_t socket = 0;
    SqSegment segs[kSqMaxSegments];
  };
  struct HeldCqe {
    uint32_t socket = 0;
    CqEntry cqe;
  };
  struct IoSocketQueues {
    std::deque<SqEntry> sends;
    std::deque<SqEntry> recvs;
  };
  // A validated receive completion, materialized per the receive mode.
  struct RecvEvent {
    enum class Kind { kData, kEof, kReset };
    Kind kind = Kind::kData;
    ciobase::Buffer data;
  };
  // Receive arming state of one open socket.
  struct Receiver {
    uint32_t armed_slots = 0;  // pool slots held by its armed entries
    bool ended = false;        // EOF/reset harvested: nothing left to arm
  };

  void ChargeCrossing();
  void InitQueues();
  // Close and Abort: retires one socket's queue state without disturbing
  // the other sockets, in the crossing that runs `teardown` on the stack.
  // Slots return to the pool; delivery is owned by the session resend
  // window.
  using StackTeardown =
      ciobase::Status (cionet::NetStack::*)(cionet::SocketId);
  ciobase::Status Retire(cionet::SocketId socket, StackTeardown teardown);

  uint8_t* ctrl() { return region_.data(); }
  ciobase::MutableByteSpan SqeSpan(uint32_t index);
  ciobase::MutableByteSpan CqeSpan(uint32_t index);

  bool SqFull() const;
  void SubmitSqe(SqEntry& sqe);
  void ReleaseEntrySlots(const InFlight& entry);

  // Pool slots receive arming leaves to egress, beyond first entries.
  size_t SendReserve() const;
  // Arming rule: every open socket's share is
  //   min(recv_entries x recv_segments, (pool_slots - SendReserve()) / open)
  // slots, re-armed app-side before each doorbell. The first entry of a
  // socket with none armed may dip into the send reserve; further entries
  // leave it to egress. Entries armed under a larger share (fewer sockets
  // open) are handed back io-side in the same crossing, so receive arming
  // settles within the pool minus the send reserve.
  size_t RecvShareSlots() const;
  void ArmReceives(size_t share);
  // Free slots egress may take: the pool minus the receive floor, which
  // keeps the first entry of every open socket with nothing armed armable.
  size_t EgressSlots() const;
  // Refreshes the receiver counts after arming state changes, so the share
  // and the floor cost O(1) per submission.
  void CountReceivers();

  // App side: reap + validate CQ entries (no crossing).
  ciobase::Status Harvest();
  ciobase::Status ConsumeCqe(const CqEntry& cqe);

  // I/O side (inside a crossing): consume SQEs, service sockets, post CQEs.
  // `recv_share` arrives through the call gate, never from shared memory.
  void IoConsumeSq();
  void IoService(size_t recv_share);
  void IoCountAccepts();
  void IoServiceSends(uint32_t socket, IoSocketQueues& queues);
  void IoServiceRecvs(uint32_t socket, IoSocketQueues& queues, size_t share);
  bool IoCqFull();
  void PostCqe(uint32_t socket, const CqEntry& cqe);
  void DrainHeldCqes();

  ciotee::CompartmentManager* compartments_;
  ciotee::CompartmentId app_;
  ciotee::CompartmentId io_;
  cionet::NetStack* stack_;
  ciobase::CostModel* costs_;
  L5ReceiveMode receive_mode_;
  L5BoundaryKind boundary_kind_;
  L5QueueConfig queues_;
  std::function<void()> host_poll_;
  Stats stats_;

  bool queues_ready_ = false;
  ciobase::MutableByteSpan region_;
  BufferPool pool_;

  // App-private submission/reap state (never trusted from shared memory).
  uint32_t sq_tail_ = 0;
  uint32_t sq_consumed_ = 0;  // gate-returned, not read from the region
  uint32_t cq_head_ = 0;
  uint32_t epoch_ = 0;
  uint64_t next_user_data_ = 1;
  std::map<uint64_t, InFlight> in_flight_;
  std::map<uint32_t, Receiver> receivers_;  // sockets kept armed
  size_t open_receivers_ = 0;     // not ended
  size_t unarmed_receivers_ = 0;  // open, nothing armed
  std::map<uint32_t, std::deque<RecvEvent>> events_;
  // Pending-accept count per listener: gate-returned, never read from the
  // region.
  std::map<uint32_t, size_t> accept_pending_;

  // I/O-compartment-private state.
  uint32_t io_sq_head_ = 0;
  uint32_t io_cq_tail_ = 0;
  std::map<uint32_t, IoSocketQueues> io_queues_;
  std::deque<HeldCqe> held_cqes_;  // CQ-full backpressure, drained in order
};

}  // namespace cio

#endif  // SRC_CIO_L5_CHANNEL_H_
