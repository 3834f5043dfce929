// TCP (RFC 793 subset with modern congestion control).
//
// Implemented features: three-way handshake (active and passive open),
// sliding-window flow control with advertised receive windows, cumulative
// ACKs, out-of-order segment queueing, retransmission with RFC 6298 RTO
// estimation and exponential backoff, fast retransmit on duplicate ACKs,
// slow start / congestion avoidance (AIMD), MSS negotiation via the SYN
// option, graceful close (FIN in both directions, TIME_WAIT), and RST
// generation/handling.
//
// Duplicate ACKs follow RFC 5681 §2: a segment is one only if it carries
// no payload and no SYN or FIN, acknowledges snd_una while data is
// outstanding, and leaves the advertised window unchanged. The peer's own
// data segments therefore never count, so bidirectional traffic cannot
// trigger a retransmit on a lossless path. Fast retransmit fires once per
// run of duplicates, at the third; byte-counted early retransmit (RFC 5827
// §3.2) lowers that to max(1, ceil(outstanding / MSS) - 1) while less
// than 4 MSS is outstanding and nothing unsent could go out (none is
// buffered, or the peer's advertised window has no room for it), so a
// small flight that loses a segment does not wait for the RTO.
//
// Not implemented (documented limits): SACK, window scaling (the receive
// buffer is capped at 64 KiB), timestamps, Nagle (we always send when
// window and cwnd allow), and urgent data.
//
// A TcpConnection is a pure state machine: segments in, segments out, no
// I/O of its own. The NetStack feeds it parsed segments and drains its
// output queue into IPv4 packets.

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <deque>
#include <map>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/net/wire.h"

namespace cionet {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

std::string_view TcpStateName(TcpState state);

struct TcpEndpointId {
  Ipv4Address local_ip;
  uint16_t local_port = 0;
  Ipv4Address remote_ip;
  uint16_t remote_port = 0;
  auto operator<=>(const TcpEndpointId&) const = default;
};

class TcpConnection {
 public:
  struct Tuning {
    size_t send_buffer_limit = 256 * 1024;
    size_t receive_buffer_limit = 64 * 1024;  // also the max window
    uint64_t initial_rto_ns = 200'000'000;    // 200 ms
    uint64_t min_rto_ns = 50'000'000;
    uint64_t max_rto_ns = 4'000'000'000;
    int max_retries = 8;
    uint64_t time_wait_ns = 1'000'000'000;  // shortened 2*MSL for simulation
    size_t max_ooo_segments = 64;
  };

  // Active open: emits the SYN immediately.
  static TcpConnection ActiveOpen(ciobase::SimClock* clock,
                                  TcpEndpointId endpoints, uint16_t mss,
                                  uint32_t iss, Tuning tuning);
  static TcpConnection ActiveOpen(ciobase::SimClock* clock,
                                  TcpEndpointId endpoints, uint16_t mss,
                                  uint32_t iss);
  // Passive open from a received SYN: emits the SYN-ACK.
  static TcpConnection PassiveOpen(ciobase::SimClock* clock,
                                   TcpEndpointId endpoints, uint16_t mss,
                                   uint32_t iss, const TcpHeader& syn,
                                   Tuning tuning);
  static TcpConnection PassiveOpen(ciobase::SimClock* clock,
                                   TcpEndpointId endpoints, uint16_t mss,
                                   uint32_t iss, const TcpHeader& syn);

  // --- Input from the network ----------------------------------------------

  void OnSegment(const TcpHeader& header, ciobase::ByteSpan payload);
  // Drives retransmission and TIME_WAIT timers; call regularly.
  void PollTimers();

  // Full TCP segments (header + payload, checksummed) ready to transmit.
  std::vector<ciobase::Buffer> TakeOutput();

  // --- Application interface ------------------------------------------------

  // Buffers bytes for transmission; returns the number accepted (possibly
  // less than requested when the send buffer is full, 0 when closed for
  // sending).
  ciobase::Result<size_t> Send(ciobase::ByteSpan data);
  // Reads received in-order bytes; kUnavailable when none (yet), 0 bytes at
  // orderly EOF (peer FIN drained).
  ciobase::Result<size_t> Receive(ciobase::MutableByteSpan out);
  // Graceful close: FIN after all buffered data.
  void Close();
  // Abortive close: RST now.
  void Abort();

  TcpState state() const { return state_; }
  // EOF counts as readable (select semantics): a received FIN must wake the
  // poll gate so the next Receive can report it — otherwise a quiesced
  // peer's orderly close is never noticed.
  bool readable() const {
    return !receive_buffer_.empty() || peer_fin_received_;
  }
  size_t send_space() const {
    return tuning_.send_buffer_limit - send_buffer_.size();
  }
  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  const TcpEndpointId& endpoints() const { return endpoints_; }

  // True once the connection has fully left the map-worthy lifetime
  // (CLOSED after RST/retry exhaustion or TIME_WAIT expiry).
  bool Defunct() const { return state_ == TcpState::kClosed; }

  struct Stats {
    uint64_t segments_sent = 0;
    uint64_t segments_received = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t retransmissions = 0;
    uint64_t fast_retransmits = 0;
    uint64_t timeouts = 0;
    uint64_t dup_acks = 0;
    uint64_t ooo_segments = 0;
  };
  const Stats& stats() const { return stats_; }
  uint32_t cwnd() const { return cwnd_; }
  uint64_t current_rto_ns() const { return rto_ns_; }

 private:
  TcpConnection(ciobase::SimClock* clock, TcpEndpointId endpoints,
                uint16_t mss, uint32_t iss, Tuning tuning);

  void EmitSegment(uint8_t flags, uint32_t seq, ciobase::ByteSpan payload,
                   uint16_t mss_option = 0);
  void EmitAck();
  void EmitRst(uint32_t seq);
  void TrySendData();
  void HandleAck(const TcpHeader& header, size_t payload_size);
  // Duplicates that trigger a fast retransmit (see the header comment).
  int DupAckThreshold() const;
  void HandleData(const TcpHeader& header, ciobase::ByteSpan payload);
  void ProcessFin(uint32_t fin_seq);
  void MaybeSendFin();
  // In-buffer offset of the next unsent byte of send_buffer_.
  uint32_t UnsentOffset() const;
  void RetransmitHead();
  void EnterTimeWait();
  void Fail(std::string reason);
  void ArmRetransmitTimer();
  uint16_t AdvertisedWindow() const;
  size_t InFlight() const { return snd_nxt_ - snd_una_; }

  ciobase::SimClock* clock_;
  TcpEndpointId endpoints_;
  Tuning tuning_;
  TcpState state_ = TcpState::kClosed;
  bool failed_ = false;
  std::string failure_;

  uint16_t mss_;

  // Send side. send_buffer_ holds [snd_una, snd_una + size): the in-flight
  // prefix plus not-yet-sent suffix.
  uint32_t iss_;
  uint32_t snd_una_;
  uint32_t snd_nxt_;
  uint32_t snd_wnd_ = 0;  // peer's advertised window
  std::deque<uint8_t> send_buffer_;
  bool fin_queued_ = false;  // app closed; FIN goes out after data
  bool fin_sent_ = false;
  uint32_t fin_seq_ = 0;

  // Congestion control.
  uint32_t cwnd_;
  uint32_t ssthresh_ = 64 * 1024;
  int dup_ack_count_ = 0;
  bool dup_run_retransmitted_ = false;  // this run already fast-retransmitted

  // RTO (RFC 6298).
  uint64_t rto_ns_;
  bool rtt_valid_ = false;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  bool rtt_sampling_ = false;
  uint32_t rtt_sample_seq_ = 0;
  uint64_t rtt_sample_start_ns_ = 0;

  uint64_t retransmit_deadline_ns_ = 0;  // 0 = timer off
  int retries_ = 0;

  // Receive side.
  uint32_t rcv_nxt_ = 0;
  std::deque<uint8_t> receive_buffer_;
  std::map<uint32_t, ciobase::Buffer> out_of_order_;  // seq -> payload
  bool peer_fin_received_ = false;
  uint32_t peer_fin_seq_ = 0;
  bool peer_fin_drained_ = false;  // FIN consumed into the stream (EOF)

  uint64_t time_wait_deadline_ns_ = 0;

  std::vector<ciobase::Buffer> output_;
  Stats stats_;
};

}  // namespace cionet

#endif  // SRC_NET_TCP_H_
