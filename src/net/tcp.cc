#include "src/net/tcp.h"

#include <algorithm>
#include <cassert>

#include "src/base/coverage.h"
#include "src/base/log.h"

namespace cionet {

std::string_view TcpStateName(TcpState state) {
  switch (state) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynReceived:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(ciobase::SimClock* clock,
                             TcpEndpointId endpoints, uint16_t mss,
                             uint32_t iss, Tuning tuning)
    : clock_(clock),
      endpoints_(endpoints),
      tuning_(tuning),
      mss_(mss),
      iss_(iss),
      snd_una_(iss),
      snd_nxt_(iss),
      cwnd_(static_cast<uint32_t>(mss) * 2),
      rto_ns_(tuning.initial_rto_ns) {}

TcpConnection TcpConnection::ActiveOpen(ciobase::SimClock* clock,
                                        TcpEndpointId endpoints, uint16_t mss,
                                        uint32_t iss, Tuning tuning) {
  TcpConnection conn(clock, endpoints, mss, iss, tuning);
  conn.state_ = TcpState::kSynSent;
  conn.EmitSegment(kTcpFlagSyn, conn.snd_nxt_, {}, mss);
  conn.snd_nxt_ = iss + 1;
  conn.ArmRetransmitTimer();
  return conn;
}

TcpConnection TcpConnection::ActiveOpen(ciobase::SimClock* clock,
                                        TcpEndpointId endpoints, uint16_t mss,
                                        uint32_t iss) {
  return ActiveOpen(clock, endpoints, mss, iss, Tuning{});
}

TcpConnection TcpConnection::PassiveOpen(ciobase::SimClock* clock,
                                         TcpEndpointId endpoints, uint16_t mss,
                                         uint32_t iss, const TcpHeader& syn,
                                         Tuning tuning) {
  TcpConnection conn(clock, endpoints, mss, iss, tuning);
  if (syn.mss_option != 0) {
    conn.mss_ = std::min(conn.mss_, syn.mss_option);
  }
  conn.rcv_nxt_ = syn.seq + 1;
  conn.snd_wnd_ = syn.window;
  conn.state_ = TcpState::kSynReceived;
  conn.EmitSegment(kTcpFlagSyn | kTcpFlagAck, conn.snd_nxt_, {}, conn.mss_);
  conn.snd_nxt_ = iss + 1;
  conn.ArmRetransmitTimer();
  return conn;
}

TcpConnection TcpConnection::PassiveOpen(ciobase::SimClock* clock,
                                         TcpEndpointId endpoints, uint16_t mss,
                                         uint32_t iss, const TcpHeader& syn) {
  return PassiveOpen(clock, endpoints, mss, iss, syn, Tuning{});
}

uint16_t TcpConnection::AdvertisedWindow() const {
  size_t free_space =
      tuning_.receive_buffer_limit -
      std::min(tuning_.receive_buffer_limit, receive_buffer_.size());
  return static_cast<uint16_t>(std::min<size_t>(free_space, 65535));
}

void TcpConnection::EmitSegment(uint8_t flags, uint32_t seq,
                                ciobase::ByteSpan payload,
                                uint16_t mss_option) {
  TcpHeader header;
  header.src_port = endpoints_.local_port;
  header.dst_port = endpoints_.remote_port;
  header.seq = seq;
  header.ack = (flags & kTcpFlagAck) != 0 ? rcv_nxt_ : 0;
  header.flags = flags;
  header.window = AdvertisedWindow();
  header.mss_option = mss_option;
  ciobase::Buffer segment;
  header.Serialize(segment);
  ciobase::Append(segment, payload);
  uint16_t checksum = TransportChecksum(endpoints_.local_ip,
                                        endpoints_.remote_ip, kIpProtoTcp,
                                        segment);
  ciobase::StoreBe16(segment.data() + 16, checksum);
  output_.push_back(std::move(segment));
  ++stats_.segments_sent;
  stats_.bytes_sent += payload.size();
}

void TcpConnection::EmitAck() { EmitSegment(kTcpFlagAck, snd_nxt_, {}); }

void TcpConnection::EmitRst(uint32_t seq) {
  EmitSegment(kTcpFlagRst | kTcpFlagAck, seq, {});
}

void TcpConnection::ArmRetransmitTimer() {
  retransmit_deadline_ns_ = clock_->now_ns() + rto_ns_;
}

void TcpConnection::Fail(std::string reason) {
  failed_ = true;
  failure_ = std::move(reason);
  state_ = TcpState::kClosed;
  retransmit_deadline_ns_ = 0;
}

ciobase::Result<size_t> TcpConnection::Send(ciobase::ByteSpan data) {
  if (failed_) {
    return ciobase::FailedPrecondition("connection failed: " + failure_);
  }
  if (fin_queued_ || (state_ != TcpState::kEstablished &&
                      state_ != TcpState::kCloseWait &&
                      state_ != TcpState::kSynSent &&
                      state_ != TcpState::kSynReceived)) {
    return ciobase::FailedPrecondition("send after close");
  }
  size_t space = tuning_.send_buffer_limit - send_buffer_.size();
  size_t n = std::min(space, data.size());
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.begin() +
                      static_cast<long>(n));
  TrySendData();
  return n;
}

ciobase::Result<size_t> TcpConnection::Receive(ciobase::MutableByteSpan out) {
  if (receive_buffer_.empty()) {
    if (peer_fin_received_) {
      peer_fin_drained_ = true;
      return static_cast<size_t>(0);  // orderly EOF
    }
    if (failed_) {
      return ciobase::FailedPrecondition("connection failed: " + failure_);
    }
    return ciobase::Unavailable("no data");
  }
  size_t n = std::min(out.size(), receive_buffer_.size());
  std::copy_n(receive_buffer_.begin(), n, out.begin());
  receive_buffer_.erase(receive_buffer_.begin(),
                        receive_buffer_.begin() + static_cast<long>(n));
  // The window may have reopened; let the peer know if it was closed.
  if (n > 0 && receive_buffer_.empty() &&
      state_ == TcpState::kEstablished) {
    // Window-update ACK only when we had been running full.
    if (tuning_.receive_buffer_limit - n < 2 * mss_) {
      EmitAck();
    }
  }
  return n;
}

void TcpConnection::Close() {
  if (failed_ || fin_queued_) {
    return;
  }
  switch (state_) {
    case TcpState::kSynSent:
      state_ = TcpState::kClosed;
      retransmit_deadline_ns_ = 0;
      return;
    case TcpState::kEstablished:
    case TcpState::kSynReceived:
    case TcpState::kCloseWait:
      fin_queued_ = true;
      MaybeSendFin();
      return;
    default:
      return;  // already closing
  }
}

void TcpConnection::Abort() {
  if (state_ != TcpState::kClosed) {
    EmitRst(snd_nxt_);
    Fail("aborted locally");
  }
}

uint32_t TcpConnection::UnsentOffset() const {
  uint32_t data_base = iss_ + 1;  // first data sequence number
  uint32_t sent = snd_nxt_ - data_base;  // data bytes already streamed out
  if (fin_sent_) {
    sent -= 1;
  }
  // send_buffer_ front corresponds to snd_una_'s data byte; `sent` counts
  // from data_base, so the acked prefix comes off it.
  uint32_t acked = snd_una_ == iss_ ? 0 : snd_una_ - data_base;  // SYN unacked
  return sent - acked;
}

void TcpConnection::MaybeSendFin() {
  if (!fin_queued_ || fin_sent_) {
    return;
  }
  // FIN goes out only after all buffered data has been transmitted.
  if (UnsentOffset() < send_buffer_.size() || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynReceived) {
    return;
  }
  fin_seq_ = snd_nxt_;
  EmitSegment(kTcpFlagFin | kTcpFlagAck, snd_nxt_, {});
  snd_nxt_ += 1;
  fin_sent_ = true;
  if (state_ == TcpState::kEstablished) {
    state_ = TcpState::kFinWait1;
  } else if (state_ == TcpState::kCloseWait) {
    state_ = TcpState::kLastAck;
  }
  ArmRetransmitTimer();
}

void TcpConnection::TrySendData() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing) {
    MaybeSendFin();
    return;
  }
  for (;;) {
    uint32_t buffered = static_cast<uint32_t>(send_buffer_.size());
    uint32_t unsent_offset = UnsentOffset();
    if (unsent_offset >= buffered) {
      break;  // nothing new to send
    }
    uint32_t window = std::min<uint32_t>(snd_wnd_, cwnd_);
    uint32_t inflight = snd_nxt_ - snd_una_;
    if (inflight >= window) {
      break;  // window full
    }
    uint32_t chunk = std::min<uint32_t>(
        {static_cast<uint32_t>(mss_), buffered - unsent_offset,
         window - inflight});
    if (chunk == 0) {
      break;
    }
    ciobase::Buffer payload(chunk);
    std::copy_n(send_buffer_.begin() + unsent_offset, chunk, payload.begin());
    if (!rtt_sampling_) {
      rtt_sampling_ = true;
      rtt_sample_seq_ = snd_nxt_ + chunk - 1;
      rtt_sample_start_ns_ = clock_->now_ns();
    }
    EmitSegment(kTcpFlagAck | kTcpFlagPsh, snd_nxt_, payload);
    snd_nxt_ += chunk;
    ArmRetransmitTimer();
  }
  MaybeSendFin();
}

int TcpConnection::DupAckThreshold() const {
  const uint32_t outstanding = static_cast<uint32_t>(InFlight());
  const bool can_send_new =
      UnsentOffset() < send_buffer_.size() && outstanding < snd_wnd_;
  if (outstanding >= 4u * mss_ || can_send_new) {
    return 3;
  }
  // Byte-counted early retransmit (RFC 5827 §3.2), floored at one.
  const uint32_t segments = (outstanding + mss_ - 1) / mss_;
  return std::max(1, static_cast<int>(segments) - 1);
}

void TcpConnection::HandleAck(const TcpHeader& header, size_t payload_size) {
  uint32_t ack = header.ack;
  if (SeqGt(ack, snd_nxt_)) {
    EmitAck();  // acking the future: tell the peer where we really are
    return;
  }
  // RFC 5681 §2: the peer's data, its SYN or FIN, and a window update
  // all repeat snd_una without signalling a loss.
  const bool duplicate =
      payload_size == 0 &&
      (header.flags & (kTcpFlagSyn | kTcpFlagFin)) == 0 && ack == snd_una_ &&
      InFlight() > 0 && header.window == snd_wnd_;
  snd_wnd_ = header.window;
  if (SeqGt(ack, snd_una_)) {
    // New data acknowledged.
    uint32_t data_base = iss_ + 1;
    uint32_t old_acked_data =
        SeqGt(snd_una_, data_base) ? snd_una_ - data_base : 0;
    uint32_t new_acked_data = SeqGt(ack, data_base) ? ack - data_base : 0;
    if (fin_sent_ && SeqGt(ack, fin_seq_)) {
      new_acked_data -= 1;  // the FIN consumed one sequence number
    }
    uint32_t popped = std::min<uint32_t>(
        new_acked_data - old_acked_data,
        static_cast<uint32_t>(send_buffer_.size()));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + popped);
    snd_una_ = ack;
    retries_ = 0;
    dup_ack_count_ = 0;
    dup_run_retransmitted_ = false;

    // RTT sample (Karn's algorithm: only for never-retransmitted data).
    if (rtt_sampling_ && SeqGt(ack, rtt_sample_seq_)) {
      double sample =
          static_cast<double>(clock_->now_ns() - rtt_sample_start_ns_);
      if (!rtt_valid_) {
        srtt_ns_ = sample;
        rttvar_ns_ = sample / 2;
        rtt_valid_ = true;
      } else {
        rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - sample);
        srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * sample;
      }
      uint64_t rto = static_cast<uint64_t>(srtt_ns_ + 4 * rttvar_ns_);
      rto_ns_ = std::clamp(rto, tuning_.min_rto_ns, tuning_.max_rto_ns);
      rtt_sampling_ = false;
    }

    // Congestion window growth.
    if (cwnd_ < ssthresh_) {
      cwnd_ += mss_;  // slow start
    } else {
      cwnd_ += std::max<uint32_t>(1, static_cast<uint32_t>(mss_) * mss_ /
                                         cwnd_);  // congestion avoidance
    }

    if (InFlight() == 0) {
      retransmit_deadline_ns_ = 0;
    } else {
      ArmRetransmitTimer();
    }

    // FIN acknowledged?
    if (fin_sent_ && SeqGt(ack, fin_seq_)) {
      switch (state_) {
        case TcpState::kFinWait1:
          state_ = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
          EnterTimeWait();
          break;
        case TcpState::kLastAck:
          state_ = TcpState::kClosed;
          retransmit_deadline_ns_ = 0;
          break;
        default:
          break;
      }
    }
    TrySendData();
  } else if (duplicate) {
    ++dup_ack_count_;
    ++stats_.dup_acks;
    if (!dup_run_retransmitted_ && dup_ack_count_ >= DupAckThreshold()) {
      // Fast retransmit + multiplicative decrease, once per run.
      dup_run_retransmitted_ = true;
      ++stats_.fast_retransmits;
      uint32_t inflight = static_cast<uint32_t>(InFlight());
      ssthresh_ = std::max<uint32_t>(inflight / 2, 2 * mss_);
      cwnd_ = ssthresh_ + 3 * mss_;
      rtt_sampling_ = false;  // Karn: no sample across retransmit
      RetransmitHead();
    }
  }
}

void TcpConnection::RetransmitHead() {
  ++stats_.retransmissions;
  if (state_ == TcpState::kSynSent) {
    EmitSegment(kTcpFlagSyn, iss_, {}, mss_);
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    EmitSegment(kTcpFlagSyn | kTcpFlagAck, iss_, {}, mss_);
    return;
  }
  // The buffer front is exactly snd_una_'s byte after the pops.
  uint32_t inflight_data = static_cast<uint32_t>(InFlight());
  if (fin_sent_ && SeqGe(snd_nxt_ - 1, snd_una_)) {
    // FIN is in flight; it is the last sequence number.
    if (inflight_data > 0) {
      inflight_data -= 1;
    }
  }
  if (inflight_data > 0 && !send_buffer_.empty()) {
    uint32_t chunk = std::min<uint32_t>(
        {static_cast<uint32_t>(mss_), inflight_data,
         static_cast<uint32_t>(send_buffer_.size())});
    ciobase::Buffer payload(chunk);
    std::copy_n(send_buffer_.begin(), chunk, payload.begin());
    EmitSegment(kTcpFlagAck | kTcpFlagPsh, snd_una_, payload);
  } else if (fin_sent_) {
    EmitSegment(kTcpFlagFin | kTcpFlagAck, fin_seq_, {});
  }
}

void TcpConnection::HandleData(const TcpHeader& header,
                               ciobase::ByteSpan payload) {
  uint32_t seq = header.seq;
  bool has_fin = (header.flags & kTcpFlagFin) != 0;
  uint32_t original_len = static_cast<uint32_t>(payload.size());
  if (payload.empty() && !has_fin) {
    return;
  }

  if (SeqGt(seq, rcv_nxt_)) {
    // Future segment: queue out of order (bounded) and send a dup ack.
    if (!payload.empty() && out_of_order_.size() < tuning_.max_ooo_segments) {
      out_of_order_.emplace(seq,
                            ciobase::Buffer(payload.begin(), payload.end()));
      ++stats_.ooo_segments;
    }
    // An out-of-order FIN is not remembered; the peer retransmits it.
    EmitAck();
    return;
  }

  // Trim any already-received prefix.
  uint32_t overlap = rcv_nxt_ - seq;  // >= 0 since seq <= rcv_nxt
  if (overlap >= payload.size() && !payload.empty()) {
    if (!has_fin) {
      EmitAck();  // entirely old data: re-ack
      return;
    }
    payload = {};
  } else if (!payload.empty()) {
    payload = payload.subspan(overlap);
  }

  if (!payload.empty()) {
    size_t space = tuning_.receive_buffer_limit - receive_buffer_.size();
    size_t accept = std::min(space, payload.size());
    receive_buffer_.insert(receive_buffer_.end(), payload.begin(),
                           payload.begin() + static_cast<long>(accept));
    rcv_nxt_ += static_cast<uint32_t>(accept);
    stats_.bytes_received += accept;

    // Drain contiguous out-of-order segments.
    bool progressed = accept == payload.size();
    while (progressed) {
      progressed = false;
      for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
        if (SeqLe(it->first, rcv_nxt_)) {
          uint32_t ooo_overlap = rcv_nxt_ - it->first;
          if (ooo_overlap < it->second.size()) {
            ciobase::ByteSpan rest(it->second.data() + ooo_overlap,
                                   it->second.size() - ooo_overlap);
            size_t free_space =
                tuning_.receive_buffer_limit - receive_buffer_.size();
            size_t take = std::min(free_space, rest.size());
            receive_buffer_.insert(receive_buffer_.end(), rest.begin(),
                                   rest.begin() + static_cast<long>(take));
            rcv_nxt_ += static_cast<uint32_t>(take);
            stats_.bytes_received += take;
            progressed = take == rest.size();
          }
          it = out_of_order_.erase(it);
          break;  // iterator invalidated predictably; restart scan
        }
        ++it;
      }
    }
  }

  if (has_fin) {
    ProcessFin(seq + original_len);
  }
  EmitAck();
}

void TcpConnection::ProcessFin(uint32_t fin_seq) {
  if (fin_seq != rcv_nxt_ || peer_fin_received_) {
    return;  // FIN not yet in order (or duplicate); peer will retransmit
  }
  rcv_nxt_ += 1;
  peer_fin_received_ = true;
  peer_fin_seq_ = fin_seq;
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      // Our FIN is unacked: simultaneous close.
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;
  }
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  retransmit_deadline_ns_ = 0;
  time_wait_deadline_ns_ = clock_->now_ns() + tuning_.time_wait_ns;
}

void TcpConnection::OnSegment(const TcpHeader& header,
                              ciobase::ByteSpan payload) {
  ++stats_.segments_received;
  if (state_ == TcpState::kClosed) {
    return;
  }

  if ((header.flags & kTcpFlagRst) != 0) {
    // Minimal validation: the RST must be inside the receive window (or be
    // the SYN-SENT reply). Blind RST injection is out of scope here.
    if (state_ == TcpState::kSynSent || header.seq == rcv_nxt_) {
      Fail("connection reset by peer");
    }
    return;
  }

  if (state_ == TcpState::kSynSent) {
    if ((header.flags & (kTcpFlagSyn | kTcpFlagAck)) ==
        (kTcpFlagSyn | kTcpFlagAck)) {
      if (header.ack != iss_ + 1) {
        EmitRst(header.ack);
        Fail("bad SYN-ACK acknowledgment");
        return;
      }
      rcv_nxt_ = header.seq + 1;
      snd_una_ = header.ack;
      snd_wnd_ = header.window;
      if (header.mss_option != 0) {
        mss_ = std::min(mss_, header.mss_option);
      }
      state_ = TcpState::kEstablished;
      retransmit_deadline_ns_ = 0;
      EmitAck();
      TrySendData();
    }
    return;
  }

  if (state_ == TcpState::kSynReceived) {
    if ((header.flags & kTcpFlagSyn) != 0) {
      // Retransmitted SYN: re-send the SYN-ACK.
      EmitSegment(kTcpFlagSyn | kTcpFlagAck, iss_, {}, mss_);
      return;
    }
    if ((header.flags & kTcpFlagAck) != 0 && header.ack == snd_nxt_) {
      state_ = TcpState::kEstablished;
      snd_una_ = header.ack;
      snd_wnd_ = header.window;
      retransmit_deadline_ns_ = 0;
      TrySendData();  // data queued during the handshake can now flow
      // Fall through to normal processing (the ACK may carry data).
    } else if ((header.flags & kTcpFlagAck) != 0) {
      EmitRst(header.ack);
      return;
    } else {
      return;
    }
  }

  if (state_ == TcpState::kTimeWait) {
    // Retransmitted FIN: re-ack and restart the wait.
    EmitAck();
    time_wait_deadline_ns_ = clock_->now_ns() + tuning_.time_wait_ns;
    return;
  }

  if ((header.flags & kTcpFlagAck) != 0) {
    HandleAck(header, payload.size());
  }
  if (state_ == TcpState::kClosed) {
    return;
  }
  HandleData(header, payload);
}

void TcpConnection::PollTimers() {
  uint64_t now = clock_->now_ns();
  if (state_ == TcpState::kTimeWait && now >= time_wait_deadline_ns_) {
    state_ = TcpState::kClosed;
    return;
  }
  if (retransmit_deadline_ns_ != 0 && now >= retransmit_deadline_ns_) {
    ++stats_.timeouts;
    ++retries_;
    // The guest transport noticed a stall: counts as the stack reacting to
    // host misbehavior, so the fuzz hang oracle treats it as detection.
    CIO_COV("net.tcp.rto", ciobase::StatusCode::kUnavailable);
    if (retries_ > tuning_.max_retries) {
      CIO_COV("net.tcp.retries_exhausted", ciobase::StatusCode::kTimedOut);
      Fail("retransmission retries exhausted");
      return;
    }
    rto_ns_ = std::min(rto_ns_ * 2, tuning_.max_rto_ns);
    uint32_t inflight = static_cast<uint32_t>(InFlight());
    ssthresh_ = std::max<uint32_t>(inflight / 2, 2 * mss_);
    cwnd_ = mss_;
    rtt_sampling_ = false;
    RetransmitHead();
    ArmRetransmitTimer();
  }
  // Zero-window probe: data waiting, nothing in flight, window closed.
  if (retransmit_deadline_ns_ == 0 && !send_buffer_.empty() &&
      InFlight() == 0 && snd_wnd_ == 0 &&
      state_ == TcpState::kEstablished) {
    ciobase::Buffer probe(1, send_buffer_.front());
    EmitSegment(kTcpFlagAck, snd_nxt_, probe);
    snd_nxt_ += 1;
    ArmRetransmitTimer();
  }
}

std::vector<ciobase::Buffer> TcpConnection::TakeOutput() {
  std::vector<ciobase::Buffer> out;
  out.swap(output_);
  return out;
}

}  // namespace cionet
