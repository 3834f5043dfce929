#include "src/cio/l5_channel.h"

#include <algorithm>
#include <cstring>

#include "src/base/coverage.h"
#include "src/prof/profiler.h"

namespace cio {

L5Channel::L5Channel(ciotee::CompartmentManager* compartments,
                     ciotee::CompartmentId app, ciotee::CompartmentId io,
                     cionet::NetStack* stack, ciobase::CostModel* costs,
                     L5ReceiveMode receive_mode, L5BoundaryKind boundary_kind,
                     const L5QueueConfig& queues,
                     std::function<void()> host_poll)
    : compartments_(compartments),
      app_(app),
      io_(io),
      stack_(stack),
      costs_(costs),
      receive_mode_(receive_mode),
      boundary_kind_(boundary_kind),
      queues_(queues),
      host_poll_(std::move(host_poll)) {
  InitQueues();
}

void L5Channel::InitQueues() {
  if (!queues_.Valid()) {
    return;
  }
  // ONE registration for the channel's lifetime: control block, both rings,
  // and the slot pool live together in the I/O heap, allocated by the
  // trusted component so the stack never validates a pointer.
  auto handle = compartments_->Allocate(app_, io_, queues_.TotalBytes());
  if (!handle.ok()) {
    return;  // heap too small for the async datapath; channel stays inert
  }
  auto span = compartments_->Access(app_, *handle);
  if (!span.ok()) {
    return;
  }
  region_ = *span;
  std::memset(region_.data(), 0, kSqcqControlBytes);
  pool_.Init(region_.subspan(queues_.PoolOffset()), queues_.pool_slots,
             queues_.slot_size);
  queues_ready_ = true;
}

void L5Channel::ChargeCrossing() {
  ++stats_.crossings;
  if (boundary_kind_ == L5BoundaryKind::kCompartment) {
    // SwitchTo already charges the compartment switch; nothing extra.
  } else {
    // Dual-enclave alternative: a full TEE boundary round trip on top.
    costs_->ChargeTeeSwitch();
  }
}

L5Channel::Crossing::Crossing(L5Channel* channel) : channel_(channel) {
  channel_->ChargeCrossing();
  channel_->compartments_->SwitchTo(channel_->io_);
}

L5Channel::Crossing::~Crossing() {
  channel_->compartments_->SwitchTo(channel_->app_);
}

ciobase::Result<cionet::SocketId> L5Channel::Connect(cionet::Ipv4Address ip,
                                                     uint16_t port) {
  Crossing crossing(this);
  auto socket = stack_->TcpConnect(ip, port);
  if (socket.ok()) {
    receivers_[socket->value] = Receiver{};
    CountReceivers();
  }
  return socket;
}

ciobase::Result<cionet::SocketId> L5Channel::Listen(uint16_t port) {
  Crossing crossing(this);
  auto listener = stack_->TcpListen(port);
  if (listener.ok()) {
    accept_pending_[listener->value] = 0;
  }
  return listener;
}

ciobase::Result<Accepted> L5Channel::Accept(cionet::SocketId listener) {
  auto pending = accept_pending_.find(listener.value);
  if (pending == accept_pending_.end() || pending->second == 0) {
    return ciobase::Unavailable("no pending connection");
  }
  Crossing crossing(this);
  auto accepted = AcceptOn(*stack_, listener);
  IoCountAccepts();  // what is left returns through the gate too
  if (accepted.ok()) {
    receivers_[accepted->socket.value] = Receiver{};
    CountReceivers();
  }
  return accepted;
}

ciobase::Status L5Channel::Close(cionet::SocketId socket) {
  // The FIN must never overtake sealed bytes still in the SQ: the owner
  // retries once a doorbell has reaped their completions.
  if (std::any_of(in_flight_.begin(), in_flight_.end(), [&](const auto& item) {
        return item.second.op == kSqOpSend &&
               item.second.socket == socket.value;
      })) {
    return ciobase::Unavailable("sends still in flight");
  }
  return Retire(socket, &cionet::NetStack::TcpClose);
}

ciobase::Status L5Channel::Abort(cionet::SocketId socket) {
  return Retire(socket, &cionet::NetStack::TcpAbort);
}

ciobase::Status L5Channel::Retire(cionet::SocketId socket,
                                  StackTeardown teardown) {
  // Sweep already-posted completions to their owners first, so another
  // socket's data is never thrown away with this one's.
  if (queues_ready_) {
    (void)Harvest();
  }
  events_.erase(socket.value);
  ciobase::Status status;
  {
    Crossing crossing(this);
    if (queues_ready_) {
      IoConsumeSq();  // pull published-but-unconsumed entries so they purge
      sq_consumed_ = io_sq_head_;
      io_queues_.erase(socket.value);
      std::erase_if(held_cqes_, [&](const HeldCqe& held) {
        return held.socket == socket.value;
      });
    }
    status = (stack_->*teardown)(socket);
  }
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->second.socket == socket.value) {
      ReleaseEntrySlots(it->second);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  receivers_.erase(socket.value);
  accept_pending_.erase(socket.value);
  CountReceivers();
  return status;
}

// --- Layout helpers ---------------------------------------------------------

ciobase::MutableByteSpan L5Channel::SqeSpan(uint32_t index) {
  uint32_t masked = index & (queues_.sq_entries - 1);
  return region_.subspan(queues_.SqOffset() + masked * kSqeSize, kSqeSize);
}

ciobase::MutableByteSpan L5Channel::CqeSpan(uint32_t index) {
  uint32_t masked = index & (queues_.cq_entries - 1);
  return region_.subspan(queues_.CqOffset() + masked * kCqeSize, kCqeSize);
}

bool L5Channel::SqFull() const {
  // sq_consumed_ comes back through the call gate at doorbell time, never
  // from host-writable memory, so this check cannot be spoofed into
  // overwriting unconsumed entries.
  return sq_tail_ - sq_consumed_ >= queues_.sq_entries;
}

// --- Receive arming ---------------------------------------------------------

size_t L5Channel::SendReserve() const {
  return std::max<size_t>(queues_.recv_segments, queues_.pool_slots / 4);
}

size_t L5Channel::ArmableSockets() const {
  return queues_.pool_slots > SendReserve()
             ? queues_.pool_slots - SendReserve()
             : 0;
}

size_t L5Channel::RecvShareSlots() const {
  const size_t full = size_t{queues_.recv_entries} * queues_.recv_segments;
  if (open_receivers_ == 0) {
    return full;
  }
  return std::clamp<size_t>(ArmableSockets() / open_receivers_, 1, full);
}

void L5Channel::CountReceivers() {
  open_receivers_ = 0;
  unarmed_receivers_ = 0;
  for (const auto& [socket, receiver] : receivers_) {
    open_receivers_ += receiver.ended ? 0 : 1;
    unarmed_receivers_ += !receiver.ended && receiver.armed_slots == 0;
  }
}

void L5Channel::ArmReceives(size_t share) {
  const size_t reserve = SendReserve();
  for (auto& [socket, receiver] : receivers_) {
    while (!receiver.ended && receiver.armed_slots < share) {
      const uint32_t segments = static_cast<uint32_t>(std::min<size_t>(
          queues_.recv_segments, share - receiver.armed_slots));
      // A socket with nothing armed takes its first entry even from the
      // send reserve (egress left it free: the receive floor); topping up
      // beyond that never starves egress.
      const size_t needed =
          receiver.armed_slots == 0 ? segments : segments + reserve;
      if (SqFull() || pool_.free_slots() < needed) {
        ++stats_.sq_backpressure;
        break;
      }
      SqEntry sqe;
      sqe.op = kSqOpRecv;
      sqe.socket = socket;
      sqe.seg_count = static_cast<uint8_t>(segments);
      for (uint32_t i = 0; i < segments; ++i) {
        sqe.segs[i] = SqSegment{*pool_.Acquire(), queues_.slot_size};
      }
      SubmitSqe(sqe);
      receiver.armed_slots += segments;
    }
  }
}

size_t L5Channel::EgressSlots() const {
  const size_t floor =
      unarmed_receivers_ *
      std::min<size_t>(queues_.recv_segments, RecvShareSlots());
  const size_t free = pool_.free_slots();
  return free > floor ? free - floor : 0;
}

// --- Submission -------------------------------------------------------------

void L5Channel::SubmitSqe(SqEntry& sqe) {
  sqe.user_data = next_user_data_++;
  EncodeSqe(sqe, SqeSpan(sq_tail_));
  ++sq_tail_;
  ciobase::StoreLe32(ctrl() + kCtrlSqTail, sq_tail_);
  InFlight entry;
  entry.op = sqe.op;
  entry.seg_count = sqe.seg_count;
  entry.socket = sqe.socket;
  for (size_t i = 0; i < sqe.seg_count; ++i) {
    entry.segs[i] = sqe.segs[i];
  }
  in_flight_[sqe.user_data] = entry;
  ++stats_.sq_submitted;
}

ciobase::Result<size_t> L5Channel::SubmitStream(cionet::SocketId socket,
                                                ciobase::ByteSpan data) {
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l5.submit");
  size_t budget = EgressSlots();
  size_t accepted = 0;
  while (accepted < data.size()) {
    if (SqFull() || budget == 0) {
      ++stats_.sq_backpressure;
      CIO_COV("l5.sq.backpressure", ciobase::StatusCode::kResourceExhausted);
      break;
    }
    SqEntry sqe;
    sqe.op = kSqOpSend;
    sqe.socket = socket.value;
    size_t total = 0;
    while (sqe.seg_count < kSqMaxSegments &&
           accepted + total < data.size()) {
      if (budget == 0) {
        ++stats_.sq_backpressure;
        break;
      }
      --budget;
      auto slot = pool_.Acquire();
      size_t n = std::min<size_t>(queues_.slot_size,
                                  data.size() - accepted - total);
      // The app's one write into registered memory; the stack transmits
      // from the slot in place.
      std::memcpy(pool_.SlotSpan(*slot).data(), data.data() + accepted + total,
                  n);
      sqe.segs[sqe.seg_count] = SqSegment{*slot, static_cast<uint32_t>(n)};
      ++sqe.seg_count;
      total += n;
    }
    if (sqe.seg_count == 0) {
      break;
    }
    SubmitSqe(sqe);
    stats_.bytes_sent += total;
    accepted += total;
  }
  return accepted;
}

// --- The doorbell crossing --------------------------------------------------

ciobase::Status L5Channel::Doorbell() {
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l5.doorbell");
  // App side, no crossing: top every open socket back up to its share, so
  // this one crossing harvests inbound bytes for all of them.
  const size_t share = RecvShareSlots();
  ArmReceives(share);
  ciobase::Status link = ciobase::OkStatus();
  {
    Crossing crossing(this);
    costs_->ChargeRingPoll();
    {
      CIO_PROF_SCOPE(costs_->profiler(), "l5.sq_consume");
      IoConsumeSq();
    }
    link = stack_->Poll();
    {
      CIO_PROF_SCOPE(costs_->profiler(), "l5.io_service");
      IoService(share);
    }
    // Consumed count and accept counts return through the call gate (a
    // syscall-style return value): SQ-full detection and accept readiness
    // never read host-writable memory.
    sq_consumed_ = io_sq_head_;
    IoCountAccepts();
  }
  ++stats_.doorbells;
  ciobase::Status harvested = Harvest();
  CountReceivers();
  if (!harvested.ok()) {
    return harvested;
  }
  return link;
}

void L5Channel::IoConsumeSq() {
  uint32_t tail = ciobase::LoadLe32(ctrl() + kCtrlSqTail);
  if (tail - io_sq_head_ > queues_.sq_entries) {
    // Host-scribbled tail: clamp to one ring's worth; garbage entries
    // decode to ops on unknown sockets and complete as resets.
    CIO_COV("l5.sq.runaway_tail", ciobase::StatusCode::kOutOfRange);
    tail = io_sq_head_ + queues_.sq_entries;
  }
  while (io_sq_head_ != tail) {
    SqEntry sqe = DecodeSqe(SqeSpan(io_sq_head_));
    ++io_sq_head_;
    IoSocketQueues& queues = io_queues_[sqe.socket];
    if (sqe.op == kSqOpSend) {
      queues.sends.push_back(sqe);
    } else if (sqe.op == kSqOpRecv) {
      queues.recvs.push_back(sqe);
    }
    // Unknown opcodes are dropped: the app is trusted, so these can only
    // come from host scribbling over the ring.
  }
  ciobase::StoreLe32(ctrl() + kCtrlSqHead, io_sq_head_);
}

void L5Channel::IoService(size_t recv_share) {
  DrainHeldCqes();
  for (auto& [socket, queues] : io_queues_) {
    IoServiceSends(socket, queues);
    IoServiceRecvs(socket, queues, recv_share);
  }
  std::erase_if(io_queues_, [](const auto& item) {
    return item.second.sends.empty() && item.second.recvs.empty();
  });
}

void L5Channel::IoServiceSends(uint32_t socket, IoSocketQueues& queues) {
  while (!queues.sends.empty()) {
    const SqEntry& sqe = queues.sends.front();
    size_t total = 0;
    for (size_t i = 0; i < sqe.seg_count; ++i) {
      total += sqe.segs[i].len;
    }
    CqEntry cqe;
    cqe.op = kSqOpSend;
    cqe.user_data = sqe.user_data;
    cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
    auto space = stack_->TcpSendSpace(cionet::SocketId{socket});
    if (!space.ok()) {
      cqe.code = kCqReset;  // socket gone underneath the queue
      PostCqe(socket, cqe);
      queues.sends.pop_front();
      continue;
    }
    if (*space < total) {
      break;  // all-or-nothing per entry; retry at the next doorbell
    }
    bool failed = false;
    for (size_t i = 0; i < sqe.seg_count && !failed; ++i) {
      ciobase::MutableByteSpan span = pool_.SlotSpan(sqe.segs[i].slot);
      size_t len = std::min<size_t>(sqe.segs[i].len, span.size());
      auto sent = stack_->TcpSend(cionet::SocketId{socket},
                                  ciobase::ByteSpan(span.data(), len));
      failed = !sent.ok() || *sent != len;
    }
    if (failed) {
      cqe.code = kCqReset;
    } else {
      cqe.code = kCqOk;
      cqe.seg_count = sqe.seg_count;
      for (size_t i = 0; i < sqe.seg_count; ++i) {
        cqe.seg_len[i] = sqe.segs[i].len;
      }
      cqe.result = static_cast<uint32_t>(total);
    }
    PostCqe(socket, cqe);
    queues.sends.pop_front();
  }
}

void L5Channel::IoServiceRecvs(uint32_t socket, IoSocketQueues& queues,
                               size_t share) {
  while (!queues.recvs.empty()) {
    const SqEntry& sqe = queues.recvs.front();
    CqEntry cqe;
    cqe.op = kSqOpRecv;
    cqe.user_data = sqe.user_data;
    cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
    auto readable = stack_->TcpReadable(cionet::SocketId{socket});
    if (!readable.ok()) {
      cqe.code = kCqReset;
      PostCqe(socket, cqe);
      queues.recvs.pop_front();
      continue;
    }
    if (!*readable) {
      break;
    }
    size_t got_total = 0;
    bool eof = false;
    bool reset = false;
    for (size_t i = 0; i < sqe.seg_count; ++i) {
      ciobase::MutableByteSpan span = pool_.SlotSpan(sqe.segs[i].slot);
      size_t cap = std::min<size_t>(sqe.segs[i].len, span.size());
      auto got =
          stack_->TcpReceive(cionet::SocketId{socket}, span.first(cap));
      if (!got.ok()) {
        if (got.status().code() == ciobase::StatusCode::kFailedPrecondition) {
          eof = true;
        } else {
          reset = true;
        }
        break;
      }
      if (*got == 0) {
        break;
      }
      cqe.seg_len[i] = static_cast<uint32_t>(*got);
      cqe.seg_count = static_cast<uint8_t>(i + 1);
      got_total += *got;
      if (*got < cap) {
        break;  // drained the socket
      }
    }
    if (got_total > 0) {
      cqe.code = kCqOk;
      cqe.result = static_cast<uint32_t>(got_total);
      PostCqe(socket, cqe);
      queues.recvs.pop_front();
      continue;  // a pending EOF/reset completes the next armed entry
    }
    if (eof || reset) {
      cqe.code = eof ? kCqEof : kCqReset;
      cqe.seg_count = 0;
      PostCqe(socket, cqe);
      queues.recvs.pop_front();
      continue;
    }
    break;
  }
  // Entries still queued are all unfilled. Those armed beyond the current
  // share (while fewer sockets were open) complete empty, newest first, so
  // an idle socket cannot keep slots a newly opened one needs.
  size_t armed = 0;
  for (const SqEntry& sqe : queues.recvs) {
    armed += sqe.seg_count;
  }
  while (armed > share) {
    const SqEntry& sqe = queues.recvs.back();
    CqEntry cqe;
    cqe.op = kSqOpRecv;
    cqe.code = kCqOk;
    cqe.user_data = sqe.user_data;
    cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
    armed -= sqe.seg_count;
    PostCqe(socket, cqe);
    queues.recvs.pop_back();
  }
}

void L5Channel::IoCountAccepts() {
  // Counting never accepts: the TCP backlog cap and the owner's adoption
  // policy stay where they are.
  for (auto& [listener, pending] : accept_pending_) {
    auto count = stack_->TcpAcceptPending(cionet::SocketId{listener});
    pending = count.ok() ? *count : 0;
  }
}

bool L5Channel::IoCqFull() {
  const uint32_t used =
      io_cq_tail_ - ciobase::LoadLe32(ctrl() + kCtrlCqHead);
  if (used > queues_.cq_entries) {
    // Hostile head: an honest app can only publish a head inside
    // [io_cq_tail_ - cq_entries, io_cq_tail_]. Treat the ring as full (the
    // completion is held, nothing dropped) and surface the forgery as a
    // typed edge; the app re-asserts its true head every Harvest, so the
    // wedge heals at the next doorbell.
    CIO_COV("l5.cq.incoherent_head", ciobase::StatusCode::kOutOfRange);
    return true;
  }
  return used == queues_.cq_entries;
}

void L5Channel::PostCqe(uint32_t socket, const CqEntry& cqe) {
  if (IoCqFull()) {
    // CQ overflow backpressure: hold the completion io-side, in order, and
    // drain once the app reaps. Nothing is dropped.
    held_cqes_.push_back(HeldCqe{socket, cqe});
    return;
  }
  EncodeCqe(cqe, CqeSpan(io_cq_tail_));
  ++io_cq_tail_;
  ciobase::StoreLe32(ctrl() + kCtrlCqTail, io_cq_tail_);
}

void L5Channel::DrainHeldCqes() {
  while (!held_cqes_.empty() && !IoCqFull()) {
    PostCqe(held_cqes_.front().socket, held_cqes_.front().cqe);
    held_cqes_.pop_front();
  }
}

// --- App-side reaping -------------------------------------------------------

ciobase::Status L5Channel::Harvest() {
  CIO_PROF_SCOPE(costs_->profiler(), "l5.harvest");
  // Self-healing counters: re-assert the app-owned cells from private state
  // every reap. A host that scribbles CqHead or Epoch can wedge at most one
  // doorbell interval — the next Harvest restores the truth and any held
  // completions drain.
  ciobase::StoreLe32(ctrl() + kCtrlCqHead, cq_head_);
  ciobase::StoreLe32(ctrl() + kCtrlEpoch, epoch_);
  uint32_t tail = ciobase::LoadLe32(ctrl() + kCtrlCqTail);
  if (tail - cq_head_ > queues_.cq_entries) {
    CIO_COV("l5.cq.runaway_tail", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("cq tail outside ring window");
  }
  while (cq_head_ != tail) {
    CqEntry cqe = DecodeCqe(CqeSpan(cq_head_));
    ++cq_head_;
    ciobase::StoreLe32(ctrl() + kCtrlCqHead, cq_head_);
    CIO_RETURN_IF_ERROR(ConsumeCqe(cqe));
  }
  return ciobase::OkStatus();
}

ciobase::Status L5Channel::ConsumeCqe(const CqEntry& cqe) {
  if (cqe.epoch != epoch_) {
    // A completion from before the last ring reset: its entry was already
    // abandoned into the resend window, so this is recovery noise, not an
    // attack.
    ++stats_.cq_stale_dropped;
    CIO_COV("l5.cq.stale_epoch", ciobase::StatusCode::kUnavailable);
    return ciobase::OkStatus();
  }
  auto it = in_flight_.find(cqe.user_data);
  if (it == in_flight_.end()) {
    CIO_COV("l5.cq.unknown_user_data", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("unknown or duplicated completion");
  }
  const InFlight entry = it->second;
  if (cqe.op != entry.op) {
    CIO_COV("l5.cq.opcode_mismatch", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion opcode mismatch");
  }
  if (cqe.code > kCqReset) {
    CIO_COV("l5.cq.unknown_code", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("unknown completion code");
  }
  if (cqe.seg_count > entry.seg_count) {
    CIO_COV("l5.cq.segment_overflow", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion segment overflow");
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < cqe.seg_count; ++i) {
    if (cqe.seg_len[i] > entry.segs[i].len) {
      CIO_COV("l5.cq.length_overflow", ciobase::StatusCode::kTampered);
      return ciobase::Tampered("completion length exceeds submission");
    }
    sum += cqe.seg_len[i];
  }
  if (cqe.result != sum) {
    CIO_COV("l5.cq.result_mismatch", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion result/length mismatch");
  }
  in_flight_.erase(it);
  ++stats_.cq_completions;
  CIO_COV("l5.cq.completion", ciobase::StatusCode::kOk);
  if (entry.op == kSqOpSend) {
    ReleaseEntrySlots(entry);
    if (cqe.code != kCqOk) {
      // The bytes may not have hit the wire; delivery is owned by the
      // session resend window, so this is accounting, not an error.
      ++stats_.send_failures;
    }
    return ciobase::OkStatus();
  }
  // Receive completion. A socket with no receiver has no reader: the
  // completion only returns its slots.
  auto receiver = receivers_.find(entry.socket);
  if (receiver == receivers_.end()) {
    ReleaseEntrySlots(entry);
    return ciobase::OkStatus();
  }
  receiver->second.armed_slots -=
      std::min<uint32_t>(receiver->second.armed_slots, entry.seg_count);
  if (cqe.code != kCqOk) {
    receiver->second.ended = true;  // the stream is over: stop re-arming
  }
  if (cqe.code == kCqOk && cqe.result > 0) {
    RecvEvent event;
    event.kind = RecvEvent::Kind::kData;
    if (receive_mode_ == L5ReceiveMode::kCopy) {
      // Copy-before-parse: snapshot the slots the stack may keep mutating.
      ++stats_.receive_copies;
      costs_->ChargeCopy(cqe.result);
    } else if (receive_mode_ == L5ReceiveMode::kRevoke) {
      // Revoke-then-parse: pull the filled pages out of the shared pool.
      ++stats_.receive_revocations;
      size_t page = costs_->constants().page_size;
      costs_->ChargePageUnshare(
          std::max<size_t>(1, (cqe.result + page - 1) / page));
    }
    // kSealed: every byte is AEAD-authenticated above this layer, so no
    // defensive copy or unshare is modeled for the harvest.
    event.data.reserve(cqe.result);
    for (size_t i = 0; i < cqe.seg_count; ++i) {
      ciobase::MutableByteSpan span = pool_.SlotSpan(entry.segs[i].slot);
      event.data.insert(event.data.end(), span.data(),
                        span.data() + cqe.seg_len[i]);
    }
    events_[entry.socket].push_back(std::move(event));
    stats_.bytes_received += cqe.result;
  } else if (cqe.code == kCqEof) {
    events_[entry.socket].push_back(RecvEvent{RecvEvent::Kind::kEof, {}});
  } else if (cqe.code == kCqReset) {
    events_[entry.socket].push_back(RecvEvent{RecvEvent::Kind::kReset, {}});
  }
  ReleaseEntrySlots(entry);
  return ciobase::OkStatus();
}

void L5Channel::ReleaseEntrySlots(const InFlight& entry) {
  for (size_t i = 0; i < entry.seg_count; ++i) {
    pool_.Release(entry.segs[i].slot);
  }
}

size_t L5Channel::in_flight_entries(uint8_t op) const {
  return std::count_if(in_flight_.begin(), in_flight_.end(),
                       [op](const auto& item) { return item.second.op == op; });
}

size_t L5Channel::in_flight_slots(uint8_t op) const {
  size_t slots = 0;
  for (const auto& [user_data, entry] : in_flight_) {
    slots += entry.op == op ? entry.seg_count : 0;
  }
  return slots;
}

uint64_t L5Channel::in_flight_user_data_for_test(cionet::SocketId socket,
                                                 uint8_t op) const {
  auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                         [&](const auto& item) {
                           return item.second.op == op &&
                                  item.second.socket == socket.value;
                         });
  return it == in_flight_.end() ? 0 : it->first;
}

// --- Teardown paths ---------------------------------------------------------

void L5Channel::AbandonInFlight() {
  if (!queues_ready_) {
    return;
  }
  events_.clear();
  {
    Crossing crossing(this);
    io_queues_.clear();
    held_cqes_.clear();
    io_sq_head_ = 0;
    io_cq_tail_ = 0;
  }
  for (auto& [user_data, entry] : in_flight_) {
    ReleaseEntrySlots(entry);
  }
  in_flight_.clear();
  for (auto& [socket, receiver] : receivers_) {
    receiver.armed_slots = 0;  // re-armed in the new epoch
  }
  CountReceivers();
  sq_tail_ = 0;
  sq_consumed_ = 0;
  cq_head_ = 0;
  // New ring generation: completions the old epoch still owes reap as
  // stale. The session resend window re-delivers everything that was in
  // flight, preserving exactly-once end to end.
  ++epoch_;
  std::memset(region_.data(), 0, kSqcqControlBytes);
  ciobase::StoreLe32(ctrl() + kCtrlEpoch, epoch_);
}

// --- Byte-stream surface ----------------------------------------------------

ciobase::Result<size_t> L5Channel::ReceiveOne(cionet::SocketId socket,
                                              size_t max_bytes,
                                              ciobase::Buffer& out) {
  out.clear();
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  auto it = events_.find(socket.value);
  while (it != events_.end() && !it->second.empty() &&
         out.size() < max_bytes) {
    RecvEvent& front = it->second.front();
    if (front.kind != RecvEvent::Kind::kData) {
      if (!out.empty()) {
        break;  // deliver data first; EOF/reset surfaces next call
      }
      RecvEvent::Kind kind = front.kind;
      it->second.pop_front();
      if (kind == RecvEvent::Kind::kEof) {
        return ciobase::FailedPrecondition("connection closed by peer");
      }
      return ciobase::LinkReset("connection reset");
    }
    ciobase::Append(out, front.data);
    it->second.pop_front();
  }
  return out.size();
}

}  // namespace cio
