#include "src/net/stack.h"

#include <cassert>

#include "src/base/log.h"
#include "src/prof/profiler.h"

namespace cionet {

NetStack::NetStack(FramePort* port, ciobase::SimClock* clock, Config config)
    : port_(port),
      clock_(clock),
      config_(config),
      rng_(config.seed),
      arp_(clock, port->mac(), config.ip),
      reassembler_(clock) {}

NetStack::Socket* NetStack::Find(SocketId id) {
  auto it = sockets_.find(id.value);
  return it == sockets_.end() ? nullptr : &it->second;
}

const NetStack::Socket* NetStack::Find(SocketId id) const {
  auto it = sockets_.find(id.value);
  return it == sockets_.end() ? nullptr : &it->second;
}

SocketId NetStack::NewSocket(Socket socket) {
  SocketId id{next_socket_id_++};
  sockets_.emplace(id.value, std::move(socket));
  return id;
}

bool NetStack::PortInUse(uint16_t port) const {
  for (const auto& [id, socket] : sockets_) {
    if (socket.local_port == port) {
      return true;
    }
  }
  return false;
}

uint16_t NetStack::AllocatePort() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    uint16_t port = next_ephemeral_++;
    if (next_ephemeral_ == 0) {
      next_ephemeral_ = 49152;
    }
    if (port >= 49152 && !PortInUse(port)) {
      return port;
    }
  }
  return 0;
}

Ipv4Address NetStack::NextHop(Ipv4Address dst) const {
  bool on_link = (dst.value & config_.netmask.value) ==
                 (config_.ip.value & config_.netmask.value);
  if (on_link || config_.gateway.value == 0) {
    return dst;
  }
  return config_.gateway;
}

// --- Output path -------------------------------------------------------------

void NetStack::SendFrameTo(MacAddress dst, uint16_t ether_type,
                           ciobase::ByteSpan payload) {
  ciobase::Buffer frame = tx_arena_.Acquire(0);
  EthernetHeader eth{dst, port_->mac(), ether_type};
  eth.Serialize(frame);
  ciobase::Append(frame, payload);
  ++stats_.frames_tx;
  if (tx_batch_depth_ > 0) {
    // A batch is open: stage the frame; FlushTxBatch hands the whole run to
    // the port in one SendFrames call.
    tx_staged_.push_back(std::move(frame));
    return;
  }
  ciobase::Status status = SendOne(*port_, frame);
  if (!status.ok()) {
    CIO_LOG(kDebug) << "SendOne failed: " << status.ToString();
  }
  tx_arena_.Release(std::move(frame));
}

void NetStack::FlushTxBatch() {
  if (tx_staged_.empty()) {
    return;
  }
  tx_spans_.clear();
  for (const ciobase::Buffer& frame : tx_staged_) {
    tx_spans_.emplace_back(frame.data(), frame.size());
  }
  size_t offset = 0;
  while (offset < tx_spans_.size()) {
    ciobase::Result<size_t> sent = port_->SendFrames(
        std::span<const ciobase::ByteSpan>(tx_spans_).subspan(offset));
    if (!sent.ok()) {
      // The port rejected the next frame without progress (ring full, link
      // dead): drop the remainder, like per-frame sends failing. TCP
      // retransmission replays whatever mattered.
      CIO_LOG(kDebug) << "SendFrames dropped "
                      << (tx_spans_.size() - offset) << " staged frames: "
                      << sent.status().ToString();
      break;
    }
    if (*sent == 0) {
      break;
    }
    offset += *sent;
  }
  for (ciobase::Buffer& frame : tx_staged_) {
    tx_arena_.Release(std::move(frame));
  }
  tx_staged_.clear();
}

void NetStack::SendIpv4(Ipv4Address dst, uint8_t protocol,
                        ciobase::ByteSpan payload) {
  Ipv4Header header;
  header.identification = ip_ident_++;
  header.protocol = protocol;
  header.src = config_.ip;
  header.dst = dst;
  std::vector<ciobase::Buffer> packets =
      FragmentIpv4(header, payload, port_->mtu());

  Ipv4Address next_hop = NextHop(dst);
  std::optional<MacAddress> mac = arp_.Lookup(next_hop);
  for (auto& packet : packets) {
    if (mac.has_value()) {
      SendFrameTo(*mac, kEtherTypeIpv4, packet);
    } else {
      if (arp_pending_.size() < kMaxArpPending) {
        arp_pending_.push_back(
            PendingPacket{next_hop, kEtherTypeIpv4, std::move(packet)});
      }
      if (!arp_.RequestRecentlySent(next_hop)) {
        arp_.NoteRequestSent(next_hop);
        ciobase::Buffer request = arp_.MakeRequestFrame(next_hop);
        ++stats_.frames_tx;
        (void)SendOne(*port_, request);
      }
    }
  }
}

void NetStack::FlushArpPending() {
  if (arp_pending_.empty()) {
    return;
  }
  std::vector<PendingPacket> keep;
  for (auto& pending : arp_pending_) {
    std::optional<MacAddress> mac = arp_.Lookup(pending.next_hop);
    if (mac.has_value()) {
      SendFrameTo(*mac, pending.ether_type, pending.payload);
    } else {
      keep.push_back(std::move(pending));
    }
  }
  arp_pending_ = std::move(keep);
}

// --- Input path ---------------------------------------------------------------

void NetStack::HandleFrame(ciobase::ByteSpan frame) {
  ++stats_.frames_rx;
  auto eth = EthernetHeader::Parse(frame);
  if (!eth.ok()) {
    ++stats_.parse_errors;
    return;
  }
  if (!(eth->dst == port_->mac()) && !eth->dst.IsBroadcast()) {
    return;  // not for us (promiscuous fabric delivered it anyway)
  }
  ciobase::ByteSpan payload = frame.subspan(kEthernetHeaderSize);
  if (eth->ether_type == kEtherTypeArp) {
    ++stats_.arp_rx;
    std::optional<ciobase::Buffer> reply = arp_.HandlePacket(payload);
    if (reply.has_value()) {
      ++stats_.frames_tx;
      (void)SendOne(*port_, *reply);
    }
    FlushArpPending();
    return;
  }
  if (eth->ether_type == kEtherTypeIpv4) {
    HandleIpv4(payload);
    return;
  }
  // Unknown ethertype: dropped.
}

void NetStack::HandleIpv4(ciobase::ByteSpan packet) {
  auto header = Ipv4Header::Parse(packet);
  if (!header.ok()) {
    if (header.status().code() == ciobase::StatusCode::kTampered) {
      ++stats_.checksum_errors;
    } else {
      ++stats_.parse_errors;
    }
    return;
  }
  ++stats_.ipv4_rx;
  if (!(header->dst == config_.ip)) {
    return;  // not routed; we are a host, not a router
  }
  ciobase::ByteSpan payload =
      packet.subspan(kIpv4HeaderSize, header->total_length - kIpv4HeaderSize);
  std::optional<ReassembledDatagram> datagram =
      reassembler_.Add(*header, payload);
  if (!datagram.has_value()) {
    return;  // waiting for more fragments
  }
  switch (datagram->header.protocol) {
    case kIpProtoTcp:
      HandleTcp(datagram->header, datagram->payload);
      break;
    case kIpProtoUdp:
      HandleUdp(datagram->header, datagram->payload);
      break;
    default:
      break;  // unsupported protocol
  }
}

void NetStack::SendRst(const Ipv4Header& ip, const TcpHeader& header,
                       size_t payload_size) {
  TcpHeader rst;
  rst.src_port = header.dst_port;
  rst.dst_port = header.src_port;
  rst.flags = kTcpFlagRst | kTcpFlagAck;
  if ((header.flags & kTcpFlagAck) != 0) {
    rst.seq = header.ack;
    rst.ack = 0;
    rst.flags = kTcpFlagRst;
  } else {
    rst.seq = 0;
    rst.ack = header.seq + static_cast<uint32_t>(payload_size) +
              (((header.flags & kTcpFlagSyn) != 0) ? 1 : 0);
  }
  ciobase::Buffer segment;
  rst.Serialize(segment);
  uint16_t checksum =
      TransportChecksum(config_.ip, ip.src, kIpProtoTcp, segment);
  ciobase::StoreBe16(segment.data() + 16, checksum);
  ++stats_.rst_sent;
  SendIpv4(ip.src, kIpProtoTcp, segment);
}

void NetStack::HandleTcp(const Ipv4Header& ip, ciobase::ByteSpan segment) {
  if (TransportChecksum(ip.src, ip.dst, kIpProtoTcp, segment) != 0) {
    ++stats_.checksum_errors;
    return;
  }
  auto header = TcpHeader::Parse(segment);
  if (!header.ok()) {
    ++stats_.parse_errors;
    return;
  }
  ++stats_.tcp_rx;
  ciobase::ByteSpan payload = segment.subspan(header->HeaderBytes());

  TcpEndpointId key{config_.ip, header->dst_port, ip.src, header->src_port};
  auto demux = tcp_demux_.find(key);
  if (demux != tcp_demux_.end()) {
    Socket* socket = Find(demux->second);
    if (socket != nullptr && socket->conn != nullptr) {
      socket->conn->OnSegment(*header, payload);
      FlushTcpOutput(*socket);
      return;
    }
  }

  // No connection: a SYN may match a listener.
  if ((header->flags & (kTcpFlagSyn | kTcpFlagAck | kTcpFlagRst)) ==
      kTcpFlagSyn) {
    for (auto& [id, socket] : sockets_) {
      if (socket.type == SocketType::kTcpListener &&
          socket.local_port == header->dst_port) {
        if (socket.accept_queue.size() >= config_.tcp_accept_backlog) {
          // Listener overflow: refuse now rather than queue without bound.
          // The RST gives the client a typed failure (kLinkReset from its
          // TcpReceive) instead of a silent SYN timeout.
          ++stats_.accept_overflows;
          SendRst(ip, *header, payload.size());
          return;
        }
        Socket conn_socket;
        conn_socket.type = SocketType::kTcpConnection;
        conn_socket.local_port = header->dst_port;
        uint16_t mss = static_cast<uint16_t>(port_->mtu() - 40);
        conn_socket.conn = std::make_unique<TcpConnection>(
            TcpConnection::PassiveOpen(clock_, key, mss, rng_.NextU32(),
                                       *header, config_.tcp_tuning));
        SocketId conn_id = NewSocket(std::move(conn_socket));
        tcp_demux_[key] = conn_id;
        Socket* listener = Find(SocketId{id});
        listener->accept_queue.push_back(conn_id);
        Socket* created = Find(conn_id);
        FlushTcpOutput(*created);
        return;
      }
    }
  }
  if ((header->flags & kTcpFlagRst) == 0) {
    ++stats_.no_socket_drops;
    SendRst(ip, *header, payload.size());
  }
}

void NetStack::HandleUdp(const Ipv4Header& ip, ciobase::ByteSpan datagram) {
  auto parsed = ParseUdpDatagram(ip.src, ip.dst, datagram);
  if (!parsed.ok()) {
    if (parsed.status().code() == ciobase::StatusCode::kTampered) {
      ++stats_.checksum_errors;
    } else {
      ++stats_.parse_errors;
    }
    return;
  }
  ++stats_.udp_rx;
  for (auto& [id, socket] : sockets_) {
    if (socket.type == SocketType::kUdp &&
        socket.local_port == parsed->header.dst_port) {
      // Bounded queue: shed oldest under pressure.
      if (socket.udp_queue.size() >= 1024) {
        socket.udp_queue.pop_front();
      }
      socket.udp_queue.push_back(UdpMessage{ip.src, parsed->header.src_port,
                                            std::move(parsed->payload)});
      return;
    }
  }
  ++stats_.no_socket_drops;
}

void NetStack::FlushTcpOutput(Socket& socket) {
  if (socket.conn == nullptr) {
    return;
  }
  // Batch all segments this connection emits (data run, ACK + data, FIN
  // piggybacks) into one port SendFrames call — unless an outer batch (from
  // Poll) is already open, in which case they join it.
  ++tx_batch_depth_;
  for (ciobase::Buffer& segment : socket.conn->TakeOutput()) {
    SendIpv4(socket.conn->endpoints().remote_ip, kIpProtoTcp, segment);
  }
  if (--tx_batch_depth_ == 0) {
    FlushTxBatch();
  }
}

ciobase::Status NetStack::Poll() {
  CIO_PROF_SCOPE(prof_, "tcp.poll");
  ciobase::Status link = ciobase::OkStatus();
  // Everything one poll round emits — ACKs for a burst of received frames,
  // retransmits, window updates across sockets — leaves as one TX batch.
  ++tx_batch_depth_;
  // Drain the port in batches; each ReceiveFrames call touches the shared
  // ring once however many frames it returns.
  for (;;) {
    ciobase::Result<size_t> got = port_->ReceiveFrames(rx_batch_,
                                                       kRxBatchFrames);
    if (!got.ok()) {
      // kLinkReset: the transport reset + reattached; in-flight frames died
      // on the old ring but TCP retransmission replays them — the timers
      // below keep running. kTimedOut: the link is dead; surface it.
      if (got.status().code() == ciobase::StatusCode::kLinkReset) {
        ++stats_.link_resets;
      } else if (got.status().code() == ciobase::StatusCode::kTimedOut) {
        ++stats_.link_timeouts;
      }
      link = got.status();
      break;
    }
    for (size_t i = 0; i < *got; ++i) {
      HandleFrame(rx_batch_[i]);
    }
    if (*got < kRxBatchFrames) {
      break;
    }
  }
  // Timers & output.
  std::vector<uint32_t> defunct;
  for (auto& [id, socket] : sockets_) {
    if (socket.type == SocketType::kTcpConnection && socket.conn != nullptr) {
      socket.conn->PollTimers();
      FlushTcpOutput(socket);
      if (socket.conn->Defunct() && socket.close_requested) {
        defunct.push_back(id);
      }
    }
  }
  for (uint32_t id : defunct) {
    Socket* socket = Find(SocketId{id});
    if (socket != nullptr && socket->conn != nullptr) {
      tcp_demux_.erase(socket->conn->endpoints());
    }
    sockets_.erase(id);
  }
  reassembler_.Expire();
  if (--tx_batch_depth_ == 0) {
    FlushTxBatch();
  }
  return link;
}

// --- UDP API -------------------------------------------------------------------

ciobase::Result<SocketId> NetStack::UdpOpen(uint16_t local_port) {
  if (local_port == 0) {
    local_port = AllocatePort();
    if (local_port == 0) {
      return ciobase::ResourceExhausted("no ephemeral ports");
    }
  } else if (PortInUse(local_port)) {
    return ciobase::AlreadyExists("port in use");
  }
  Socket socket;
  socket.type = SocketType::kUdp;
  socket.local_port = local_port;
  return NewSocket(std::move(socket));
}

ciobase::Status NetStack::UdpSendTo(SocketId id, Ipv4Address dst,
                                    uint16_t port, ciobase::ByteSpan payload) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kUdp) {
    return ciobase::NotFound("not a UDP socket");
  }
  if (payload.size() > 65507) {
    return ciobase::InvalidArgument("UDP payload too large");
  }
  ciobase::Buffer datagram = BuildUdpDatagram(config_.ip, dst,
                                              socket->local_port, port,
                                              payload);
  SendIpv4(dst, kIpProtoUdp, datagram);
  return ciobase::OkStatus();
}

ciobase::Result<UdpMessage> NetStack::UdpReceive(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kUdp) {
    return ciobase::NotFound("not a UDP socket");
  }
  if (socket->udp_queue.empty()) {
    return ciobase::Unavailable("no datagram");
  }
  UdpMessage message = std::move(socket->udp_queue.front());
  socket->udp_queue.pop_front();
  return message;
}

ciobase::Status NetStack::UdpClose(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kUdp) {
    return ciobase::NotFound("not a UDP socket");
  }
  sockets_.erase(id.value);
  return ciobase::OkStatus();
}

// --- TCP API -------------------------------------------------------------------

ciobase::Result<SocketId> NetStack::TcpListen(uint16_t port) {
  if (port == 0 || PortInUse(port)) {
    return ciobase::AlreadyExists("port invalid or in use");
  }
  Socket socket;
  socket.type = SocketType::kTcpListener;
  socket.local_port = port;
  return NewSocket(std::move(socket));
}

ciobase::Result<SocketId> NetStack::TcpConnect(Ipv4Address dst,
                                               uint16_t port) {
  uint16_t local_port = AllocatePort();
  if (local_port == 0) {
    return ciobase::ResourceExhausted("no ephemeral ports");
  }
  TcpEndpointId key{config_.ip, local_port, dst, port};
  Socket socket;
  socket.type = SocketType::kTcpConnection;
  socket.local_port = local_port;
  uint16_t mss = static_cast<uint16_t>(port_->mtu() - 40);
  socket.conn = std::make_unique<TcpConnection>(TcpConnection::ActiveOpen(
      clock_, key, mss, rng_.NextU32(), config_.tcp_tuning));
  SocketId id = NewSocket(std::move(socket));
  tcp_demux_[key] = id;
  FlushTcpOutput(*Find(id));
  return id;
}

ciobase::Result<SocketId> NetStack::TcpAccept(SocketId listener_id) {
  Socket* listener = Find(listener_id);
  if (listener == nullptr || listener->type != SocketType::kTcpListener) {
    return ciobase::NotFound("not a listener");
  }
  while (!listener->accept_queue.empty()) {
    SocketId id = listener->accept_queue.front();
    listener->accept_queue.pop_front();
    Socket* socket = Find(id);
    if (socket == nullptr || socket->conn == nullptr) {
      continue;  // connection died before accept
    }
    return id;
  }
  return ciobase::Unavailable("no pending connection");
}

ciobase::Result<size_t> NetStack::TcpSend(SocketId id,
                                          ciobase::ByteSpan data) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  auto result = socket->conn->Send(data);
  FlushTcpOutput(*socket);
  return result;
}

ciobase::Result<size_t> NetStack::TcpReceive(SocketId id,
                                             ciobase::MutableByteSpan out) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  auto result = socket->conn->Receive(out);
  FlushTcpOutput(*socket);  // window updates
  // Unified Status conventions: Ok(0) = nothing pending yet,
  // kFailedPrecondition = orderly EOF, kLinkReset = the connection died
  // (RST, retransmission exhaustion) and must be re-established.
  if (result.ok()) {
    if (*result == 0) {
      return ciobase::FailedPrecondition("orderly EOF");
    }
    return result;
  }
  switch (result.status().code()) {
    case ciobase::StatusCode::kUnavailable:
      return static_cast<size_t>(0);
    case ciobase::StatusCode::kFailedPrecondition:
      return ciobase::LinkReset(result.status().message());
    default:
      return result.status();
  }
}

ciobase::Status NetStack::TcpClose(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr) {
    return ciobase::NotFound("no such socket");
  }
  if (socket->type == SocketType::kTcpListener) {
    sockets_.erase(id.value);
    return ciobase::OkStatus();
  }
  if (socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP socket");
  }
  socket->conn->Close();
  socket->close_requested = true;
  FlushTcpOutput(*socket);
  return ciobase::OkStatus();
}

ciobase::Status NetStack::TcpAbort(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  socket->conn->Abort();
  socket->close_requested = true;
  FlushTcpOutput(*socket);
  return ciobase::OkStatus();
}

ciobase::Result<TcpState> NetStack::GetTcpState(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->state();
}

ciobase::Result<TcpConnection::Stats> NetStack::GetTcpStats(
    SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->stats();
}

ciobase::Result<size_t> NetStack::TcpAcceptPending(SocketId id) const {
  const Socket* listener = Find(id);
  if (listener == nullptr || listener->type != SocketType::kTcpListener) {
    return ciobase::NotFound("not a listener");
  }
  return listener->accept_queue.size();
}

ciobase::Result<bool> NetStack::TcpReadable(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  // A failed or defunct connection is "readable": the next TcpReceive
  // reports the death (kLinkReset) or the EOF instead of blocking forever.
  return socket->conn->readable() || socket->conn->failed() ||
         socket->conn->Defunct();
}

ciobase::Result<size_t> NetStack::TcpSendSpace(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->send_space();
}

ciobase::Result<Ipv4Address> NetStack::GetTcpPeer(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->endpoints().remote_ip;
}

}  // namespace cionet
