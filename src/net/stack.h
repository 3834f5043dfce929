// NetStack: the TEE-side TCP/IP stack over a FramePort.
//
// In the paper's dual-boundary architecture this entire stack lives in the
// I/O compartment: it parses attacker-supplied bytes arriving through the
// hardened L2 transport, and exposes a socket interface at the L5 boundary.
// Everything is poll-driven and single-threaded; call Poll() regularly to
// move frames, run TCP timers, and expire reassembly state.

#ifndef SRC_NET_STACK_H_
#define SRC_NET_STACK_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/arena.h"
#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/net/arp.h"
#include "src/net/ipv4.h"
#include "src/net/port.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"

namespace cioprof {
class ProfRegistry;
}  // namespace cioprof

namespace cionet {

struct SocketId {
  uint32_t value = 0;
  bool operator==(const SocketId&) const = default;
};

struct UdpMessage {
  Ipv4Address src_ip;
  uint16_t src_port = 0;
  ciobase::Buffer payload;
};

class NetStack {
 public:
  struct Config {
    Ipv4Address ip;
    Ipv4Address netmask = Ipv4Address::FromOctets(255, 255, 255, 0);
    Ipv4Address gateway;  // 0 = no gateway (on-link only)
    uint64_t seed = 1;
    TcpConnection::Tuning tcp_tuning;
    // Pending-connection cap per listener: a SYN arriving with the accept
    // queue full is refused with a RST (counted in stats().accept_overflows)
    // instead of growing guest memory without bound — the L3 analogue of
    // admission control at the server layer.
    size_t tcp_accept_backlog = 64;
  };

  NetStack(FramePort* port, ciobase::SimClock* clock, Config config);

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  // Drains the port, dispatches packets, runs timers, flushes output.
  // Returns the link status: kLinkReset when the port reset + reattached
  // its ring this round (TCP retransmission recovers transparently; the
  // caller may want to know for accounting), kTimedOut when the port's
  // watchdog declared the link dead. Ok otherwise.
  ciobase::Status Poll();

  Ipv4Address ip() const { return config_.ip; }

  // In-sim profiler of the owning node ("tcp.poll" probe); null = disabled.
  void set_profiler(cioprof::ProfRegistry* profiler) { prof_ = profiler; }

  // --- UDP ------------------------------------------------------------------

  ciobase::Result<SocketId> UdpOpen(uint16_t local_port);  // 0 => ephemeral
  ciobase::Status UdpSendTo(SocketId socket, Ipv4Address dst, uint16_t port,
                            ciobase::ByteSpan payload);
  ciobase::Result<UdpMessage> UdpReceive(SocketId socket);
  ciobase::Status UdpClose(SocketId socket);

  // --- TCP ------------------------------------------------------------------

  ciobase::Result<SocketId> TcpListen(uint16_t port);
  ciobase::Result<SocketId> TcpConnect(Ipv4Address dst, uint16_t port);
  // Next pending connection on a listener, or kUnavailable.
  ciobase::Result<SocketId> TcpAccept(SocketId listener);
  ciobase::Result<size_t> TcpSend(SocketId socket, ciobase::ByteSpan data);
  // Reads received in-order bytes. Ok(0) = nothing pending yet (poll
  // again); kFailedPrecondition = orderly EOF (peer FIN drained);
  // kLinkReset = the connection died underneath the application (RST or
  // retransmission exhaustion) and must be re-established.
  ciobase::Result<size_t> TcpReceive(SocketId socket,
                                     ciobase::MutableByteSpan out);
  ciobase::Status TcpClose(SocketId socket);
  ciobase::Status TcpAbort(SocketId socket);
  ciobase::Result<TcpState> GetTcpState(SocketId socket) const;
  ciobase::Result<TcpConnection::Stats> GetTcpStats(SocketId socket) const;

  // --- Readiness (poll-loop support) ----------------------------------------
  // These are cheap state queries so a server can skip idle sockets.

  // Connections queued on a listener, not yet TcpAccept'ed.
  ciobase::Result<size_t> TcpAcceptPending(SocketId listener) const;
  // True when TcpReceive would make progress: buffered bytes, a drained
  // FIN (EOF to report), or a dead connection (kLinkReset to report).
  ciobase::Result<bool> TcpReadable(SocketId socket) const;
  // Free send-buffer space; 0 means TcpSend would accept nothing.
  ciobase::Result<size_t> TcpSendSpace(SocketId socket) const;
  // Remote address of a connection (server-side reattach key).
  ciobase::Result<Ipv4Address> GetTcpPeer(SocketId socket) const;

  struct Stats {
    uint64_t frames_rx = 0;
    uint64_t frames_tx = 0;
    uint64_t arp_rx = 0;
    uint64_t ipv4_rx = 0;
    uint64_t tcp_rx = 0;
    uint64_t udp_rx = 0;
    uint64_t parse_errors = 0;
    uint64_t checksum_errors = 0;
    uint64_t no_socket_drops = 0;
    uint64_t rst_sent = 0;
    uint64_t accept_overflows = 0;  // SYNs refused: accept queue full
    uint64_t link_resets = 0;    // port returned kLinkReset
    uint64_t link_timeouts = 0;  // port returned kTimedOut
  };
  const Stats& stats() const { return stats_; }

 private:
  enum class SocketType { kUdp, kTcpListener, kTcpConnection };

  struct Socket {
    SocketType type;
    uint16_t local_port = 0;
    // UDP
    std::deque<UdpMessage> udp_queue;
    // Listener
    std::deque<SocketId> accept_queue;
    // Connection
    std::unique_ptr<TcpConnection> conn;
    bool close_requested = false;
  };

  cioprof::ProfRegistry* prof_ = nullptr;

  Socket* Find(SocketId id);
  const Socket* Find(SocketId id) const;
  SocketId NewSocket(Socket socket);
  uint16_t AllocatePort();
  bool PortInUse(uint16_t port) const;
  Ipv4Address NextHop(Ipv4Address dst) const;

  void SendFrameTo(MacAddress dst, uint16_t ether_type,
                   ciobase::ByteSpan payload);
  void SendIpv4(Ipv4Address dst, uint8_t protocol, ciobase::ByteSpan payload);
  // Sends every queued packet whose next hop now resolves.
  void FlushArpPending();
  void HandleFrame(ciobase::ByteSpan frame);
  void HandleIpv4(ciobase::ByteSpan packet);
  void HandleTcp(const Ipv4Header& ip, ciobase::ByteSpan segment);
  void HandleUdp(const Ipv4Header& ip, ciobase::ByteSpan datagram);
  void SendRst(const Ipv4Header& ip, const TcpHeader& header,
               size_t payload_size);
  void FlushTcpOutput(Socket& socket);

  // TX batching: while a batch is open (depth > 0), SendFrameTo stages
  // frames instead of sending them; closing the outermost batch hands the
  // whole run to port_->SendFrames() — one host-counter read and one
  // doorbell per batch on ring-backed ports. Poll() and FlushTcpOutput()
  // open batches; nesting collapses to the outermost scope.
  void FlushTxBatch();

  FramePort* port_;
  ciobase::SimClock* clock_;
  Config config_;
  ciobase::Rng rng_;
  ArpCache arp_;
  Ipv4Reassembler reassembler_;

  uint32_t next_socket_id_ = 1;
  std::map<uint32_t, Socket> sockets_;
  std::map<TcpEndpointId, SocketId> tcp_demux_;
  uint16_t next_ephemeral_ = 49152;
  uint16_t ip_ident_ = 1;

  struct PendingPacket {
    Ipv4Address next_hop;
    uint16_t ether_type;
    ciobase::Buffer payload;
  };
  std::vector<PendingPacket> arp_pending_;
  static constexpr size_t kMaxArpPending = 64;

  // Batched datapath state (capacity reused across rounds; see FlushTxBatch
  // and Poll). kRxBatchFrames bounds how many frames one ReceiveFrames call
  // may hand us before we dispatch them.
  static constexpr size_t kRxBatchFrames = 32;
  FrameBatch rx_batch_;
  ciobase::FrameArena tx_arena_;
  std::vector<ciobase::Buffer> tx_staged_;
  std::vector<ciobase::ByteSpan> tx_spans_;
  int tx_batch_depth_ = 0;

  Stats stats_;
};

}  // namespace cionet

#endif  // SRC_NET_STACK_H_
