#include "src/cio/engine.h"

#include <algorithm>
#include <cassert>

#include "src/base/log.h"
#include "src/prof/profiler.h"
#include "src/tee/attestation.h"

namespace cio {

namespace {

// Wraps the syscall profile's host-side port: the host kernel runs this TCP
// stack itself, so on top of the syscall metadata it also sees every frame
// (a syscall-level design leaks a superset of what a network observer gets).
class ObservedPort final : public cionet::FramePort {
 public:
  ObservedPort(std::unique_ptr<cionet::DirectFabricPort> inner,
               ciohost::ObservabilityLog* observability,
               ciobase::SimClock* clock)
      : inner_(std::move(inner)),
        observability_(observability),
        clock_(clock) {}

  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override {
    auto sent = inner_->SendFrames(frames);
    if (sent.ok()) {
      for (size_t i = 0; i < *sent; ++i) {
        observability_->Record(ciohost::ObsCategory::kPacketLength,
                               frames[i].size());
        observability_->Record(ciohost::ObsCategory::kPacketTiming,
                               clock_->now_ns());
      }
    }
    return sent;
  }
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override {
    auto got = inner_->ReceiveFrames(batch, max_frames);
    if (got.ok()) {
      for (size_t i = 0; i < *got; ++i) {
        observability_->Record(ciohost::ObsCategory::kPacketLength,
                               batch[i].size());
        observability_->Record(ciohost::ObsCategory::kPacketTiming,
                               clock_->now_ns());
      }
    }
    return got;
  }
  cionet::MacAddress mac() const override { return inner_->mac(); }
  uint16_t mtu() const override { return inner_->mtu(); }

 private:
  std::unique_ptr<cionet::DirectFabricPort> inner_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
};

}  // namespace

// --- Byte-stream plumbing ------------------------------------------------------

// Syscall-level I/O (Graphene/SCONE style): the socket lives in the HOST
// network stack; every data-carrying operation is a host exit with a
// boundary copy, and its type, arguments, and exact size are host-visible.
struct ConfidentialNode::SyscallOps final : SocketLayer {
  ConfidentialNode* node;
  explicit SyscallOps(ConfidentialNode* n) : node(n) {}

  void RecordCall(uint64_t arg) {
    node->observability_.Record(ciohost::ObsCategory::kCallType, 0);
    node->observability_.Record(ciohost::ObsCategory::kCallArgs, arg);
  }

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    node->costs_.ChargeHostExit();
    RecordCall((static_cast<uint64_t>(ip.value) << 16) | port);
    return node->host_stack_->TcpConnect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    node->costs_.ChargeHostExit();
    RecordCall(port);
    return node->host_stack_->TcpListen(port);
  }
  ciobase::Result<cionet::SocketId> Accept(cionet::SocketId id) override {
    auto result = node->host_stack_->TcpAccept(id);
    if (result.ok()) {
      // The accept timing itself is a host-visible event [3].
      node->costs_.ChargeHostExit();
      RecordCall(node->clock_->now_ns());
    }
    return result;
  }
  ciobase::Result<cionet::TcpState> State(cionet::SocketId id) override {
    return node->host_stack_->GetTcpState(id);
  }
  ciobase::Status Close(cionet::SocketId id) override {
    node->costs_.ChargeHostExit();
    RecordCall(id.value);
    return node->host_stack_->TcpClose(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    node->costs_.ChargeHostExit();
    RecordCall(id.value);
    return node->host_stack_->TcpAbort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    node->costs_.ChargeHostExit();
    node->costs_.ChargeCopy(data.size());  // guest -> host buffer
    node->observability_.Record(ciohost::ObsCategory::kCallType, 1);
    node->observability_.Record(ciohost::ObsCategory::kMessageBoundary,
                                data.size());
    if (!node->config_.use_tls && !data.empty()) {
      node->observability_.Record(ciohost::ObsCategory::kPayload, data.size());
    }
    return node->host_stack_->TcpSend(id, data);
  }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    out.resize(max);
    auto got = node->host_stack_->TcpReceive(id, out);
    if (!got.ok()) {
      out.clear();
      return got.status();
    }
    if (*got > 0) {
      node->costs_.ChargeHostExit();
      node->costs_.ChargeCopy(*got);  // host buffer -> guest
      node->observability_.Record(ciohost::ObsCategory::kCallType, 2);
      node->observability_.Record(ciohost::ObsCategory::kMessageBoundary, *got);
      if (!node->config_.use_tls) {
        node->observability_.Record(ciohost::ObsCategory::kPayload, *got);
      }
    }
    out.resize(*got);
    return *got;
  }
  ciobase::Result<cionet::Ipv4Address> Peer(cionet::SocketId id) override {
    return node->host_stack_->GetTcpPeer(id);
  }
  ciobase::Status Poll() override { return node->host_stack_->Poll(); }
};

// Guest-owned stack over some FramePort (passthrough / hardened virtio):
// a single trust domain containing app + TLS + stack + driver.
struct ConfidentialNode::GuestStackOps final : SocketLayer {
  ConfidentialNode* node;
  explicit GuestStackOps(ConfidentialNode* n) : node(n) {}

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    return node->guest_stack_->TcpConnect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    return node->guest_stack_->TcpListen(port);
  }
  ciobase::Result<cionet::SocketId> Accept(cionet::SocketId id) override {
    return node->guest_stack_->TcpAccept(id);
  }
  ciobase::Result<cionet::TcpState> State(cionet::SocketId id) override {
    return node->guest_stack_->GetTcpState(id);
  }
  ciobase::Status Close(cionet::SocketId id) override {
    return node->guest_stack_->TcpClose(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    return node->guest_stack_->TcpAbort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    return node->guest_stack_->TcpSend(id, data);
  }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    out.resize(max);
    auto got = node->guest_stack_->TcpReceive(id, out);
    if (!got.ok()) {
      out.clear();
      return got.status();
    }
    out.resize(*got);
    return *got;
  }
  ciobase::Result<cionet::Ipv4Address> Peer(cionet::SocketId id) override {
    return node->guest_stack_->GetTcpPeer(id);
  }
  void PollDevice() {
    if (node->virtio_device_ != nullptr) {
      node->virtio_device_->Poll();
    }
    if (node->dda_device_ != nullptr) {
      node->dda_device_->Poll();
    }
  }
  ciobase::Status Poll() override {
    // Device before AND after the stack: the host backend runs concurrently
    // with the guest in reality, so frames the stack emits this round must
    // not be stranded in the ring until the next simulation round.
    PollDevice();
    ciobase::Status link = node->guest_stack_->Poll();
    PollDevice();
    return link;
  }
};

// Dual-boundary: the stack lives in the I/O compartment; all socket calls
// cross the L5 channel.
struct ConfidentialNode::DualBoundaryOps final : SocketLayer {
  ConfidentialNode* node;
  explicit DualBoundaryOps(ConfidentialNode* n) : node(n) {}

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    return node->l5_->Connect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    return node->l5_->Listen(port);
  }
  ciobase::Result<cionet::SocketId> Accept(cionet::SocketId id) override {
    return node->l5_->Accept(id);
  }
  ciobase::Result<cionet::TcpState> State(cionet::SocketId id) override {
    return node->l5_->State(id);
  }
  ciobase::Status Close(cionet::SocketId id) override {
    return node->l5_->Close(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    return node->l5_->Abort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    return node->l5_->SendOne(id, data);
  }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    return node->l5_->ReceiveOne(id, max, out);
  }
  ciobase::Result<cionet::Ipv4Address> Peer(cionet::SocketId id) override {
    return node->l5_->Peer(id);
  }
  ciobase::Status Poll() override {
    // The host backend fills RX first, so the doorbell harvests what the
    // fabric has delivered by now. Nothing polls it afterwards: the polled
    // backend services the ring at every guest publish (L2Transport's
    // `host_poll`), so frames this doorbell emits leave when they are
    // published, as a notify-mode kick would send them.
    node->l2_device_->Poll();
    return node->l5_->Doorbell();
  }
};

// --- ConfidentialNode ------------------------------------------------------------

ConfidentialNode::ConfidentialNode(cionet::Fabric* fabric,
                                   ciobase::SimClock* clock,
                                   StackConfig config)
    : config_(std::move(config)),
      ip_(cionet::Ipv4Address::FromOctets(
          10, 0, 0, static_cast<uint8_t>(config_.node_id))),
      clock_(clock),
      costs_(clock),
      adversary_(config_.seed ^ 0xadu),
      session_(config_.use_tls, config_.psk,
               config_.recovery.enabled ? config_.recovery.resend_window : 0,
               RekeyPolicy{config_.rekey_after_records,
                           config_.rekey_after_bytes}) {
  if (!config_.Valid()) {
    failed_ = true;
    return;
  }
  if (config_.profiler != nullptr) {
    // One registry profiles one node: bind it to this node's clock + cost
    // model so probes below (session, stacks, rings, drivers) all attribute
    // through the same counter snapshots.
    config_.profiler->Bind(clock, &costs_);
    costs_.set_profiler(config_.profiler);
    session_.set_profiler(config_.profiler);
  }
  cionet::MacAddress mac = cionet::MacAddress::FromId(config_.node_id);
  std::string name = "node-" + std::to_string(config_.node_id);
  cionet::NetStack::Config stack_config;
  stack_config.ip = ip_;
  stack_config.seed = config_.seed;
  stack_config.tcp_tuning = config_.tcp_tuning;
  stack_config.tcp_accept_backlog = config_.accept_backlog;

  switch (config_.profile) {
    case StackProfile::kSyscallL5: {
      host_port_ = std::make_unique<ObservedPort>(
          std::make_unique<cionet::DirectFabricPort>(fabric, name, mac),
          &observability_, clock);
      host_stack_ = std::make_unique<cionet::NetStack>(host_port_.get(),
                                                       clock, stack_config);
      ops_ = std::make_unique<SyscallOps>(this);
      break;
    }
    case StackProfile::kPassthroughL2:
    case StackProfile::kHardenedVirtio:
    case StackProfile::kTunneledL2: {
      auto layout = ciovirtio::VirtioNetLayout::Make(128, 2048, 256);
      shared_ = std::make_unique<ciotee::SharedRegion>(
          &memory_, layout.TotalSize(), name + "-virtio");
      virtio_device_ = std::make_unique<ciovirtio::VirtioNetDevice>(
          shared_.get(), layout, fabric, name, mac, 1500,
          ciovirtio::kFeatureMac | ciovirtio::kFeatureMtu |
              ciovirtio::kFeatureCsum | ciovirtio::kFeatureVersion1 |
              ciovirtio::kFeatureIndirectDesc,
          &adversary_, &observability_, clock);
      ciovirtio::HardeningOptions hardening =
          config_.profile == StackProfile::kHardenedVirtio
              ? ciovirtio::HardeningOptions::Full()
              : ciovirtio::HardeningOptions::Passthrough();
      virtio_driver_ = std::make_unique<ciovirtio::VirtioNetDriver>(
          shared_.get(), layout, virtio_device_.get(), &costs_, hardening,
          &observability_, config_.recovery);
      if (!virtio_driver_->Negotiate().ok()) {
        failed_ = true;
        break;
      }
      if (config_.profile == StackProfile::kTunneledL2) {
        // LightBox-style: the tunnel wraps the raw port; one endpoint of a
        // pair must be the initiator (odd node ids initiate).
        tunnel_port_ = std::make_unique<TunnelPort>(
            virtio_driver_.get(),
            ciobase::BufferFromString("tunnel-gateway-psk-32-bytes....."),
            config_.node_id % 2 == 1, &costs_);
        guest_stack_ = std::make_unique<cionet::NetStack>(tunnel_port_.get(),
                                                          clock,
                                                          stack_config);
      } else {
        guest_stack_ = std::make_unique<cionet::NetStack>(
            virtio_driver_.get(), clock, stack_config);
      }
      ops_ = std::make_unique<GuestStackOps>(this);
      break;
    }
    case StackProfile::kDirectDevice: {
      // §3.4: SPDM-attested device with an IDE-protected link. The
      // provisioning secret stands in for the SPDM key exchange; it is
      // bound to the expected device measurement by the verifier check.
      static constexpr char kPlatformKey[] = "pcie-cert-chain-root";
      static constexpr char kProvisioning[] = "spdm-session-secret";
      DdaConfig dda_config;
      dda_config.mac = mac;
      DdaLayout layout(dda_config);
      shared_ = std::make_unique<ciotee::SharedRegion>(&memory_, layout.total,
                                                       name + "-dda");
      device_authority_ = std::make_unique<ciotee::AttestationAuthority>(
          ciobase::BufferFromString(kPlatformKey));
      dda_device_ = std::make_unique<DdaDevice>(
          shared_.get(), dda_config, fabric, name, device_authority_.get(),
          ciobase::BufferFromString(kProvisioning), &adversary_,
          &observability_, clock);
      dda_transport_ = std::make_unique<DdaTransport>(
          shared_.get(), dda_config, dda_device_.get(), &costs_,
          device_authority_.get(), config_.seed ^ 0x5bd);
      if (!dda_transport_->Attest(ciobase::BufferFromString(kProvisioning))
               .ok()) {
        failed_ = true;
        break;
      }
      guest_stack_ = std::make_unique<cionet::NetStack>(dda_transport_.get(),
                                                        clock, stack_config);
      ops_ = std::make_unique<GuestStackOps>(this);
      break;
    }
    case StackProfile::kDualBoundary: {
      L2Config l2_config;
      l2_config.mac = mac;
      l2_config.mtu = 1500;
      l2_config.ring_slots = 256;
      l2_config.slot_size = 2048;
      l2_config.positioning = config_.l2_positioning;
      l2_config.rx_ownership = config_.l2_rx_ownership;
      l2_config.polling = config_.l2_polling;
      L2Layout layout(l2_config);
      shared_ = std::make_unique<ciotee::SharedRegion>(&memory_, layout.total,
                                                       name + "-l2");
      l2_device_ = std::make_unique<L2HostDevice>(shared_.get(), l2_config,
                                                  fabric, name, &adversary_,
                                                  &observability_, clock);
      l2_transport_ = std::make_unique<L2Transport>(
          shared_.get(), l2_config, &costs_, l2_device_.get(),
          config_.recovery, [device = l2_device_.get()] { device->Poll(); });
      l2_transport_->set_sealed_rx(config_.l2_sealed_rx);
      guest_stack_ = std::make_unique<cionet::NetStack>(l2_transport_.get(),
                                                        clock, stack_config);
      compartments_ = std::make_unique<ciotee::CompartmentManager>(&costs_);
      app_compartment_ = compartments_->Create("app", 4 << 20);
      io_compartment_ = compartments_->Create("io-stack", 4 << 20);
      // Single distrust: the app may reach into the I/O heap; the I/O
      // stack gets NO grant into app memory (ternary model, §3.1).
      compartments_->GrantAccess(app_compartment_, io_compartment_);
      l5_ = std::make_unique<L5Channel>(
          compartments_.get(), app_compartment_, io_compartment_,
          guest_stack_.get(), &costs_, config_.l5_receive,
          config_.l5_boundary, config_.l5_queue);
      ops_ = std::make_unique<DualBoundaryOps>(this);
      break;
    }
  }
  if (config_.profiler != nullptr) {
    if (guest_stack_ != nullptr) guest_stack_->set_profiler(config_.profiler);
    if (host_stack_ != nullptr) host_stack_->set_profiler(config_.profiler);
  }
}

ConfidentialNode::~ConfidentialNode() = default;

ciobase::Status ConfidentialNode::Listen(uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto listener = ops_->Listen(port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  listening_ = true;
  listen_port_ = port;
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Connect(cionet::Ipv4Address peer,
                                          uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto socket = ops_->Connect(peer, port);
  if (!socket.ok()) {
    return socket.status();
  }
  socket_ = *socket;
  have_socket_ = true;
  is_client_ = true;
  peer_ip_ = peer;
  peer_port_ = port;
  session_.Start(ciotls::TlsRole::kClient, config_.seed);
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Disconnect() {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  if (have_socket_) {
    // Orderly FIN first (buffered data flushes), then release every pool
    // slot / held CQE / armed counter the socket still pins — the churn
    // loop must return the node to exact pool-accounting zero.
    (void)ops_->Close(socket_);
    if (l5_ != nullptr) {
      l5_->CancelSocket(socket_);
    }
  }
  have_socket_ = false;
  connected_transport_ = false;
  is_client_ = false;
  admitted_ = false;
  reconnect_pending_ = false;
  resend_pending_ = false;
  reconnect_attempts_ = 0;
  reconnect_backoff_ns_ = 0;
  RetireSessionStats();
  session_.Forget();
  ++sessions_retired_;
  return ciobase::OkStatus();
}

void ConfidentialNode::RetireSessionStats() {
  const Session::Stats& s = session_.stats();
  retired_.sent += s.messages_sent;
  retired_.received += s.messages_received;
  retired_.resent += s.messages_resent;
  retired_.dups += s.messages_duplicate_dropped;
  retired_.lost += s.messages_lost;
  retired_.tls_restarts += s.tls_restarts;
  retired_.rekeys += s.rekeys;
}

bool ConfidentialNode::Ready() const {
  if (failed_ || !have_socket_ || !connected_transport_) {
    return false;
  }
  return session_.Established();
}

bool ConfidentialNode::Failed() const {
  // With recovery enabled a dead TLS session is a fault in flight, not a
  // terminal state — Poll() tears it down and re-establishes.
  return failed_ || (!config_.recovery.enabled && session_.TlsFailed());
}

void ConfidentialNode::PumpBytes() {
  if (!have_socket_) {
    return;
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.pump");
  // Flush pending protected bytes into the transport, as far as it allows.
  auto flush = [this] {
    while (have_socket_ && session_.HasOutbound()) {
      auto sent = ops_->SendBytes(socket_, session_.outbound());
      if (!sent.ok() || *sent == 0) {
        break;
      }
      session_.ConsumeOutbound(*sent);
    }
  };
  flush();
  // Drain inbound bytes into the reusable scratch chunk: the steady-state
  // receive path allocates nothing per round. On the L5 channel this is a
  // drain of what the doorbell already harvested — no crossing.
  for (;;) {
    auto got = ops_->ReceiveBytes(socket_, 16384, rx_scratch_);
    if (!got.ok()) {
      if (got.status().code() == ciobase::StatusCode::kFailedPrecondition) {
        break;  // orderly EOF: the peer closed on purpose — not a fault
      }
      BeginRecovery(got.status().message().c_str());
      break;
    }
    if (*got == 0) {
      break;
    }
    ciobase::Status ingested = session_.Ingest(rx_scratch_);
    if (!ingested.ok()) {
      if (ingested.code() == ciobase::StatusCode::kTampered) {
        failed_ = true;  // hostile framing inside the protected stream
      } else {
        BeginRecovery(ingested.message().c_str());
      }
      break;
    }
  }
  flush();  // a handshake reply flight produced while ingesting leaves now
}

void ConfidentialNode::BeginRecovery(const char* reason) {
  if (!config_.recovery.enabled) {
    failed_ = true;
    return;
  }
  CIO_LOG(kDebug) << "link recovery (" << reason << ")";
  ++recovery_stats_.link_errors;
  recovery_stats_.last_fault_ns = clock_->now_ns();
  if (have_socket_) {
    (void)ops_->Abort(socket_);
  }
  have_socket_ = false;
  connected_transport_ = false;
  session_.ResetChannel();
  if (l5_ != nullptr) {
    // Ring epoch reset: everything still queued in the SQ/CQ is abandoned
    // (its payloads live in the resend window) and any completions the old
    // generation still posts reap as stale instead of as tampering.
    l5_->AbandonInFlight();
  }
  reconnect_pending_ = true;
  resend_pending_ = true;
  if (reconnect_backoff_ns_ == 0) {
    reconnect_backoff_ns_ = config_.recovery.backoff_initial_ns;
  }
  next_reconnect_ns_ = clock_->now_ns() + reconnect_backoff_ns_;
}

void ConfidentialNode::PollRecovery() {
  if (!config_.recovery.enabled || failed_) {
    return;
  }
  uint64_t now = clock_->now_ns();
  // Client side: re-establish TCP + TLS with capped exponential backoff.
  // (The server keeps listening; Poll()'s accept branch re-arms it.)
  if (reconnect_pending_ && is_client_ && !have_socket_ &&
      now >= next_reconnect_ns_) {
    if (reconnect_attempts_ >= config_.recovery.max_reconnects) {
      failed_ = true;  // the host never let a connection live again
      return;
    }
    ++reconnect_attempts_;
    ++recovery_stats_.reconnects;
    auto socket = ops_->Connect(peer_ip_, peer_port_);
    if (socket.ok()) {
      socket_ = *socket;
      have_socket_ = true;
      session_.Start(ciotls::TlsRole::kClient, config_.seed);
    }
    // If this attempt dies too, the next one waits twice as long (capped).
    reconnect_backoff_ns_ = std::min(reconnect_backoff_ns_ * 2,
                                     config_.recovery.backoff_cap_ns);
    next_reconnect_ns_ = now + reconnect_backoff_ns_;
  }
  // Both sides: once the channel is back, replay the resend window. The
  // receiver's sequence numbers drop whatever was already delivered.
  if (resend_pending_ && Ready()) {
    resend_pending_ = false;
    reconnect_pending_ = false;
    reconnect_attempts_ = 0;
    reconnect_backoff_ns_ = 0;
    recovery_stats_.last_recovery_ns = now;
    (void)session_.Replay();
    PumpBytes();
  }
}

void ConfidentialNode::PollControlPlane() {
  while (session_.HasControl()) {
    auto msg = session_.PollControl();
    if (!msg.has_value()) {
      break;
    }
    switch (static_cast<CtrlType>(msg->type)) {
      case CtrlType::kAttestChallenge: {
        // Bind the report to this connection: nonce = H(challenge ||
        // transcript), so a report lifted from another connection or signed
        // over an old challenge fails verification. A node without a
        // platform key answers with an empty report and takes the typed
        // rejection.
        ciobase::Buffer report_bytes;
        if (!config_.attestation_key.empty()) {
          ciocrypto::Sha256Digest transcript{};
          if (session_.tls() != nullptr) {
            transcript = session_.tls()->transcript_hash();
          }
          // Stale-probe hook: sign zeros instead of the fresh challenge,
          // modeling a replayed report.
          ciobase::Buffer challenge =
              config_.attest_stale_probe
                  ? ciobase::Buffer(msg->body.size(), 0)
                  : msg->body;
          ciotee::AttestationAuthority authority(config_.attestation_key);
          ciotee::AttestationReport report = authority.Issue(
              ciotee::Measure(config_.code_identity, {}),
              ciotee::BindNonce(challenge, transcript));
          report_bytes = report.Serialize();
        }
        (void)session_.SendControl(CtrlType::kAttestReport, report_bytes);
        PumpBytes();
        break;
      }
      case CtrlType::kAdmitted:
        admitted_ = true;
        break;
      case CtrlType::kDenied:
        // Terminal: reconnecting with the same credential would only burn
        // the recovery budget on guaranteed kUnauthenticated rejections.
        denied_ = true;
        failed_ = true;
        return;
      case CtrlType::kRedirect: {
        if (msg->body.size() != 6 || !is_client_ ||
            !config_.recovery.enabled) {
          break;
        }
        cionet::Ipv4Address target{ciobase::LoadLe32(msg->body.data())};
        uint16_t port = static_cast<uint16_t>(
            msg->body[4] | static_cast<uint16_t>(msg->body[5]) << 8);
        // The session migrated: drop the transport to the old instance and
        // reconnect to the new one immediately (directed move, no backoff).
        // The resend window + fresh handshake restore exactly-once there.
        ++migrations_;
        if (have_socket_) {
          (void)ops_->Abort(socket_);
        }
        have_socket_ = false;
        connected_transport_ = false;
        session_.ResetChannel();
        if (l5_ != nullptr) {
          l5_->AbandonInFlight();
        }
        admitted_ = false;
        peer_ip_ = target;
        peer_port_ = port;
        reconnect_pending_ = true;
        resend_pending_ = true;
        if (reconnect_backoff_ns_ == 0) {
          reconnect_backoff_ns_ = config_.recovery.backoff_initial_ns;
        }
        next_reconnect_ns_ = clock_->now_ns();
        return;  // ResetChannel dropped the rest of the control inbox
      }
      default:
        break;  // unknown control types are ignored, not faults
    }
  }
}

bool ConfidentialNode::OnLinkStatus(const ciobase::Status& link) {
  if (link.code() == ciobase::StatusCode::kTimedOut) {
    // The transport's reset budget is exhausted: the host stopped the link
    // for good. Everything still in flight is lost.
    ++recovery_stats_.link_errors;
    recovery_stats_.last_fault_ns = clock_->now_ns();
    failed_ = true;
    return false;
  }
  // (kLinkReset needs no action here: the transport already reattached its
  // ring and TCP retransmission replays the frames that died with it.)
  if (link.code() == ciobase::StatusCode::kTampered && have_socket_) {
    // The L5 reaper rejected a forged completion: treat the channel as
    // faulted, as for any hostile bytes on the receive path.
    BeginRecovery(link.message().c_str());
  }
  return true;
}

void ConfidentialNode::Poll() {
  if (ops_ == nullptr) {
    return;
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.poll");
  early_doorbell_ = true;
  if (!OnLinkStatus(ops_->Poll())) {
    return;
  }

  // Server: adopt the first pending connection.
  if (listening_ && !have_socket_) {
    auto accepted = ops_->Accept(listener_);
    if (accepted.ok()) {
      socket_ = *accepted;
      have_socket_ = true;
      connected_transport_ = true;
      session_.Start(ciotls::TlsRole::kServer, config_.seed + 1);
    }
  }
  // Client: detect transport establishment (or its death mid-handshake).
  if (have_socket_ && !connected_transport_) {
    auto state = ops_->State(socket_);
    if (state.ok() && *state == cionet::TcpState::kEstablished) {
      connected_transport_ = true;
    }
    if (state.ok() && *state == cionet::TcpState::kClosed) {
      BeginRecovery("transport closed before establishment");
    }
  }
  // A dead TLS session is a fault to recover from, not a terminal state.
  if (config_.recovery.enabled && session_.TlsFailed()) {
    BeginRecovery("tls session failed");
  }
  PumpBytes();
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.ctrl");
    PollControlPlane();
  }
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.recovery");
    PollRecovery();
  }
}

ciobase::Status ConfidentialNode::SendMessage(ciobase::ByteSpan message) {
  if (!Ready()) {
    return ciobase::FailedPrecondition("link not ready");
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.send");
  CIO_RETURN_IF_ERROR(session_.Send(message));
  if (l5_ == nullptr || !l5_->queues_ready()) {
    PumpBytes();
    return ciobase::OkStatus();
  }
  // Async datapath: queue the sealed bytes in the SQ, front to back. Bytes
  // refused under SQ or pool pushback stay in outbound() and leave, in
  // order, at the next flush.
  auto queued = l5_->SubmitStream(socket_, session_.outbound());
  if (queued.ok()) {
    session_.ConsumeOutbound(*queued);
  }
  // The first send after a Poll() rings the doorbell at once, so a message
  // sent into an idle round leaves now instead of at the next Poll(); the
  // sends after it batch behind that Poll()'s doorbell.
  if (early_doorbell_) {
    early_doorbell_ = false;
    (void)OnLinkStatus(l5_->Doorbell());
  }
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::Buffer> ConfidentialNode::ReceiveMessage() {
  CIO_PROF_SCOPE(costs_.profiler(), "engine.reap");
  return session_.Receive();
}

ConfidentialNode::RecoveryStats ConfidentialNode::recovery_stats() const {
  RecoveryStats stats = recovery_stats_;
  const Session::Stats& session = session_.stats();
  stats.tls_restarts = session.tls_restarts + retired_.tls_restarts;
  stats.messages_resent = session.messages_resent + retired_.resent;
  stats.messages_duplicate_dropped =
      session.messages_duplicate_dropped + retired_.dups;
  stats.messages_lost = session.messages_lost + retired_.lost;
  return stats;
}

// --- LinkedPair ------------------------------------------------------------------

LinkedPair::LinkedPair(StackConfig client_config, StackConfig server_config,
                       cionet::Fabric::Options fabric_options) {
  fabric = std::make_unique<cionet::Fabric>(&clock, 4242, fabric_options);
  if (client_config.psk.empty()) {
    client_config.psk = ciobase::BufferFromString(
        "attestation-derived-link-key-0001");
  }
  if (server_config.psk.empty()) {
    server_config.psk = client_config.psk;
  }
  client = std::make_unique<ConfidentialNode>(fabric.get(), &clock,
                                              client_config);
  server = std::make_unique<ConfidentialNode>(fabric.get(), &clock,
                                              server_config);
}

void LinkedPair::Pump(uint64_t step_ns) {
  client->Poll();
  server->Poll();
  clock.Advance(step_ns);
}

bool LinkedPair::PumpUntil(const std::function<bool()>& done, int max_rounds,
                           uint64_t step_ns) {
  for (int i = 0; i < max_rounds; ++i) {
    Pump(step_ns);
    if (done()) {
      return true;
    }
  }
  return false;
}

bool LinkedPair::Establish(uint16_t port, int max_rounds) {
  if (!server->Listen(port).ok()) {
    return false;
  }
  if (!client->Connect(server->ip(), port).ok()) {
    return false;
  }
  return PumpUntil([&] { return client->Ready() && server->Ready(); },
                   max_rounds);
}

}  // namespace cio
