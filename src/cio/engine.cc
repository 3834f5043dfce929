#include "src/cio/engine.h"

#include <algorithm>

#include "src/base/bits.h"
#include "src/base/log.h"
#include "src/prof/profiler.h"
#include "src/tee/attestation.h"

namespace cio {

namespace {

// A dual-boundary node's app compartment arena: app-private buffers only.
constexpr size_t kAppHeapBytes = size_t{4} << 10;

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
    for (size_t i = 0; sent.ok() && i < *sent; ++i) {
      Observe(frames[i].size());
    }
    return sent;
  }
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override {
    auto got = inner_->ReceiveFrames(batch, max_frames);
    for (size_t i = 0; got.ok() && i < *got; ++i) {
      Observe(batch[i].size());
    }
    return got;
  }
  cionet::MacAddress mac() const override { return inner_->mac(); }
  uint16_t mtu() const override { return inner_->mtu(); }

 private:
  // Every frame's length and timing is host-visible.
  void Observe(size_t frame_bytes) {
    observability_->Record(ciohost::ObsCategory::kPacketLength, frame_bytes);
    observability_->Record(ciohost::ObsCategory::kPacketTiming,
                           clock_->now_ns());
  }

  std::unique_ptr<cionet::DirectFabricPort> inner_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
};

}  // namespace

// --- Byte-stream plumbing ------------------------------------------------------

// The sockets of a NetStack. Guest-owned (passthrough, hardened virtio,
// direct device, tunnel): one trust domain containing app + TLS + stack +
// driver. Host-owned (the syscall profile, Graphene/SCONE style): the socket
// lives in the HOST network stack, every data-carrying operation is a host
// exit with a boundary copy, and its type, arguments, and exact size are
// host-visible.
struct ConfidentialNode::StackOps final : SocketLayer {
  ConfidentialNode* node;
  cionet::NetStack* stack;
  bool host;  // the syscall profile's host-owned stack

  StackOps(ConfidentialNode* n, cionet::NetStack* s, bool h)
      : node(n), stack(s), host(h) {}

  // A host-visible control syscall: one exit, its type and argument seen.
  void Call(uint64_t arg) {
    if (host) {
      node->costs_.ChargeHostExit();
      node->observability_.Record(ciohost::ObsCategory::kCallType, 0);
      node->observability_.Record(ciohost::ObsCategory::kCallArgs, arg);
    }
  }
  // A host-visible data syscall (type 1 send, 2 receive): one exit, a copy
  // across the boundary, the exact size seen — and, without TLS, the bytes.
  void DataCall(uint64_t type, size_t bytes) {
    if (host) {
      node->costs_.ChargeHostExit();
      node->costs_.ChargeCopy(bytes);
      node->observability_.Record(ciohost::ObsCategory::kCallType, type);
      node->observability_.Record(ciohost::ObsCategory::kMessageBoundary,
                                  bytes);
      if (!node->config_.use_tls && bytes > 0) {
        node->observability_.Record(ciohost::ObsCategory::kPayload, bytes);
      }
    }
  }

  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override {
    Call((static_cast<uint64_t>(ip.value) << 16) | port);
    return stack->TcpConnect(ip, port);
  }
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override {
    Call(port);
    return stack->TcpListen(port);
  }
  ciobase::Result<Accepted> Accept(cionet::SocketId id) override {
    auto result = AcceptOn(*stack, id);
    if (result.ok()) {
      Call(node->clock_->now_ns());  // the accept timing is host-visible [3]
    }
    return result;
  }
  ciobase::Status Close(cionet::SocketId id) override {
    Call(id.value);
    return stack->TcpClose(id);
  }
  ciobase::Status Abort(cionet::SocketId id) override {
    Call(id.value);
    return stack->TcpAbort(id);
  }
  ciobase::Result<size_t> SendBytes(cionet::SocketId id,
                                    ciobase::ByteSpan data) override {
    DataCall(1, data.size());  // guest -> host buffer
    return stack->TcpSend(id, data);
  }
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId id, size_t max,
                                       ciobase::Buffer& out) override {
    out.resize(max);
    auto got = stack->TcpReceive(id, out);
    if (!got.ok()) {
      out.clear();
      return got.status();
    }
    if (*got > 0) {
      DataCall(2, *got);  // host buffer -> guest
    }
    out.resize(*got);
    return *got;
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
    ciobase::Status link = stack->Poll();
    PollDevice();
    return link;
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
      adversary_(config_.seed ^ 0xadu) {
  conn_.session = NewSession();
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
    conn_.session->set_profiler(config_.profiler);
  }
  cionet::MacAddress mac = cionet::MacAddress::FromId(config_.node_id);
  std::string name = "node-" + std::to_string(config_.node_id);
  cionet::NetStack::Config stack_config;
  stack_config.ip = ip_;
  stack_config.seed = config_.seed;
  stack_config.tcp_tuning = config_.tcp_tuning;
  stack_config.tcp_accept_backlog = config_.accept_backlog;

  cionet::FramePort* port = nullptr;  // frames under the node's one stack
  switch (config_.profile) {
    case StackProfile::kSyscallL5: {
      host_port_ = std::make_unique<ObservedPort>(
          std::make_unique<cionet::DirectFabricPort>(fabric, name, mac, ip_),
          &observability_, clock);
      port = host_port_.get();
      break;
    }
    case StackProfile::kPassthroughL2:
    case StackProfile::kHardenedVirtio:
    case StackProfile::kTunneledL2: {
      auto layout = ciovirtio::VirtioNetLayout::Make(128, 2048, 256);
      shared_ = std::make_unique<ciotee::SharedRegion>(
          &memory_, layout.TotalSize(), name + "-virtio");
      virtio_device_ = std::make_unique<ciovirtio::VirtioNetDevice>(
          shared_.get(), layout, fabric, name, ip_, mac, 1500,
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
      port = virtio_driver_.get();
      if (config_.profile == StackProfile::kTunneledL2) {
        // LightBox-style: the tunnel wraps the raw port; one endpoint of a
        // pair must be the initiator (odd node ids initiate).
        tunnel_port_ = std::make_unique<TunnelPort>(
            virtio_driver_.get(),
            ciobase::BufferFromString("tunnel-gateway-psk-32-bytes....."),
            config_.node_id % 2 == 1, &costs_);
        port = tunnel_port_.get();
      }
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
          shared_.get(), dda_config, fabric, name, ip_, device_authority_.get(),
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
      port = dda_transport_.get();
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
      l2_device_ = std::make_unique<L2HostDevice>(
          shared_.get(), l2_config, fabric, name, ip_, &adversary_,
          &observability_, clock);
      l2_transport_ = std::make_unique<L2Transport>(
          shared_.get(), l2_config, &costs_, l2_device_.get(),
          config_.recovery, [device = l2_device_.get()] { device->Poll(); });
      // Every payload byte is sealed end to end by the L5 AEAD layer, so
      // the defensive per-byte receive copy is redundant: snapshot headers.
      l2_transport_->set_sealed_rx(true);
      port = l2_transport_.get();
      break;
    }
  }
  if (port == nullptr) {
    return;  // the device failed to negotiate or attest
  }
  stack_ = std::make_unique<cionet::NetStack>(port, clock, stack_config);
  stack_->set_profiler(config_.profiler);
  if (config_.profile != StackProfile::kDualBoundary) {
    ops_ = std::make_unique<StackOps>(
        this, stack_.get(), config_.profile == StackProfile::kSyscallL5);
    return;
  }
  compartments_ = std::make_unique<ciotee::CompartmentManager>(&costs_);
  // Each arena is sized to what lands in it, so anything more fails as heap
  // exhaustion: the datapath allocates nothing in the app heap, and the I/O
  // heap holds the L5 queue region alone (Valid() capped that at
  // kIoHeapBytes). Pages the run never writes cost no host memory.
  app_compartment_ = compartments_->Create("app", kAppHeapBytes);
  io_compartment_ = compartments_->Create(
      "io-stack", ciobase::AlignUp(config_.l5_queue.TotalBytes(),
                                   ciotee::kCompartmentAllocAlign));
  // Single distrust: the app may reach into the I/O heap; the I/O stack
  // gets NO grant into app memory (ternary model, §3.1).
  compartments_->GrantAccess(app_compartment_, io_compartment_);
  auto l5 = std::make_unique<L5Channel>(
      compartments_.get(), app_compartment_, io_compartment_, stack_.get(),
      &costs_, config_.l5_receive, config_.l5_boundary, config_.l5_queue,
      [device = l2_device_.get()] { device->Poll(); });
  l5_ = l5.get();
  ops_ = std::move(l5);
}

ConfidentialNode::~ConfidentialNode() = default;

std::unique_ptr<Session> ConfidentialNode::NewSession() const {
  auto session = std::make_unique<Session>(
      config_.use_tls, config_.psk,
      config_.recovery.enabled ? config_.recovery.resend_window : 0,
      RekeyPolicy{config_.rekey_after_records, config_.rekey_after_bytes});
  session->set_profiler(costs_.profiler());
  return session;
}

ciobase::Status ConfidentialNode::Listen(uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  auto listener = ops_->Listen(port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Connect(cionet::Ipv4Address peer,
                                          uint16_t port) {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  if (conn_.open()) {
    return ciobase::FailedPrecondition("a connection is open or draining");
  }
  auto socket = ops_->Connect(peer, port);
  if (!socket.ok()) {
    return socket.status();
  }
  conn_.peer = peer;
  conn_.port = port;
  conn_.Open(*socket, ciotls::TlsRole::kClient, config_.seed);
  return ciobase::OkStatus();
}

ciobase::Status ConfidentialNode::Disconnect() {
  if (failed_ || ops_ == nullptr) {
    return ciobase::FailedPrecondition("node failed to initialize");
  }
  if (conn_.open()) {
    conn_.state = ConnState::kDraining;
    Flush();
    PollDrain();
  } else {
    Retire();  // nothing to drain (never connected, or mid-recovery)
  }
  return ciobase::OkStatus();
}

void ConfidentialNode::PollDrain() {
  // The orderly FIN; the socket's Close releases every pool slot / held
  // CQE / armed counter it still pins, so the churn loop returns the node
  // to exact pool-accounting zero.
  if (conn_.CloseIfDrained(*ops_)) {
    Retire();
  }
}

void ConfidentialNode::Retire() {
  const Session::Stats& s = conn_.session->stats();
  retired_.messages_sent += s.messages_sent;
  retired_.messages_received += s.messages_received;
  retired_.messages_resent += s.messages_resent;
  retired_.messages_duplicate_dropped += s.messages_duplicate_dropped;
  retired_.messages_lost += s.messages_lost;
  retired_.tls_restarts += s.tls_restarts;
  retired_.rekeys += s.rekeys;
  conn_ = Connection{};
  conn_.session = NewSession();
  admitted_ = false;
  ++sessions_retired_;
}

void ConfidentialNode::Flush() {
  auto queued = conn_.Flush(*ops_);
  if (l5_ != nullptr && queued.ok() && *queued > 0) {
    (void)OnLinkStatus(l5_->Doorbell());
  }
}

void ConfidentialNode::Pump() {
  if (!conn_.open()) {
    return;
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.pump");
  Flush();
  // (An orderly EOF is the peer closing on purpose: not a fault.)
  const DrainOutcome drained = conn_.Drain(*ops_, rx_scratch_, SIZE_MAX);
  if (drained == DrainOutcome::kFault) {
    BeginRecovery("transport or tls stream fault");
  } else if (drained == DrainOutcome::kTampered) {
    failed_ = true;  // hostile framing inside the protected stream
  }
  Flush();  // a handshake reply flight produced while ingesting leaves now
}

void ConfidentialNode::BeginRecovery(const char* reason) {
  if (!config_.recovery.enabled) {
    failed_ = true;
    return;
  }
  CIO_LOG(kDebug) << "link recovery (" << reason << ")";
  ++recovery_stats_.link_errors;
  recovery_stats_.last_fault_ns = clock_->now_ns();
  Teardown(/*redial_at_once=*/false);
}

void ConfidentialNode::Teardown(bool redial_at_once) {
  const bool draining = conn_.state == ConnState::kDraining;
  if (conn_.open()) {
    conn_.Abort(*ops_);
  }
  if (l5_ != nullptr) {
    // Ring epoch reset: everything still queued in the SQ/CQ is abandoned
    // (its payloads live in the resend window) and any completions the old
    // generation still posts reap as stale instead of as tampering.
    l5_->AbandonInFlight();
  }
  if (draining) {
    Retire();  // the drain ends with the link; nothing left to replay for
    return;
  }
  conn_.replay_due = true;
  if (conn_.backoff_ns == 0) {
    conn_.backoff_ns = config_.recovery.backoff_initial_ns;
  }
  conn_.next_reconnect_ns =
      clock_->now_ns() + (redial_at_once ? 0 : conn_.backoff_ns);
}

void ConfidentialNode::PollRecovery() {
  if (!config_.recovery.enabled || failed_) {
    return;
  }
  uint64_t now = clock_->now_ns();
  // Client role: re-establish TCP + TLS with capped exponential backoff.
  // (The server role keeps listening; Poll()'s accept re-arms it.)
  if (conn_.replay_due && conn_.port != 0 && !conn_.open() &&
      now >= conn_.next_reconnect_ns) {
    if (conn_.reconnect_attempts >= config_.recovery.max_reconnects) {
      failed_ = true;  // the host never let a connection live again
      return;
    }
    ++conn_.reconnect_attempts;
    ++recovery_stats_.reconnects;
    auto socket = ops_->Connect(conn_.peer, conn_.port);
    if (socket.ok()) {
      conn_.Open(*socket, ciotls::TlsRole::kClient, config_.seed);
    }
    // If this attempt dies too, the next one waits twice as long (capped).
    conn_.backoff_ns =
        std::min(conn_.backoff_ns * 2, config_.recovery.backoff_cap_ns);
    conn_.next_reconnect_ns = now + conn_.backoff_ns;
  }
  // Both roles: once the channel is back, replay the resend window.
  if (conn_.replay_due && Ready()) {
    recovery_stats_.last_recovery_ns = now;
    conn_.ReplayIfDue();
    Pump();
  }
}

void ConfidentialNode::PollControlPlane() {
  while (auto msg = conn_.session->PollControl()) {
    switch (static_cast<CtrlType>(msg->type)) {
      case CtrlType::kAttestChallenge: {
        // Bind the report to this connection (Connection::BindNonce). A
        // node without a platform key answers with an empty report and
        // takes the typed rejection.
        ciobase::Buffer report_bytes;
        if (!config_.attestation_key.empty()) {
          // Stale-probe hook: sign zeros instead of the fresh challenge,
          // modeling a replayed report.
          ciobase::Buffer challenge =
              config_.attest_stale_probe
                  ? ciobase::Buffer(msg->body.size(), 0)
                  : msg->body;
          ciotee::AttestationAuthority authority(config_.attestation_key);
          ciotee::AttestationReport report = authority.Issue(
              ciotee::Measure(config_.code_identity, {}),
              conn_.BindNonce(challenge));
          report_bytes = report.Serialize();
        }
        (void)conn_.session->SendControl(CtrlType::kAttestReport,
                                         report_bytes);
        Pump();
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
        if (msg->body.size() != 6 || conn_.port == 0 ||
            !config_.recovery.enabled) {
          break;
        }
        // The session migrated: drop the transport to the old instance and
        // reconnect to the new one immediately (directed move, no backoff).
        // The resend window + fresh handshake restore exactly-once there.
        ++migrations_;
        Teardown(/*redial_at_once=*/true);
        admitted_ = false;
        conn_.peer = cionet::Ipv4Address{ciobase::LoadLe32(msg->body.data())};
        conn_.port = ciobase::LoadLe16(msg->body.data() + 4);
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
  if (link.code() == ciobase::StatusCode::kTampered && conn_.open()) {
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
  // Server role: adopt the first pending connection.
  if (listener_.has_value() && !conn_.open()) {
    auto accepted = ops_->Accept(*listener_);
    if (accepted.ok()) {
      conn_.Open(accepted->socket, ciotls::TlsRole::kServer,
                 config_.seed + 1);
    }
  }
  // (A dial that dies before establishment reads as a reset in Pump's
  // drain and begins recovery there.)
  Pump();
  if (conn_.state == ConnState::kHandshaking && conn_.ChannelUp()) {
    conn_.state = ConnState::kEstablished;
  }
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.ctrl");
    PollControlPlane();
  }
  {
    CIO_PROF_SCOPE(costs_.profiler(), "engine.recovery");
    PollRecovery();
  }
  PollDrain();
}

ciobase::Status ConfidentialNode::SendMessage(ciobase::ByteSpan message) {
  if (!Ready()) {
    return ciobase::FailedPrecondition("link not ready");
  }
  CIO_PROF_SCOPE(costs_.profiler(), "engine.send");
  CIO_RETURN_IF_ERROR(conn_.session->Send(message));
  if (l5_ == nullptr) {
    Pump();  // the per-call profiles move the bytes at once
    return ciobase::OkStatus();
  }
  // The sealed bytes queue in the SQ with no crossing; bytes refused under
  // SQ or pool pushback stay in outbound() and leave, in order, at the next
  // flush. The first send after a Poll() rings the doorbell at once, so a
  // message sent into an idle round leaves now instead of at the next
  // Poll(); the sends after it batch behind that Poll()'s doorbell.
  (void)conn_.Flush(*ops_);
  if (early_doorbell_) {
    early_doorbell_ = false;
    (void)OnLinkStatus(l5_->Doorbell());
  }
  return ciobase::OkStatus();
}

ciobase::Result<ciobase::Buffer> ConfidentialNode::ReceiveMessage() {
  CIO_PROF_SCOPE(costs_.profiler(), "engine.reap");
  return conn_.session->Receive();
}

ConfidentialNode::RecoveryStats ConfidentialNode::recovery_stats() const {
  RecoveryStats stats = recovery_stats_;
  const Session::Stats& session = conn_.session->stats();
  stats.tls_restarts = session.tls_restarts + retired_.tls_restarts;
  stats.messages_resent = session.messages_resent + retired_.messages_resent;
  stats.messages_duplicate_dropped = session.messages_duplicate_dropped +
                                     retired_.messages_duplicate_dropped;
  stats.messages_lost = session.messages_lost + retired_.messages_lost;
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
