// Direct Device Assignment (§3.4): the TEE-I/O / TDISP alternative to
// hardened paravirtual interfaces.
//
// Instead of distrusting the device and hardening the driver interface,
// the hardware path extends PCIe with device attestation (SPDM) and link
// protection (IDE). Once the TEE has attested the device, the device joins
// the TCB, and the TEE<->device channel is AEAD-protected end to end —
// "there is no need to harden drivers": the host relaying the traffic can
// corrupt or replay TLPs, but every such attempt fails authentication and
// is dropped.
//
// Model:
//  * DdaDevice — the (genuinely trusted, once attested) device. It answers
//    SPDM-style attestation requests through a host-visible mailbox,
//    derives the IDE session keys, and relays frames between the IDE link
//    and the network fabric.
//  * DdaTransport — the guest driver: attests the device (nonce ->
//    HMAC-signed report -> verify measurement), derives the same keys, and
//    then exchanges IDE-sealed frames over a deliberately UNHARDENED
//    mailbox ring. The only structural defense the ring has is what PCIe
//    framing gives for free (fixed-size slots, so lengths are clamped by
//    construction); everything else — integrity, confidentiality,
//    ordering, replay — comes from the IDE AEAD with per-direction
//    sequence numbers (reusing the TLS record SealingKey).
//
// The trade-offs the paper lists are measurable here: the host sees only
// ciphertext TLP sizes and timings (observability like L2 or lower), the
// per-frame AEAD replaces the masking/copy discipline (bench_dda), and the
// device's own complexity is added to the TCB (tcb.cc).

#ifndef SRC_CIO_DDA_H_
#define SRC_CIO_DDA_H_

#include <memory>
#include <optional>

#include "src/base/clock.h"
#include "src/hostsim/adversary.h"
#include "src/hostsim/observability.h"
#include "src/net/fabric.h"
#include "src/net/port.h"
#include "src/tee/attestation.h"
#include "src/tee/shared_region.h"
#include "src/tls/record.h"

namespace cio {

struct DdaConfig {
  cionet::MacAddress mac;
  uint16_t mtu = 1500;
  uint16_t ring_slots = 256;   // power of two
  uint32_t slot_size = 2048;   // fixed TLP-like framing, power of two
  // The device's code identity; its measurement is what the guest expects.
  std::string device_identity = "cio-dda-nic-fw-v1";
};

// Mailbox layout: control area for the SPDM exchange + two one-way rings.
struct DdaLayout {
  explicit DdaLayout(const DdaConfig& config);
  // Control cells.
  uint64_t RequestFlag() const { return 0; }
  uint64_t RequestNonce() const { return 64; }    // 32 bytes
  uint64_t ResponseFlag() const { return 128; }
  uint64_t ResponseLen() const { return 132; }
  uint64_t ResponseBody() const { return 192; }   // up to 512 bytes
  // Counters.
  uint64_t TxProduced() const { return 704; }
  uint64_t TxConsumed() const { return 768; }
  uint64_t RxProduced() const { return 832; }
  uint64_t RxConsumed() const { return 896; }
  uint64_t TxSlot(uint64_t index) const;
  uint64_t RxSlot(uint64_t index) const;

  uint64_t slots;
  uint64_t slot_size;
  uint64_t tx_ring;
  uint64_t rx_ring;
  uint64_t total;
};

// Derives the per-direction IDE keys from the device provisioning secret
// (the SPDM session-key stand-in) and both nonces.
struct IdeKeys {
  ciotls::SealingKey guest_to_device;
  ciotls::SealingKey device_to_guest;
};
IdeKeys DeriveIdeKeys(ciobase::ByteSpan provisioning_secret,
                      ciobase::ByteSpan guest_nonce,
                      ciobase::ByteSpan device_nonce);

class DdaDevice {
 public:
  DdaDevice(ciotee::SharedRegion* region, DdaConfig config,
            cionet::Fabric* fabric, std::string name,
            std::optional<cionet::Ipv4Address> ip,
            const ciotee::AttestationAuthority* authority,
            ciobase::ByteSpan provisioning_secret,
            ciohost::Adversary* adversary,
            ciohost::ObservabilityLog* observability,
            ciobase::SimClock* clock);

  // Handles attestation requests and relays frames in both directions.
  void Poll();

  ciotee::Measurement measurement() const { return measurement_; }

  struct Stats {
    uint64_t attestations = 0;
    uint64_t frames_tx = 0;  // guest -> fabric
    uint64_t frames_rx = 0;  // fabric -> guest
    uint64_t auth_failures = 0;  // tampered TLPs from the "guest" side
  };
  const Stats& stats() const { return stats_; }

 private:
  void HandleAttestation();
  void RelayTx();
  void RelayRx();

  ciotee::SharedRegion* region_;
  DdaConfig config_;
  DdaLayout layout_;
  cionet::Fabric* fabric_;
  cionet::EndpointId endpoint_;
  const ciotee::AttestationAuthority* authority_;
  ciobase::Buffer provisioning_secret_;
  ciotee::Measurement measurement_;
  ciohost::Adversary* adversary_;
  ciohost::ObservabilityLog* observability_;
  ciobase::SimClock* clock_;
  ciobase::Rng rng_{0xdda};
  std::optional<IdeKeys> keys_;
  uint64_t tx_consumed_ = 0;
  uint64_t rx_produced_ = 0;
  Stats stats_;
};

class DdaTransport final : public cionet::FramePort {
 public:
  DdaTransport(ciotee::SharedRegion* region, DdaConfig config,
               DdaDevice* device, ciobase::CostModel* costs,
               const ciotee::AttestationAuthority* verifier,
               uint64_t seed);

  // SPDM-style handshake: challenge the device, verify its measurement,
  // derive the IDE keys. Must succeed before frames flow.
  ciobase::Status Attest(ciobase::ByteSpan provisioning_secret);

  // Batched IDE datapath: one TxConsumed read and one TxProduced publish
  // per send batch, one RxProduced read and one RxConsumed publish per
  // receive batch. Tampered TLPs fail IDE authentication and are silently
  // skipped inside the batch (counted in stats().auth_failures).
  ciobase::Result<size_t> SendFrames(
      std::span<const ciobase::ByteSpan> frames) override;
  ciobase::Result<size_t> ReceiveFrames(cionet::FrameBatch& batch,
                                        size_t max_frames) override;
  cionet::MacAddress mac() const override { return config_.mac; }
  uint16_t mtu() const override { return config_.mtu; }

  std::vector<ciohost::SurfaceField> AttackSurface() const;

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_received = 0;
    uint64_t auth_failures = 0;  // host tampered with the IDE link
    uint64_t ring_full = 0;
  };
  const Stats& stats() const { return stats_; }
  bool attested() const { return keys_.has_value(); }

 private:
  ciotee::SharedRegion* region_;
  DdaConfig config_;
  DdaLayout layout_;
  DdaDevice* device_;
  ciobase::CostModel* costs_;
  const ciotee::AttestationAuthority* verifier_;
  ciobase::Rng rng_;
  std::optional<IdeKeys> keys_;
  uint64_t tx_produced_ = 0;
  uint64_t rx_consumed_ = 0;
  Stats stats_;
};

}  // namespace cio

#endif  // SRC_CIO_DDA_H_
