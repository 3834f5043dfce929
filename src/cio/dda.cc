#include "src/cio/dda.h"

#include <cassert>

#include "src/base/bits.h"
#include "src/crypto/hkdf.h"

namespace cio {

DdaLayout::DdaLayout(const DdaConfig& config)
    : slots(config.ring_slots), slot_size(config.slot_size) {
  tx_ring = 1024;
  rx_ring = tx_ring + slots * slot_size;
  total = rx_ring + slots * slot_size;
}

uint64_t DdaLayout::TxSlot(uint64_t index) const {
  return tx_ring + ciobase::MaskIndex(index, slots) * slot_size;
}

uint64_t DdaLayout::RxSlot(uint64_t index) const {
  return rx_ring + ciobase::MaskIndex(index, slots) * slot_size;
}

IdeKeys DeriveIdeKeys(ciobase::ByteSpan provisioning_secret,
                      ciobase::ByteSpan guest_nonce,
                      ciobase::ByteSpan device_nonce) {
  ciobase::Buffer salt(guest_nonce.begin(), guest_nonce.end());
  ciobase::Append(salt, device_nonce);
  ciocrypto::Sha256Digest prk =
      ciocrypto::HkdfExtract(salt, provisioning_secret);
  auto derive = [&](std::string_view label) {
    return ciotls::SealingKey(
        ciocrypto::HkdfExpandLabel(prk, label, {}, 32),
        ciocrypto::HkdfExpandLabel(prk, std::string(label) + " iv", {}, 12));
  };
  IdeKeys keys;
  keys.guest_to_device = derive("ide g2d");
  keys.device_to_guest = derive("ide d2g");
  return keys;
}

// --- DdaDevice -----------------------------------------------------------------

DdaDevice::DdaDevice(ciotee::SharedRegion* region, DdaConfig config,
                     cionet::Fabric* fabric, std::string name,
                     std::optional<cionet::Ipv4Address> ip,
                     const ciotee::AttestationAuthority* authority,
                     ciobase::ByteSpan provisioning_secret,
                     ciohost::Adversary* adversary,
                     ciohost::ObservabilityLog* observability,
                     ciobase::SimClock* clock)
    : region_(region),
      config_(config),
      layout_(config),
      fabric_(fabric),
      endpoint_(fabric->Attach(std::move(name), config.mac, ip)),
      authority_(authority),
      provisioning_secret_(provisioning_secret.begin(),
                           provisioning_secret.end()),
      measurement_(ciotee::Measure(config.device_identity, {})),
      adversary_(adversary),
      observability_(observability),
      clock_(clock) {
  assert(region->size() >= layout_.total);
}

void DdaDevice::HandleAttestation() {
  // NOTE: the device reads the mailbox through HOST accessors because the
  // mailbox physically sits in host-visible memory; the device itself is
  // trusted, but its link to the guest is not.
  uint8_t flag = 0;
  region_->HostRead(layout_.RequestFlag(),
                    ciobase::MutableByteSpan(&flag, 1));
  if (flag != 1) {
    return;
  }
  uint8_t nonce[32];
  region_->HostRead(layout_.RequestNonce(), nonce);
  ciotee::AttestationReport report = authority_->Issue(measurement_, nonce);
  ciobase::Buffer body = report.Serialize();
  // Device nonce for key derivation rides along after the report.
  ciobase::Buffer device_nonce = rng_.Bytes(32);
  ciobase::Append(body, device_nonce);
  region_->HostWriteLe32(layout_.ResponseLen(),
                         static_cast<uint32_t>(body.size()));
  region_->HostWrite(layout_.ResponseBody(), body);
  region_->HostWriteU8(layout_.ResponseFlag(), 1);
  region_->HostWriteU8(layout_.RequestFlag(), 0);
  keys_ = DeriveIdeKeys(provisioning_secret_, nonce, device_nonce);
  ++stats_.attestations;
}

void DdaDevice::RelayTx() {
  if (!keys_.has_value()) {
    return;
  }
  for (;;) {
    uint64_t produced = region_->HostReadLe64(layout_.TxProduced());
    if (tx_consumed_ >= produced) {
      break;
    }
    uint64_t slot = layout_.TxSlot(tx_consumed_);
    uint32_t len = region_->HostReadLe32(slot);
    // PCIe-style structural framing: a TLP cannot exceed its slot.
    len = std::min<uint32_t>(len, static_cast<uint32_t>(
                                      config_.slot_size - 8));
    ciobase::Buffer sealed(len);
    region_->HostRead(slot + 8, sealed);
    ++tx_consumed_;
    region_->HostWriteLe64(layout_.TxConsumed(), tx_consumed_);
    if (sealed.size() <= ciotls::kRecordHeaderSize) {
      ++stats_.auth_failures;
      continue;
    }
    auto frame = keys_->guest_to_device.Open(
        ciotls::RecordType::kApplicationData,
        ciobase::ByteSpan(sealed).subspan(ciotls::kRecordHeaderSize));
    if (!frame.ok()) {
      ++stats_.auth_failures;  // host (or a bug) tampered with the TLP
      continue;
    }
    if (observability_ != nullptr) {
      // The host relay sees only the TLP size and timing (ciphertext).
      observability_->Record(ciohost::ObsCategory::kPacketLength,
                             sealed.size());
      observability_->Record(ciohost::ObsCategory::kPacketTiming,
                             clock_->now_ns());
    }
    ++stats_.frames_tx;
    (void)fabric_->Inject(endpoint_, *frame);
  }
}

void DdaDevice::RelayRx() {
  if (!keys_.has_value()) {
    return;
  }
  for (;;) {
    uint64_t consumed = region_->HostReadLe64(layout_.RxConsumed());
    if (rx_produced_ - consumed >= layout_.slots) {
      break;  // ring full
    }
    auto frame = fabric_->Poll(endpoint_);
    if (!frame.ok()) {
      break;
    }
    ciobase::Buffer sealed = keys_->device_to_guest.Seal(
        ciotls::RecordType::kApplicationData, *frame);
    if (observability_ != nullptr) {
      observability_->Record(ciohost::ObsCategory::kPacketLength,
                             sealed.size());
      observability_->Record(ciohost::ObsCategory::kPacketTiming,
                             clock_->now_ns());
    }
    uint64_t slot = layout_.RxSlot(rx_produced_);
    region_->HostWriteLe32(slot, static_cast<uint32_t>(sealed.size()));
    // The host relay can tamper with the ciphertext in flight...
    if (adversary_ != nullptr) {
      adversary_->MaybeCorruptPayload(sealed);
    }
    region_->HostWrite(slot + 8, sealed);
    ++rx_produced_;
    uint64_t published = rx_produced_;
    if (adversary_ != nullptr) {
      published = adversary_->MutatePublishedCounter(published);
    }
    region_->HostWriteLe64(layout_.RxProduced(), published);
    ++stats_.frames_rx;
  }
}

void DdaDevice::Poll() {
  HandleAttestation();
  RelayTx();
  RelayRx();
}

// --- DdaTransport ---------------------------------------------------------------

DdaTransport::DdaTransport(ciotee::SharedRegion* region, DdaConfig config,
                           DdaDevice* device, ciobase::CostModel* costs,
                           const ciotee::AttestationAuthority* verifier,
                           uint64_t seed)
    : region_(region),
      config_(config),
      layout_(config),
      device_(device),
      costs_(costs),
      verifier_(verifier),
      rng_(seed) {}

ciobase::Status DdaTransport::Attest(
    ciobase::ByteSpan provisioning_secret) {
  ciobase::Buffer nonce = rng_.Bytes(32);
  region_->GuestWrite(layout_.RequestNonce(), nonce);
  region_->GuestWriteU8(layout_.RequestFlag(), 1);
  device_->Poll();  // the device answers the mailbox
  costs_->ChargeNotify();
  uint8_t flag = region_->GuestReadU8(layout_.ResponseFlag());
  if (flag != 1) {
    return ciobase::Unavailable("device did not answer attestation");
  }
  uint32_t len = region_->GuestReadLe32(layout_.ResponseLen());
  if (len < 32 || len > 512) {
    return ciobase::Tampered("attestation response length invalid");
  }
  ciobase::Buffer body(len);
  region_->GuestRead(layout_.ResponseBody(), body);
  // The last 32 bytes are the device nonce; the rest is the report.
  ciobase::ByteSpan report_bytes(body.data(), body.size() - 32);
  ciobase::ByteSpan device_nonce(body.data() + body.size() - 32, 32);
  auto report = ciotee::AttestationReport::Parse(report_bytes);
  if (!report.ok()) {
    return report.status();
  }
  ciotee::Measurement expected =
      ciotee::Measure(config_.device_identity, {});
  CIO_RETURN_IF_ERROR(verifier_->Verify(*report, expected, nonce));
  keys_ = DeriveIdeKeys(provisioning_secret, nonce, device_nonce);
  return ciobase::OkStatus();
}

ciobase::Result<size_t> DdaTransport::SendFrames(
    std::span<const ciobase::ByteSpan> frames) {
  if (!keys_.has_value()) {
    return ciobase::FailedPrecondition("device not attested");
  }
  if (frames.empty()) {
    return static_cast<size_t>(0);
  }
  // Single fetch of the device's consumed pointer for the whole batch.
  uint64_t consumed = region_->GuestReadLe64(layout_.TxConsumed());
  uint64_t in_flight = tx_produced_ - std::min(consumed, tx_produced_);
  size_t sent = 0;
  ciobase::Status reject = ciobase::OkStatus();
  for (ciobase::ByteSpan frame : frames) {
    if (frame.size() > config_.mtu + cionet::kEthernetHeaderSize) {
      reject = ciobase::InvalidArgument("frame exceeds MTU");
      break;
    }
    if (in_flight >= layout_.slots) {
      ++stats_.ring_full;
      reject = ciobase::ResourceExhausted("tx ring full");
      break;
    }
    costs_->ChargeAead(frame.size());
    ciobase::Buffer sealed = keys_->guest_to_device.Seal(
        ciotls::RecordType::kApplicationData, frame);
    if (sealed.size() > config_.slot_size - 8) {
      reject = ciobase::InvalidArgument("sealed frame exceeds slot");
      break;
    }
    uint64_t slot = layout_.TxSlot(tx_produced_);
    uint8_t header[8] = {0};
    ciobase::StoreLe32(header, static_cast<uint32_t>(sealed.size()));
    region_->GuestWrite(slot, header);
    costs_->ChargeCopy(sealed.size());
    region_->GuestWrite(slot + 8, sealed);
    ++tx_produced_;
    ++in_flight;
    ++stats_.frames_sent;
    ++sent;
  }
  if (sent > 0) {
    // One producer publish for the whole accepted run.
    region_->GuestWriteLe64(layout_.TxProduced(), tx_produced_);
  }
  if (sent == 0 && !reject.ok()) {
    return reject;
  }
  return sent;
}

ciobase::Result<size_t> DdaTransport::ReceiveFrames(cionet::FrameBatch& batch,
                                                    size_t max_frames) {
  batch.Clear();
  if (!keys_.has_value()) {
    return ciobase::FailedPrecondition("device not attested");
  }
  costs_->ChargeRingPoll();
  // Single fetch of the device's produced pointer for the whole batch.
  uint64_t produced = region_->GuestReadLe64(layout_.RxProduced());
  uint64_t pending = produced - rx_consumed_;
  if (pending == 0 || pending > (1ULL << 63)) {
    return static_cast<size_t>(0);
  }
  uint64_t take = std::min<uint64_t>(pending, max_frames);
  for (uint64_t i = 0; i < take; ++i) {
    uint64_t slot = layout_.RxSlot(rx_consumed_);
    // Single fetch of the slot; the length is clamped by the framing.
    uint32_t len = region_->GuestReadLe32(slot);
    len = std::min<uint32_t>(len,
                             static_cast<uint32_t>(config_.slot_size - 8));
    ciobase::Buffer sealed(len);
    costs_->ChargeCopy(len);
    region_->GuestRead(slot + 8, sealed);
    ++rx_consumed_;

    if (sealed.size() <= ciotls::kRecordHeaderSize) {
      ++stats_.auth_failures;  // runt TLP dropped
      continue;
    }
    costs_->ChargeAead(sealed.size());
    auto frame = keys_->device_to_guest.Open(
        ciotls::RecordType::kApplicationData,
        ciobase::ByteSpan(sealed).subspan(ciotls::kRecordHeaderSize));
    if (!frame.ok()) {
      // IDE does the driver's defensive work: tampering becomes a drop.
      ++stats_.auth_failures;
      continue;
    }
    ++stats_.frames_received;
    batch.Push(*std::move(frame));
  }
  // One consumer publish for the whole drained run.
  region_->GuestWriteLe64(layout_.RxConsumed(), rx_consumed_);
  return batch.size();
}

std::vector<ciohost::SurfaceField> DdaTransport::AttackSurface() const {
  using ciohost::FieldKind;
  std::vector<ciohost::SurfaceField> surface;
  surface.push_back({FieldKind::kIndex, layout_.RxProduced(), 8});
  for (uint64_t i = 0; i < 4; ++i) {
    surface.push_back({FieldKind::kLength, layout_.RxSlot(i), 4});
  }
  surface.push_back(
      {FieldKind::kPayload, layout_.rx_ring,
       static_cast<uint32_t>(std::min<uint64_t>(
           layout_.slots * layout_.slot_size, 0xffffffffu))});
  return surface;
}

}  // namespace cio
