#include "src/virtio/negotiation.h"

#include "src/base/coverage.h"

namespace ciovirtio {

void DeviceInitConfig(ciotee::SharedRegion* region, const ConfigLayout& layout,
                      uint64_t offered_features, cionet::MacAddress mac,
                      uint16_t mtu) {
  region->HostWriteU8(layout.StatusOffset(), 0);
  region->HostWriteLe64(layout.DeviceFeaturesOffset(), offered_features);
  region->HostWrite(layout.MacOffset(), mac.bytes);
  region->HostWriteLe16(layout.MtuOffset(), mtu);
}

uint8_t DeviceProcessStatus(ciotee::SharedRegion* region,
                            const ConfigLayout& layout,
                            uint64_t offered_features) {
  uint8_t status = 0;
  region->HostRead(layout.StatusOffset(), ciobase::MutableByteSpan(&status, 1));
  if ((status & kStatusFeaturesOk) != 0) {
    uint64_t driver_features =
        region->HostReadLe64(layout.DriverFeaturesOffset());
    if ((driver_features & ~offered_features) != 0) {
      // Driver asked for features we did not offer: clear FEATURES_OK.
      status = static_cast<uint8_t>(status & ~kStatusFeaturesOk);
      region->HostWriteU8(layout.StatusOffset(), status);
    }
  }
  return status;
}

ciobase::Result<NegotiatedConfig> DriverNegotiate(
    ciotee::SharedRegion* region, const ConfigLayout& layout,
    uint64_t wanted_features, bool restrict_features,
    ciohost::ObservabilityLog* observability) {
  auto observe = [&](uint64_t value) {
    if (observability != nullptr) {
      observability->Record(ciohost::ObsCategory::kConfigField, value);
    }
  };

  // Step 1-3: RESET, ACKNOWLEDGE, DRIVER. Each is a separate, stateful,
  // host-visible transition.
  region->GuestWriteU8(layout.StatusOffset(), 0);
  observe(0);
  region->GuestWriteU8(layout.StatusOffset(), kStatusAcknowledge);
  observe(kStatusAcknowledge);
  region->GuestWriteU8(layout.StatusOffset(),
                       kStatusAcknowledge | kStatusDriver);
  observe(kStatusAcknowledge | kStatusDriver);

  // Step 4: read device features (host-controlled; this is a fetch of
  // attacker data) and write back the subset we accept.
  uint64_t device_features =
      region->GuestReadLe64(layout.DeviceFeaturesOffset());
  observe(device_features);
  uint64_t accept = device_features & wanted_features;
  if (restrict_features) {
    // Hardening guidance: refuse the complex transport variants.
    accept &= ~(kFeatureIndirectDesc | kFeatureEventIdx | kFeatureMrgRxbuf);
  }
  region->GuestWriteLe64(layout.DriverFeaturesOffset(), accept);
  observe(accept);

  // Step 5: FEATURES_OK, then re-read to check the device kept it. This
  // read-back is itself a second fetch of host-controlled state: the window
  // between it and every later use of `accept` is exactly the ordering
  // vulnerability the paper describes. We snapshot everything we will rely
  // on *now*, in private memory, and never re-read it.
  region->GuestWriteU8(layout.StatusOffset(),
                       kStatusAcknowledge | kStatusDriver | kStatusFeaturesOk);
  observe(kStatusAcknowledge | kStatusDriver | kStatusFeaturesOk);
  uint8_t status = region->GuestReadU8(layout.StatusOffset());
  if ((status & kStatusFeaturesOk) == 0) {
    region->GuestWriteU8(layout.StatusOffset(),
                         static_cast<uint8_t>(status | kStatusFailed));
    CIO_COV("virtio.negotiate.features_rejected",
            ciobase::StatusCode::kHostViolation);
    return ciobase::HostViolation("device rejected features");
  }
  // Strict status check: an honest device either clears FEATURES_OK or
  // leaves the byte exactly as we wrote it. NEEDS_RESET, FAILED, a premature
  // DRIVER_OK, or garbage bits mean the host is improvising mid-dance —
  // refuse rather than carry hostile state into the data plane.
  constexpr uint8_t kExpectedAfterFeaturesOk =
      kStatusAcknowledge | kStatusDriver | kStatusFeaturesOk;
  if (status != kExpectedAfterFeaturesOk) {
    CIO_COV("virtio.negotiate.status_garbage",
            ciobase::StatusCode::kHostViolation);
    return ciobase::HostViolation("unexpected status bits after FEATURES_OK");
  }
  // Mid-flight re-negotiation check: the feature words are host-owned, so a
  // hostile device can advertise one feature set, watch us accept it, then
  // swap the words before we finish. We never *use* a re-read (the snapshot
  // in `accept` is authoritative), but a changed word is direct evidence of
  // an ordering attack — surface it as a typed violation instead of silently
  // proceeding on the snapshot.
  uint64_t device_features_again =
      region->GuestReadLe64(layout.DeviceFeaturesOffset());
  if (device_features_again != device_features) {
    observe(device_features_again);
    CIO_COV("virtio.negotiate.features_changed",
            ciobase::StatusCode::kHostViolation);
    return ciobase::HostViolation("device features changed mid-negotiation");
  }

  NegotiatedConfig config;
  config.features = accept;
  if ((accept & kFeatureMac) != 0) {
    region->GuestRead(layout.MacOffset(),
                      ciobase::MutableByteSpan(config.mac.bytes.data(), 6));
    observe(0);
  }
  if ((accept & kFeatureMtu) != 0) {
    uint16_t mtu = region->GuestReadLe16(layout.MtuOffset());
    observe(mtu);
    // Validate host-supplied MTU against sane bounds ("add checks").
    if (mtu < 68 || mtu > 9000) {
      CIO_COV("virtio.negotiate.hostile_mtu",
              ciobase::StatusCode::kHostViolation);
      return ciobase::HostViolation("hostile MTU");
    }
    config.mtu = mtu;
  }

  // Step 6: DRIVER_OK, then one read-back. The status byte is the host's
  // lever for forcing re-negotiation (NEEDS_RESET) — a driver that polls it
  // later would hand the host a control loop. We read it exactly once here,
  // require the exact value we wrote, and never consult it again.
  constexpr uint8_t kFinalStatus = kStatusAcknowledge | kStatusDriver |
                                   kStatusFeaturesOk | kStatusDriverOk;
  region->GuestWriteU8(layout.StatusOffset(), kFinalStatus);
  observe(0);
  if (uint8_t final_status = region->GuestReadU8(layout.StatusOffset());
      final_status != kFinalStatus) {
    CIO_COV("virtio.negotiate.driverok_clobbered",
            ciobase::StatusCode::kHostViolation);
    return ciobase::HostViolation("status clobbered at DRIVER_OK");
  }
  CIO_COV("virtio.negotiate.ok", ciobase::StatusCode::kOk);
  return config;
}

}  // namespace ciovirtio
