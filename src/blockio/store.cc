#include "src/blockio/store.h"

#include <cstring>

namespace cioblock {

ConfidentialStore::ConfidentialStore(
    ciotee::TeeMemory* memory, ciotee::CompartmentManager* compartments,
    ciotee::CompartmentId app, ciotee::CompartmentId storage,
    ciobase::CostModel* costs, ciohost::Adversary* adversary,
    ciohost::ObservabilityLog* observability, ciobase::SimClock* clock,
    Options options)
    : compartments_(compartments),
      app_(app),
      storage_(storage),
      costs_(costs),
      options_(std::move(options)) {
  // Caller-provided secrets may be any length; the AEAD needs exactly
  // kAeadKeySize bytes (disk_key is normalized by EncryptedBlockClient).
  options_.value_key = ciocrypto::DeriveAeadKey(options_.value_key);
  shared_ = std::make_unique<ciotee::SharedRegion>(
      memory, options_.ring.RegionSize(), "block-ring");
  device_ = std::make_unique<HostBlockDevice>(shared_.get(), options_.ring,
                                              adversary, observability, clock);
  ring_client_ = std::make_unique<RingBlockClient>(
      shared_.get(), options_.ring, device_.get(), costs_,
      options_.recovery);
  CryptClientOptions crypt_options;
  crypt_options.durable_generations = options_.rollback_counter != nullptr;
  crypt_options.rollback_counter = options_.rollback_counter;
  crypt_client_ = std::make_unique<EncryptedBlockClient>(
      ring_client_.get(), options_.disk_key, costs_, crypt_options);
  fs_ = std::make_unique<ExtentFs>(crypt_client_.get());
}

ciobase::Status ConfidentialStore::Format() {
  CIO_RETURN_IF_ERROR(crypt_client_->geometry_status());
  compartments_->SwitchTo(storage_);
  ciobase::Status status = fs_->Format(options_.inode_count);
  compartments_->SwitchTo(app_);
  return status;
}

ciobase::Status ConfidentialStore::Flush() {
  compartments_->SwitchTo(storage_);
  ciobase::Status status = fs_->Flush();
  compartments_->SwitchTo(app_);
  return status;
}

ciobase::Status ConfidentialStore::Remount() {
  compartments_->SwitchTo(storage_);
  ciobase::Status status = ciobase::OkStatus();
  // A clean remount commits first, so the root it reloads covers every
  // in-place write the live host still caches. A commit that meets a host
  // restart finds that cache gone: reload and replay instead.
  if (fs_->mounted() && !ring_client_->needs_remount()) {
    status = fs_->Flush();
    if (!status.ok() && ring_client_->needs_remount()) {
      status = ciobase::OkStatus();
    }
  }
  // Order matters: a live ring first (the layers above talk through it),
  // then the freshness-checked generation table, then journal replay.
  if (status.ok()) {
    ring_client_->Reattach();
    status = crypt_client_->Remount();
  }
  if (status.ok()) {
    status = fs_->Mount();
  }
  compartments_->SwitchTo(app_);
  if (status.ok()) {
    ++stats_.remounts;
  }
  return status;
}

ciobase::Status ConfidentialStore::Put(std::string_view name,
                                       ciobase::ByteSpan value) {
  // Seal in the app compartment: the FS (and everything below it) only
  // ever sees ciphertext. Nonce = per-store counter; name bound as AAD.
  ciobase::Buffer nonce(ciocrypto::kAeadNonceSize, 0);
  ciobase::StoreLe64(nonce.data(), ++value_counter_);
  ciobase::Buffer aad(name.begin(), name.end());
  costs_->ChargeAead(value.size());
  // Prefix the nonce so Get can reconstruct it, then seal straight after it.
  ciobase::Buffer stored;
  stored.reserve(nonce.size() + value.size() + ciocrypto::kAeadTagSize);
  stored.assign(nonce.begin(), nonce.end());
  ciocrypto::AeadSealInto(options_.value_key, nonce, aad, value, stored);

  compartments_->SwitchTo(storage_);
  ciobase::Status status = fs_->WriteFile(name, stored);
  compartments_->SwitchTo(app_);
  if (status.ok()) {
    ++stats_.puts;
  }
  return status;
}

ciobase::Result<ciobase::Buffer> ConfidentialStore::Get(
    std::string_view name) {
  compartments_->SwitchTo(storage_);
  auto stored = fs_->ReadFile(name);
  compartments_->SwitchTo(app_);
  if (!stored.ok()) {
    return stored.status();
  }
  if (stored->size() < ciocrypto::kAeadNonceSize + ciocrypto::kAeadTagSize) {
    ++stats_.seal_failures;
    return ciobase::Tampered("stored value truncated");
  }
  ciobase::ByteSpan nonce(stored->data(), ciocrypto::kAeadNonceSize);
  ciobase::ByteSpan sealed(stored->data() + ciocrypto::kAeadNonceSize,
                           stored->size() - ciocrypto::kAeadNonceSize);
  ciobase::Buffer aad(name.begin(), name.end());
  costs_->ChargeAead(sealed.size());
  auto value = ciocrypto::AeadOpen(options_.value_key, nonce, aad, sealed);
  if (!value.ok()) {
    ++stats_.seal_failures;
    return ciobase::Tampered("value authentication failed");
  }
  ++stats_.gets;
  return value;
}

ciobase::Status ConfidentialStore::Delete(std::string_view name) {
  compartments_->SwitchTo(storage_);
  ciobase::Status status = fs_->DeleteFile(name);
  compartments_->SwitchTo(app_);
  return status;
}

ciobase::Result<std::vector<std::string>> ConfidentialStore::List() {
  compartments_->SwitchTo(storage_);
  auto names = fs_->ListFiles();
  compartments_->SwitchTo(app_);
  return names;
}

}  // namespace cioblock
