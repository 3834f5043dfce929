// Wall-clock crypto throughput (MB/s) across payload sizes, and gates on
// the vector ChaCha20 and the accelerated SHA-256 and Poly1305.
//
// Unlike the modeled-clock benches, this measures the real CPU cost of the
// from-scratch primitives: sealing is the one computation the datapath
// pays for real on every byte, hashing runs in every handshake and store
// commit, and the modeled clock never reads either.
// `chacha20-ref` is the seed-style scalar loop (one ChaCha20Block + byte-wise
// XOR per 64-byte block); `chacha20` is the shipping ChaCha20Xor (4 blocks
// per iteration in 16-byte vector lanes, 16 on AVX-512); `poly1305-port` is
// the 44-bit-limb MAC on the portable kernel and `poly1305` on the shipping
// one; `sha256-port` and `sha256` likewise for SHA-256. The first line names
// the kernel each primitive runs (src/crypto/kernel.h).
//
// The table prints one run per cell. The last lines print the 16 KiB ratio
// of shipping over reference ChaCha20 and the 4 KiB ratios of shipping over
// portable SHA-256 and Poly1305, each taken as the best of 5 alternating
// runs so that a burst of host load on one run cannot decide it. The binary
// exits 1 unless the ChaCha20 ratio is at least 1.5x and, where CPUID
// reports the SHA extensions or AVX-512 IFMA, the SHA-256 or Poly1305 ratio
// is at least 3x (DESIGN.md, "Wall-clock costs", has the measured ratios
// per build).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/kernel.h"
#include "src/crypto/sha256.h"

namespace {

using Clock = std::chrono::steady_clock;

// Prevents the compiler from discarding a benchmarked computation.
uint64_t g_sink = 0;

// Seed-style reference: per-block keystream generation + byte XOR. Kept here
// (not in src/) so the shipping code has exactly one ChaCha20Xor.
void ScalarChaCha20Xor(const uint8_t key[ciocrypto::kChaCha20KeySize],
                       const uint8_t nonce[ciocrypto::kChaCha20NonceSize],
                       uint32_t counter, ciobase::ByteSpan in, uint8_t* out) {
  uint8_t block[ciocrypto::kChaCha20BlockSize];
  size_t offset = 0;
  while (offset < in.size()) {
    ciocrypto::ChaCha20Block(key, counter++, nonce, block);
    size_t n = std::min(in.size() - offset,
                        ciocrypto::kChaCha20BlockSize);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = in[offset + i] ^ block[i];
    }
    offset += n;
  }
}

// Runs `op` (which processes `bytes` per call) repeatedly for ~80 ms of
// wall-clock time and returns MB/s (1 MB = 1e6 bytes).
template <typename Op>
double Throughput(size_t bytes, Op&& op) {
  // Warm-up + calibration pass.
  op();
  auto start = Clock::now();
  size_t iters = 0;
  do {
    op();
    ++iters;
  } while (Clock::now() - start < std::chrono::milliseconds(80));
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(bytes) * static_cast<double>(iters) / seconds /
         1e6;
}

}  // namespace

int main() {
  using ciocrypto::Kernel;
  using ciocrypto::Primitive;
  const size_t kSizes[] = {64, 256, 1024, 4096, 16384, 65536};
  constexpr size_t kGateSize = 16384;
  constexpr int kGateRounds = 5;
  constexpr double kMinSpeedup = 1.5;
  constexpr size_t kKernelGateSize = 4096;
  constexpr double kMinKernelSpeedup = 3.0;

  uint8_t key[ciocrypto::kAeadKeySize];
  uint8_t nonce[ciocrypto::kAeadNonceSize];
  for (size_t i = 0; i < sizeof(key); ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  for (size_t i = 0; i < sizeof(nonce); ++i) {
    nonce[i] = static_cast<uint8_t>(0xa0 + i);
  }
  const uint8_t aad[13] = {0x17, 0x03, 0x04, 0x00, 0x00};

  std::printf("== crypto throughput (wall clock, MB/s) ==\n");
  auto active = [](Primitive primitive) {
    return ciocrypto::KernelName(primitive, ciocrypto::ActiveKernel(primitive));
  };
  std::printf("kernels: sha256 %s, chacha20 %s, poly1305 %s\n",
              active(Primitive::kSha256), active(Primitive::kChaCha20),
              active(Primitive::kPoly1305));
  std::printf("%-14s %12s %12s %13s %12s %12s %12s %12s %12s\n", "size",
              "chacha20-ref", "chacha20", "poly1305-port", "poly1305",
              "aead-seal", "aead-open", "sha256-port", "sha256");
  std::printf("%s\n", std::string(118, '-').c_str());

  // MB/s of the shipping (or the reference) ChaCha20 at one size.
  auto chacha = [&](size_t size, bool shipping) {
    std::vector<uint8_t> plain(size, 0x5a);
    std::vector<uint8_t> work(size);
    return Throughput(size, [&] {
      if (shipping) {
        ciocrypto::ChaCha20Xor(key, nonce, 1, plain, work.data());
      } else {
        ScalarChaCha20Xor(key, nonce, 1, plain, work.data());
      }
      g_sink += work[0];
    });
  };

  // MB/s of SHA-256 on the shipping (or the portable) kernel at one size.
  auto sha256 = [&](size_t size, bool shipping) {
    std::vector<uint8_t> data(size, 0x5a);
    std::optional<ciocrypto::ScopedKernelForTest> portable;
    if (!shipping) {
      portable.emplace(Primitive::kSha256, Kernel::kPortable);
    }
    return Throughput(size, [&] {
      ciocrypto::Sha256Digest digest = ciocrypto::Sha256::Hash(data);
      g_sink += digest[0];
    });
  };

  // MB/s of Poly1305 on the shipping (or the portable) kernel at one size.
  auto poly1305 = [&](size_t size, bool shipping) {
    std::vector<uint8_t> data(size, 0x5a);
    std::optional<ciocrypto::ScopedKernelForTest> portable;
    if (!shipping) {
      portable.emplace(Primitive::kPoly1305, Kernel::kPortable);
    }
    return Throughput(size, [&] {
      ciocrypto::Poly1305Tag tag = ciocrypto::Poly1305::Mac(key, data);
      g_sink += tag[0];
    });
  };

  for (size_t size : kSizes) {
    std::vector<uint8_t> plain(size, 0x5a);
    double ref = chacha(size, false);
    double fast = chacha(size, true);
    double poly_portable = poly1305(size, false);
    double poly = poly1305(size, true);

    ciobase::Buffer sealed_scratch;
    double seal = Throughput(size, [&] {
      sealed_scratch.clear();
      ciocrypto::AeadSealInto(key, nonce, aad, plain, sealed_scratch);
      g_sink += sealed_scratch[0];
    });

    ciobase::Buffer sealed;
    ciocrypto::AeadSealInto(key, nonce, aad, plain, sealed);
    ciobase::Buffer opened_scratch;
    double open = Throughput(size, [&] {
      opened_scratch.clear();
      auto got =
          ciocrypto::AeadOpenInto(key, nonce, aad, sealed, opened_scratch);
      g_sink += got.ok() ? *got : 1;
    });

    std::printf("%-14zu %12.1f %12.1f %13.1f %12.1f %12.1f %12.1f %12.1f "
                "%12.1f\n",
                size, ref, fast, poly_portable, poly, seal, open,
                sha256(size, false), sha256(size, true));
  }

  double best_ref = 0;
  double best_fast = 0;
  for (int round = 0; round < kGateRounds; ++round) {
    best_ref = std::max(best_ref, chacha(kGateSize, false));
    best_fast = std::max(best_fast, chacha(kGateSize, true));
  }
  double speedup = best_fast / best_ref;
  std::printf("\nchacha20 16 KiB speedup vs scalar reference: %.2fx "
              "(best of %d runs each; gate >= %.1fx)\n",
              speedup, kGateRounds, kMinSpeedup);
  bool failed = false;
  if (speedup < kMinSpeedup) {
    std::printf("FAIL: the shipping ChaCha20 is not %.1fx the reference\n",
                kMinSpeedup);
    failed = true;
  }

  // The 4 KiB gate of an accelerated kernel over its portable one, where
  // CPUID reports the features it needs.
  auto kernel_gate = [&](Primitive primitive, const char* name,
                         const char* missing, auto&& throughput) {
    if (!ciocrypto::KernelAvailable(primitive, Kernel::kAccelerated)) {
      std::printf("%s gate skipped: no %s\n", name, missing);
      return;
    }
    double best_portable = 0;
    double best_shipping = 0;
    for (int round = 0; round < kGateRounds; ++round) {
      best_portable =
          std::max(best_portable, throughput(kKernelGateSize, false));
      best_shipping =
          std::max(best_shipping, throughput(kKernelGateSize, true));
    }
    double kernel_speedup = best_shipping / best_portable;
    std::printf("%s 4 KiB speedup vs portable kernel: %.2fx (best of %d "
                "runs each; gate >= %.1fx)\n",
                name, kernel_speedup, kGateRounds, kMinKernelSpeedup);
    if (kernel_speedup < kMinKernelSpeedup) {
      std::printf("FAIL: the shipping %s is not %.1fx the portable kernel\n",
                  name, kMinKernelSpeedup);
      failed = true;
    }
  };
  kernel_gate(Primitive::kSha256, "sha256", "SHA extensions", sha256);
  kernel_gate(Primitive::kPoly1305, "poly1305", "AVX-512 IFMA", poly1305);
  // Keep the sink observable.
  std::fprintf(stderr, "# sink=%llu\n",
               static_cast<unsigned long long>(g_sink));
  return failed ? 1 : 0;
}
