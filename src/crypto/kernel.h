// CPU-specific kernels of the crypto primitives.
//
// SHA-256, ChaCha20 and Poly1305 each have a portable kernel and an
// accelerated one.
// The accelerated kernel runs wherever CPUID reports the feature it needs:
// the choice is made once per process, at static initialisation, and no
// option, environment variable or config field changes it. The kernels of a
// primitive produce bit-identical output, so the choice moves host time only.
// The portable kernels stay as the only ones on other CPUs and non-x86
// builds, and as the tests' references.

#ifndef SRC_CRYPTO_KERNEL_H_
#define SRC_CRYPTO_KERNEL_H_

namespace ciocrypto {

enum class Primitive { kSha256, kChaCha20, kPoly1305 };

// kPortable: SHA-256's FIPS 180-4 rounds in C++, ChaCha20's 4-block vector
// kernel built for the baseline ISA (SSE2 on x86-64), and Poly1305's
// one-block 44-bit-limb loop.
// kAccelerated: the SHA extensions (`sha_ni`); the same ChaCha20 source run
// over 16 blocks in 512-bit words, then 4, built for AVX-512VL, where each
// 32-bit rotate is one `vprold`; and Poly1305 on eight AVX-512 IFMA lanes.
enum class Kernel { kPortable, kAccelerated };

// True when this CPU can run `kernel` for `primitive`; kPortable always.
bool KernelAvailable(Primitive primitive, Kernel kernel);

// The kernel `primitive` runs: kAccelerated wherever it is available.
Kernel ActiveKernel(Primitive primitive);

// "portable", "sha_ni", "avx512vl" or "avx512ifma".
const char* KernelName(Primitive primitive, Kernel kernel);

// For tests and bench_crypto: `primitive` runs `kernel`, which must be
// available, while this object lives, and the kernel it replaced after.
class ScopedKernelForTest {
 public:
  ScopedKernelForTest(Primitive primitive, Kernel kernel);
  ~ScopedKernelForTest();
  ScopedKernelForTest(const ScopedKernelForTest&) = delete;
  ScopedKernelForTest& operator=(const ScopedKernelForTest&) = delete;

 private:
  Primitive primitive_;
  Kernel replaced_;
};

}  // namespace ciocrypto

#endif  // SRC_CRYPTO_KERNEL_H_
