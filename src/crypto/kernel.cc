#include "src/crypto/kernel.h"

#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace ciocrypto {

namespace {

constexpr int kPrimitives = 3;

// KernelName's accelerated names, in Primitive's order.
constexpr const char* kAcceleratedNames[kPrimitives] = {"sha_ni", "avx512vl",
                                                        "avx512ifma"};

bool CpuSupportsAccelerated(Primitive primitive) {
#if defined(__x86_64__)
  if (primitive == Primitive::kSha256) {
    // CPUID leaf 7, EBX bit 29, read directly because Clang before 18
    // rejects __builtin_cpu_supports("sha"). The SHA instructions use only
    // XMM state, which every x86-64 OS saves.
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
           (ebx & bit_SHA) != 0;
  }
  // Reports AVX-512 only when the OS also saves its register state.
  __builtin_cpu_init();
  if (primitive == Primitive::kPoly1305) {
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512ifma");
  }
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl");
#else
  (void)primitive;
  return false;
#endif
}

// Portable (the zero value) until the initialiser below runs, so a static
// initialiser in another file that hashes or seals first still gets the
// right bytes.
Kernel g_active[kPrimitives] = {};

[[maybe_unused]] const bool g_chosen = [] {
  for (int i = 0; i < kPrimitives; ++i) {
    if (CpuSupportsAccelerated(static_cast<Primitive>(i))) {
      g_active[i] = Kernel::kAccelerated;
    }
  }
  return true;
}();

}  // namespace

bool KernelAvailable(Primitive primitive, Kernel kernel) {
  return kernel == Kernel::kPortable || CpuSupportsAccelerated(primitive);
}

Kernel ActiveKernel(Primitive primitive) {
  return g_active[static_cast<int>(primitive)];
}

const char* KernelName(Primitive primitive, Kernel kernel) {
  if (kernel == Kernel::kPortable) {
    return "portable";
  }
  return kAcceleratedNames[static_cast<int>(primitive)];
}

ScopedKernelForTest::ScopedKernelForTest(Primitive primitive, Kernel kernel)
    : primitive_(primitive), replaced_(ActiveKernel(primitive)) {
  if (!KernelAvailable(primitive, kernel)) {
    std::fprintf(stderr, "kernel %s is not available on this CPU\n",
                 KernelName(primitive, kernel));
    std::abort();
  }
  g_active[static_cast<int>(primitive)] = kernel;
}

ScopedKernelForTest::~ScopedKernelForTest() {
  g_active[static_cast<int>(primitive_)] = replaced_;
}

}  // namespace ciocrypto
