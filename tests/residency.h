// Page residency of simulated memory, read with mincore(2): the tests that
// pin which pages of a region or heap a run has made resident.

#ifndef TESTS_RESIDENCY_H_
#define TESTS_RESIDENCY_H_

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "src/base/bytes.h"

namespace ciotest {

inline uintptr_t PageBytes() {
  return static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
}

inline uintptr_t PageOf(const void* p) {
  return reinterpret_cast<uintptr_t>(p) & ~(PageBytes() - 1);
}

// The pages holding `bytes` that mincore reports resident, by address.
// Memory pressure can only shrink this set, so tests bound it from above.
inline std::vector<uintptr_t> ResidentPages(ciobase::ByteSpan bytes) {
  if (bytes.empty()) {
    return {};
  }
  const uintptr_t first = PageOf(bytes.data());
  const uintptr_t end = PageOf(bytes.data() + bytes.size() - 1) + PageBytes();
  std::vector<unsigned char> present((end - first) / PageBytes());
  if (mincore(reinterpret_cast<void*>(first), end - first, present.data()) !=
      0) {
    ADD_FAILURE() << "mincore failed";
    return {};
  }
  std::vector<uintptr_t> resident;
  for (size_t i = 0; i < present.size(); ++i) {
    if (present[i] & 1) {
      resident.push_back(first + i * PageBytes());
    }
  }
  return resident;
}

}  // namespace ciotest

#endif  // TESTS_RESIDENCY_H_
