#include "src/tee/zero_pages.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>

#include "src/base/bits.h"

namespace ciotee {

namespace {

constexpr size_t kAlign = 16;

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// The readable and writable pages in front of the guard page. The bytes end
// at their 16-B-rounded size, flush against the guard page.
size_t BodyBytes(size_t size) {
  return ciobase::AlignUp(ciobase::AlignUp(size, kAlign), PageBytes());
}

}  // namespace

ZeroPages::ZeroPages(size_t size) {
  if (size == 0) {
    return;
  }
  const size_t page = PageBytes();
  if (size > SIZE_MAX - 2 * page) {  // rounding up or the guard page wraps
    throw std::bad_alloc();
  }
  const size_t body = BodyBytes(size);
  void* mapping = mmap(nullptr, body + page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<uint8_t*>(mapping);
  if (mprotect(base + body, page, PROT_NONE) != 0) {
    munmap(mapping, body + page);
    throw std::bad_alloc();
  }
  // A kernel without transparent huge pages refuses this advice, and has no
  // huge page to hand out either.
  madvise(mapping, body, MADV_NOHUGEPAGE);
  data_ = base + body - ciobase::AlignUp(size, kAlign);
  size_ = size;
  ASAN_POISON_MEMORY_REGION(base, body);
  ASAN_UNPOISON_MEMORY_REGION(data_, size_);
}

ZeroPages::~ZeroPages() { Unmap(); }

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void ZeroPages::Unmap() {
  if (data_ == nullptr) {
    return;
  }
  const size_t body = BodyBytes(size_);
  uint8_t* base = data_ + ciobase::AlignUp(size_, kAlign) - body;
  // A later mapping may reuse these addresses: leave no poison behind.
  ASAN_UNPOISON_MEMORY_REGION(base, body);
  munmap(base, body + PageBytes());
  data_ = nullptr;
  size_ = 0;
}

}  // namespace ciotee
