// ZeroPages: the host memory behind every TeeMemory region and compartment
// heap — an anonymous demand-zero mapping followed by a guard page.
//
// A page of the mapping becomes resident only when the simulation first
// writes it, so a region costs the host what a run touches, not what its
// layout reserves. The bytes start 16-B aligned and end at the size rounded
// up to 16 B, directly below a PROT_NONE guard page: a raw access past that
// end faults in every build, and the guard page also keeps two mappings from
// merging. Under AddressSanitizer the mapped bytes outside [0, size) are
// poisoned, so an overrun of a single byte is reported there too. Huge pages
// are never used, so residency is counted per base page. Size 0 maps nothing.

#ifndef SRC_TEE_ZERO_PAGES_H_
#define SRC_TEE_ZERO_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace ciotee {

class ZeroPages {
 public:
  ZeroPages() = default;
  // Maps `size` zero bytes; throws std::bad_alloc if the mapping fails.
  explicit ZeroPages(size_t size);
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  void Unmap();

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ciotee

#endif  // SRC_TEE_ZERO_PAGES_H_
