#include "util/large_buffer.h"

#include <sys/mman.h>

namespace extnc {

std::vector<std::uint8_t> large_zeroed_buffer(std::size_t bytes) {
  std::vector<std::uint8_t> buffer;
  buffer.reserve(bytes);
#ifdef MADV_HUGEPAGE
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const std::size_t head =
      (kHugePage - reinterpret_cast<std::uintptr_t>(buffer.data()) % kHugePage) %
      kHugePage;
  if (bytes > head && bytes - head >= kHugePage) {
    // Advice only: a kernel without THP refuses it and nothing changes.
    (void)madvise(buffer.data() + head, (bytes - head) & ~(kHugePage - 1),
                  MADV_HUGEPAGE);
  }
#endif
  buffer.resize(bytes);
  return buffer;
}

}  // namespace extnc
