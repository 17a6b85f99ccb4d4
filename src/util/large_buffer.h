// Output buffers of tens of MiB that are about to be overwritten in full
// (a coded container, a decoded file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace extnc {

// `bytes` zero bytes. The storage is reserved first and its 2 MiB-aligned
// interior advised for transparent huge pages (where the platform has
// MADV_HUGEPAGE; the advice is best effort), so the zero-fill takes one
// fault per 2 MiB instead of one per 4 KiB page where THP is in `madvise`
// mode. Elsewhere this is a plain value-initialising resize.
std::vector<std::uint8_t> large_zeroed_buffer(std::size_t bytes);

}  // namespace extnc
