#include "util/large_buffer.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace extnc {
namespace {

TEST(LargeBuffer, IsZeroedAndExactlySized) {
  // Below one huge page, straddling a few, and empty.
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1}, std::size_t{4097},
        (std::size_t{5} << 20) + 123}) {
    const std::vector<std::uint8_t> buffer = large_zeroed_buffer(bytes);
    EXPECT_EQ(buffer.size(), bytes);
    EXPECT_TRUE(std::all_of(buffer.begin(), buffer.end(),
                            [](std::uint8_t b) { return b == 0; }));
  }
}

}  // namespace
}  // namespace extnc
