#include "util/checksum.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace extnc {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::uint32_t table_crc(std::span<const std::uint8_t> data) {
  return crc32c_final(crc32c_update_table(crc32c_init(), data));
}

// The hardware cases compare the dispatched backend with the table loop;
// on a CPU without one both sides would be the table loop.
bool hardware_backend_selected() {
  return std::string_view(crc32c_backend()) != "table";
}

constexpr const char* kNoHardwareCrc =
    "no hardware CRC32C backend on this CPU; only the table path is tested";

// RFC 3720 (iSCSI) appendix B.4 test vectors, plus the standard check
// value of "123456789".
TEST(Crc32c, Rfc3720Vectors) {
  std::vector<std::uint8_t> data(32, 0x00);
  EXPECT_EQ(crc32c(data), 0x8A9136AAu);
  EXPECT_EQ(table_crc(data), 0x8A9136AAu);

  std::fill(data.begin(), data.end(), 0xFF);
  EXPECT_EQ(crc32c(data), 0x62A8AB43u);
  EXPECT_EQ(table_crc(data), 0x62A8AB43u);

  std::iota(data.begin(), data.end(), 0);
  EXPECT_EQ(crc32c(data), 0x46DD794Eu);
  EXPECT_EQ(table_crc(data), 0x46DD794Eu);

  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(table_crc(as_bytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c({}), 0u);
  EXPECT_EQ(crc32c_update(0x12345678u, {}), 0x12345678u);
}

TEST(Crc32c, BackendIsNamed) {
  const std::string_view name = crc32c_backend();
  EXPECT_TRUE(name == "sse4.2" || name == "table") << name;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_EQ(name, "sse4.2");
  }
#endif
}

TEST(Crc32c, HardwareMatchesTableForEveryShortLengthAndOffset) {
  if (!hardware_backend_selected()) GTEST_SKIP() << kNoHardwareCrc;
  Rng rng(41);
  std::vector<std::uint8_t> buffer(256 + 8);
  for (auto& b : buffer) b = rng.next_byte();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const auto data = std::span(buffer).subspan(offset, len);
      ASSERT_EQ(crc32c(data), table_crc(data))
          << "offset " << offset << " length " << len;
      // A non-initial state must also carry through identically.
      ASSERT_EQ(crc32c_update(0xdeadbeefu, data),
                crc32c_update_table(0xdeadbeefu, data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, HardwareMatchesTableForRandomLongBuffers) {
  if (!hardware_backend_selected()) GTEST_SKIP() << kNoHardwareCrc;
  Rng rng(42);
  std::vector<std::uint8_t> buffer((64 << 10) + 8);
  for (auto& b : buffer) b = rng.next_byte();
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t offset = rng.next_below(8);
    const std::size_t len = rng.next_below((64 << 10) + 1);
    const auto data = std::span(buffer).subspan(offset, len);
    ASSERT_EQ(crc32c(data), table_crc(data))
        << "offset " << offset << " length " << len;
  }
}

TEST(Crc32c, SplitUpdateEqualsOneShot) {
  Rng rng(43);
  std::vector<std::uint8_t> buffer(300);
  for (auto& b : buffer) b = rng.next_byte();
  const std::uint32_t whole = crc32c(buffer);
  ASSERT_EQ(whole, table_crc(buffer));
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const auto data = std::span<const std::uint8_t>(buffer);
    const std::uint32_t state =
        crc32c_update(crc32c_update(crc32c_init(), data.first(split)),
                      data.subspan(split));
    ASSERT_EQ(crc32c_final(state), whole) << "split at " << split;
    const std::uint32_t table_state = crc32c_update_table(
        crc32c_update_table(crc32c_init(), data.first(split)),
        data.subspan(split));
    ASSERT_EQ(crc32c_final(table_state), whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Rng rng(44);
  std::vector<std::uint8_t> buffer(1060);
  for (auto& b : buffer) b = rng.next_byte();
  const std::uint32_t clean = crc32c(buffer);
  for (std::size_t bit = 0; bit < buffer.size() * 8; bit += 7) {
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_NE(crc32c(buffer), clean) << "bit " << bit;
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace extnc
