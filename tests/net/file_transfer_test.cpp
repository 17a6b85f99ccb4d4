#include "net/file_transfer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "coding/generation_stream.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace extnc::net {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& b : content) b = rng.next_byte();
  return content;
}

TEST(FileTransfer, LosslessRoundTrip) {
  const auto content = random_content(5000, 1);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_EQ(result.packets_rejected, 0u);
}

TEST(FileTransfer, EmptyFileRoundTrip) {
  FileEncodeOptions options;
  options.params = {.n = 2, .k = 8};
  const auto container = encode_file({}, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.content.empty());
}

TEST(FileTransfer, ExactGenerationBoundary) {
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 16};
  const auto content = random_content(options.params.segment_bytes() * 3, 2);
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generations, 3u);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, RedundancyAbsorbsLoss) {
  const auto content = random_content(4000, 3);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.8;
  options.loss = 0.3;
  options.seed = 7;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, HeavyLossWithoutRedundancyFailsGracefully) {
  const auto content = random_content(4000, 4);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.loss = 0.5;  // no redundancy: some generation will fall short
  options.seed = 9;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("insufficient"), std::string::npos);
}

TEST(FileTransfer, SystematicWithoutLossUsesMinimumPackets) {
  const auto content = random_content(2048, 5);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.systematic = true;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.packets_dependent, 0u);
}

TEST(FileTransfer, DescribeRejectsGarbage) {
  EXPECT_FALSE(describe_file(random_content(100, 6)).has_value());
  EXPECT_FALSE(describe_file(random_content(10, 7)).has_value());
  EXPECT_FALSE(describe_file({}).has_value());
}

TEST(FileTransfer, DecodeRejectsTruncatedContainer) {
  const auto content = random_content(1000, 8);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  auto container = encode_file(content, options);
  container.resize(container.size() - 10);
  const FileDecodeResult result = decode_file(container);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "container truncated");
}

TEST(FileTransfer, CorruptedPacketIsCountedNotFatal) {
  const auto content = random_content(1000, 9);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  options.redundancy = 0.5;  // spares cover the corrupted one
  auto container = encode_file(content, options);
  container[40] ^= 0xff;  // smash a header field of the first packet
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_GE(result.packets_rejected, 1u);
}

TEST(FileTransfer, SimulatedCorruptionIsDetectedAndAbsorbed) {
  // Damaged packets stay in the container; the wire CRC rejects each one
  // at decode, and the redundant packets cover the holes — the decode
  // succeeds with the exact content and reports how many were rejected.
  const auto content = random_content(4000, 11);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 1.0;
  options.corruption = 0.2;
  options.seed = 12;
  const auto container = encode_file(content, options);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
  EXPECT_GE(result.packets_rejected, 1u);
}

TEST(FileTransfer, LegacyV1ContainerRoundTrips) {
  const auto content = random_content(2000, 12);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  options.wire_format = coding::WireFormat::kV1;
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->wire_format, coding::WireFormat::kV1);
  const FileDecodeResult result = decode_file(container);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.content, content);
}

TEST(FileTransfer, V2ContainerIsLargerByTheTrailers) {
  const auto content = random_content(2000, 13);
  FileEncodeOptions options;
  options.params = {.n = 4, .k = 32};
  const auto v2 = encode_file(content, options);
  options.wire_format = coding::WireFormat::kV1;
  const auto v1 = encode_file(content, options);
  const auto info = describe_file(v2);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->wire_format, coding::WireFormat::kV2);
  EXPECT_EQ(v2.size(), v1.size() + info->packets * coding::kWireChecksumBytes);
}

TEST(FileTransfer, InfoMatchesOptions) {
  const auto content = random_content(10000, 10);
  FileEncodeOptions options;
  options.params = {.n = 16, .k = 128};
  options.redundancy = 0.25;
  const auto container = encode_file(content, options);
  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->params, options.params);
  EXPECT_EQ(info->content_bytes, content.size());
  EXPECT_EQ(info->generations, 5u);  // ceil(10000 / 2048)
  EXPECT_EQ(info->packets, info->generations * 20u);  // n * 1.25
}

// encode_file serializes packets straight into the container; it must
// still write exactly what the public per-packet API would, consuming the
// same seeded draws in the same order: coefficients, the loss draw, then
// the corruption draws (only when corruption > 0).
TEST(FileTransfer, ContainerIsTheSeededPacketLoopByteForByte) {
  const auto content = random_content(20000, 16);
  FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.5;
  options.loss = 0.1;
  options.corruption = 0.05;
  options.seed = 17;
  const auto container = encode_file(content, options);

  coding::GenerationEncoder encoder(options.params, content);
  Rng rng(options.seed);
  const std::size_t per_generation = 12;  // ceil(8 * 1.5)
  std::vector<std::uint8_t> packets;
  std::uint32_t count = 0;
  std::size_t lost = 0;
  std::size_t damaged = 0;
  for (std::uint32_t g = 0; g < encoder.generations(); ++g) {
    for (std::size_t i = 0; i < per_generation; ++i) {
      auto packet = encoder.encode_packet(g, rng);
      if (rng.next_double() < options.loss) {
        ++lost;
        continue;
      }
      if (rng.next_double() < options.corruption) {
        const std::size_t byte = rng.next_below(packet.size());
        packet[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        ++damaged;
      }
      packets.insert(packets.end(), packet.begin(), packet.end());
      ++count;
    }
  }
  ASSERT_GT(lost, 0u);
  ASSERT_GT(damaged, 0u);

  const auto info = describe_file(container);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->packets, count);
  EXPECT_EQ(info->generations, encoder.generations());
  EXPECT_EQ(info->content_bytes, content.size());
  ASSERT_EQ(container.size(), 32 + packets.size());
  EXPECT_TRUE(std::equal(packets.begin(), packets.end(),
                         container.begin() + 32));
  // Pinned digest of this container: any change to the bytes encode_file
  // writes for a given seed shows up here.
  EXPECT_EQ(digest64(container), 0x539ac6ae0be71d28ULL);
}

TEST(FileTransferDeathTest, InvalidLossAborts) {
  FileEncodeOptions options;
  options.loss = 1.0;
  EXPECT_DEATH((void)encode_file({}, options), "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::net
