#include "coding/generation_stream.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace extnc::coding {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& b : content) b = rng.next_byte();
  return content;
}

TEST(GenerationStream, SplitsContentIntoGenerations) {
  const Params params{.n = 4, .k = 16};  // 64 B per generation
  const auto content = random_content(200, 1);
  GenerationEncoder encoder(params, content);
  EXPECT_EQ(encoder.generations(), 4u);  // ceil(200/64)
  EXPECT_EQ(encoder.content_bytes(), 200u);
}

TEST(GenerationStream, EmptyContentStillHasOneGeneration) {
  GenerationEncoder encoder({.n = 2, .k = 4}, {});
  EXPECT_EQ(encoder.generations(), 1u);
}

TEST(GenerationStream, FullTransferRoundTrip) {
  const Params params{.n = 8, .k = 32};
  const auto content = random_content(1000, 2);
  Rng rng(3);
  GenerationEncoder encoder(params, content);
  GenerationDecoder decoder(params, encoder.generations());
  std::size_t packets = 0;
  while (!decoder.is_complete()) {
    decoder.add_packet(encoder.encode_next_packet(rng));
    ASSERT_LT(++packets, 10 * encoder.generations() * params.n);
  }
  const auto out = decoder.reassemble();
  ASSERT_GE(out.size(), content.size());
  EXPECT_TRUE(std::equal(content.begin(), content.end(), out.begin()));
  // Padding of the final generation is zero.
  for (std::size_t i = content.size(); i < out.size(); ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(GenerationStream, SystematicTransferNeedsMinimalPackets) {
  const Params params{.n = 8, .k = 32};
  const auto content = random_content(params.n * params.k * 3, 4);
  Rng rng(5);
  GenerationEncoder encoder(params, content, /*systematic=*/true);
  GenerationDecoder decoder(params, encoder.generations());
  std::size_t packets = 0;
  while (!decoder.is_complete()) {
    decoder.add_packet(encoder.encode_next_packet(rng));
    ++packets;
  }
  // Loss-free systematic transfer: exactly generations * n packets.
  EXPECT_EQ(packets, encoder.generations() * params.n);
}

TEST(GenerationStream, SurvivesLossAndReordering) {
  const Params params{.n = 8, .k = 16};
  const auto content = random_content(300, 6);
  Rng rng(7);
  GenerationEncoder encoder(params, content);
  GenerationDecoder decoder(params, encoder.generations());
  // Generate a burst, drop a third, shuffle, deliver, repeat.
  std::size_t safety = 0;
  while (!decoder.is_complete()) {
    ASSERT_LT(++safety, 100u);
    std::vector<std::vector<std::uint8_t>> burst;
    for (std::size_t i = 0; i < encoder.generations() * params.n; ++i) {
      if (rng.next_double() < 0.33) continue;  // lost
      burst.push_back(encoder.encode_next_packet(rng));
    }
    for (std::size_t i = burst.size(); i > 1; --i) {
      std::swap(burst[i - 1], burst[rng.next_below(i)]);
    }
    for (const auto& packet : burst) decoder.add_packet(packet);
  }
  const auto out = decoder.reassemble();
  EXPECT_TRUE(std::equal(content.begin(), content.end(), out.begin()));
}

TEST(GenerationStream, RejectsGarbagePacketsGracefully) {
  const Params params{.n = 4, .k = 8};
  GenerationDecoder decoder(params, 2);
  std::vector<std::uint8_t> garbage(10, 0xab);
  EXPECT_EQ(decoder.add_packet(garbage), GenerationDecoder::Accept::kRejected);
  EXPECT_EQ(decoder.packets_rejected(), 1u);
}

TEST(GenerationStream, RejectsUnknownGeneration) {
  const Params params{.n = 4, .k = 8};
  const auto content = random_content(params.segment_bytes(), 8);
  Rng rng(9);
  GenerationEncoder encoder(params, content);
  GenerationDecoder decoder(params, 1);
  auto packet = encoder.encode_packet(0, rng);
  packet[4] = 5;  // forge generation id 5
  EXPECT_EQ(decoder.add_packet(packet), GenerationDecoder::Accept::kRejected);
}

TEST(GenerationStream, RejectsShapeMismatch) {
  const Params sender_params{.n = 8, .k = 8};
  const Params receiver_params{.n = 4, .k = 8};
  const auto content = random_content(64, 10);
  Rng rng(11);
  GenerationEncoder encoder(sender_params, content);
  GenerationDecoder decoder(receiver_params, 1);
  EXPECT_EQ(decoder.add_packet(encoder.encode_packet(0, rng)),
            GenerationDecoder::Accept::kRejected);
}

TEST(GenerationStream, ReportsCompletionTransitions) {
  const Params params{.n = 2, .k = 4};
  const auto content = random_content(params.segment_bytes(), 12);
  Rng rng(13);
  GenerationEncoder encoder(params, content, /*systematic=*/true);
  GenerationDecoder decoder(params, 1);
  EXPECT_EQ(decoder.add_packet(encoder.encode_packet(0, rng)),
            GenerationDecoder::Accept::kInnovative);
  EXPECT_EQ(decoder.add_packet(encoder.encode_packet(0, rng)),
            GenerationDecoder::Accept::kGenerationComplete);
  EXPECT_EQ(decoder.add_packet(encoder.encode_packet(0, rng)),
            GenerationDecoder::Accept::kDependent);
  EXPECT_EQ(decoder.generations_complete(), 1u);
}

// A generation's decoder is built by its first packet; until then it reads
// as rank 0, incomplete.
TEST(GenerationStream, GenerationsWithoutPacketsReportRankZero) {
  const Params params{.n = 2, .k = 4};
  const auto content = random_content(3 * params.segment_bytes(), 14);
  Rng rng(15);
  GenerationEncoder encoder(params, content, /*systematic=*/true);
  GenerationDecoder decoder(params, 3);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(decoder.generation_rank(g), 0u);
    EXPECT_FALSE(decoder.generation_complete(g));
  }
  decoder.add_packet(encoder.encode_packet(1, rng));
  decoder.add_packet(encoder.encode_packet(1, rng));
  EXPECT_EQ(decoder.generation_rank(0), 0u);
  EXPECT_EQ(decoder.generation_rank(1), 2u);
  EXPECT_TRUE(decoder.generation_complete(1));
  EXPECT_FALSE(decoder.generation_complete(2));
  EXPECT_EQ(decoder.generations_complete(), 1u);
  EXPECT_FALSE(decoder.is_complete());
}

TEST(GenerationStreamDeathTest, ReassembleBeforeCompleteAborts) {
  GenerationDecoder decoder({.n = 2, .k = 4}, 1);
  EXPECT_DEATH((void)decoder.reassemble(), "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::coding
