#include "coding/progressive_decoder.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "gf256/gf.h"

namespace extnc::coding {
namespace {

TEST(ProgressiveDecoder, DecodesAfterExactlyNIndependentBlocks) {
  Rng rng(1);
  const Params params{.n = 16, .k = 128};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    EXPECT_FALSE(decoder.is_complete());
    // Dense random blocks are independent with overwhelming probability.
    ASSERT_EQ(decoder.add(encoder.encode(rng)),
              ProgressiveDecoder::Result::kAccepted);
  }
  ASSERT_TRUE(decoder.is_complete());
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

TEST(ProgressiveDecoder, MaintainsRrefInvariantThroughout) {
  Rng rng(2);
  const Params params{.n = 12, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  while (!decoder.is_complete()) {
    decoder.add(encoder.encode(rng));
    ASSERT_TRUE(decoder.check_rref_invariant())
        << "rank=" << decoder.rank();
  }
}

TEST(ProgressiveDecoder, DetectsDuplicateAsDependent) {
  Rng rng(3);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  const CodedBlock block = encoder.encode(rng);
  EXPECT_EQ(decoder.add(block), ProgressiveDecoder::Result::kAccepted);
  EXPECT_EQ(decoder.add(block),
            ProgressiveDecoder::Result::kLinearlyDependent);
  EXPECT_EQ(decoder.rank(), 1u);
  EXPECT_EQ(decoder.blocks_discarded(), 1u);
}

TEST(ProgressiveDecoder, DetectsScaledCopyAsDependent) {
  Rng rng(4);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  const CodedBlock block = encoder.encode(rng);
  decoder.add(block);
  // 0x35 * block is in the same 1-dimensional span.
  CodedBlock scaled(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    scaled.coefficients()[i] = gf256::mul(block.coefficients()[i], 0x35);
  }
  for (std::size_t i = 0; i < params.k; ++i) {
    scaled.payload()[i] = gf256::mul(block.payload()[i], 0x35);
  }
  EXPECT_EQ(decoder.add(scaled),
            ProgressiveDecoder::Result::kLinearlyDependent);
}

TEST(ProgressiveDecoder, DetectsCombinationAsDependent) {
  Rng rng(5);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  const CodedBlock a = encoder.encode(rng);
  const CodedBlock b = encoder.encode(rng);
  decoder.add(a);
  decoder.add(b);
  CodedBlock combo(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    combo.coefficients()[i] =
        gf256::add(gf256::mul(a.coefficients()[i], 0x11),
                   gf256::mul(b.coefficients()[i], 0x22));
  }
  for (std::size_t i = 0; i < params.k; ++i) {
    combo.payload()[i] = gf256::add(gf256::mul(a.payload()[i], 0x11),
                                    gf256::mul(b.payload()[i], 0x22));
  }
  EXPECT_EQ(decoder.add(combo),
            ProgressiveDecoder::Result::kLinearlyDependent);
  EXPECT_EQ(decoder.rank(), 2u);
}

TEST(ProgressiveDecoder, BlocksAfterCompletionAreRejected) {
  Rng rng(6);
  const Params params{.n = 4, .k = 8};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  while (!decoder.is_complete()) decoder.add(encoder.encode(rng));
  EXPECT_EQ(decoder.add(encoder.encode(rng)),
            ProgressiveDecoder::Result::kAlreadyComplete);
}

TEST(ProgressiveDecoder, SystematicUnitVectorsDecodeTrivially) {
  Rng rng(7);
  const Params params{.n = 6, .k = 24};
  const Segment segment = Segment::random(params, rng);
  ProgressiveDecoder decoder(params);
  // Feed the n unit vectors (uncoded blocks) in reverse order.
  for (std::size_t i = params.n; i-- > 0;) {
    CodedBlock block(params);
    block.coefficients()[i] = 1;
    std::copy(segment.block(i).begin(), segment.block(i).end(),
              block.payload().begin());
    ASSERT_EQ(decoder.add(block), ProgressiveDecoder::Result::kAccepted);
  }
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

TEST(ProgressiveDecoder, CountsSeenAndDiscarded) {
  Rng rng(8);
  const Params params{.n = 4, .k = 8};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  const CodedBlock block = encoder.encode(rng);
  decoder.add(block);
  decoder.add(block);
  decoder.add(block);
  EXPECT_EQ(decoder.blocks_seen(), 3u);
  EXPECT_EQ(decoder.blocks_discarded(), 2u);
  EXPECT_EQ(decoder.rank(), 1u);
}

TEST(ProgressiveDecoder, OutOfOrderPivotsKeepRrefAndDecode) {
  // Regression: pivots arriving out of column order (a later pivot first)
  // once left stale entries in later pivot columns of newly inserted rows.
  Rng rng(42);
  const Params params{.n = 4, .k = 8};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  auto send = [&](std::initializer_list<std::uint8_t> coeffs) {
    CodedBlock block(params);
    std::copy(coeffs.begin(), coeffs.end(), block.coefficients().begin());
    encoder.encode_with_coefficients(block.coefficients(), block.payload());
    return decoder.add(block);
  };
  // Pivot columns claimed in order 2, 0, 3, 1.
  EXPECT_EQ(send({0, 0, 5, 7}), ProgressiveDecoder::Result::kAccepted);
  EXPECT_EQ(send({3, 0, 9, 1}), ProgressiveDecoder::Result::kAccepted);
  EXPECT_TRUE(decoder.check_rref_invariant());
  EXPECT_EQ(send({0, 0, 0, 2}), ProgressiveDecoder::Result::kAccepted);
  EXPECT_TRUE(decoder.check_rref_invariant());
  EXPECT_EQ(send({1, 4, 1, 1}), ProgressiveDecoder::Result::kAccepted);
  ASSERT_TRUE(decoder.is_complete());
  EXPECT_TRUE(decoder.check_rref_invariant());
  EXPECT_EQ(decoder.decoded_segment(), segment);
  // The in-place view is keyed by pivot, not by arrival order.
  EXPECT_TRUE(std::ranges::equal(decoder.decoded_bytes(), segment.bytes()));
}

TEST(ProgressiveDecoderDeathTest, DecodedSegmentBeforeCompleteAborts) {
  ProgressiveDecoder decoder({.n = 4, .k = 8});
  EXPECT_DEATH((void)decoder.decoded_segment(), "EXTNC_CHECK");
}

// Roundtrip across a parameter sweep, including k not divisible by 4 and
// n = 1 edge cases.
class DecoderRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DecoderRoundTrip, EncodeDecodeRecoversSegment) {
  const auto [n, k] = GetParam();
  Rng rng(1000 + n * 31 + k);
  const Params params{.n = n, .k = k};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  std::size_t sent = 0;
  while (!decoder.is_complete()) {
    decoder.add(encoder.encode(rng));
    ++sent;
    ASSERT_LT(sent, params.n + 20) << "too many dependent blocks";
  }
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

INSTANTIATE_TEST_SUITE_P(
    ParamSweep, DecoderRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 16u, 32u, 64u),
                       ::testing::Values(1u, 3u, 16u, 100u, 256u)));

}  // namespace
}  // namespace extnc::coding
