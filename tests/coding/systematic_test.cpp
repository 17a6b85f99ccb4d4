#include "systematic_encoder.h"

#include <gtest/gtest.h>

#include "coding/progressive_decoder.h"

namespace extnc::coding {
namespace {

TEST(SystematicEncoder, FirstNEmissionsAreSourceBlocks) {
  Rng rng(1);
  const Params params{.n = 8, .k = 32};
  const Segment segment = Segment::random(params, rng);
  SystematicEncoder encoder(segment);
  for (std::size_t i = 0; i < params.n; ++i) {
    EXPECT_TRUE(encoder.in_systematic_phase());
    const CodedBlock block = encoder.next(rng);
    for (std::size_t j = 0; j < params.n; ++j) {
      EXPECT_EQ(block.coefficients()[j], j == i ? 1 : 0);
    }
    EXPECT_TRUE(std::equal(block.payload().begin(), block.payload().end(),
                           segment.block(i).begin()));
  }
  EXPECT_FALSE(encoder.in_systematic_phase());
}

TEST(SystematicEncoder, FallsBackToRandomCoding) {
  Rng rng(2);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  SystematicEncoder encoder(segment);
  for (std::size_t i = 0; i < params.n; ++i) (void)encoder.next(rng);
  const CodedBlock coded = encoder.next(rng);
  std::size_t nonzero = 0;
  for (std::uint8_t c : coded.coefficients()) {
    if (c != 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, params.n);  // dense random draw
}

TEST(SystematicEncoder, LossFreeDecodeNeedsExactlyNBlocks) {
  Rng rng(3);
  const Params params{.n = 16, .k = 64};
  const Segment segment = Segment::random(params, rng);
  SystematicEncoder encoder(segment);
  ProgressiveDecoder decoder(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    ASSERT_EQ(decoder.add(encoder.next(rng)),
              ProgressiveDecoder::Result::kAccepted);
  }
  EXPECT_TRUE(decoder.is_complete());
  EXPECT_EQ(decoder.decoded_segment(), segment);
  EXPECT_EQ(decoder.blocks_discarded(), 0u);
}

TEST(SystematicEncoder, RepairsLossWithCodedBlocks) {
  Rng rng(4);
  const Params params{.n = 12, .k = 48};
  const Segment segment = Segment::random(params, rng);
  SystematicEncoder encoder(segment);
  ProgressiveDecoder decoder(params);
  // Drop every third systematic block.
  for (std::size_t i = 0; i < params.n; ++i) {
    const CodedBlock block = encoder.next(rng);
    if (i % 3 != 2) decoder.add(block);
  }
  EXPECT_FALSE(decoder.is_complete());
  // Coded repair blocks fill the holes.
  while (!decoder.is_complete()) decoder.add(encoder.next(rng));
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

TEST(SystematicEncoder, ResetRestartsSystematicPass) {
  Rng rng(5);
  const Params params{.n = 4, .k = 8};
  const Segment segment = Segment::random(params, rng);
  SystematicEncoder encoder(segment);
  for (std::size_t i = 0; i < params.n + 2; ++i) (void)encoder.next(rng);
  EXPECT_FALSE(encoder.in_systematic_phase());
  encoder.reset();
  EXPECT_TRUE(encoder.in_systematic_phase());
  const CodedBlock first = encoder.next(rng);
  EXPECT_EQ(first.coefficients()[0], 1);
}

TEST(CoefficientModel, DenseDrawsNoZeros) {
  Rng rng(6);
  std::vector<std::uint8_t> coeffs(1000);
  CoefficientModel::dense().draw(rng, coeffs);
  for (std::uint8_t c : coeffs) EXPECT_NE(c, 0);
}

TEST(CoefficientModel, SparseDensityRoughlyHonored) {
  Rng rng(7);
  std::vector<std::uint8_t> coeffs(20000);
  CoefficientModel::sparse(0.25).draw(rng, coeffs);
  std::size_t nonzero = 0;
  for (std::uint8_t c : coeffs) {
    if (c != 0) ++nonzero;
  }
  const double density = static_cast<double>(nonzero) / coeffs.size();
  EXPECT_NEAR(density, 0.25, 0.02);
}

TEST(CoefficientModel, UniformHasOccasionalZeros) {
  Rng rng(8);
  std::vector<std::uint8_t> coeffs(20000);
  CoefficientModel::uniform().draw(rng, coeffs);
  std::size_t zeros = 0;
  for (std::uint8_t c : coeffs) {
    if (c == 0) ++zeros;
  }
  EXPECT_GT(zeros, 30u);   // ~78 expected at 1/256
  EXPECT_LT(zeros, 160u);
}

TEST(CoefficientModelDeathTest, ZeroDensityRejected) {
  EXPECT_DEATH(CoefficientModel::sparse(0.0), "EXTNC_CHECK");
}

TEST(CoefficientModel, SparseStillDecodes) {
  // Sparse codes decode fine, just with a few more dependent blocks.
  Rng rng(9);
  const Params params{.n = 16, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment, CoefficientModel::sparse(0.3));
  ProgressiveDecoder decoder(params);
  std::size_t sent = 0;
  while (!decoder.is_complete()) {
    decoder.add(encoder.encode(rng));
    ASSERT_LT(++sent, params.n * 4);
  }
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

}  // namespace
}  // namespace extnc::coding
