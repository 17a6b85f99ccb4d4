#include "gpu/hybrid_encoder.h"

#include <gtest/gtest.h>

#include "coding/encoder.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Encoder;
using coding::Params;
using coding::Segment;

TEST(HybridEncoder, MatchesReferenceBitExactly) {
  Rng rng(1);
  const Params params{.n = 16, .k = 256};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(4);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool);
  const Encoder reference(segment);
  const CodedBatch batch = hybrid.encode_batch(20, rng);
  std::vector<std::uint8_t> expected(params.k);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           batch.payload(j).begin()))
        << "block " << j;
  }
}

TEST(HybridEncoder, DefaultShareTracksModeledRatio) {
  // ~4.3x GPU advantage -> GPU share around 0.81.
  Rng rng(2);
  const Params params{.n = 128, .k = 4096};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool);
  EXPECT_GT(hybrid.gpu_share(), 0.75);
  EXPECT_LT(hybrid.gpu_share(), 0.88);
}

TEST(HybridEncoder, SplitCountsAddUp) {
  Rng rng(3);
  const Params params{.n = 8, .k = 64};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool,
                       EncodeScheme::kTable5, 0.5);
  EXPECT_EQ(hybrid.gpu_blocks(10), 5u);
  EXPECT_EQ(hybrid.gpu_blocks(1), 1u);  // rounds to at least the share
  EXPECT_EQ(hybrid.gpu_blocks(0), 0u);
}

TEST(HybridEncoder, AllGpuShareStillCorrect) {
  Rng rng(4);
  const Params params{.n = 8, .k = 64};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool,
                       EncodeScheme::kTable3, 1.0);
  const Encoder reference(segment);
  const CodedBatch batch = hybrid.encode_batch(6, rng);
  std::vector<std::uint8_t> expected(params.k);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           batch.payload(j).begin()));
  }
}

TEST(HybridEncoder, TinyShareRoutesMostBlocksToCpu) {
  Rng rng(5);
  const Params params{.n = 8, .k = 64};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool,
                       EncodeScheme::kTable5, 0.1);
  EXPECT_EQ(hybrid.gpu_blocks(20), 2u);
  const Encoder reference(segment);
  const CodedBatch batch = hybrid.encode_batch(20, rng);
  std::vector<std::uint8_t> expected(params.k);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           batch.payload(j).begin()));
  }
}

TEST(HybridEncoder, EmptyBatchIsNoop) {
  Rng rng(6);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(simgpu::gtx280(), segment, pool);
  CodedBatch batch(params, 0);
  hybrid.encode_into(batch);
  EXPECT_EQ(batch.count(), 0u);
}

TEST(HybridEncoderDeathTest, InvalidShareAborts) {
  Rng rng(7);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  EXPECT_DEATH(HybridEncoder(simgpu::gtx280(), segment, pool,
                             EncodeScheme::kTable5, 1.5),
               "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::gpu
