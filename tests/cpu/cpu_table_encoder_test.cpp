#include "cpu/cpu_table_encoder.h"

#include <gtest/gtest.h>

#include "coding/encoder.h"

namespace extnc::cpu {
namespace {

using coding::CodedBatch;
using coding::Encoder;
using coding::Params;
using coding::Segment;

TEST(CpuTableEncoder, MatchesLoopBasedReferenceBitExactly) {
  Rng rng(1);
  const Params params{.n = 16, .k = 200};
  const Segment segment = Segment::random(params, rng);
  const Encoder reference(segment);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const CpuTableEncoder table_encoder(segment, pool);
    const CodedBatch batch = table_encoder.encode_batch(10, rng);
    std::vector<std::uint8_t> expected(params.k);
    for (std::size_t j = 0; j < batch.count(); ++j) {
      reference.encode_with_coefficients(batch.coefficients(j), expected);
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             batch.payload(j).begin()))
          << "threads " << threads << " block " << j;
    }
  }
}

TEST(CpuTableEncoder, HandlesZeroSourceBytes) {
  // Zero bytes map to the 0xff log sentinel; the encoder must skip them,
  // not index exp[] with a bogus sum.
  Rng rng(2);
  const Params params{.n = 4, .k = 64};
  Segment segment(params);  // all zeros
  ThreadPool pool(2);
  const CpuTableEncoder encoder(segment, pool);
  const CodedBatch batch = encoder.encode_batch(3, rng);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    for (std::uint8_t b : batch.payload(j)) EXPECT_EQ(b, 0);
  }
}

TEST(CpuTableEncoder, MixedZeroAndNonzeroContent) {
  Rng rng(3);
  const Params params{.n = 8, .k = 128};
  Segment segment = Segment::random(params, rng);
  // Zero out one entire block and scatter zero bytes elsewhere.
  std::fill(segment.block(3).begin(), segment.block(3).end(), 0);
  segment.block(5)[7] = 0;
  ThreadPool pool(2);
  const CpuTableEncoder table_encoder(segment, pool);
  const Encoder reference(segment);
  const CodedBatch batch = table_encoder.encode_batch(5, rng);
  std::vector<std::uint8_t> expected(params.k);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           batch.payload(j).begin()));
  }
}

}  // namespace
}  // namespace extnc::cpu
