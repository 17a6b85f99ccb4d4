#include "cpu/cpu_encoder.h"

#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "coding/progressive_decoder.h"

namespace extnc::cpu {
namespace {

using coding::CodedBatch;
using coding::Encoder;
using coding::Params;
using coding::ProgressiveDecoder;
using coding::Segment;

// Fill a batch's coefficient rows deterministically.
void fill_coefficients(CodedBatch& batch, Rng& rng) {
  for (std::size_t j = 0; j < batch.count(); ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
}

class CpuEncoderModes : public ::testing::TestWithParam<EncodePartitioning> {};

TEST_P(CpuEncoderModes, MatchesReferenceEncoderBitExactly) {
  Rng rng(1);
  const Params params{.n = 32, .k = 257};  // awkward k on purpose
  const Segment segment = Segment::random(params, rng);
  const Encoder reference(segment);
  // Pool sizes around and above the batch and slice counts: the split of
  // work across threads must never show in the output.
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const CpuEncoder cpu_encoder(segment, pool, GetParam());
    for (const std::size_t count : {16u, 5u}) {
      CodedBatch batch(params, count);
      fill_coefficients(batch, rng);
      cpu_encoder.encode_into(batch);

      std::vector<std::uint8_t> expected(params.k);
      for (std::size_t j = 0; j < batch.count(); ++j) {
        reference.encode_with_coefficients(batch.coefficients(j), expected);
        ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                               batch.payload(j).begin()))
            << "threads " << threads << " count " << count << " block " << j;
      }
    }
  }
}

TEST_P(CpuEncoderModes, OutputDecodes) {
  Rng rng(2);
  const Params params{.n = 16, .k = 100};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(3);
  const CpuEncoder encoder(segment, pool, GetParam());
  const CodedBatch batch = encoder.encode_batch(params.n + 4, rng);
  ProgressiveDecoder decoder(params);
  for (std::size_t j = 0; j < batch.count() && !decoder.is_complete(); ++j) {
    decoder.add(batch.coefficients(j), batch.payload(j));
  }
  ASSERT_TRUE(decoder.is_complete());
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

TEST_P(CpuEncoderModes, DeterministicAcrossThreadCounts) {
  Rng rng(3);
  const Params params{.n = 24, .k = 333};
  const Segment segment = Segment::random(params, rng);
  CodedBatch batch1(params, 9);
  fill_coefficients(batch1, rng);
  CodedBatch batch8(params, 9);
  for (std::size_t j = 0; j < 9; ++j) {
    std::copy(batch1.coefficients(j).begin(), batch1.coefficients(j).end(),
              batch8.coefficients(j).begin());
  }
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  CpuEncoder enc1(segment, pool1, GetParam());
  CpuEncoder enc8(segment, pool8, GetParam());
  enc1.encode_into(batch1);
  enc8.encode_into(batch8);
  for (std::size_t j = 0; j < 9; ++j) {
    ASSERT_TRUE(std::equal(batch1.payload(j).begin(), batch1.payload(j).end(),
                           batch8.payload(j).begin()));
  }
}

TEST_P(CpuEncoderModes, EmptyBatchIsNoop) {
  Rng rng(4);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(2);
  const CpuEncoder encoder(segment, pool, GetParam());
  CodedBatch batch(params, 0);
  encoder.encode_into(batch);  // must not crash
  EXPECT_EQ(batch.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, CpuEncoderModes,
                         ::testing::Values(EncodePartitioning::kFullBlock,
                                           EncodePartitioning::kPartitionedBlock));

TEST(CpuEncoder, BothSchemesAgreeWithEachOther) {
  Rng rng(5);
  const Params params{.n = 48, .k = 1024};
  const Segment segment = Segment::random(params, rng);
  ThreadPool pool(4);
  CodedBatch a(params, 8);
  fill_coefficients(a, rng);
  CodedBatch b(params, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    std::copy(a.coefficients(j).begin(), a.coefficients(j).end(),
              b.coefficients(j).begin());
  }
  CpuEncoder full(segment, pool, EncodePartitioning::kFullBlock);
  CpuEncoder part(segment, pool, EncodePartitioning::kPartitionedBlock);
  full.encode_into(a);
  part.encode_into(b);
  for (std::size_t j = 0; j < 8; ++j) {
    ASSERT_TRUE(std::equal(a.payload(j).begin(), a.payload(j).end(),
                           b.payload(j).begin()));
  }
}

}  // namespace
}  // namespace extnc::cpu
