// Differential test across EVERY encoder implementation in the library:
// for identical coefficient rows they must all produce identical payloads.
// This is the single strongest guard on the reproduction's correctness —
// seven GPU schemes, two CPU partitioning schemes, the hybrid splitter and
// the scalar reference all reduce to the same algebra.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "cpu/cpu_encoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/hybrid_encoder.h"
#include "util/rng.h"

namespace extnc {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;

struct Case {
  std::size_t n;
  std::size_t k;
};

class EncoderDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(EncoderDifferential, AllImplementationsAgree) {
  const auto [n, k] = GetParam();
  const Params params{.n = n, .k = k};
  Rng rng(n * 1000 + k);
  Segment segment = Segment::random(params, rng);
  // Sprinkle zero bytes to exercise every sentinel path.
  segment.block(0)[0] = 0;
  if (n > 2) std::fill(segment.block(2).begin(), segment.block(2).end(), 0);

  // One shared coefficient batch.
  CodedBatch reference_batch(params, 6);
  for (std::size_t j = 0; j < reference_batch.count(); ++j) {
    for (auto& c : reference_batch.coefficients(j)) {
      c = (j == 1) ? rng.next_byte()  // block 1 may contain zero coeffs
                   : rng.next_nonzero_byte();
    }
  }
  const coding::Encoder reference(segment);
  std::vector<std::vector<std::uint8_t>> expected(reference_batch.count());
  for (std::size_t j = 0; j < reference_batch.count(); ++j) {
    expected[j].resize(params.k);
    reference.encode_with_coefficients(reference_batch.coefficients(j),
                                       expected[j]);
  }

  auto check = [&](const std::string& name, auto&& encode_into) {
    CodedBatch batch(params, reference_batch.count());
    for (std::size_t j = 0; j < batch.count(); ++j) {
      std::copy(reference_batch.coefficients(j).begin(),
                reference_batch.coefficients(j).end(),
                batch.coefficients(j).begin());
    }
    encode_into(batch);
    for (std::size_t j = 0; j < batch.count(); ++j) {
      ASSERT_TRUE(std::equal(expected[j].begin(), expected[j].end(),
                             batch.payload(j).begin()))
          << name << " block " << j << " (n=" << n << ", k=" << k << ")";
    }
  };

  ThreadPool pool(3);
  check("cpu full-block", [&](CodedBatch& b) {
    cpu::CpuEncoder(segment, pool, cpu::EncodePartitioning::kFullBlock)
        .encode_into(b);
  });
  check("cpu partitioned", [&](CodedBatch& b) {
    cpu::CpuEncoder(segment, pool, cpu::EncodePartitioning::kPartitionedBlock)
        .encode_into(b);
  });
  for (gpu::EncodeScheme scheme :
       {gpu::EncodeScheme::kLoopBased, gpu::EncodeScheme::kTable0,
        gpu::EncodeScheme::kTable1, gpu::EncodeScheme::kTable2,
        gpu::EncodeScheme::kTable3, gpu::EncodeScheme::kTable4,
        gpu::EncodeScheme::kTable5}) {
    check(std::string("gpu ") + gpu::scheme_name(scheme),
          [&](CodedBatch& b) {
            gpu::GpuEncoder(simgpu::gtx280(), segment, scheme).encode_into(b);
          });
    check(std::string("gpu-8800gt ") + gpu::scheme_name(scheme),
          [&](CodedBatch& b) {
            gpu::GpuEncoder(simgpu::geforce_8800gt(), segment, scheme)
                .encode_into(b);
          });
  }
  check("hybrid", [&](CodedBatch& b) {
    gpu::HybridEncoder(simgpu::gtx280(), segment, pool).encode_into(b);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncoderDifferential,
    ::testing::Values(Case{4, 4}, Case{4, 64}, Case{16, 128}, Case{32, 68},
                      Case{64, 256}, Case{128, 32}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

}  // namespace
}  // namespace extnc
