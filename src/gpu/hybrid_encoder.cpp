#include "gpu/hybrid_encoder.h"

#include <algorithm>

#include "cpu/xeon_model.h"
#include "gpu/gpu_model.h"
#include "util/assert.h"

namespace extnc::gpu {

HybridEncoder::HybridEncoder(const simgpu::DeviceSpec& spec,
                             const coding::Segment& segment, ThreadPool& pool,
                             EncodeScheme gpu_scheme, double gpu_share)
    : segment_(&segment),
      gpu_encoder_(spec, segment, gpu_scheme),
      cpu_encoder_(segment, pool, cpu::EncodePartitioning::kFullBlock),
      gpu_share_(gpu_share) {
  if (gpu_share_ < 0) {
    const double gpu_rate =
        model_encode_bandwidth(spec, gpu_scheme, segment.params()).mb_per_s;
    const double cpu_rate = cpu::XeonModel{}.encode_mb_per_s(
        segment.params(), cpu::EncodePartitioning::kFullBlock);
    gpu_share_ = gpu_rate / (gpu_rate + cpu_rate);
  }
  EXTNC_CHECK(gpu_share_ > 0.0 && gpu_share_ <= 1.0);
}

std::size_t HybridEncoder::gpu_blocks(std::size_t batch_size) const {
  return std::min(batch_size,
                  static_cast<std::size_t>(
                      static_cast<double>(batch_size) * gpu_share_ + 0.5));
}

void HybridEncoder::encode_into(coding::CodedBatch& batch) {
  EXTNC_CHECK(batch.params() == params());
  if (batch.count() == 0) return;
  const std::size_t gpu_count = gpu_blocks(batch.count());
  const std::size_t cpu_count = batch.count() - gpu_count;

  if (gpu_count > 0) {
    coding::CodedBatch gpu_part(params(), gpu_count);
    for (std::size_t j = 0; j < gpu_count; ++j) {
      std::copy(batch.coefficients(j).begin(), batch.coefficients(j).end(),
                gpu_part.coefficients(j).begin());
    }
    gpu_encoder_.encode_into(gpu_part);
    for (std::size_t j = 0; j < gpu_count; ++j) {
      std::copy(gpu_part.payload(j).begin(), gpu_part.payload(j).end(),
                batch.payload(j).begin());
    }
  }
  if (cpu_count > 0) {
    coding::CodedBatch cpu_part(params(), cpu_count);
    for (std::size_t j = 0; j < cpu_count; ++j) {
      std::copy(batch.coefficients(gpu_count + j).begin(),
                batch.coefficients(gpu_count + j).end(),
                cpu_part.coefficients(j).begin());
    }
    cpu_encoder_.encode_into(cpu_part);
    for (std::size_t j = 0; j < cpu_count; ++j) {
      std::copy(cpu_part.payload(j).begin(), cpu_part.payload(j).end(),
                batch.payload(gpu_count + j).begin());
    }
  }
}

coding::CodedBatch HybridEncoder::encode_batch(std::size_t count, Rng& rng) {
  coding::CodedBatch batch(params(), count);
  for (std::size_t j = 0; j < count; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  encode_into(batch);
  return batch;
}

}  // namespace extnc::gpu
