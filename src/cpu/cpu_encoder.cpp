#include "cpu/cpu_encoder.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "gf256/region.h"
#include "util/assert.h"

namespace extnc::cpu {

namespace {

// Source-block pointer table shared by every coded block of a batch; the
// fused mul_add_regions kernel consumes it directly.
std::vector<const std::uint8_t*> block_pointers(const coding::Segment& segment,
                                                std::size_t n) {
  std::vector<const std::uint8_t*> sources(n);
  for (std::size_t i = 0; i < n; ++i) sources[i] = segment.block(i).data();
  return sources;
}

}  // namespace

CpuEncoder::CpuEncoder(const coding::Segment& segment, ThreadPool& pool,
                       EncodePartitioning partitioning)
    : segment_(&segment), pool_(&pool), partitioning_(partitioning) {}

coding::CodedBatch CpuEncoder::encode_batch(std::size_t count, Rng& rng) const {
  coding::CodedBatch batch(params(), count);
  for (std::size_t j = 0; j < count; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  encode_into(batch);
  return batch;
}

void CpuEncoder::encode_into(coding::CodedBatch& batch) const {
  EXTNC_CHECK(batch.params() == params());
  if (batch.count() == 0) return;
  if (partitioning_ == EncodePartitioning::kFullBlock) {
    encode_full_block(batch);
  } else {
    encode_partitioned(batch);
  }
}

void CpuEncoder::encode_full_block(coding::CodedBatch& batch) const {
  // Each thread owns a contiguous range of coded blocks and encodes them
  // start to finish.
  const coding::Params p = params();
  const std::vector<const std::uint8_t*> sources =
      block_pointers(*segment_, p.n);
  const std::size_t parts = std::min(batch.count(), pool_->num_threads());
  pool_->run_batch(parts, [&batch, &sources, p, parts](std::size_t part) {
    const gf256::Ops& ops = gf256::ops();
    const auto [begin, end] = chunk_bounds(batch.count(), parts, part);
    for (std::size_t j = begin; j < end; ++j) {
      std::uint8_t* out = batch.payload(j).data();
      std::memset(out, 0, p.k);
      ops.mul_add_regions(out, sources.data(), batch.coefficients(j).data(),
                          p.n, p.k);
    }
  });
}

void CpuEncoder::encode_partitioned(coding::CodedBatch& batch) const {
  // All threads cooperate on one coded block at a time, each covering one
  // contiguous byte slice of the payload. Slices are multiples of 64 bytes
  // so SIMD region ops stay on full vectors.
  const coding::Params p = params();
  const std::size_t threads = pool_->num_threads();
  const std::size_t slice =
      ((p.k + threads - 1) / threads + 63) & ~std::size_t{63};
  const std::size_t slices = (p.k + slice - 1) / slice;
  // Source pointers shifted to each slice, shared by every coded block.
  std::vector<const std::uint8_t*> shifted(slices * p.n);
  for (std::size_t s = 0; s < slices; ++s) {
    for (std::size_t i = 0; i < p.n; ++i) {
      shifted[s * p.n + i] = segment_->block(i).data() + s * slice;
    }
  }
  for (std::size_t j = 0; j < batch.count(); ++j) {
    std::uint8_t* out = batch.payload(j).data();
    const std::uint8_t* coeffs = batch.coefficients(j).data();
    pool_->run_batch(slices, [out, coeffs, &shifted, p, slice](std::size_t s) {
      const std::size_t offset = s * slice;
      const std::size_t len = std::min(slice, p.k - offset);
      std::memset(out + offset, 0, len);
      gf256::ops().mul_add_regions(out + offset, shifted.data() + s * p.n,
                                   coeffs, p.n, len);
    });
  }
}

}  // namespace extnc::cpu
