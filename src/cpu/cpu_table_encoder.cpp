#include "cpu/cpu_table_encoder.h"

#include <algorithm>
#include <cstring>

#include "gf256/gf.h"
#include "util/assert.h"

namespace extnc::cpu {

CpuTableEncoder::CpuTableEncoder(const coding::Segment& segment,
                                 ThreadPool& pool)
    : params_(segment.params()),
      pool_(&pool),
      log_segment_(params_.segment_bytes()) {
  const gf256::Tables& t = gf256::tables();
  const std::uint8_t* src = segment.data();
  std::uint8_t* dst = log_segment_.data();
  for (std::size_t i = 0; i < log_segment_.size(); ++i) dst[i] = t.log[src[i]];
}

coding::CodedBatch CpuTableEncoder::encode_batch(std::size_t count,
                                                 Rng& rng) const {
  coding::CodedBatch batch(params_, count);
  for (std::size_t j = 0; j < count; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  encode_into(batch);
  return batch;
}

void CpuTableEncoder::encode_into(coding::CodedBatch& batch) const {
  EXTNC_CHECK(batch.params() == params_);
  const coding::Params p = params_;
  const std::uint8_t* log_blocks = log_segment_.data();
  const std::size_t parts = std::min(batch.count(), pool_->num_threads());
  pool_->run_batch(
      parts, [&batch, log_blocks, p, parts](std::size_t part) {
        const gf256::Tables& t = gf256::tables();
        const auto [begin, end] = chunk_bounds(batch.count(), parts, part);
        // Step 2: transform this thread's coefficient rows to log domain.
        AlignedBuffer log_coeffs(p.n);
        for (std::size_t j = begin; j < end; ++j) {
          const std::uint8_t* coeffs = batch.coefficients(j).data();
          for (std::size_t i = 0; i < p.n; ++i) {
            log_coeffs[i] = t.log[coeffs[i]];
          }
          // Step 3: exp[log_c + log_b] accumulation (Fig. 5 inner loop),
          // destination-blocked so each payload block stays cache-resident
          // across all n source rows (same structure as the fused
          // mul_add_regions kernels; the log/exp scheme itself is kept as a
          // measured paper baseline).
          constexpr std::size_t kTableBlockBytes = 32 * 1024;
          std::uint8_t* out = batch.payload(j).data();
          std::memset(out, 0, p.k);
          for (std::size_t base = 0; base < p.k; base += kTableBlockBytes) {
            const std::size_t blen = std::min(kTableBlockBytes, p.k - base);
            for (std::size_t i = 0; i < p.n; ++i) {
              const std::uint8_t log_c = log_coeffs[i];
              if (log_c == gf256::kLogZero) continue;
              const std::uint8_t* row = log_blocks + i * p.k + base;
              std::uint8_t* block_out = out + base;
              for (std::size_t byte = 0; byte < blen; ++byte) {
                const std::uint8_t log_b = row[byte];
                if (log_b != gf256::kLogZero) {
                  block_out[byte] ^= t.exp[log_c + log_b];
                }
              }
            }
          }
        }
      });
}

}  // namespace extnc::cpu
