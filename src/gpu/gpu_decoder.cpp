#include "gpu/gpu_decoder.h"

#include <algorithm>
#include <cstring>

#include "gf256/gf.h"
#include "gpu/kernel_cost.h"
#include "util/assert.h"

namespace extnc::gpu {

using simgpu::BlockCtx;
using simgpu::ThreadCtx;

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}


}  // namespace

GpuSingleSegmentDecoder::GpuSingleSegmentDecoder(
    const simgpu::DeviceSpec& spec, coding::Params params,
    DecodeOptions options)
    : params_(params),
      options_(options),
      launcher_(spec),
      payloads_(params.n * params.k),
      present_(params.n, false) {
  params_.validate();
  // Kernels operate on 32-bit words across both the coefficient and the
  // payload sides of the aggregate row.
  EXTNC_CHECK(params_.k % 4 == 0);
  EXTNC_CHECK(params_.n % 4 == 0);
  if (options_.use_atomic_min) EXTNC_CHECK(spec.has_shared_atomics);
  if (options_.cache_coefficients) {
    // The atomic pivot word lives just past the cached matrix (see add()).
    const std::size_t scratch = options_.use_atomic_min ? 4 : 0;
    EXTNC_CHECK(params_.n * params_.n + scratch <= spec.shared_mem_per_sm);
  }
  // One thread block per SM; the payload is divided evenly among them
  // (Fig. 3), in whole words.
  data_blocks_ = std::min<std::size_t>(spec.num_sms, params_.k / 4);
  data_blocks_ = std::max<std::size_t>(data_blocks_, 1);
  slice_bytes_ = (params_.k / 4 + data_blocks_ - 1) / data_blocks_ * 4;
  coeff_copies_.reserve(data_blocks_);
  for (std::size_t b = 0; b < data_blocks_; ++b) {
    coeff_copies_.emplace_back(params_.n * params_.n);
  }
}

GpuSingleSegmentDecoder::Result GpuSingleSegmentDecoder::add(
    const coding::CodedBlock& block) {
  EXTNC_CHECK(block.params() == params_);
  return add(block.coefficients(), block.payload());
}

GpuSingleSegmentDecoder::Result GpuSingleSegmentDecoder::add(
    std::span<const std::uint8_t> coefficients,
    std::span<const std::uint8_t> payload) {
  EXTNC_CHECK(coefficients.size() == params_.n);
  EXTNC_CHECK(payload.size() == params_.k);
  if (is_complete()) return Result::kAlreadyComplete;

  const std::size_t n = params_.n;
  const std::size_t k = params_.k;

  // Per-block private scratch coefficient rows (the arrival is DMA'd into
  // device memory; the copy itself is not kernel work).
  std::vector<AlignedBuffer> scratch_c(data_blocks_, AlignedBuffer(n));
  for (auto& copy : scratch_c) {
    std::memcpy(copy.data(), coefficients.data(), n);
  }
  AlignedBuffer scratch_p(k);
  std::memcpy(scratch_p.data(), payload.data(), k);

  // Under the sanitizer, the per-call scratch buffers are valid regions
  // only for the duration of this add().
  simgpu::Checker* checker = launcher_.checker();
  std::vector<simgpu::Checker::ScopedWatch> scratch_watches;
  if (checker != nullptr) {
    scratch_watches.reserve(data_blocks_ + 1);
    for (AlignedBuffer& copy : scratch_c) {
      scratch_watches.emplace_back(checker, copy.data(), copy.size(),
                                   "scratch_coeffs");
    }
    scratch_watches.emplace_back(checker, scratch_p.data(), scratch_p.size(),
                                 "scratch_payload");
  }

  // Thread geometry: threads cover the widest aggregate row [C_row | x_b].
  const std::size_t aggregate_words = (n + slice_bytes_) / 4 + 1;
  const std::size_t threads = std::min<std::size_t>(
      aggregate_words,
      static_cast<std::size_t>(launcher_.spec().max_threads_per_block));
  const std::size_t coeff_words = (n + 3) / 4;

  // Every block replicates the coefficient-side decisions, so each lands
  // on the same pivot; blocks report theirs into a disjoint slot and the
  // host applies the bookkeeping (present_/rank_) after the launch. The
  // kernel itself must not mutate present_ — blocks still reading it may
  // run on other worker threads under the parallel engine.
  std::vector<std::size_t> pivots(data_blocks_, n);

  // Shared word receiving the atomicMin pivot reports; placed after the
  // cached coefficient matrix when both Sec. 5.4 options are on. It must
  // be seeded before the search (a lane whose words are all zero
  // contributes n, and the minimum over lanes must start from n, not from
  // whatever the scratchpad held) — a single-lane partial step, declared
  // in the launch shape so the sanitizer knows it is intentional.
  const std::size_t pivot_scratch =
      options_.cache_coefficients ? n * n : 0;
  simgpu::LaunchConfig config{.blocks = data_blocks_,
                              .threads_per_block = threads};
  if (options_.use_atomic_min) config.shape.partial_counts = {1};

  launcher_.launch(
      config,
      [&](BlockCtx& block) {
        const std::size_t b = block.block_index();
        std::uint8_t* my_coeffs = coeff_copies_[b].data();
        std::uint8_t* my_scratch_c = scratch_c[b].data();
        const std::size_t slice_begin = std::min(k, b * slice_bytes_);
        const std::size_t slice_end = std::min(k, slice_begin + slice_bytes_);
        const std::size_t slice_words = (slice_end - slice_begin) / 4;
        const std::size_t row_words = coeff_words + slice_words;

        // Optional Sec. 5.4.3: stage the private coefficient matrix in
        // shared memory for the duration of this launch.
        if (options_.cache_coefficients) {
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < n * n / 4 + 1;
                 w += threads) {
              if (w * 4 + 4 <= n * n) {
                thread.sstore_u32(w * 4,
                                  thread.gload_u32(my_coeffs + w * 4));
              }
            }
          });
        }

        // One aggregate row operation: dst ^= factor * stored_row, where
        // word index < coeff_words addresses the coefficient side and the
        // rest addresses this block's payload slice.
        auto row_op = [&](std::uint8_t factor, std::size_t stored_row,
                          bool scale_only, std::uint8_t scale) {
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < row_words; w += threads) {
              std::uint8_t* dst;
              const std::uint8_t* stored;
              bool coeff_side = w < coeff_words;
              if (coeff_side) {
                dst = my_scratch_c + w * 4;
                stored = my_coeffs + stored_row * n + w * 4;
              } else {
                const std::size_t off =
                    slice_begin + (w - coeff_words) * 4;
                dst = scratch_p.data() + off;
                stored = payloads_.data() + stored_row * k + off;
              }
              if (scale_only) {
                const std::uint32_t v = thread.gload_u32(dst);
                thread.gstore_u32(dst,
                                  mul_word_charged(thread, scale, v));
              } else {
                std::uint32_t s;
                if (coeff_side && options_.cache_coefficients) {
                  s = thread.sload_u32(stored_row * n + w * 4);
                } else {
                  s = thread.gload_u32(stored);
                }
                const std::uint32_t d = thread.gload_u32(dst);
                thread.gstore_u32(dst,
                                  d ^ mul_word_charged(thread, factor, s));
              }
            }
          });
        };

        // Forward elimination. All blocks replicate the coefficient-side
        // decisions; the factor is read from this block's own scratch.
        for (std::size_t col = 0; col < n; ++col) {
          if (!present_[col]) continue;
          const std::uint8_t factor = my_scratch_c[col];
          if (factor == 0) continue;
          row_op(factor, col, /*scale_only=*/false, 0);
        }

        // Pivot search (the per-block synchronization point the paper
        // calls the obstacle to deep parallelization).
        std::size_t pivot = n;
        if (options_.use_atomic_min) {
          block.step_partial(1, [&](ThreadCtx& thread) {
            thread.sstore_u32(pivot_scratch, static_cast<std::uint32_t>(n));
          });
        }
        block.step([&](ThreadCtx& thread) {
          // Threads covering the coefficient side scan their words.
          if (thread.lane() >= coeff_words) return;
          const std::size_t begin = thread.lane() * 4;
          const std::size_t end = std::min(n, begin + 4);
          std::size_t local = n;
          for (std::size_t c = begin; c < end; ++c) {
            thread.count_alu(kDecodeCost.pivot_search_per_byte);
            if (my_scratch_c[c] != 0 && c < local) local = c;
          }
          if (options_.use_atomic_min) {
            thread.count_alu(kDecodeCost.pivot_reduce_atomic);
            thread.atomic_min_shared(pivot_scratch,
                                     static_cast<std::uint32_t>(local));
          } else {
            thread.count_alu(kDecodeCost.pivot_reduce_per_thread);
          }
          if (local < pivot) pivot = local;
        });
        if (pivot == n) return;  // dependent; all blocks agree

        // Normalize the pivot to 1.
        const std::uint8_t scale = gf256::inv(my_scratch_c[pivot]);
        row_op(0, 0, /*scale_only=*/true, scale);

        // Back-eliminate the new pivot column from stored rows.
        for (std::size_t p = 0; p < n; ++p) {
          if (!present_[p]) continue;
          const std::uint8_t factor = my_coeffs[p * n + pivot];
          if (factor == 0) continue;
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < row_words; w += threads) {
              std::uint8_t* dst;
              const std::uint8_t* src;
              if (w < coeff_words) {
                dst = my_coeffs + p * n + w * 4;
                src = my_scratch_c + w * 4;
              } else {
                const std::size_t off = slice_begin + (w - coeff_words) * 4;
                dst = payloads_.data() + p * k + off;
                src = scratch_p.data() + off;
              }
              const std::uint32_t d = thread.gload_u32(dst);
              const std::uint32_t s = thread.gload_u32(src);
              thread.gstore_u32(dst, d ^ mul_word_charged(thread, factor, s));
            }
          });
        }

        // Store the new row (coefficients into this block's copy, payload
        // slice into the canonical matrix).
        block.step([&](ThreadCtx& thread) {
          for (std::size_t w = thread.lane(); w < row_words; w += threads) {
            if (w < coeff_words) {
              thread.gstore_u32(my_coeffs + pivot * n + w * 4,
                                load_u32(my_scratch_c + w * 4));
            } else {
              const std::size_t off = slice_begin + (w - coeff_words) * 4;
              thread.gstore_u32(payloads_.data() + pivot * k + off,
                                load_u32(scratch_p.data() + off));
            }
          }
        });

        pivots[b] = pivot;
      });

  const std::size_t pivot = pivots.front();
  for (std::size_t b = 1; b < data_blocks_; ++b) {
    EXTNC_CHECK(pivots[b] == pivot);  // replicated decisions must agree
  }
  if (pivot == n) return Result::kLinearlyDependent;
  present_[pivot] = true;
  ++rank_;
  return Result::kAccepted;
}

void GpuSingleSegmentDecoder::attach_checker(simgpu::Checker* checker) {
  launcher_.set_checker(checker);
  if (checker == nullptr) return;
  for (AlignedBuffer& copy : coeff_copies_) {
    checker->watch_global(copy.data(), copy.size(), "coeff_copy");
  }
  checker->watch_global(payloads_.data(), payloads_.size(), "payloads");
}

coding::Segment GpuSingleSegmentDecoder::decoded_segment() const {
  EXTNC_CHECK(is_complete());
  coding::Segment segment(params_);
  std::memcpy(segment.data(), payloads_.data(), params_.segment_bytes());
  return segment;
}

}  // namespace extnc::gpu
