#include "gpu/gpu_multiseg_decoder.h"

#include <algorithm>
#include <cstring>

#include "gf256/gf.h"
#include "gf256/swar.h"
#include "gpu/gpu_encoder.h"
#include "gpu/kernel_cost.h"
#include "gpu/kernel_walks.h"
#include "util/assert.h"

namespace extnc::gpu {

using simgpu::BlockCtx;
using simgpu::ThreadCtx;

namespace {

std::uint32_t mul_word_charged(ThreadCtx& thread, std::uint8_t c,
                               std::uint32_t w) {
  thread.count_alu(kDecodeCost.per_iteration * gf256::loop_iterations(c) +
                   kDecodeCost.per_word);
  return gf256::mul_byte_word(c, w);
}

}  // namespace

GpuMultiSegmentDecoder::GpuMultiSegmentDecoder(const simgpu::DeviceSpec& spec,
                                               coding::Params params)
    : params_(params), launcher_(spec) {
  params_.validate();
  EXTNC_CHECK(params_.k % 4 == 0);
  EXTNC_CHECK(params_.n % 4 == 0);
}

void GpuMultiSegmentDecoder::reset_metrics() {
  stage1_ = simgpu::KernelMetrics{};
  stage2_ = simgpu::KernelMetrics{};
}

void GpuMultiSegmentDecoder::attach_profiler(simgpu::Profiler* profiler) {
  profiler_ = profiler;
  launcher_.set_profiler(profiler);
  launcher_.set_launch_label("decode/multiseg/invert");
}

std::vector<coding::Segment> GpuMultiSegmentDecoder::decode_all(
    const std::vector<coding::CodedBatch>& batches) {
  for (const auto& batch : batches) {
    EXTNC_CHECK(batch.params() == params_);
    EXTNC_CHECK(batch.count() == params_.n);
  }
  std::vector<coding::Segment> out(batches.size());
  if (batches.empty()) return out;

  std::vector<AlignedBuffer> inverses;
  invert_stage(batches, inverses);
  multiply_stage(batches, inverses, out);
  return out;
}

// Stage 1: one thread block per segment runs Gauss-Jordan on the
// augmented [C | I] (rows of 2n bytes). Row operations parallelize across
// the 2n/4 words of a row; the column loop and pivot selection are the
// serial backbone.
void GpuMultiSegmentDecoder::invert_stage(
    const std::vector<coding::CodedBatch>& batches,
    std::vector<AlignedBuffer>& inverses) {
  const std::size_t n = params_.n;
  const std::size_t s = batches.size();
  const std::size_t row_bytes = 2 * n;
  const std::size_t row_words = row_bytes / 4;
  // Only the column loop is serial: within a column, the eliminations of
  // all n-1 other rows are independent, so the block parallelizes over
  // (row, word) pairs and runs with a full complement of threads.
  const std::size_t threads = std::min<std::size_t>(
      n * row_words,
      static_cast<std::size_t>(launcher_.spec().max_threads_per_block));

  // Augmented working matrices, one per segment.
  std::vector<AlignedBuffer> work;
  work.reserve(s);
  for (const auto& batch : batches) {
    AlignedBuffer aug(n * row_bytes);
    for (std::size_t r = 0; r < n; ++r) {
      std::memcpy(aug.data() + r * row_bytes, batch.coefficients(r).data(), n);
      aug[r * row_bytes + n + r] = 1;
    }
    work.push_back(std::move(aug));
  }

  // Under the sanitizer: the working matrices are this stage's only
  // device buffers, and the per-column pivot search runs on one lane (a
  // declared partial step).
  std::vector<simgpu::Checker::ScopedWatch> work_watches;
  if (launcher_.checker() != nullptr) {
    work_watches.reserve(s);
    for (AlignedBuffer& aug : work) {
      work_watches.emplace_back(launcher_.checker(), aug.data(), aug.size(),
                                "invert_work");
    }
  }

  launcher_.reset_metrics();
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = s,
       .threads_per_block = threads,
       .shape = {.partial_counts = {1}}},
      [&](BlockCtx& block) {
        std::uint8_t* aug = work[block.block_index()].data();
        auto row = [&](std::size_t r) { return aug + r * row_bytes; };
        const std::size_t half = block.spec().half_warp;

        // Bulk lowering: the shared inverter walk (kernel_walks.h), with
        // SIMD region ops for the row arithmetic. It needs every lane of
        // the swap, scale and factor steps to run one strided iteration.
        if (block.fast_path() && threads >= row_words && threads >= n &&
            half <= 16) {
          tally.lowered();
          BlockSink sink(block);
          invert_block_walk(sink, sink, aug, n, threads, half,
                            reinterpret_cast<std::uintptr_t>(aug));
          return;
        }

        for (std::size_t col = 0; col < n; ++col) {
          // Pivot search: scan rows >= col for a nonzero in this column
          // (serial on one thread, as the real kernel's thread 0 would).
          std::size_t pivot = n;
          block.step_partial(1, [&](ThreadCtx& thread) {
            for (std::size_t r = col; r < n; ++r) {
              thread.count_alu(kDecodeCost.pivot_search_per_byte);
              if (row(r)[col] != 0) {
                pivot = r;
                break;
              }
            }
          });
          EXTNC_CHECK(pivot != n);  // batches hold independent rows
          if (pivot != col) {
            block.step([&](ThreadCtx& thread) {
              for (std::size_t w = thread.lane(); w < row_words;
                   w += threads) {
                const std::uint32_t a = thread.gload_u32(row(col) + w * 4);
                const std::uint32_t b = thread.gload_u32(row(pivot) + w * 4);
                thread.gstore_u32(row(col) + w * 4, b);
                thread.gstore_u32(row(pivot) + w * 4, a);
              }
            });
          }
          const std::uint8_t scale = gf256::inv(row(col)[col]);
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < row_words; w += threads) {
              const std::uint32_t v = thread.gload_u32(row(col) + w * 4);
              thread.gstore_u32(row(col) + w * 4,
                                mul_word_charged(thread, scale, v));
            }
          });
          // Stage each row's elimination factor into shared memory behind
          // a barrier: the elimination itself overwrites column `col`, so
          // factors must be snapshotted first.
          block.step([&](ThreadCtx& thread) {
            for (std::size_t r = thread.lane(); r < n; r += threads) {
              const std::uint8_t f =
                  r == col ? 0 : thread.gload_u8(&row(r)[col]);
              thread.sstore_u8(r, f);
            }
          });
          // Eliminate this column from every other row in one step: work
          // item (r, w) updates word w of row r against the pivot row.
          block.step([&](ThreadCtx& thread) {
            for (std::size_t item = thread.lane(); item < n * row_words;
                 item += threads) {
              const std::size_t r = item / row_words;
              const std::size_t w = item % row_words;
              const std::uint8_t factor = thread.sload_u8(r);
              if (factor == 0) {
                thread.skip_access();
                thread.skip_access();
                thread.skip_access();
                continue;
              }
              const std::uint32_t d = thread.gload_u32(row(r) + w * 4);
              const std::uint32_t p = thread.gload_u32(row(col) + w * 4);
              thread.gstore_u32(row(r) + w * 4,
                                d ^ mul_word_charged(thread, factor, p));
            }
          });
        }
      });
  stage1_.merge(launcher_.metrics());

  // Extract C^-1 (right halves).
  inverses.clear();
  inverses.reserve(s);
  for (std::size_t seg = 0; seg < s; ++seg) {
    AlignedBuffer inverse(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      std::memcpy(inverse.data() + r * n,
                  work[seg].data() + r * row_bytes + n, n);
    }
    inverses.push_back(std::move(inverse));
  }
}

// Stage 2: b = C^-1 * x — "a regular multiplication in Galois field,
// similar to the encoding process of Eq. 1" (Sec. 5.2), so it reuses the
// best encode kernel (table-based-5 with log-domain preprocessing): row r
// of C^-1 plays the role of a coefficient vector and the collected coded
// payloads x play the role of source blocks. This is what lets decoding
// approach the encoding rate at large block sizes (254 vs 294 MB/s at
// n = 128 in the paper).
void GpuMultiSegmentDecoder::multiply_stage(
    const std::vector<coding::CodedBatch>& batches,
    const std::vector<AlignedBuffer>& inverses,
    std::vector<coding::Segment>& out) {
  const std::size_t n = params_.n;
  const std::size_t k = params_.k;
  for (std::size_t seg = 0; seg < batches.size(); ++seg) {
    // The coded payload matrix x as a pseudo-segment of n blocks.
    coding::Segment payload_segment = coding::Segment::from_bytes(
        params_, std::span(batches[seg].payloads_data(), n * k));
    GpuEncoder multiplier(launcher_.spec(), payload_segment,
                          EncodeScheme::kTable5, profiler_,
                          "decode/multiseg/stage2",
                          launcher_.fault_injector(), launcher_.checker());
    coding::CodedBatch product(params_, n);
    for (std::size_t r = 0; r < n; ++r) {
      std::memcpy(product.coefficients(r).data(),
                  inverses[seg].data() + r * n, n);
    }
    multiplier.encode_into(product);
    out[seg] = coding::Segment(params_);
    for (std::size_t r = 0; r < n; ++r) {
      std::memcpy(out[seg].block(r).data(), product.payload(r).data(), k);
    }
    stage2_.merge(multiplier.encode_metrics());
    stage2_.merge(multiplier.preprocess_metrics());
  }
}

}  // namespace extnc::gpu
