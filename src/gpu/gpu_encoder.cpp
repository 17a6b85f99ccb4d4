#include "gpu/gpu_encoder.h"

#include <algorithm>
#include <cstring>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "gf256/swar.h"
#include "gpu/kernel_audit.h"
#include "gpu/kernel_cost.h"
#include "gpu/kernel_walks.h"
#include "gpu/table_layout.h"
#include "util/assert.h"

namespace extnc::gpu {

using simgpu::BlockCtx;
using simgpu::LaunchConfig;
using simgpu::ThreadCtx;

namespace {

// Block size of the table-based kernels (one resident block per SM).
constexpr std::size_t kTableThreads = 256;

std::uintptr_t uptr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

// The coded words of one fast-path encode block, computed as SIMD region
// products over the natural-domain segment and coefficient rows (the
// log-domain round trip is exact GF(2^8) arithmetic, so the bytes equal
// the kernel's): one region per (same-coded-block run, source row).
void encode_block_data(const coding::Params& p, const std::uint8_t* src,
                       const std::uint8_t* coeffs, std::uint8_t* out,
                       std::size_t total_words, std::size_t threads,
                       std::size_t stride, std::size_t block) {
  const gf256::Ops& gops = gf256::ops();
  const std::size_t words_per_block = p.k / 4;
  for (std::size_t base = block * threads; base < total_words;
       base += stride) {
    const std::size_t end = base + std::min(threads, total_words - base);
    for (std::size_t w = base; w < end;) {
      const std::size_t j = w / words_per_block;
      const std::size_t word0 = w % words_per_block;
      const std::size_t run = std::min(words_per_block - word0, end - w);
      std::uint8_t* dst = out + j * p.k + word0 * 4;
      std::memset(dst, 0, run * 4);
      for (std::size_t i = 0; i < p.n; ++i) {
        gops.mul_add_region(dst, src + i * p.k + word0 * 4,
                            coeffs[j * p.n + i], run * 4);
      }
      w += run;
    }
  }
}

}  // namespace

GpuEncoder::GpuEncoder(const simgpu::DeviceSpec& spec,
                       const coding::Segment& segment, EncodeScheme scheme,
                       simgpu::Profiler* profiler, std::string label_prefix,
                       simgpu::FaultInjector* injector,
                       simgpu::Checker* checker)
    : segment_(&segment),
      scheme_(scheme),
      launcher_(spec),
      label_prefix_(std::move(label_prefix)) {
  launcher_.set_profiler(profiler);
  launcher_.set_fault_injector(injector);
  const coding::Params& p = segment.params();
  EXTNC_CHECK(p.k % 4 == 0);  // GPU kernels operate on 32-bit words
  const gf256::Tables& t = gf256::tables();

  // Host-side table construction ("created on the CPU side once and then
  // transferred to the GPU memory", Sec. 5.1).
  const bool shifted = scheme_uses_shifted_log(scheme_);
  exp_table_bytes_ = AlignedBuffer(kExpTableEntries);
  for (std::size_t i = 0; i < kExpTableEntries; ++i) {
    exp_table_bytes_[i] = shifted ? t.exp_shifted[i] : t.exp[i];
  }
  if (scheme_ == EncodeScheme::kTable0) {
    log_table_bytes_ = AlignedBuffer(256);
    for (std::size_t i = 0; i < 256; ++i) log_table_bytes_[i] = t.log[i];
  }
  if (scheme_ == EncodeScheme::kTable5) {
    // Eight word-width copies, interleaved so that copy c of entry i lives
    // at word index i * 8 + c: a thread using copy (lane % 8) then only
    // ever touches two banks, halving the expected conflict degree.
    exp_table_words_ = AlignedBuffer(kExpTableEntries * kReplicatedTables * 4);
    for (std::size_t i = 0; i < kExpTableEntries; ++i) {
      for (std::size_t c = 0; c < kReplicatedTables; ++c) {
        const std::size_t word = i * kReplicatedTables + c;
        const std::uint32_t value = t.exp_shifted[i];
        std::memcpy(exp_table_words_.data() + word * 4, &value, 4);
      }
    }
  }
  // Attach before the construction-time preprocessing launch so it runs
  // checked too.
  attach_checker(checker);
  if (scheme_is_preprocessed(scheme_)) {
    preprocess_segment();
  }

  // The table-scheme fast-path accounting is a function of the immutable
  // accounting-domain segment and the device alone, so it is built here,
  // before any launch that reads it: block bodies, which the parallel
  // engine runs concurrently, only read it.
  const auto half = static_cast<std::size_t>(spec.half_warp);
  if (scheme_ != EncodeScheme::kLoopBased && half <= 16) {
    if (scheme_ != EncodeScheme::kTable4) {
      table_load_ = table_load_model(spec, scheme_, kTableThreads).counters;
    }
    if (table_lookups_apply(scheme_, p.k, kTableThreads, half)) {
      table_lookups_ = table_lookups(spec, scheme_,
                                     scheme_is_preprocessed(scheme_)
                                         ? log_segment_.data()
                                         : segment_->data(),
                                     p.n, p.k);
    }
  }
}

void GpuEncoder::attach_profiler(simgpu::Profiler* profiler,
                                 std::string label_prefix) {
  launcher_.set_profiler(profiler);
  label_prefix_ = std::move(label_prefix);
}

GpuEncoder::~GpuEncoder() { unwatch_all(); }

void GpuEncoder::unwatch_all() {
  if (checker_ == nullptr) return;
  checker_->unwatch_global(segment_->data());
  checker_->unwatch_global(exp_table_bytes_.data());
  if (!log_table_bytes_.empty()) {
    checker_->unwatch_global(log_table_bytes_.data());
  }
  if (!exp_table_words_.empty()) {
    checker_->unwatch_global(exp_table_words_.data());
  }
  if (!log_segment_.empty()) {
    checker_->unwatch_global(log_segment_.data());
  }
  if (!log_coefficients_.empty()) {
    checker_->unwatch_global(log_coefficients_.data());
  }
}

void GpuEncoder::attach_checker(simgpu::Checker* checker) {
  if (checker_ != nullptr && checker != checker_) unwatch_all();
  checker_ = checker;
  launcher_.set_checker(checker);
  if (checker == nullptr) return;
  // Steady-state device buffers; per-batch buffers are registered by the
  // call that allocates or receives them.
  const coding::Params& p = params();
  checker->watch_global(segment_->data(), p.segment_bytes(), "segment");
  checker->watch_global(exp_table_bytes_.data(), exp_table_bytes_.size(),
                        "exp_table");
  if (!log_table_bytes_.empty()) {
    checker->watch_global(log_table_bytes_.data(), log_table_bytes_.size(),
                          "log_table");
  }
  if (!exp_table_words_.empty()) {
    checker->watch_global(exp_table_words_.data(), exp_table_words_.size(),
                          "exp_table_words");
  }
  if (!log_segment_.empty()) {
    checker->watch_global(log_segment_.data(), log_segment_.size(),
                          "log_segment");
  }
}

void GpuEncoder::set_launch_label(const char* kernel) {
  launcher_.set_launch_label(label_prefix_ + "/" + scheme_label(scheme_) +
                             "/" + kernel);
}

void GpuEncoder::reset_metrics() {
  encode_metrics_ = simgpu::KernelMetrics{};
  preprocess_metrics_ = simgpu::KernelMetrics{};
}

coding::CodedBatch GpuEncoder::encode_batch(std::size_t count, Rng& rng) {
  coding::CodedBatch batch(params(), count);
  for (std::size_t j = 0; j < count; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  encode_into(batch);
  return batch;
}

void GpuEncoder::encode_into(coding::CodedBatch& batch) {
  EXTNC_CHECK(batch.params() == params());
  if (batch.count() == 0) return;
  // The batch's buffers live only for this call; scoped registration keeps
  // the checker's region table free of dead entries.
  const coding::Params& p = params();
  simgpu::Checker::ScopedWatch watch_coeffs(
      checker_, batch.coefficients_data(), batch.count() * p.n,
      "batch.coefficients");
  simgpu::Checker::ScopedWatch watch_payloads(
      checker_, batch.payloads_data(), batch.count() * p.k, "batch.payloads");
  if (scheme_is_preprocessed(scheme_)) {
    preprocess_coefficients(batch);
  }
  launcher_.reset_metrics();
  if (scheme_ == EncodeScheme::kLoopBased) {
    run_loop_based(batch);
  } else {
    run_table_based(batch);
  }
  encode_metrics_.merge(launcher_.metrics());
}

// Sec. 5.1.1 step (1): transform the segment to the log domain, one thread
// per 32-bit word, reading through the shared log table.
void GpuEncoder::preprocess_segment() {
  const coding::Params& p = params();
  log_segment_ = AlignedBuffer(p.segment_bytes());
  if (checker_ != nullptr) {
    checker_->watch_global(log_segment_.data(), log_segment_.size(),
                           "log_segment");
  }
  const gf256::Tables& t = gf256::tables();
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t* log_table = shifted ? t.log_shifted : t.log;

  const std::size_t words = p.segment_bytes() / 4;
  const std::size_t threads = 256;
  const std::size_t blocks = std::min<std::size_t>(
      launcher_.spec().num_sms, (words + threads - 1) / threads);
  const std::uint8_t* src = segment_->data();
  std::uint8_t* dst = log_segment_.data();

  set_launch_label("preprocess_segment");
  launcher_.reset_metrics();
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads},
      [&](BlockCtx& block) {
        const std::size_t stride = blocks * threads;
        if (block.fast_path()) {
          tally.lowered();
          BlockSink sink(block);
          preprocess_block_walk(sink, block.block_index(), words, 4, threads,
                                stride, block.spec().half_warp, uptr(src),
                                uptr(dst));
          for (std::size_t base = block.block_index() * threads;
               base < words; base += stride) {
            const std::size_t end = std::min(base + threads, words) * 4;
            for (std::size_t x = base * 4; x < end; ++x) {
              dst[x] = log_table[src[x]];
            }
          }
          return;
        }
        block.step([&](ThreadCtx& thread) {
          for (std::size_t w = block.block_index() * threads + thread.lane();
               w < words; w += stride) {
            std::uint32_t in = thread.gload_u32(src + w * 4);
            std::uint32_t out = 0;
            for (int b = 0; b < 4; ++b) {
              const auto byte = static_cast<std::uint8_t>(in >> (8 * b));
              out |= static_cast<std::uint32_t>(log_table[byte]) << (8 * b);
              thread.count_alu(kPreprocessPerByte);
            }
            thread.gstore_u32(dst + w * 4, out);
          }
        });
      });
  preprocess_metrics_.merge(launcher_.metrics());
}

// Sec. 5.1.1 step (2): coefficient matrix to the log domain.
void GpuEncoder::preprocess_coefficients(const coding::CodedBatch& batch) {
  const coding::Params& p = params();
  const std::size_t bytes = batch.count() * p.n;
  if (checker_ != nullptr && !log_coefficients_.empty()) {
    checker_->unwatch_global(log_coefficients_.data());  // being reallocated
  }
  log_coefficients_ = AlignedBuffer(bytes);
  if (checker_ != nullptr) {
    checker_->watch_global(log_coefficients_.data(), log_coefficients_.size(),
                           "log_coefficients");
  }
  const gf256::Tables& t = gf256::tables();
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t* log_table = shifted ? t.log_shifted : t.log;
  const std::uint8_t* src = batch.coefficients_data();
  std::uint8_t* dst = log_coefficients_.data();

  const std::size_t threads = 256;
  const std::size_t blocks = std::min<std::size_t>(
      launcher_.spec().num_sms, (bytes + threads - 1) / threads);
  set_launch_label("preprocess_coeffs");
  launcher_.reset_metrics();
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads},
      [&](BlockCtx& block) {
        const std::size_t stride = blocks * threads;
        if (block.fast_path()) {
          tally.lowered();
          BlockSink sink(block);
          preprocess_block_walk(sink, block.block_index(), bytes, 1, threads,
                                stride, block.spec().half_warp, uptr(src),
                                uptr(dst));
          for (std::size_t base = block.block_index() * threads;
               base < bytes; base += stride) {
            const std::size_t end = std::min(base + threads, bytes);
            for (std::size_t x = base; x < end; ++x) {
              dst[x] = log_table[src[x]];
            }
          }
          return;
        }
        block.step([&](ThreadCtx& thread) {
          for (std::size_t i = block.block_index() * threads + thread.lane();
               i < bytes; i += stride) {
            const std::uint8_t c = thread.gload_u8(src + i);
            thread.count_alu(kPreprocessPerByte);
            thread.gstore_u8(dst + i, log_table[c]);
          }
        });
      });
  preprocess_metrics_.merge(launcher_.metrics());
}

// Fig. 2 partitioning: thread blocks of 256, one thread per output word.
void GpuEncoder::run_loop_based(coding::CodedBatch& batch) {
  const coding::Params p = params();
  const std::size_t words_per_block = p.k / 4;
  const std::size_t total_words = batch.count() * words_per_block;
  const std::size_t threads = std::min<std::size_t>(256, total_words);
  const std::size_t blocks = (total_words + threads - 1) / threads;
  const EncodeCost cost = encode_cost(scheme_);

  const std::uint8_t* src = segment_->data();
  const std::uint8_t* coeffs = batch.coefficients_data();
  std::uint8_t* out = batch.payloads_data();

  const EncodeWalk walk{.scheme = scheme_,
                        .n = p.n,
                        .k = p.k,
                        .total_words = total_words,
                        .threads = threads,
                        .stride = blocks * threads,
                        .half = static_cast<std::size_t>(
                            launcher_.spec().half_warp),
                        .src = src,
                        .coeffs = coeffs,
                        .src_addr = uptr(src),
                        .coeff_addr = uptr(coeffs),
                        .out_addr = uptr(out)};

  set_launch_label("mul_loop");
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads}, [&](BlockCtx& block) {
        // Bulk lowering: the shared accounting walk plus SIMD region
        // products instead of interpreted lanes (BlockCtx::fast_path).
        if (block.fast_path() && walk.half <= 16) {
          tally.lowered();
          if (words_per_block % walk.half != 0 || threads % walk.half != 0) {
            tally.straddle();
          }
          BlockSink sink(block);
          encode_block_walk(sink, walk, block.block_index());
          encode_block_data(p, src, coeffs, out, total_words, threads,
                            walk.stride, block.block_index());
          return;
        }
        block.step([&](ThreadCtx& thread) {
          const std::size_t w =
              block.block_index() * threads + thread.lane();
          if (w >= total_words) return;
          const std::size_t j = w / words_per_block;       // coded block
          const std::size_t word = w % words_per_block;    // word within it
          const std::uint8_t* coeff_row = coeffs + j * p.n;
          std::uint32_t acc = 0;
          for (std::size_t i = 0; i < p.n; ++i) {
            const std::uint8_t c = thread.gload_u8(coeff_row + i);
            const std::uint32_t s =
                thread.gload_u32(src + i * p.k + word * 4);
            acc ^= gf256::mul_byte_word(c, s);
            thread.count_alu(cost.per_iteration *
                             gf256::loop_iterations(c));
          }
          thread.count_alu(cost.per_word);
          thread.gstore_u32(out + j * p.k + word * 4, acc);
        });
      });
}

// Sec. 5.1.2 partitioning: one resident block per SM striding over words,
// tables loaded into shared memory once per block.
void GpuEncoder::run_table_based(coding::CodedBatch& batch) {
  const coding::Params p = params();
  const std::size_t words_per_block = p.k / 4;
  const std::size_t total_words = batch.count() * words_per_block;
  const std::size_t threads = kTableThreads;
  const std::size_t blocks =
      std::min<std::size_t>(launcher_.spec().num_sms,
                            (total_words + threads - 1) / threads);
  const EncodeCost cost = encode_cost(scheme_);
  const bool preprocessed = scheme_is_preprocessed(scheme_);
  const std::uint8_t* src = preprocessed ? log_segment_.data()
                                         : segment_->data();
  const std::uint8_t* coeffs = preprocessed ? log_coefficients_.data()
                                            : batch.coefficients_data();
  std::uint8_t* out = batch.payloads_data();
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t sentinel = shifted ? 0x00 : gf256::kLogZero;

  const EncodeWalk walk{.scheme = scheme_,
                        .n = p.n,
                        .k = p.k,
                        .total_words = total_words,
                        .threads = threads,
                        .stride = blocks * threads,
                        .half = static_cast<std::size_t>(
                            launcher_.spec().half_warp),
                        .src = src,
                        .coeffs = coeffs,
                        .src_addr = uptr(src),
                        .coeff_addr = uptr(coeffs),
                        .out_addr = uptr(out),
                        .tex_addr = uptr(exp_table_bytes_.data()),
                        .lookups = table_lookups_ ? &*table_lookups_
                                                  : nullptr};

  // The exp lookup's home names the kernel: texture for TB-4, shared
  // memory (replicated for TB-5) otherwise.
  set_launch_label(scheme_ == EncodeScheme::kTable4 ? "exp_tex" : "exp_smem");
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads}, [&](BlockCtx& block) {
        // Bulk lowering: the cooperative table load's one-block counters,
        // the shared accounting walk (by table runs when the segment's
        // lookups apply) and SIMD region products.
        if (block.fast_path() && walk.half <= 16) {
          tally.lowered();
          if (walk.lookups == nullptr) tally.straddle();
          if (scheme_ != EncodeScheme::kTable4) {
            block.fast_counters(table_load_);
          }
          BlockSink sink(block);
          if (scheme_ == EncodeScheme::kTable4) {
            sink.bind_texture(walk.tex_addr, kExpTableEntries);
          }
          encode_block_walk(sink, walk, block.block_index());
          encode_block_data(p, segment_->data(), batch.coefficients_data(),
                            out, total_words, threads, walk.stride,
                            block.block_index());
          return;
        }
        // --- cooperative table load (coalesced, Sec. 5.1) ---------------
        if (scheme_ == EncodeScheme::kTable5) {
          const std::size_t table_words =
              kExpTableEntries * kReplicatedTables;
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < table_words;
                 w += threads) {
              thread.sstore_u32(
                  w * 4, thread.gload_u32(exp_table_words_.data() + w * 4));
            }
          });
        } else if (scheme_ != EncodeScheme::kTable4) {
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < kExpTableEntries / 4;
                 w += threads) {
              thread.sstore_u32(
                  kExpBytesOffset + w * 4,
                  thread.gload_u32(exp_table_bytes_.data() + w * 4));
            }
            if (scheme_ == EncodeScheme::kTable0) {
              for (std::size_t w = thread.lane(); w < 256 / 4; w += threads) {
                thread.sstore_u32(
                    kLogBytesOffset + w * 4,
                    thread.gload_u32(log_table_bytes_.data() + w * 4));
              }
            }
          });
        }

        // --- encode words, strided ---------------------------------------
        const std::size_t stride = blocks * threads;
        block.step([&](ThreadCtx& thread) {
          for (std::size_t w =
                   block.block_index() * threads + thread.lane();
               w < total_words; w += stride) {
            const std::size_t j = w / words_per_block;
            const std::size_t word = w % words_per_block;
            const std::uint8_t* coeff_row = coeffs + j * p.n;
            std::uint32_t acc = 0;
            for (std::size_t i = 0; i < p.n; ++i) {
              // Coefficient: log domain for preprocessed schemes; kTable0
              // looks it up in the shared log table.
              std::uint8_t log_c = thread.gload_u8(coeff_row + i);
              if (scheme_ == EncodeScheme::kTable0) {
                log_c = thread.sload_u8(kLogBytesOffset + log_c);
              }
              const std::uint32_t s =
                  thread.gload_u32(src + i * p.k + word * 4);
              thread.count_alu(cost.per_word);
              if (log_c == sentinel) {
                // kTable2+ fold the four per-byte coefficient tests into
                // this single per-word test; earlier schemes still pay for
                // per-byte tests via their per_byte cost. Skipped lanes
                // keep their access sequence aligned with active ones.
                const int skipped =
                    scheme_ == EncodeScheme::kTable0 ? 8 : 4;
                for (int a = 0; a < skipped; ++a) thread.skip_access();
                continue;
              }
              for (int b = 0; b < 4; ++b) {
                std::uint8_t log_s = static_cast<std::uint8_t>(s >> (8 * b));
                if (scheme_ == EncodeScheme::kTable0) {
                  log_s = thread.sload_u8(kLogBytesOffset + log_s);
                }
                thread.count_alu(cost.per_byte);
                if (log_s == sentinel) {
                  thread.skip_access();  // the exp lookup this lane skips
                  continue;
                }
                const std::size_t idx =
                    static_cast<std::size_t>(log_c) + log_s;
                std::uint8_t product;
                if (scheme_ == EncodeScheme::kTable4) {
                  product = thread.tex1d_u8(exp_table_bytes_.data(), idx);
                } else if (scheme_ == EncodeScheme::kTable5) {
                  const std::size_t word_index =
                      idx * kReplicatedTables +
                      (thread.lane() % kReplicatedTables);
                  product = static_cast<std::uint8_t>(
                      thread.sload_u32(word_index * 4));
                } else {
                  product = thread.sload_u8(kExpBytesOffset + idx);
                }
                acc ^= static_cast<std::uint32_t>(product) << (8 * b);
              }
            }
            thread.gstore_u32(out + j * p.k + word * 4, acc);
          }
        });
      });
}

}  // namespace extnc::gpu
