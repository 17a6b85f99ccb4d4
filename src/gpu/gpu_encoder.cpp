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

GpuEncoder::GpuEncoder(const simgpu::DeviceSpec& spec, coding::Params params,
                       const std::uint8_t* rows, EncodeScheme scheme,
                       simgpu::Profiler* profiler, std::string label_prefix,
                       simgpu::FaultInjector* injector,
                       simgpu::Checker* checker)
    : params_(params),
      rows_(rows),
      scheme_(scheme),
      launcher_(spec),
      label_prefix_(std::move(label_prefix)) {
  launcher_.set_profiler(profiler);
  launcher_.set_fault_injector(injector);
  const coding::Params& p = params_;
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
  // Sec. 5.1.1 step (1): the segment to the log domain, one thread per
  // word. Attach before the launch so it runs checked too.
  if (scheme_is_preprocessed(scheme_)) {
    log_segment_ = AlignedBuffer(p.segment_bytes());
  }
  attach_checker(checker);
  if (!log_segment_.empty()) {
    transform("preprocess_segment", rows_, log_segment_.data(),
              p.segment_bytes() / 4, 4);
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
      table_lookups_ =
          table_lookups(spec, scheme_,
                        log_segment_.empty() ? rows_ : log_segment_.data(),
                        p.n, p.k);
    }
  }
}

GpuEncoder::GpuEncoder(const simgpu::DeviceSpec& spec,
                       const coding::Segment& segment, EncodeScheme scheme,
                       simgpu::Profiler* profiler, std::string label_prefix,
                       simgpu::FaultInjector* injector,
                       simgpu::Checker* checker)
    : GpuEncoder(spec, segment.params(), segment.data(), scheme, profiler,
                 std::move(label_prefix), injector, checker) {}

void GpuEncoder::attach_profiler(simgpu::Profiler* profiler,
                                 std::string label_prefix) {
  launcher_.set_profiler(profiler);
  label_prefix_ = std::move(label_prefix);
}

void GpuEncoder::attach_checker(simgpu::Checker* checker) {
  watches_.clear();
  checker_ = checker;
  launcher_.set_checker(checker);
  if (checker == nullptr) return;
  // Steady-state device buffers; per-batch buffers are registered by the
  // call that allocates or receives them.
  auto watch = [&](const void* base, std::size_t size, const char* name) {
    if (size > 0) watches_.emplace_back(checker, base, size, name);
  };
  watch(rows_, params_.segment_bytes(), "segment");
  watch(exp_table_bytes_.data(), exp_table_bytes_.size(), "exp_table");
  watch(log_table_bytes_.data(), log_table_bytes_.size(), "log_table");
  watch(exp_table_words_.data(), exp_table_words_.size(), "exp_table_words");
  watch(log_segment_.data(), log_segment_.size(), "log_segment");
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
  // Sec. 5.1.1 step (2): the coefficient matrix to the log domain, one
  // thread per byte.
  AlignedBuffer log_coefficients;
  simgpu::Checker::ScopedWatch watch_log_coeffs;
  if (scheme_is_preprocessed(scheme_)) {
    log_coefficients = AlignedBuffer(batch.count() * p.n);
    watch_log_coeffs = simgpu::Checker::ScopedWatch(
        checker_, log_coefficients.data(), log_coefficients.size(),
        "log_coefficients");
    transform("preprocess_coeffs", batch.coefficients_data(),
              log_coefficients.data(), log_coefficients.size(), 1);
  }

  // The encode launch reads accounting-domain bytes: the log domain for the
  // preprocessed schemes, natural bytes for loop and tb0.
  const std::size_t total_words = batch.count() * (p.k / 4);
  const LaunchGeometry geometry =
      encode_geometry(launcher_.spec(), scheme_, total_words);
  const std::uint8_t* src = log_segment_.empty() ? rows_ : log_segment_.data();
  const std::uint8_t* coeffs = log_coefficients.empty()
                                   ? batch.coefficients_data()
                                   : log_coefficients.data();
  const EncodeWalk walk{
      .scheme = scheme_,
      .n = p.n,
      .k = p.k,
      .total_words = total_words,
      .threads = geometry.threads,
      .stride = geometry.blocks * geometry.threads,
      .half = static_cast<std::size_t>(launcher_.spec().half_warp),
      .src = src,
      .coeffs = coeffs,
      .src_addr = uptr(src),
      .coeff_addr = uptr(coeffs),
      .out_addr = uptr(batch.payloads_data()),
      .tex_addr = uptr(exp_table_bytes_.data()),
      .lookups = table_lookups_ ? &*table_lookups_ : nullptr};
  launcher_.reset_metrics();
  if (scheme_ == EncodeScheme::kLoopBased) {
    run_loop_based(batch, geometry, walk);
  } else {
    run_table_based(batch, geometry, walk);
  }
  encode_metrics_.merge(launcher_.metrics());
}

// The log-domain transform (Sec. 5.1.1): one thread per element of
// `element_bytes` bytes, each byte read through the shared log table.
void GpuEncoder::transform(const char* kernel, const std::uint8_t* src,
                           std::uint8_t* dst, std::size_t elements,
                           std::size_t element_bytes) {
  const gf256::Tables& t = gf256::tables();
  const std::uint8_t* log_table =
      scheme_uses_shifted_log(scheme_) ? t.log_shifted : t.log;
  const LaunchGeometry geometry =
      transform_geometry(launcher_.spec(), elements);
  const std::size_t threads = geometry.threads;
  const std::size_t stride = geometry.blocks * threads;

  set_launch_label(kernel);
  launcher_.reset_metrics();
  simgpu::FastBlockTally tally;
  launcher_.launch(
      {.blocks = geometry.blocks, .threads_per_block = threads},
      [&](BlockCtx& block) {
        if (block.fast_path()) {
          tally.lowered();
          BlockSink sink(block);
          preprocess_block_walk(sink, block.block_index(), elements,
                                element_bytes, threads, stride,
                                block.spec().half_warp, uptr(src), uptr(dst));
          for (std::size_t base = block.block_index() * threads;
               base < elements; base += stride) {
            const std::size_t end =
                std::min(base + threads, elements) * element_bytes;
            for (std::size_t x = base * element_bytes; x < end; ++x) {
              dst[x] = log_table[src[x]];
            }
          }
          return;
        }
        block.step([&](ThreadCtx& thread) {
          for (std::size_t e = block.block_index() * threads + thread.lane();
               e < elements; e += stride) {
            const std::uint8_t* in_addr = src + e * element_bytes;
            const std::uint32_t in = element_bytes == 4
                                         ? thread.gload_u32(in_addr)
                                         : thread.gload_u8(in_addr);
            std::uint32_t out = 0;
            for (std::size_t b = 0; b < element_bytes; ++b) {
              const auto byte = static_cast<std::uint8_t>(in >> (8 * b));
              out |= static_cast<std::uint32_t>(log_table[byte]) << (8 * b);
              thread.count_alu(kPreprocessPerByte);
            }
            std::uint8_t* out_addr = dst + e * element_bytes;
            if (element_bytes == 4) {
              thread.gstore_u32(out_addr, out);
            } else {
              thread.gstore_u8(out_addr, static_cast<std::uint8_t>(out));
            }
          }
        });
      });
  preprocess_metrics_.merge(launcher_.metrics());
}

// Fig. 2 partitioning: thread blocks of 256, one thread per output word.
void GpuEncoder::run_loop_based(coding::CodedBatch& batch,
                                const LaunchGeometry& geometry,
                                const EncodeWalk& walk) {
  const coding::Params p = params();
  const std::size_t words_per_block = p.k / 4;
  const std::size_t total_words = walk.total_words;
  const std::size_t threads = geometry.threads;
  const std::size_t blocks = geometry.blocks;
  const EncodeCost cost = encode_cost(scheme_);
  const std::uint8_t* src = walk.src;
  const std::uint8_t* coeffs = walk.coeffs;
  std::uint8_t* out = batch.payloads_data();

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
void GpuEncoder::run_table_based(coding::CodedBatch& batch,
                                 const LaunchGeometry& geometry,
                                 const EncodeWalk& walk) {
  const coding::Params p = params();
  const std::size_t words_per_block = p.k / 4;
  const std::size_t total_words = walk.total_words;
  const std::size_t threads = geometry.threads;
  const std::size_t blocks = geometry.blocks;
  const EncodeCost cost = encode_cost(scheme_);
  const std::uint8_t* src = walk.src;
  const std::uint8_t* coeffs = walk.coeffs;
  std::uint8_t* out = batch.payloads_data();
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t sentinel = shifted ? 0x00 : gf256::kLogZero;

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
          encode_block_data(p, rows_, batch.coefficients_data(),
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
