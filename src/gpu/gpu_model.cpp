#include "gpu/gpu_model.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "gpu/kernel_audit.h"
#include "gpu/kernel_cost.h"
#include "util/rng.h"
#include "util/timer.h"

namespace extnc::gpu {

using simgpu::KernelMetrics;

namespace {

constexpr double kMb = 1024.0 * 1024.0;
// Average loop iterations of a loop-based multiply with a uniform nonzero
// coefficient (Sec. 4.3's "average 7 iterations"):
// sum_{c=1}^{255} bit_length(c) / 255 = 1786 / 255 ~= 7.0.
constexpr double kAvgLoopIterations = 1786.0 / 255.0;

// The calibration workload: small, since per-word costs do not depend on k
// or on the number of coded blocks.
constexpr std::size_t kCalibrationK = 512;
constexpr std::size_t kCalibrationBlocks = 96;
constexpr std::uint64_t kCalibrationSeed = 0x5eed;

struct PerWordCosts {
  double alu = 0;
  double global_load_bytes = 0;
  double global_store_bytes = 0;
  double transactions = 0;
  double shared_accesses = 0;
  double shared_events = 0;
  double shared_cycles = 0;
  double texture_fetches = 0;
  double texture_misses = 0;
};

// Every DeviceSpec field except the name, so two specs that model the same
// part share a key and a spec is identified by its values, never by the
// address it happens to live at (callers pass short-lived copies).
auto spec_fields(const simgpu::DeviceSpec& s) {
  return std::make_tuple(
      s.num_sms, s.cores_per_sm, s.core_clock_hz, s.mem_bandwidth_bytes_per_s,
      s.shared_mem_per_sm, s.shared_banks, s.shared_cycles_per_access,
      s.warp_size, s.half_warp, s.max_threads_per_block, s.global_mem_bytes,
      s.has_shared_atomics, s.sms_per_texture_cache, s.texture_cache_bytes,
      s.texture_cache_line_bytes, s.coalesce_segment_bytes);
}

// One calibration per (device, scheme, n): the static encode model over a
// seeded random segment and coefficient batch, as per-output-word costs.
PerWordCosts calibrate_encode(const simgpu::DeviceSpec& spec,
                              EncodeScheme scheme, std::size_t n) {
  using Key =
      std::tuple<decltype(spec_fields(spec)), EncodeScheme, std::size_t>;
  static std::map<Key, PerWordCosts> cache;
  static std::mutex mutex;
  const Key key{spec_fields(spec), scheme, n};
  {
    std::lock_guard lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  Rng rng(kCalibrationSeed);
  const coding::Params params{.n = n, .k = kCalibrationK};
  const coding::Segment segment = coding::Segment::random(params, rng);
  coding::CodedBatch batch(params, kCalibrationBlocks);
  for (std::size_t j = 0; j < kCalibrationBlocks; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  const KernelMetrics m =
      encode_kernel_model(spec, scheme, segment, batch).totals();

  const double words =
      static_cast<double>(kCalibrationBlocks) * kCalibrationK / 4.0;
  PerWordCosts costs;
  costs.alu = m.alu_ops() / words;
  costs.global_load_bytes = static_cast<double>(m.global_load_bytes) / words;
  costs.global_store_bytes = static_cast<double>(m.global_store_bytes) / words;
  costs.transactions = static_cast<double>(m.global_transactions) / words;
  costs.shared_accesses = static_cast<double>(m.shared_accesses) / words;
  costs.shared_events = static_cast<double>(m.shared_access_events) / words;
  costs.shared_cycles =
      static_cast<double>(m.shared_serialized_cycles) / words;
  costs.texture_fetches = static_cast<double>(m.texture_fetches) / words;
  costs.texture_misses = static_cast<double>(m.texture_misses) / words;

  std::lock_guard lock(mutex);
  cache.emplace(key, costs);
  return costs;
}

}  // namespace

namespace {

// Scaled kernel metrics for encoding `coded_blocks` blocks with `scheme`,
// with preprocessing for `segments` source segments when requested. Also
// the stage-2 model of multi-segment decoding (which reuses the encode
// kernel).
KernelMetrics scaled_encode_metrics(const simgpu::DeviceSpec& spec,
                                    EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t coded_blocks,
                                    bool include_preprocessing,
                                    std::size_t segments) {
  const PerWordCosts per_word = calibrate_encode(spec, scheme, params.n);
  const double words = static_cast<double>(coded_blocks) * params.k / 4.0;

  KernelMetrics m;
  m.set_alu_ops(per_word.alu * words);
  m.global_load_bytes =
      static_cast<std::uint64_t>(per_word.global_load_bytes * words);
  m.global_store_bytes =
      static_cast<std::uint64_t>(per_word.global_store_bytes * words);
  m.global_transactions =
      static_cast<std::uint64_t>(per_word.transactions * words);
  m.shared_accesses =
      static_cast<std::uint64_t>(per_word.shared_accesses * words);
  m.shared_access_events =
      static_cast<std::uint64_t>(per_word.shared_events * words);
  m.shared_serialized_cycles =
      static_cast<std::uint64_t>(per_word.shared_cycles * words);
  m.texture_fetches =
      static_cast<std::uint64_t>(per_word.texture_fetches * words);
  m.texture_misses =
      static_cast<std::uint64_t>(per_word.texture_misses * words);
  m.kernel_launches = 1;

  if (include_preprocessing && scheme_is_preprocessed(scheme)) {
    // Log-domain transforms: every source segment (n*k bytes each) once
    // plus the coefficient matrix (coded_blocks * n bytes), amortized over
    // this batch.
    const double pre_bytes =
        static_cast<double>(segments) * params.segment_bytes() +
        static_cast<double>(coded_blocks) * params.n;
    KernelMetrics pre;
    pre.set_alu_ops(pre_bytes * (kPreprocessPerByte + 0.5 /*amortized loads*/));
    pre.global_load_bytes = static_cast<std::uint64_t>(pre_bytes);
    pre.global_store_bytes = static_cast<std::uint64_t>(pre_bytes);
    pre.global_transactions = static_cast<std::uint64_t>(2 * pre_bytes / 64);
    pre.kernel_launches = 2;
    m.merge(pre);
  }
  // Launch geometry of the target workload's encode kernel, set after the
  // merge so the preprocessing launches cannot overwrite it.
  const std::size_t blocks = static_cast<std::size_t>(words) / 256 + 1;
  m.threads_per_block = 256;
  m.blocks = scheme == EncodeScheme::kLoopBased
                 ? blocks
                 : std::min<std::size_t>(spec.num_sms, blocks);
  return m;
}

KernelMetrics analytic_multiply_metrics(const simgpu::DeviceSpec& spec,
                                        const coding::Params& params,
                                        std::size_t segments) {
  // Stage 2 reuses the table-based-5 encode kernel (see
  // GpuMultiSegmentDecoder::multiply_stage): per segment, n "coded blocks"
  // whose coefficients are the rows of C^-1, over the coded payloads bound
  // in place as source rows and preprocessed to the log domain.
  return scaled_encode_metrics(spec, EncodeScheme::kTable5, params,
                               /*coded_blocks=*/segments * params.n,
                               /*include_preprocessing=*/true, segments);
}

}  // namespace

BandwidthEstimate model_encode_bandwidth(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const coding::Params& params,
                                         const EncodeModelOptions& options) {
  const KernelMetrics m = scaled_encode_metrics(
      spec, scheme, params, options.coded_blocks,
      options.include_preprocessing, /*segments=*/1);
  BandwidthEstimate estimate;
  estimate.time = simgpu::estimate_time(spec, m);
  const double payload_bytes =
      static_cast<double>(options.coded_blocks) * params.k;
  estimate.mb_per_s = payload_bytes / kMb / estimate.time.total_s;
  if (options.profiler != nullptr) {
    options.profiler->record_launch(
        spec, std::string("model/encode/") + scheme_label(scheme), m);
  }
  return estimate;
}

// ---------------------------------------------------------------- decode

KernelMetrics analytic_single_segment_decode_metrics(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options) {
  const double n = static_cast<double>(params.n);
  const double k = static_cast<double>(params.k);
  const double blocks = std::max(
      1.0, std::min<double>(spec.num_sms, k / 4.0));
  const double slice_words = k / 4.0 / blocks;
  const double coeff_words = n / 4.0;
  const double row_words_total =
      blocks * coeff_words + k / 4.0;  // replicated C + sliced payload

  // Over a full decode: per arrival r (rank before insert) there are
  // r forward eliminations, 1 normalize, r back-eliminations and 1 row
  // store: sum over n arrivals ~= n^2 + 2n row operations.
  const double row_ops = n * n + 2.0 * n;
  const double per_word_alu =
      kDecodeCost.per_word + kDecodeCost.per_iteration * kAvgLoopIterations +
      3.0;  // 2 loads + 1 store issue slots
  KernelMetrics m;
  m.set_alu_ops(row_ops * row_words_total * per_word_alu);
  // Pivot searches: n launches, each scanning the n-byte coefficient row
  // in every block.
  const double reduce = options.use_atomic_min
                            ? kDecodeCost.pivot_reduce_atomic
                            : kDecodeCost.pivot_reduce_per_thread;
  m.add_alu_ops(n * blocks *
                (n * kDecodeCost.pivot_search_per_byte + coeff_words * reduce));
  const double row_bytes_touched = row_ops * row_words_total * 4.0;
  m.global_load_bytes = static_cast<std::uint64_t>(2.0 * row_bytes_touched);
  m.global_store_bytes = static_cast<std::uint64_t>(row_bytes_touched);
  double transactions = 3.0 * row_bytes_touched / 64.0;
  if (options.cache_coefficients) {
    // The coefficient side of every row operation (stored-row read,
    // scratch read-modify-write) moves from global to shared memory.
    const double coeff_bytes = 3.0 * row_ops * blocks * coeff_words * 4.0;
    m.global_load_bytes -= static_cast<std::uint64_t>(coeff_bytes * 2 / 3);
    m.global_store_bytes -= static_cast<std::uint64_t>(coeff_bytes / 3);
    transactions -= coeff_bytes / 64.0;
    m.shared_accesses += static_cast<std::uint64_t>(coeff_bytes / 4.0);
    m.shared_access_events += static_cast<std::uint64_t>(coeff_bytes / 4.0 /
                                                         spec.half_warp);
    m.shared_serialized_cycles = m.shared_access_events;  // coalesced rows
    // Staging: each launch stages the rows it will touch (one coalesced
    // pass over ~rank rows).
    m.global_load_bytes +=
        static_cast<std::uint64_t>(n * n / 2.0 * n * blocks);
    transactions += n * n / 2.0 * n * blocks / 64.0;
  }
  m.global_transactions = static_cast<std::uint64_t>(transactions);
  m.atomic_ops = options.use_atomic_min
                     ? static_cast<std::uint64_t>(n * blocks * coeff_words)
                     : 0;
  m.kernel_launches = static_cast<std::uint64_t>(n);
  // Per arrival of rank r: r forward row ops, pivot search, normalize,
  // r back-eliminations and the row store are each one barrier-fenced
  // step; summed over the decode that is ~n^2 + 2n steps per block.
  // Caching the coefficient matrix in shared memory (Sec. 5.4.3) shortens
  // each step's dependency chain — the factor read no longer waits on a
  // global round-trip — modeled as a 20% cut of the per-step latency. The
  // atomicMin pivot reduction (Sec. 5.4.2) removes most of the serial
  // min-reduction from the pivot-search step, one of ~2.5 steps per
  // arrival.
  double steps = (n * n + 2.0 * n);
  if (options.cache_coefficients) steps *= 0.80;
  if (options.use_atomic_min) steps -= 0.4 * n;
  m.barriers = static_cast<std::uint64_t>(steps * blocks);
  m.blocks = static_cast<std::size_t>(blocks);
  m.threads_per_block = static_cast<std::size_t>(std::min(
      512.0, std::max(1.0, coeff_words + slice_words)));
  return m;
}

BandwidthEstimate model_single_segment_decode(const simgpu::DeviceSpec& spec,
                                              const coding::Params& params,
                                              const DecodeOptions& options,
                                              simgpu::Profiler* profiler) {
  const KernelMetrics m =
      analytic_single_segment_decode_metrics(spec, params, options);
  BandwidthEstimate estimate;
  estimate.time = simgpu::estimate_time(spec, m);
  estimate.mb_per_s = static_cast<double>(params.segment_bytes()) / kMb /
                      estimate.time.total_s;
  if (profiler != nullptr) {
    profiler->record_launch(spec, "model/decode/single", m);
  }
  return estimate;
}

KernelMetrics analytic_inversion_metrics(const simgpu::DeviceSpec& spec,
                                         const coding::Params& params,
                                         std::size_t segments) {
  const double n = static_cast<double>(params.n);
  const double s = static_cast<double>(segments);
  const double row_words = 2.0 * n / 4.0;
  // Per segment: n columns x (~n eliminations + 1 scale) row ops over the
  // augmented [C | I], plus the serial pivot scans. Within a column the
  // eliminations are row-parallel (the functional kernel's geometry), so
  // the block runs with a full thread complement; only the column loop is
  // serial.
  const double row_ops = s * n * n;
  const double per_word_alu =
      kDecodeCost.per_word + kDecodeCost.per_iteration * kAvgLoopIterations +
      3.0;
  KernelMetrics m;
  m.set_alu_ops(row_ops * row_words * per_word_alu);
  m.add_alu_ops(s * n * n / 2.0 * kDecodeCost.pivot_search_per_byte);
  const double bytes = row_ops * row_words * 4.0;
  m.global_load_bytes = static_cast<std::uint64_t>(2.0 * bytes);
  m.global_store_bytes = static_cast<std::uint64_t>(bytes);
  m.global_transactions = static_cast<std::uint64_t>(3.0 * bytes / 64.0);
  m.kernel_launches = 1;
  // Per column: pivot scan, occasional swap, scale, factor staging and the
  // row-parallel elimination — ~4.5 barrier-fenced steps.
  m.barriers = static_cast<std::uint64_t>(4.5 * n) * segments;
  m.blocks = segments;
  m.threads_per_block = static_cast<std::size_t>(std::min(
      static_cast<double>(spec.max_threads_per_block),
      std::max(1.0, n * row_words)));
  return m;
}

MultiSegEstimate model_multi_segment_decode(const simgpu::DeviceSpec& spec,
                                            const coding::Params& params,
                                            std::size_t segments,
                                            simgpu::Profiler* profiler) {
  const KernelMetrics stage1_m =
      analytic_inversion_metrics(spec, params, segments);
  const KernelMetrics stage2_m =
      analytic_multiply_metrics(spec, params, segments);
  MultiSegEstimate estimate;
  estimate.stage1 = simgpu::estimate_time(spec, stage1_m);
  estimate.stage2 = simgpu::estimate_time(spec, stage2_m);
  if (profiler != nullptr) {
    profiler->record_launch(spec, "model/decode/multiseg/invert", stage1_m);
    profiler->record_launch(spec, "model/decode/multiseg/stage2", stage2_m);
  }
  const double total = estimate.stage1.total_s + estimate.stage2.total_s;
  estimate.stage1_share = estimate.stage1.total_s / total;
  estimate.mb_per_s =
      static_cast<double>(segments) * params.segment_bytes() / kMb / total;
  return estimate;
}

}  // namespace extnc::gpu
