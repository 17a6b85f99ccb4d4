#include "simgpu/executor.h"

#include <algorithm>
#include <string>

#include "simgpu/exec_engine.h"
#include "simgpu/fault_injector.h"
#include "simgpu/profiler.h"
#include "simgpu/static_model.h"
#include "simgpu/timing.h"
#include "util/metrics_registry.h"

namespace extnc::simgpu {

// ------------------------------------------------------------ TextureCache

TextureCache::TextureCache(std::size_t cache_bytes, std::size_t line_bytes)
    : num_lines_(std::max<std::size_t>(1, cache_bytes / line_bytes)),
      line_bytes_(line_bytes),
      tags_(num_lines_, 0) {}

bool TextureCache::access(std::uintptr_t address) {
  const std::uintptr_t line = address / line_bytes_;
  const std::size_t set = line % num_lines_;
  // Tag 0 marks an empty line; real line ids are offset by 1 so address 0
  // cannot alias "empty".
  const std::uintptr_t tag = line + 1;
  if (tags_[set] == tag) return true;
  tags_[set] = tag;
  return false;
}

bool TextureCache::resident(std::uintptr_t address) const {
  const std::uintptr_t line = address / line_bytes_;
  return tags_[line % num_lines_] == line + 1;
}

void TextureCache::invalidate() {
  std::fill(tags_.begin(), tags_.end(), 0);
}

// --------------------------------------------------------------- ThreadCtx

std::size_t ThreadCtx::block_index() const { return block_->block_index(); }
std::size_t ThreadCtx::threads_per_block() const {
  return block_->num_threads();
}
std::size_t ThreadCtx::global_index() const {
  return block_->block_index() * block_->num_threads() + lane_;
}

// Checked launches route every access through BlockCheckState; a refused
// access (OOB) is suppressed — loads read 0, stores are dropped — so the
// kernel finishes and the checker reports every finding. Unchecked
// launches fall through to SharedMemory's own always-on bounds CHECKs
// (global accesses have no region info to validate against there).

std::uint8_t ThreadCtx::gload_u8(const std::uint8_t* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  block_->record_global(seq_++, addr, 1);
  block_->pending_load_bytes_ += 1;
  if (block_->check_ != nullptr && !block_->check_->on_global(lane_, addr, 1)) {
    return 0;
  }
  return *p;
}

std::uint32_t ThreadCtx::gload_u32(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  block_->record_global(seq_++, addr, 4);
  block_->pending_load_bytes_ += 4;
  if (block_->check_ != nullptr && !block_->check_->on_global(lane_, addr, 4)) {
    return 0;
  }
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void ThreadCtx::gstore_u8(std::uint8_t* p, std::uint8_t v) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  block_->record_global(seq_++, addr, 1);
  block_->pending_store_bytes_ += 1;
  if (block_->check_ != nullptr && !block_->check_->on_global(lane_, addr, 1)) {
    return;
  }
  *p = v;
}

void ThreadCtx::gstore_u32(void* p, std::uint32_t v) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  block_->record_global(seq_++, addr, 4);
  block_->pending_store_bytes_ += 4;
  if (block_->check_ != nullptr && !block_->check_->on_global(lane_, addr, 4)) {
    return;
  }
  std::memcpy(p, &v, 4);
}

std::uint8_t ThreadCtx::sload_u8(std::size_t offset) {
  block_->record_shared(seq_++, offset, 1);
  if (block_->check_ != nullptr &&
      !block_->check_->on_shared(lane_, offset, 1, /*is_write=*/false,
                                 /*is_atomic=*/false)) {
    return 0;
  }
  return block_->shared().read_u8(offset);
}

std::uint32_t ThreadCtx::sload_u32(std::size_t offset) {
  block_->record_shared(seq_++, offset, 4);
  if (block_->check_ != nullptr &&
      !block_->check_->on_shared(lane_, offset, 4, /*is_write=*/false,
                                 /*is_atomic=*/false)) {
    return 0;
  }
  return block_->shared().read_u32(offset);
}

void ThreadCtx::sstore_u8(std::size_t offset, std::uint8_t v) {
  block_->record_shared(seq_++, offset, 1);
  if (block_->check_ != nullptr &&
      !block_->check_->on_shared(lane_, offset, 1, /*is_write=*/true,
                                 /*is_atomic=*/false)) {
    return;
  }
  block_->shared().write_u8(offset, v);
}

void ThreadCtx::sstore_u32(std::size_t offset, std::uint32_t v) {
  block_->record_shared(seq_++, offset, 4);
  if (block_->check_ != nullptr &&
      !block_->check_->on_shared(lane_, offset, 4, /*is_write=*/true,
                                 /*is_atomic=*/false)) {
    return;
  }
  block_->shared().write_u32(offset, v);
}

std::uint32_t ThreadCtx::atomic_min_shared(std::size_t offset,
                                           std::uint32_t v) {
  EXTNC_CHECK(block_->spec().has_shared_atomics);
  block_->record_shared(seq_++, offset, 4);
  block_->pending_atomic_ops_ += 1;
  if (block_->check_ != nullptr &&
      !block_->check_->on_shared(lane_, offset, 4, /*is_write=*/true,
                                 /*is_atomic=*/true)) {
    return 0;
  }
  const std::uint32_t old = block_->shared().read_u32(offset);
  block_->shared().write_u32(offset, std::min(old, v));
  return old;
}

std::uint32_t ThreadCtx::tex1d_u32(const std::uint32_t* base,
                                   std::size_t index) {
  ++seq_;  // a texture fetch occupies an access slot like any load
  block_->record_texture(reinterpret_cast<std::uintptr_t>(base + index), 4);
  return base[index];
}

std::uint8_t ThreadCtx::tex1d_u8(const std::uint8_t* base, std::size_t index) {
  ++seq_;
  block_->record_texture(reinterpret_cast<std::uintptr_t>(base + index), 1);
  return base[index];
}

void ThreadCtx::count_alu(double ops) {
  block_->metrics_->alu_deciops += KernelMetrics::deciops(ops);
}

// ---------------------------------------------------------------- BlockCtx

// The serialization-degree and scattered-coalescing rules live in
// static_model.{h,cpp} (simgpu::shared_group_degree, group_transactions):
// the fast-path bulk groups and the static kernel models call the one
// definition, and the interpreted flush shares the degree rule, so the
// accounting paths can never disagree.

void BlockCtx::fast_global_group(const std::uintptr_t* addrs,
                                 std::size_t count, std::size_t access_bytes,
                                 std::uint64_t load_bytes,
                                 std::uint64_t store_bytes) {
  metrics_->global_transactions += group_transactions(
      addrs, count, access_bytes, spec_->coalesce_segment_bytes);
  metrics_->global_load_bytes += load_bytes;
  metrics_->global_store_bytes += store_bytes;
  metrics_->alu_deciops += static_cast<std::uint64_t>(count) * 10;
}

void BlockCtx::fast_shared_group(const std::uintptr_t* words,
                                 std::size_t count) {
  metrics_->shared_accesses += count;
  metrics_->shared_access_events += 1;
  metrics_->shared_serialized_cycles += shared_group_degree(
      words, count, static_cast<std::uint32_t>(spec_->shared_banks));
  metrics_->alu_deciops += static_cast<std::uint64_t>(count) * 10;
}

void BlockCtx::step(const std::function<void(ThreadCtx&)>& fn) {
  step_partial(config_.threads_per_block, fn);
}

void BlockCtx::step_partial(std::size_t count,
                            const std::function<void(ThreadCtx&)>& fn) {
  EXTNC_CHECK(count <= config_.threads_per_block);
  if (check_ != nullptr) check_->on_partial_step(count);
  const std::size_t half = static_cast<std::size_t>(spec_->half_warp);
  current_half_warp_ = 0;
  for (std::size_t lane = 0; lane < count; ++lane) {
    const std::size_t hw = lane / half;
    if (hw != current_half_warp_) {
      flush_half_warp();
      current_half_warp_ = hw;
    }
    ThreadCtx thread;
    thread.block_ = this;
    thread.lane_ = lane;
    thread.seq_ = 0;
    fn(thread);
  }
  flush_half_warp();
  metrics_->barriers += 1;
  // The step boundary is the barrier: per-segment hazard state rolls over.
  if (check_ != nullptr) check_->on_barrier();
}

void BlockCtx::record_global(std::uint32_t seq, std::uintptr_t addr,
                             std::size_t size) {
  if (seq >= global_groups_.size()) global_groups_.resize(seq + 1);
  GlobalGroup& group = global_groups_[seq];
  if (group.count == 0) global_live_.push_back(seq);
  const std::uint64_t seg_bytes = spec_->coalesce_segment_bytes;
  const std::uint64_t first = addr / seg_bytes;
  const std::uint64_t last = (addr + size - 1) / seg_bytes;
  for (std::uint64_t seg = first; seg <= last; ++seg) {
    bool seen = false;
    for (std::uint32_t i = 0; i < group.count; ++i) {
      if (group.segments[i] == seg) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      EXTNC_DASSERT(group.count < group.segments.size());
      group.segments[group.count++] = seg;
    }
  }
  // Memory instructions occupy issue slots like ALU instructions do.
  pending_mem_instrs_ += 1;
}

void BlockCtx::record_shared(std::uint32_t seq, std::size_t offset,
                             std::size_t size) {
  if (seq >= shared_groups_.size()) shared_groups_.resize(seq + 1);
  SharedGroup& group = shared_groups_[seq];
  if (group.count == 0) shared_live_.push_back(seq);
  // Bank of a shared access is determined by its 32-bit word address
  // (derived from the word at flush time).
  const std::uintptr_t word = offset / 4;
  EXTNC_DASSERT(group.count < group.words.size());
  group.words[group.count] = word;
  ++group.count;
  (void)size;
  pending_shared_accesses_ += 1;
  pending_mem_instrs_ += 1;
}

void BlockCtx::record_texture(std::uintptr_t addr, std::size_t size) {
  pending_texture_fetches_ += 1;
  pending_mem_instrs_ += 1;
  if (!texture_->access(addr)) pending_texture_misses_ += 1;
  (void)size;
}

void BlockCtx::flush_half_warp() {
  for (const std::uint32_t seq : global_live_) {
    GlobalGroup& group = global_groups_[seq];
    metrics_->global_transactions += group.count;
    if (check_ != nullptr) {
      check_->on_global_group(current_half_warp_, seq, group.count);
    }
    group.count = 0;
  }
  global_live_.clear();
  for (const std::uint32_t seq : shared_live_) {
    SharedGroup& group = shared_groups_[seq];
    const std::uint64_t degree =
        shared_group_degree(group.words.data(), group.count,
                            static_cast<std::uint32_t>(spec_->shared_banks));
    metrics_->shared_access_events += 1;
    metrics_->shared_serialized_cycles += degree;
    if (check_ != nullptr) {
      check_->on_shared_group(current_half_warp_, seq, degree);
    }
    group.count = 0;
  }
  shared_live_.clear();
  // Drain the batched counters. Memory instructions occupy issue slots and
  // are integer-valued, so folding them here (instead of += 1 per access)
  // charges the identical deci-op total.
  metrics_->alu_deciops += pending_mem_instrs_ * 10;
  metrics_->global_load_bytes += pending_load_bytes_;
  metrics_->global_store_bytes += pending_store_bytes_;
  metrics_->shared_accesses += pending_shared_accesses_;
  metrics_->texture_fetches += pending_texture_fetches_;
  metrics_->texture_misses += pending_texture_misses_;
  metrics_->atomic_ops += pending_atomic_ops_;
  pending_mem_instrs_ = 0;
  pending_load_bytes_ = 0;
  pending_store_bytes_ = 0;
  pending_shared_accesses_ = 0;
  pending_texture_fetches_ = 0;
  pending_texture_misses_ = 0;
  pending_atomic_ops_ = 0;
}

FastBlockTally::~FastBlockTally() {
  if (const std::uint64_t n = lowered_.load(); n > 0) {
    metrics::count("simgpu.fast.lowered_blocks", static_cast<double>(n));
  }
  if (const std::uint64_t n = straddle_.load(); n > 0) {
    metrics::count("simgpu.fast.straddle_blocks", static_cast<double>(n));
  }
}

// ---------------------------------------------------------------- Launcher

namespace {

std::size_t num_texture_units(const DeviceSpec& spec) {
  const std::size_t per =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::max(1, spec.sms_per_texture_cache)));
  const std::size_t sms =
      std::max<std::size_t>(1, static_cast<std::size_t>(spec.num_sms));
  return (sms + per - 1) / per;
}

}  // namespace

Launcher::Launcher(const DeviceSpec& spec) : spec_(&spec) {
  texture_caches_.assign(
      num_texture_units(spec),
      TextureCache(spec.texture_cache_bytes, spec.texture_cache_line_bytes));
}

std::size_t Launcher::texture_unit_of(std::size_t block) const {
  const std::size_t sms =
      std::max<std::size_t>(1, static_cast<std::size_t>(spec_->num_sms));
  const std::size_t per = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(1, spec_->sms_per_texture_cache)));
  return (block % sms) / per;
}

void Launcher::run_blocks(const LaunchConfig& config,
                          const std::function<void(BlockCtx&)>& kernel,
                          std::size_t only_unit,
                          std::vector<KernelMetrics>& block_metrics,
                          Checker* checker,
                          std::vector<BlockCheckSink>* check_sinks,
                          BlockError& error) {
  // One reusable context per caller: shared memory is re-zeroed for every
  // block (CUDA's non-persistence contract) and the accounting scratch
  // keeps only its capacity across blocks. The sanitizer scratch follows
  // the same pattern — per worker, per-block state reset in begin_block —
  // and its findings land in per-block sinks, so the merged report is
  // engine-independent just like the metrics.
  SharedMemory shared(spec_->shared_mem_per_sm);
  BlockCtx ctx;
  ctx.spec_ = spec_;
  ctx.config_ = config;
  ctx.shared_ = &shared;
  // Bulk lowerings are only offered to unchecked launches: the sanitizer
  // needs to see every individual access, so a resolved checker forces the
  // interpreted path (this is also what keeps the checker-gate CI job
  // honest without any extra plumbing).
  ctx.fast_ = checker == nullptr && fast_path_enabled();
  BlockCheckState check_state;
  if (checker != nullptr) {
    check_state.attach(*checker, config.threads_per_block,
                       config.shape.partial_counts,
                       static_cast<std::size_t>(spec_->half_warp),
                       shared.size(), launch_label_);
    ctx.check_ = &check_state;
  }
  bool first = true;
  for (std::size_t b = 0; b < config.blocks; ++b) {
    const std::size_t unit = texture_unit_of(b);
    if (only_unit != kAllUnits && unit != only_unit) continue;
    if (!first) std::memset(shared.data(), 0, shared.size());
    first = false;
    ctx.block_index_ = b;
    ctx.texture_ = &texture_caches_[unit];
    ctx.metrics_ = &block_metrics[b];
    if (checker != nullptr) check_state.begin_block(b, &(*check_sinks)[b]);
    try {
      kernel(ctx);
    } catch (...) {
      error.block = b;
      error.error = std::current_exception();
      return;
    }
  }
}

void Launcher::launch(const LaunchConfig& config,
                      const std::function<void(BlockCtx&)>& kernel) {
  EXTNC_CHECK(config.blocks >= 1);
  EXTNC_CHECK(config.threads_per_block >= 1);
  EXTNC_CHECK(config.threads_per_block <=
              static_cast<std::size_t>(spec_->max_threads_per_block));
  EXTNC_CHECK(static_cast<std::size_t>(spec_->half_warp) <=
              BlockCtx::kGroupLanes);
  // Fault gate: the injector may reject the launch outright (nothing runs,
  // no metrics accrue) or decree damage to apply after it completes.
  FaultClass fault = FaultClass::kNone;
  if (injector_ != nullptr) {
    fault = injector_->begin_launch();
    if (fault == FaultClass::kDeviceLost ||
        fault == FaultClass::kLaunchFailure) {
      throw DeviceError(fault,
                        std::string("simgpu: launch ") +
                            (launch_label_.empty() ? "<unlabeled>"
                                                   : launch_label_.c_str()) +
                            " failed: " + fault_class_name(fault));
    }
  }

  // Engine resolution: per-launch override first, then the process default
  // (environment-initialized). kAuto means "parallel when it can help".
  const ExecEngine requested = config.engine != ExecEngine::kAuto
                                   ? config.engine
                                   : default_engine();
  const std::size_t per_unit = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(1, spec_->sms_per_texture_cache)));
  // kAuto additionally requires enough blocks to amortize the run_batch
  // dispatch: small launches lose more to waking workers than block
  // parallelism wins back (BENCH_simspeed showed 0.92-0.97x there). An
  // explicit kParallel still forces the pool — the equivalence suites pin
  // small launches onto it deliberately.
  constexpr std::size_t kAutoDispatchMinBlocks = 16;
  const bool use_parallel = requested != ExecEngine::kSerial &&
                            texture_caches_.size() > 1 &&
                            config.blocks > per_unit &&
                            engine_pool().num_threads() > 1 &&
                            (requested == ExecEngine::kParallel ||
                             config.blocks >= kAutoDispatchMinBlocks);

  // Account each block into its own metrics slot and merge in ascending
  // block order below: every counter (scalar work included, stored as
  // integer deci-ops) is integral, so the reduction is bit-identical no
  // matter which host thread ran which block.
  KernelMetrics launch_metrics;
  launch_metrics.kernel_launches = 1;
  launch_metrics.blocks = config.blocks;
  launch_metrics.threads_per_block = config.threads_per_block;
  std::vector<KernelMetrics> block_metrics(config.blocks);
  Checker* checker = resolve_checker(config);
  std::vector<BlockCheckSink> check_sinks(checker != nullptr ? config.blocks
                                                             : 0);
  std::vector<BlockCheckSink>* sinks =
      checker != nullptr ? &check_sinks : nullptr;
  const std::uint64_t ticket =
      profiler_ != nullptr ? profiler_->begin_ticket() : 0;

  BlockError failure;
  try {
    if (use_parallel) {
      // One task per texture-cache unit: a unit's cache is touched only by
      // its own task, and that task visits the unit's blocks in ascending
      // order — exactly the subsequence the serial engine would feed it.
      const std::size_t units = texture_caches_.size();
      std::vector<BlockError> errors(units);
      engine_pool().run_batch(units, [&](std::size_t unit) {
        run_blocks(config, kernel, unit, block_metrics, checker, sinks,
                   errors[unit]);
      });
      for (const BlockError& e : errors) {
        if (e.error != nullptr && e.block < failure.block) failure = e;
      }
    } else {
      run_blocks(config, kernel, kAllUnits, block_metrics, checker, sinks,
                 failure);
    }
    if (failure.error != nullptr) std::rethrow_exception(failure.error);
  } catch (...) {
    // A throwing kernel aborts the launch: nothing is accounted, and the
    // injector/profiler are told so their launch-granularity state stays
    // consistent for the next launch.
    if (injector_ != nullptr) injector_->cancel_launch();
    if (profiler_ != nullptr) profiler_->abandon_ticket(ticket);
    throw;
  }
  metrics::count(use_parallel ? "simgpu.launch.parallel"
                              : "simgpu.launch.serial");

  for (const KernelMetrics& bm : block_metrics) launch_metrics.merge(bm);
  metrics_.merge(launch_metrics);
  // Fold per-block check sinks into one launch report, in ascending block
  // order: the parallel engine filled disjoint slots, so this merge makes
  // its report bit-identical to the serial engine's.
  CheckReport launch_report;
  std::uint64_t check_events = 0;
  if (checker != nullptr) {
    launch_report.checked_launches = 1;
    const std::size_t cap = checker->config().max_findings_per_launch;
    for (const BlockCheckSink& sink : check_sinks) {
      for (std::size_t i = 0; i < kCheckKindCount; ++i) {
        launch_report.counts[i] += sink.counts[i];
      }
      for (const CheckFinding& finding : sink.findings) {
        if (launch_report.findings.size() >= cap) break;
        launch_report.findings.push_back(finding);
      }
    }
    check_events = launch_report.total();
  }
  // Advance the modeled clock; an injected hang stalls this launch by the
  // plan's stall factor, which is what a supervisor's watchdog detects.
  const double multiplier =
      injector_ != nullptr ? injector_->time_multiplier(fault) : 1.0;
  last_launch_s_ = estimate_time(*spec_, launch_metrics).total_s * multiplier;
  elapsed_s_ += last_launch_s_;
  if (injector_ != nullptr) {
    injector_->finish_launch(fault, last_launch_s_);
  }
  if (profiler_ != nullptr) {
    profiler_->record_launch_at(ticket, *spec_, launch_label_, launch_metrics,
                                check_events);
  }
  // The throw comes last: the launch ran to completion and every consumer
  // (metrics, injector, profiler) saw it, so a caught CheckError leaves the
  // device in the same state as a clean launch.
  if (checker != nullptr && checker->absorb(launch_report)) {
    throw CheckError(std::move(launch_report));
  }
}

Checker* Launcher::resolve_checker(const LaunchConfig& config) {
  if (config.check == CheckToggle::kOff) return nullptr;
  if (checker_ != nullptr) return checker_;
  const std::optional<CheckConfig::Mode> env = env_check_mode();
  if (config.check == CheckToggle::kDefault && !env.has_value()) {
    return nullptr;
  }
  if (owned_checker_ == nullptr) {
    CheckConfig cfg;
    cfg.mode = env.value_or(CheckConfig::Mode::kThrow);
    owned_checker_ = std::make_unique<Checker>(cfg);
  }
  return owned_checker_.get();
}

void Launcher::invalidate_texture_cache() {
  for (TextureCache& cache : texture_caches_) cache.invalidate();
}

}  // namespace extnc::simgpu
