// Functional CUDA-like executor with memory-system accounting.
//
// Kernels are written against a BlockCtx and executed bit-exactly on the
// host. The execution model is "barrier-segmented": BlockCtx::step runs a
// callable for every thread of the block in lane order, and the boundary
// between two steps is a __syncthreads(). This keeps each block
// deterministic and single-threaded while preserving exactly the
// synchronization structure the paper's kernels have (per-block barriers
// only — CUDA has no global barrier, which is what forces the decoder's
// task-partitioning scheme in Sec. 4.2.2). Blocks of one launch never
// share state, so the launcher may run them serially or across host
// worker threads with bit-identical results (exec_engine.h).
//
// Every memory access goes through ThreadCtx, which aggregates accesses at
// half-warp granularity (16 lanes, the GT200 coalescing/bank-conflict
// unit):
//  * global accesses are grouped by access sequence number and counted as
//    one transaction per distinct 64-byte segment the half-warp touches —
//    a broadcast (all lanes, same address) is one transaction, a fully
//    coalesced sweep is four;
//  * shared accesses are resolved into bank conflicts: an access step
//    costs max-over-banks(distinct 32-bit words addressed in that bank)
//    serialized cycles, so a layout change (e.g. the TB-5 replicated exp
//    tables) shows up in the metrics with no model changes;
//  * texture fetches run through a direct-mapped cache model.
//
// Aggregation by sequence number assumes lanes of a half-warp execute the
// same access sequence, which holds for all kernels in this library
// (divergent kernels would see slightly misattributed grouping, never
// wrong functional results).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simgpu/checker.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "simgpu/metrics.h"
#include "util/aligned_buffer.h"
#include "util/assert.h"

namespace extnc::simgpu {

// Per-launch sanitizer toggle; kDefault means "checked iff a Checker is
// attached to the Launcher or EXTNC_SIMGPU_CHECK enables one".
enum class CheckToggle { kDefault, kOff, kOn };

// The kernel's declared execution shape, consumed by the sanitizer: every
// lane count a step_partial may legitimately use (full steps are always
// legitimate). A checked launch flags any other partial width as barrier
// divergence.
struct LaunchShape {
  std::vector<std::size_t> partial_counts;
};

struct LaunchConfig {
  std::size_t blocks = 1;
  std::size_t threads_per_block = 256;
  // Kernel sanitizer (simgpu/checker.h): opt-in/out and declared shape.
  CheckToggle check = CheckToggle::kDefault;
  LaunchShape shape;
};

// Per-block scratchpad (the 16 KB on-chip shared memory of one SM).
class SharedMemory {
 public:
  explicit SharedMemory(std::size_t size) : storage_(size) {}

  std::size_t size() const { return storage_.size(); }
  std::uint8_t* data() { return storage_.data(); }

  // True when [offset, offset+size) lies inside the scratchpad. Every
  // accessor routes through this one bounds predicate, and enforces it
  // with EXTNC_CHECK — in release builds too: an OOB shared access is
  // kernel corruption, never a hot-path cost worth compiling out. (The
  // sanitizer uses the same predicate to *report* instead of abort.)
  bool contains(std::size_t offset, std::size_t size) const {
    return size <= storage_.size() && offset <= storage_.size() - size;
  }

  std::uint8_t read_u8(std::size_t offset) const {
    EXTNC_CHECK(contains(offset, 1));
    return storage_[offset];
  }
  void write_u8(std::size_t offset, std::uint8_t value) {
    EXTNC_CHECK(contains(offset, 1));
    storage_[offset] = value;
  }
  std::uint32_t read_u32(std::size_t offset) const {
    EXTNC_CHECK(contains(offset, 4));
    std::uint32_t v;
    std::memcpy(&v, storage_.data() + offset, 4);
    return v;
  }
  void write_u32(std::size_t offset, std::uint32_t value) {
    EXTNC_CHECK(contains(offset, 4));
    std::memcpy(storage_.data() + offset, &value, 4);
  }

 private:
  AlignedBuffer storage_;
};

// Direct-mapped read-only texture cache model.
class TextureCache {
 public:
  TextureCache(std::size_t cache_bytes, std::size_t line_bytes);

  // Returns true on hit; records the line on miss.
  bool access(std::uintptr_t address);
  // Non-mutating residency probe: would `access` hit right now? Used by
  // closed-form texture accounting (static models / fast-path lowerings)
  // to seed a residency window without perturbing the cache.
  bool resident(std::uintptr_t address) const;
  void invalidate();

  std::size_t num_lines() const { return num_lines_; }
  std::size_t line_bytes() const { return line_bytes_; }

 private:
  std::size_t num_lines_;
  std::size_t line_bytes_;
  std::vector<std::uintptr_t> tags_;  // 0 == empty
};

class BlockCtx;

// Handle through which kernel code touches memory; one per logical thread.
class ThreadCtx {
 public:
  std::size_t lane() const { return lane_; }
  std::size_t block_index() const;
  std::size_t threads_per_block() const;
  std::size_t global_index() const;

  // --- global memory ----------------------------------------------------
  std::uint8_t gload_u8(const std::uint8_t* p);
  std::uint32_t gload_u32(const void* p);
  void gstore_u8(std::uint8_t* p, std::uint8_t v);
  void gstore_u32(void* p, std::uint32_t v);

  // --- shared memory ------------------------------------------------------
  std::uint8_t sload_u8(std::size_t offset);
  std::uint32_t sload_u32(std::size_t offset);
  void sstore_u8(std::size_t offset, std::uint8_t v);
  void sstore_u32(std::size_t offset, std::uint32_t v);
  // atomicMin on shared memory (GTX 280+, Sec. 5.4.2); returns old value.
  std::uint32_t atomic_min_shared(std::size_t offset, std::uint32_t v);

  // --- texture ------------------------------------------------------------
  std::uint32_t tex1d_u32(const std::uint32_t* base, std::size_t index);
  std::uint8_t tex1d_u8(const std::uint8_t* base, std::size_t index);

  // Charge scalar-instruction work (address math, tests, xors, loop
  // control). Memory instructions are charged automatically, one per
  // access.
  void count_alu(double ops);

  // A lane sitting out a predicated/branched-around access must still
  // advance its access sequence so that the remaining lanes' accesses stay
  // grouped with the same instruction site (on hardware, grouping is by
  // PC; here it is by per-thread sequence number). Call once per skipped
  // access.
  void skip_access() { ++seq_; }

 private:
  friend class BlockCtx;
  BlockCtx* block_ = nullptr;
  std::size_t lane_ = 0;
  std::uint32_t seq_ = 0;  // per-thread access sequence number
};

class Launcher;

// Context for one thread block; passed to the kernel callable.
class BlockCtx {
 public:
  std::size_t block_index() const { return block_index_; }
  std::size_t num_blocks() const { return config_.blocks; }
  std::size_t num_threads() const { return config_.threads_per_block; }
  SharedMemory& shared() { return *shared_; }
  const DeviceSpec& spec() const { return *spec_; }

  // Execute fn(thread) for every lane, then a barrier.
  void step(const std::function<void(ThreadCtx&)>& fn);
  // Execute fn for lanes [0, count) only (partial step, still a barrier) —
  // the "if (tid < count)" idiom.
  void step_partial(std::size_t count,
                    const std::function<void(ThreadCtx&)>& fn);

  // --- zero-instrumentation fast path -----------------------------------
  // True when this launch runs unchecked (no sanitizer resolved) and the
  // process-wide fast path is enabled (exec_engine.h). A kernel that ships
  // a bulk lowering branches on this flag: instead of stepping lanes
  // through ThreadCtx it computes whole half-warps via the host SIMD
  // GF(2^8) region ops and charges the bulk accounting below. A lowering
  // MUST charge exactly what the interpreted path would — the equivalence
  // suites hold it to bit-identity on outputs and every KernelMetrics
  // field. Lowerings with shape preconditions (lane alignment, word
  // counts) fall back to the interpreted step()s when they do not hold.
  bool fast_path() const { return fast_; }

  // One barrier per (would-be) step/step_partial.
  void fast_barriers(std::uint64_t count) { metrics_->barriers += count; }

  // Scalar work, pre-quantized: mirror each conceptual count_alu(x) charge
  // as KernelMetrics::deciops(x) multiplied by the number of lanes/calls
  // that would have made it (quantize per call, then multiply — never
  // quantize the product).
  void fast_alu_deciops(std::uint64_t deci) { metrics_->alu_deciops += deci; }

  // One half-warp global access step at arbitrary per-lane addresses, each
  // access `access_bytes` wide: transactions = distinct 64-byte segments
  // across the group, deduplicated exactly like record_global. Use this
  // for strided/scattered groups; contiguous or broadcast ones charge the
  // closed form span_transactions through fast_global_bulk.
  void fast_global_group(const std::uintptr_t* addrs, std::size_t count,
                         std::size_t access_bytes, std::uint64_t load_bytes,
                         std::uint64_t store_bytes);

  // One half-warp shared access step at the given 32-bit word indices
  // (offset / 4, one entry per participating lane). Serialization degree
  // uses the same distinct-words-per-bank rule as flush_half_warp.
  void fast_shared_group(const std::uintptr_t* words, std::size_t count);

  // Closed-form bulk accounting for shared access steps whose degrees are
  // known: `events` groups totalling `accesses` lane accesses and `cycles`
  // serialized cycles (the table schemes' lookup steps, read from their
  // TableLookups in gpu/kernel_walks.h). Each access is one memory
  // instruction, as in fast_shared_group.
  void fast_shared_bulk(std::uint64_t accesses, std::uint64_t events,
                        std::uint64_t cycles) {
    metrics_->shared_accesses += accesses;
    metrics_->shared_access_events += events;
    metrics_->shared_serialized_cycles += cycles;
    metrics_->alu_deciops += accesses * 10;
  }

  // Closed-form bulk accounting for global access steps:
  // `transactions` pre-deduplicated coalescing transactions across `instrs`
  // memory instructions. Only valid when the caller evaluated the span /
  // group dedup itself (the accounting walks' span closed form, per
  // alignment class).
  void fast_global_bulk(std::uint64_t transactions, std::uint64_t instrs,
                        std::uint64_t load_bytes, std::uint64_t store_bytes) {
    metrics_->global_transactions += transactions;
    metrics_->global_load_bytes += load_bytes;
    metrics_->global_store_bytes += store_bytes;
    metrics_->alu_deciops += instrs * 10;
  }

  // Closed-form bulk accounting of a precomputed counter set — the
  // counters of a one-block static segment model (static_model.h) that is
  // the same for every block. Launch geometry stays the launcher's.
  void fast_counters(const KernelMetrics& counters) {
    metrics_->merge(counters);
  }

  // One texture fetch; evolves the per-TPC cache state exactly like
  // tex1d_* so a later interpreted launch sees the same tags.
  void fast_texture_fetch(std::uintptr_t addr) {
    metrics_->texture_fetches += 1;
    metrics_->alu_deciops += 10;
    if (!texture_->access(addr)) metrics_->texture_misses += 1;
  }

  // Closed-form texture accounting: charge `fetches` fetch instructions
  // and `misses` misses in bulk. Only valid when the miss count is
  // order-independent (a kResident table, see static_model.h); the caller
  // must then evolve texture_cache() to the exact post-step tag state by
  // access()ing each newly-resident line once.
  void fast_texture_bulk(std::uint64_t fetches, std::uint64_t misses) {
    metrics_->texture_fetches += fetches;
    metrics_->texture_misses += misses;
    metrics_->alu_deciops += fetches * 10;
  }
  // This block's texture-cache unit (stateful across launches).
  TextureCache& texture_cache() { return *texture_; }

 private:
  friend class Launcher;
  friend class ThreadCtx;

  void flush_half_warp();
  void record_global(std::uint32_t seq, std::uintptr_t addr, std::size_t size);
  void record_shared(std::uint32_t seq, std::size_t offset, std::size_t size);
  void record_texture(std::uintptr_t addr, std::size_t size);

  const DeviceSpec* spec_ = nullptr;
  LaunchConfig config_;
  std::size_t block_index_ = 0;
  SharedMemory* shared_ = nullptr;
  TextureCache* texture_ = nullptr;
  KernelMetrics* metrics_ = nullptr;
  // Sanitizer hook; null on unchecked launches so the hot paths pay one
  // pointer test. Per worker, like the accounting scratch below.
  BlockCheckState* check_ = nullptr;
  // Set by Launcher::run_blocks: unchecked launch and fast path enabled.
  bool fast_ = false;

  // Half-warp aggregation state (fast path): groups are flat vectors
  // indexed by the per-thread access sequence number — the grouping key —
  // with a first-touch list so a flush only visits live groups. The
  // vectors are reused across half-warps, steps and blocks; only their
  // capacity persists, never accounting state.
  //
  // Per-group storage is inline and fixed-size: a group collects the
  // accesses of one half-warp (<= 16 lanes on every spec), and a single
  // 4-byte access spans at most two 64-byte coalescing segments.
  static constexpr std::size_t kGroupLanes = 16;
  struct GlobalGroup {
    std::uint32_t count = 0;  // live entries in segments
    std::array<std::uint64_t, 2 * kGroupLanes> segments;  // distinct 64B ids
  };
  struct SharedGroup {
    std::uint32_t count = 0;  // live word entries
    std::array<std::uintptr_t, kGroupLanes> words;
  };
  std::size_t current_half_warp_ = 0;
  std::vector<GlobalGroup> global_groups_;   // indexed by seq
  std::vector<SharedGroup> shared_groups_;   // indexed by seq
  std::vector<std::uint32_t> global_live_;   // seqs touched this half-warp
  std::vector<std::uint32_t> shared_live_;

  // Metric increments batched per half-warp; flushed by flush_half_warp so
  // the hot access paths touch only these plain counters.
  std::uint64_t pending_mem_instrs_ = 0;  // issue slots -> alu_ops
  std::uint64_t pending_load_bytes_ = 0;
  std::uint64_t pending_store_bytes_ = 0;
  std::uint64_t pending_shared_accesses_ = 0;
  std::uint64_t pending_texture_fetches_ = 0;
  std::uint64_t pending_texture_misses_ = 0;
  std::uint64_t pending_atomic_ops_ = 0;
};

// Counts the blocks of one launch that took a bulk lowering, and adds the
// totals to the simgpu.fast.lowered_blocks / simgpu.fast.straddle_blocks
// registry counters once, when the tally leaves scope after the launch.
// Block bodies, which the parallel engine runs concurrently, bump a
// relaxed atomic instead of taking the registry's locks.
class FastBlockTally {
 public:
  FastBlockTally() = default;
  FastBlockTally(const FastBlockTally&) = delete;
  FastBlockTally& operator=(const FastBlockTally&) = delete;
  ~FastBlockTally();

  void lowered() { lowered_.fetch_add(1, std::memory_order_relaxed); }
  void straddle() { straddle_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> lowered_{0};
  std::atomic<std::uint64_t> straddle_{0};
};

class FaultInjector;
class Profiler;

// Owns metrics and the texture cache; launches kernels on a device spec.
class Launcher {
 public:
  explicit Launcher(const DeviceSpec& spec);

  const DeviceSpec& spec() const { return *spec_; }
  KernelMetrics& metrics() { return metrics_; }
  const KernelMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = KernelMetrics{}; }

  // Optional observability hook: with a profiler attached, every launch is
  // additionally recorded as one LaunchProfile (label, geometry, the
  // launch's own KernelMetrics delta, modeled time). The label is sticky —
  // set it before the launch(es) it should attribute; reset_metrics() does
  // not touch it. The profiler is borrowed, never owned.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }
  Profiler* profiler() const { return profiler_; }
  void set_launch_label(std::string label) {
    launch_label_ = std::move(label);
  }
  const std::string& launch_label() const { return launch_label_; }

  // Optional fault model (simgpu/fault_injector.h). With an injector
  // attached, every launch consults it first: a kLaunchFailure or
  // kDeviceLost verdict aborts the launch with a DeviceError (nothing
  // runs, no metrics accrue), a kHang verdict stalls the launch's modeled
  // time by the plan's stall factor, and kHang/kBitFlip verdicts damage
  // the injector's watched regions after the kernel completes. The
  // injector is borrowed, never owned; one injector shared by several
  // launchers models one device.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Optional kernel sanitizer (simgpu/checker.h). With a checker attached
  // every launch (unless LaunchConfig::check == kOff) runs instrumented:
  // shared-memory hazards, OOB/misalignment, barrier divergence, stale
  // shared reads and advisory perf lints are collected per block, merged
  // in ascending block order (bit-identical on both engines) and absorbed
  // into the checker's cumulative report. In kThrow mode a launch with
  // error findings throws CheckError — after metrics, profiler record and
  // injector accounting completed, so device state stays consistent.
  // Without an attached checker, EXTNC_SIMGPU_CHECK=1|throw|collect (or
  // LaunchConfig::check == kOn) makes the launcher create an internal
  // one. The attached checker is borrowed, never owned; one checker
  // shared by several launchers aggregates across them.
  void set_checker(Checker* checker) { checker_ = checker; }
  Checker* checker() const { return checker_; }

  // Run the kernel over every block. Shared memory contents do NOT persist
  // across blocks or launches, matching CUDA semantics the paper leans on
  // in Sec. 5.1.2 ("CUDA's shared memory is not persistent across GPU
  // kernel calls").
  //
  // Blocks are independent (barriers only synchronize within a block), so
  // the engine may schedule them across host worker threads; results —
  // output bytes, KernelMetrics, modeled timing, profiler records — are
  // bit-identical to the serial engine either way. See exec_engine.h for
  // how the engine is selected and DESIGN.md ("Parallel block execution")
  // for the determinism argument. Blocks are accounted into per-block
  // KernelMetrics and merged in ascending block order, and each
  // texture-cache unit is only ever touched by the worker that owns it,
  // which is what makes the reduction deterministic.
  void launch(const LaunchConfig& config,
              const std::function<void(BlockCtx&)>& kernel);

  // Modeled seconds this launcher's launches have consumed (timing model,
  // default calibration; includes injected hang stalls). This is the clock
  // watchdog supervisors compare against a per-attempt budget.
  double elapsed_seconds() const { return elapsed_s_; }
  double last_launch_seconds() const { return last_launch_s_; }

  // The texture caches persist across launches (they are hardware caches);
  // tests can clear them. The device has one texture cache per TPC
  // (DeviceSpec::sms_per_texture_cache SMs share one unit); block b runs on
  // SM (b % num_sms) and fetches through that SM's unit, on the serial and
  // the parallel engine alike.
  void invalidate_texture_cache();
  std::size_t texture_cache_units() const { return texture_caches_.size(); }
  std::size_t texture_unit_of(std::size_t block) const;

 private:
  // The failing block (lowest index wins so the parallel engine reports
  // the same error the serial engine would hit first) and its exception.
  struct BlockError {
    std::size_t block = static_cast<std::size_t>(-1);
    std::exception_ptr error;
  };

  // Run this launch's blocks whose texture unit == only_unit (or every
  // block when only_unit == kAllUnits), in ascending block order, each
  // accounted into block_metrics[b] (and, when checking, check_sinks[b]).
  // Stops at the first throwing block.
  static constexpr std::size_t kAllUnits = static_cast<std::size_t>(-1);
  void run_blocks(const LaunchConfig& config,
                  const std::function<void(BlockCtx&)>& kernel,
                  std::size_t only_unit,
                  std::vector<KernelMetrics>& block_metrics,
                  Checker* checker, std::vector<BlockCheckSink>* check_sinks,
                  BlockError& error);

  // The checker this launch runs under: the attached one, an internal
  // env/kOn-created one, or null (unchecked).
  Checker* resolve_checker(const LaunchConfig& config);

  const DeviceSpec* spec_;
  KernelMetrics metrics_;
  std::vector<TextureCache> texture_caches_;  // one per TPC unit
  Profiler* profiler_ = nullptr;
  FaultInjector* injector_ = nullptr;
  Checker* checker_ = nullptr;
  std::unique_ptr<Checker> owned_checker_;  // EXTNC_SIMGPU_CHECK / kOn
  std::string launch_label_;
  double elapsed_s_ = 0;
  double last_launch_s_ = 0;
};

}  // namespace extnc::simgpu
