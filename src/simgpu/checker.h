// Kernel sanitizer for the simulated GPU (the simgpu analogue of CUDA's
// compute-sanitizer/racecheck).
//
// An opt-in instrumentation layer behind LaunchConfig::check (or the
// EXTNC_SIMGPU_CHECK environment variable) that hooks the existing
// ThreadCtx/BlockCtx access paths and reports, with kernel label + lane +
// barrier-segment attribution:
//
//  * intra-block shared-memory hazards — a write/write or read/write pair
//    touching the same byte from different lanes within one barrier
//    segment. The executor runs lanes serially so such a pair happens to
//    produce deterministic bytes here, but on the real device the lanes
//    run concurrently and the result is indeterminate; the only exemption
//    is a pair of *atomic* accesses (atomics serialize in hardware).
//  * shared/global out-of-bounds and misaligned u32 accesses. OOB accesses
//    are suppressed (loads read 0, stores are dropped) so a checked run
//    can finish and report everything it found. Global bounds come from
//    the regions registered with Checker::watch_global; with no regions
//    registered only alignment is checked.
//  * barrier divergence — a partial step whose lane participation differs
//    from the launch's declared shape (LaunchShape::partial_counts). On
//    hardware a barrier not reached by all threads hangs or corrupts the
//    block; kernels must declare every intended "if (tid < c)" width.
//  * reads of never-written shared memory — enforcing the paper's
//    "shared memory is not persistent across kernel calls" assumption
//    (Sec. 5.1.2): a block consuming bytes it never produced this launch
//    is relying on leftover state that does not exist on the device.
//
// plus advisory perf lints (never fatal, never affect exit codes):
//  * bank-conflict hotspots — a half-warp shared access whose serialized
//    degree meets kBankConflictLintDegree;
//  * uncoalesced sweeps — a half-warp global access touching at least
//    kUncoalescedLintSegments distinct 64-byte segments.
//
// Findings are collected per block and merged in ascending block order,
// so serial and parallel engines produce bit-identical CheckReports (the
// same argument as for KernelMetrics; see DESIGN.md "Kernel sanitizer").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace extnc::simgpu {

enum class CheckKind : std::uint8_t {
  kSharedWriteWrite = 0,  // two lanes wrote one byte in one segment
  kSharedReadWrite,       // read and write of one byte raced in one segment
  kSharedOob,             // shared access outside the scratchpad
  kSharedMisaligned,      // u32 shared access not 4-byte aligned
  kGlobalOob,             // global access outside every watched region
  kGlobalMisaligned,      // u32 global access not 4-byte aligned
  kBarrierDivergence,     // partial step with an undeclared lane count
  kStaleSharedRead,       // read of shared memory never written this block
  kBankConflictLint,      // advisory: serialized degree over threshold
  kUncoalescedLint,       // advisory: half-warp transactions over threshold
};
inline constexpr std::size_t kCheckKindCount = 10;

// Stable snake_case name, also used for metrics-registry keys
// ("simgpu.check.<name>").
const char* check_kind_name(CheckKind kind);
// Advisory kinds inform; they never make a report dirty or a launch throw.
bool check_kind_advisory(CheckKind kind);

// One finding. Field semantics by kind:
//  * shared hazards / stale reads: address = shared byte offset, lane =
//    the access that completed the hazard, other_lane = the earlier party
//    (writer for WW/RW), value unused;
//  * OOB / misaligned: address = shared offset or global address, size =
//    access width, lane = accessing lane;
//  * barrier divergence: value = the undeclared lane count;
//  * lints: lane = first lane of the half-warp, address = the access
//    sequence number (the instruction site), value = conflict degree or
//    transaction count.
struct CheckFinding {
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  CheckKind kind = CheckKind::kSharedWriteWrite;
  std::string label;  // Launcher launch label at the time of the launch
  std::size_t block = 0;
  std::uint64_t segment = 0;  // barrier-segment index within the block
  std::size_t lane = kNoLane;
  std::size_t other_lane = kNoLane;
  std::uint64_t address = 0;
  std::size_t size = 0;
  std::uint64_t value = 0;

  std::string to_string() const;
  friend bool operator==(const CheckFinding&, const CheckFinding&) = default;
};

// Aggregated result of one or more checked launches. `findings` holds the
// first deduplicated findings (per byte and segment for hazards, per byte
// for stale reads, per site for lints), capped by CheckConfig;
// `counts` totals every detected event, never capped.
struct CheckReport {
  std::vector<CheckFinding> findings;
  std::array<std::uint64_t, kCheckKindCount> counts{};
  std::uint64_t checked_launches = 0;

  std::uint64_t errors() const;      // non-advisory events
  std::uint64_t advisories() const;  // advisory events
  bool clean() const { return errors() == 0; }
  std::uint64_t total() const { return errors() + advisories(); }

  void merge(const CheckReport& other, std::size_t max_findings);
  std::string to_string(std::size_t max_findings = 20) const;
  friend bool operator==(const CheckReport&, const CheckReport&) = default;
};

struct CheckConfig {
  enum class Mode {
    kThrow,    // a launch with any error finding throws CheckError
    kCollect,  // accumulate across launches; caller inspects report()
  };
  Mode mode = Mode::kThrow;
  // Advisory perf lints on/off.
  bool perf_lints = true;
};

// Trigger thresholds of the advisory perf lints.
inline constexpr std::uint64_t kBankConflictLintDegree = 8;
inline constexpr std::uint64_t kUncoalescedLintSegments = 16;

// Caps on stored findings (event *counts* are never capped).
inline constexpr std::size_t kMaxFindingsPerLaunch = 64;
inline constexpr std::size_t kMaxFindingsTotal = 256;

// Thrown by a checked launch in kThrow mode. The launch itself completed
// and was fully accounted (metrics, profiler record, injector contract)
// before the throw, so the device state stays consistent.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(CheckReport report);
  const CheckReport& report() const { return *report_; }

 private:
  std::shared_ptr<const CheckReport> report_;  // shared: exceptions copy
};

// The sanitizer itself: attach to one or more Launchers (set_checker) or
// let EXTNC_SIMGPU_CHECK create a per-launcher one. Region registration
// and config mutation must happen with no launch in flight; absorb() (the
// launcher-facing sink) is internally synchronized so several launchers
// can share one checker.
class Checker {
 public:
  explicit Checker(CheckConfig config = {}) : config_(config) {}

  const CheckConfig& config() const { return config_; }
  CheckConfig& config() { return config_; }

  // Register [base, base+size) as a valid global region named `name`.
  // Re-registering the same base replaces the previous entry, so
  // steady-state buffers can be registered idempotently per call site.
  void watch_global(const void* base, std::size_t size, std::string name);
  void unwatch_global(const void* base);
  void clear_globals();
  bool has_globals() const { return !regions_.empty(); }
  // True when [addr, addr+size) lies inside one watched region.
  bool contains_global(std::uintptr_t addr, std::size_t size) const;

  // RAII registration for per-call scratch buffers; unwatches on scope
  // exit so dead regions never accumulate. A null checker is a no-op.
  class ScopedWatch {
   public:
    ScopedWatch() = default;
    ScopedWatch(Checker* checker, const void* base, std::size_t size,
                std::string name);
    ScopedWatch(ScopedWatch&& other) noexcept;
    ScopedWatch& operator=(ScopedWatch&& other) noexcept;
    ScopedWatch(const ScopedWatch&) = delete;
    ScopedWatch& operator=(const ScopedWatch&) = delete;
    ~ScopedWatch();

   private:
    Checker* checker_ = nullptr;
    const void* base_ = nullptr;
  };

  // Cumulative report over every checked launch since the last reset().
  const CheckReport& report() const { return report_; }
  void reset();

  // Launcher-facing: fold one launch's report into the cumulative one and
  // feed the metrics registry. Returns true when the caller must throw
  // (kThrow mode and the launch had error findings). Thread-safe.
  bool absorb(const CheckReport& launch_report);

 private:
  struct GlobalRegion {
    std::uintptr_t base = 0;
    std::size_t size = 0;
    std::string name;
  };

  CheckConfig config_;
  std::vector<GlobalRegion> regions_;  // sorted by base
  CheckReport report_;
  mutable std::mutex mutex_;  // guards report_ (absorb vs. absorb)
};

// Parsed EXTNC_SIMGPU_CHECK: unset/"0"/"off" -> nullopt (checking off
// unless a checker is attached), "1"/"on"/"throw" -> kThrow, "collect" ->
// kCollect. Read per call so tests can toggle it.
std::optional<CheckConfig::Mode> env_check_mode();

// One launch's per-block finding sink; merged in ascending block order.
struct BlockCheckSink {
  std::vector<CheckFinding> findings;
  std::array<std::uint64_t, kCheckKindCount> counts{};
};

// Per-worker instrumentation scratch, reused across the blocks a worker
// runs (mirrors how BlockCtx reuses its accounting vectors). Owned by the
// executor; not part of the public API.
class BlockCheckState {
 public:
  void attach(const Checker& checker, std::size_t threads_per_block,
              std::vector<std::size_t> declared_partials,
              std::size_t half_warp, std::size_t shared_size,
              std::string_view label);
  void begin_block(std::size_t block, BlockCheckSink* sink);

  // Access hooks; the bool returns mean "perform the access" (false ==
  // suppressed OOB). `is_write` covers the write half of an atomic RMW;
  // the read half is implied by `is_atomic`.
  bool on_shared(std::size_t lane, std::size_t offset, std::size_t size,
                 bool is_write, bool is_atomic);
  bool on_global(std::size_t lane, std::uintptr_t addr, std::size_t size);
  void on_partial_step(std::size_t count);
  void on_barrier();
  // Half-warp aggregation hooks (advisory lints), fed by flush_half_warp.
  void on_shared_group(std::size_t half_warp, std::uint32_t seq,
                       std::uint64_t degree);
  void on_global_group(std::size_t half_warp, std::uint32_t seq,
                       std::uint32_t transactions);

 private:
  void record(CheckFinding finding);
  void count_only(CheckKind kind);

  const Checker* checker_ = nullptr;
  std::size_t threads_per_block_ = 0;
  std::vector<std::size_t> declared_partials_;
  std::size_t half_warp_ = 16;
  std::size_t shared_size_ = 0;
  std::string label_;

  BlockCheckSink* sink_ = nullptr;
  std::size_t block_ = 0;
  std::uint64_t segment_ = 0;  // barrier segment within the current block
  std::uint64_t stamp_ = 0;    // unique per (block, segment); never reset

  // Per-byte shared-memory tracking. The stamp makes segment state
  // self-invalidating (no per-barrier clears of 16 KB arrays); the
  // block-scoped flags are cleared once per block.
  std::vector<std::uint64_t> touch_stamp_;  // segment state valid marker
  std::vector<std::uint16_t> writer_;       // lane+1 of last writer
  std::vector<std::uint16_t> reader_;       // lane+1 of last reader
  std::vector<std::uint8_t> seg_flags_;     // kAtomicWriter | kHazardSeen
  std::vector<std::uint8_t> block_flags_;   // kWritten | kStaleSeen

  std::vector<std::size_t> reported_partials_;     // divergence dedup
  std::unordered_set<std::uint64_t> lint_seen_;    // (segment, seq) dedup

  static constexpr std::uint8_t kAtomicWriter = 1;
  static constexpr std::uint8_t kHazardSeen = 2;
  static constexpr std::uint8_t kWritten = 1;
  static constexpr std::uint8_t kStaleSeen = 2;
};

}  // namespace extnc::simgpu
