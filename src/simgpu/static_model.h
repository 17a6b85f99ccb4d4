// Static kernel access-pattern models: closed forms for the executor's
// accounting rules, derived from geometry alone (no execution, no payload).
//
// The executor (executor.h) charges three structural costs per half-warp
// access step: shared-bank serialization (max distinct 32-bit words per
// bank), global coalescing transactions (distinct 64-byte segments), and
// texture-cache evolution. All three are functions of the *index pattern*
// of the step, not of when it runs — which is what makes a pre-launch
// model possible. This header exposes:
//
//  * the exact degree/transaction rules, shared with the executor so the
//    static models and the dynamic accounting can never disagree;
//  * `StaticKernelModel`: a per-barrier-segment description of one launch
//    (conflict-degree histogram per half-warp group class, transaction
//    counts, texture locality, exact footprints, barrier structure) whose
//    totals are asserted bit-equal to the interpreted engine's
//    KernelMetrics by the verification tests;
//  * `SegmentBuilder`: the accumulation helper the per-kernel model
//    providers (gpu/kernel_audit.h) use to mirror a kernel's access
//    structure over its index space.
//
// The audit path (gpu/kernel_audit.h, tools/extnc_audit) consumes these
// models to validate geometry, OOB-freedom and barrier divergence before
// any launch, and to emit static bank-conflict/uncoalesced lints — a
// superset of the dynamic Checker's advisories, since the model sees every
// group class, not just the ones a particular payload exercises.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/device_spec.h"
#include "simgpu/metrics.h"
#include "util/assert.h"

namespace extnc::simgpu {

// Serialized cycles for one half-warp shared access step: the worst bank
// must serve one cycle per *distinct word* addressed in it (lanes reading
// the same word are satisfied by one broadcast); minimum degree 1. This is
// THE rule — flush_half_warp, the fast-path bulk groups and every static
// model call it, so the three can never disagree. `banks` must be a power
// of two no larger than 32 (every DeviceSpec asserts it): a word's bank is
// `word & (banks - 1)`. A call is O(count); past the choice between a
// table dedup and a pairwise one for words past 8192, no branch depends
// on the words.
std::uint64_t shared_group_degree(const std::uintptr_t* words,
                                  std::size_t count, std::uint32_t banks);

// Coalescing segment of a byte address. Every device's segment size is a
// power of two (device_spec.h), so a shift replaces the division: these
// charges run once per access step on the fast path and in the models.
inline std::uint64_t coalesce_segment(std::uintptr_t addr,
                                      std::uint64_t segment_bytes) {
  return addr >> std::countr_zero(segment_bytes);
}

// Coalescing transactions for one half-warp global access step whose lanes
// touch exactly the contiguous byte range [addr, addr + span_bytes) — the
// closed form for contiguous sweeps and broadcasts (span_bytes = access
// size). Matches record_global's per-lane segment dedup exactly for such
// groups.
inline std::uint64_t span_transactions(std::uintptr_t addr,
                                       std::size_t span_bytes,
                                       std::uint64_t segment_bytes) {
  return coalesce_segment((addr & (segment_bytes - 1)) + span_bytes +
                              segment_bytes - 1,
                          segment_bytes);
}

// Coalescing transactions for one half-warp global access step at
// arbitrary per-lane addresses (access_bytes wide each): distinct segments
// across the group, the same dedup record_global performs.
std::uint64_t group_transactions(const std::uintptr_t* addrs,
                                 std::size_t count, std::size_t access_bytes,
                                 std::uint64_t segment_bytes);

// Locality class of a read-only table bound as a 1D texture, against a
// device's direct-mapped per-TPC cache.
enum class TextureLocality {
  // The table spans at most the cache's line count with no two table lines
  // aliasing the same set: once a line is fetched it can never be evicted
  // by another table access, so misses = first touches (order-free).
  kResident,
  // The table aliases itself in the cache; misses depend on access order.
  kStreaming,
};

struct TextureTableModel {
  std::uint64_t lines = 0;  // cache lines the table spans
  TextureLocality locality = TextureLocality::kResident;
};

TextureTableModel texture_table_model(std::uintptr_t base, std::size_t bytes,
                                      const DeviceSpec& spec);

// ------------------------------------------------------------------------
// One barrier-delimited segment of a kernel, aggregated over the launch.

// Degree histogram: degree_events[d] counts half-warp shared access steps
// whose serialization degree is exactly d (1 <= d <= kGroupLanes).
inline constexpr std::size_t kMaxConflictDegree = 16;

struct SegmentModel {
  std::string name;
  // Exact counter totals this segment contributes to the launch's
  // KernelMetrics (alu, bytes, transactions, shared, texture, atomics,
  // barriers). Geometry/launch fields stay zero; StaticKernelModel::totals
  // fills them in.
  KernelMetrics counters;
  // Shared access steps bucketed by serialization degree. Invariants:
  //   sum(degree_events) == counters.shared_access_events
  //   sum(d * degree_events[d]) == counters.shared_serialized_cycles
  std::array<std::uint64_t, kMaxConflictDegree + 1> degree_events{};
  // Worst global group: transactions of the most scattered half-warp step
  // (the static input to the uncoalesced lint).
  std::uint64_t max_group_transactions = 0;
  // Lane width of the step this barrier closes: threads_per_block for full
  // steps, the declared count for partial ones (the divergence audit
  // checks these against the kernel's declared LaunchShape).
  std::size_t step_width = 0;

  std::uint64_t max_conflict_degree() const {
    for (std::size_t d = kMaxConflictDegree; d >= 1; --d) {
      if (degree_events[d] != 0) return d;
    }
    return 1;
  }
};

// A named global region a kernel reads or writes, with the exact byte
// extent the model derives from the index space — the audit checks each
// against the registered buffer size (OOB-freedom without running).
struct FootprintRegion {
  std::string name;
  std::size_t bytes_needed = 0;     // max index + access width
  std::size_t bytes_registered = 0; // actual buffer size
  bool written = false;
};

struct StaticKernelModel {
  std::string kernel;  // e.g. "encode/tb5/exp_smem"
  std::size_t blocks = 0;
  std::size_t threads_per_block = 0;
  std::size_t shared_bytes = 0;  // scratchpad footprint (audit vs spec)
  std::vector<SegmentModel> segments;
  std::vector<FootprintRegion> footprint;

  // The exact KernelMetrics one launch of this kernel must produce — the
  // verification contract with the interpreted engine.
  KernelMetrics totals() const;

  std::uint64_t max_conflict_degree() const;
  std::uint64_t max_group_transactions() const;
};

// ------------------------------------------------------------------------
// Accumulator for building a SegmentModel by mirroring a kernel's access
// structure. Every add_* mirrors one executor charge; `times` repeats a
// structurally identical step (the amortization that makes the models
// cheap: one degree evaluation per group *class*, multiplied out).
class SegmentBuilder {
 public:
  SegmentBuilder(const DeviceSpec& spec, std::string name)
      : spec_(&spec) {
    model_.name = std::move(name);
  }

  // One half-warp shared access step with the given per-lane word indices.
  void add_shared_group(const std::uintptr_t* words, std::size_t count,
                        std::uint64_t times = 1);
  // Same, with a precomputed degree (closed-form callers).
  void add_shared_group_degree(std::uint64_t degree, std::size_t count,
                               std::uint64_t times = 1);
  // One contiguous/broadcast half-warp global step ([addr, addr+span)).
  void add_global_span(std::uintptr_t addr, std::size_t span_bytes,
                       std::uint64_t instrs, std::uint64_t load_bytes,
                       std::uint64_t store_bytes, std::uint64_t times = 1);
  // One scattered half-warp global step at per-lane addresses.
  void add_global_group(const std::uintptr_t* addrs, std::size_t count,
                        std::size_t access_bytes, std::uint64_t load_bytes,
                        std::uint64_t store_bytes, std::uint64_t times = 1);
  // Pre-deduplicated variant: `transactions` distinct segments.
  void add_global_transactions(std::uint64_t transactions,
                               std::uint64_t instrs,
                               std::uint64_t load_bytes,
                               std::uint64_t store_bytes,
                               std::uint64_t times = 1);
  // Texture fetches with a known hit/miss split (kResident tables).
  void add_texture_fetches(std::uint64_t fetches, std::uint64_t misses);
  void add_atomics(std::uint64_t ops);
  // Scalar work, pre-quantized (KernelMetrics::deciops per conceptual
  // count_alu call, times the number of calls).
  void add_alu_deciops(std::uint64_t deci) {
    model_.counters.alu_deciops += deci;
  }

  // Close the segment: one barrier per block, step_width lanes.
  SegmentModel finish(std::size_t step_width, std::uint64_t barriers);

 private:
  const DeviceSpec* spec_;
  SegmentModel model_;
};

// The per-step adds are inline: a model walk makes one per access step.

inline void SegmentBuilder::add_shared_group_degree(std::uint64_t degree,
                                                    std::size_t count,
                                                    std::uint64_t times) {
  EXTNC_DASSERT(degree >= 1 && degree <= kMaxConflictDegree);
  model_.counters.shared_accesses += count * times;
  model_.counters.shared_access_events += times;
  model_.counters.shared_serialized_cycles += degree * times;
  // One memory instruction per participating lane, 10 deci-ops each
  // (fast_shared_group / the interpreted pending_mem_instrs_ fold).
  model_.counters.alu_deciops +=
      static_cast<std::uint64_t>(count) * 10 * times;
  model_.degree_events[degree] += times;
}

inline void SegmentBuilder::add_global_transactions(
    std::uint64_t transactions, std::uint64_t instrs,
    std::uint64_t load_bytes, std::uint64_t store_bytes,
    std::uint64_t times) {
  model_.counters.global_transactions += transactions * times;
  model_.counters.global_load_bytes += load_bytes * times;
  model_.counters.global_store_bytes += store_bytes * times;
  model_.counters.alu_deciops += instrs * 10 * times;
  model_.max_group_transactions =
      std::max(model_.max_group_transactions, transactions);
}

inline void SegmentBuilder::add_global_span(std::uintptr_t addr,
                                            std::size_t span_bytes,
                                            std::uint64_t instrs,
                                            std::uint64_t load_bytes,
                                            std::uint64_t store_bytes,
                                            std::uint64_t times) {
  add_global_transactions(
      span_transactions(addr, span_bytes, spec_->coalesce_segment_bytes),
      instrs, load_bytes, store_bytes, times);
}

}  // namespace extnc::simgpu
