// One accounting walk per simulated kernel, shared by the fast-path
// lowerings and the static kernel models.
//
// A walk visits one thread block's (half-warp, access-sequence) index
// space — the groups the interpreted lane stepping forms — and charges
// every access step to a Sink: which lanes touch which global addresses,
// shared words and texture lines is the kernel's whole cost structure
// (bank-conflict degree, coalescing, texture locality). The walks read the
// kernel's real accounting-domain bytes — the log-domain segment and
// coefficients for preprocessed schemes, natural bytes for loop/tb0 — so
// every data-dependent branch and lookup index is the kernel's own.
//
// Two sinks implement the same calls:
//  * BlockSink (below) forwards to BlockCtx's fast_* accounting: the
//    fast path runs the walk per block, at device addresses;
//  * ModelSink (below), the static models' sink (kernel_audit.cpp),
//    forwards to simgpu::SegmentBuilder's add_* calls and records the
//    byte extent of each global Region, so footprints come from the
//    addresses visited.
//    Model addresses are offsets from 64-byte aligned bases (every device
//    buffer is an AlignedBuffer), which coalesce exactly like the device
//    pointers.
// Sinks are template parameters, so dispatch is static: no virtual or
// std::function call per access.
//
// Sink calls:
//   global_span(Region, addr, span_bytes, instrs, load_bytes, store_bytes,
//               times = 1)
//       `times` equal steps, one per address congruent to addr modulo the
//       coalescing segment, addr the highest of them (the one whose span
//       ends last, for footprints)
//   coalesce_bytes()               (the device's coalescing segment)
//   global_group(Region, addrs, count, access_bytes, load_bytes,
//                store_bytes)
//   shared_group(words, count)
//   shared_degree(degree, count, times = 1)
//       `times` steps whose degree is known
//   lookups(TableLookups, begin, end, residue)
//       the lookup steps of entries [begin, end) for a coefficient whose
//       log is `residue` mod 4: tb0's log lookups, and the exp lookup of
//       each entry with a live lane (shared-memory schemes)
//   alu(deciops)
//   texture_fetch(addr)
//   texture_warm()                 (every bound table line resident)
//   texture_bulk(fetches, top_addr)
//   barrier()
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "gf256/swar.h"
#include "gpu/encode_scheme.h"
#include "gpu/kernel_cost.h"
#include "gpu/table_layout.h"
#include "simgpu/executor.h"
#include "simgpu/static_model.h"
#include "util/aligned_buffer.h"
#include "util/assert.h"

namespace extnc::gpu {

// The global buffers a walk names when it charges an access.
enum class Region : std::size_t {
  kSource,        // segment rows (log domain for preprocessed schemes)
  kCoefficients,  // coefficient rows
  kOutput,        // coded payloads / transformed bytes
  kExpTable,      // exp table (bytes, tb5's word copies, or tb4's texture)
  kLogTable,      // tb0's log table
  kWork,          // the inverter's augmented matrix
  kCount,
};

// ------------------------------------------------------------------------
// Lookup structure of an aligned table-scheme encode: when half-warps
// never straddle coded blocks, a half-warp's lookups for source row i and
// byte b depend only on its word group g within the coded block and on its
// one coefficient log_c. Adding 4t to log_c shifts every byte-table exp
// lookup word by t, a uniform shift that keeps words distinct and permutes
// banks, so a lookup step's serialization degree is a function of
// (i, g, b, log_c mod 4); tb5's words all move by kReplicatedTables per
// unit of log_c, so its degree does not depend on log_c at all. Evaluated
// once per accounting-domain segment, these let the encode walk charge
// lookup steps by table read instead of deduplicating their lanes. The
// prefix sums make one source row's entries of a run of groups a
// contiguous range, which BlockSink charges by subtraction and ModelSink
// entry by entry.
struct TableLookups {
  std::size_t groups = 0;  // half-warp groups per coded block
  std::size_t lanes = 0;   // lanes per group (the half-warp)
  // Indexed by index(i, g, b).
  std::vector<std::uint8_t> active;      // lanes whose source byte is live
  std::vector<std::uint8_t> log_degree;  // tb0: the source bytes' log lookup
  // Exp lookup degree by log_c % 4 (shared-memory schemes).
  std::vector<std::array<std::uint8_t, 4>> exp_degree;
  // What entries charge under a live coefficient, summed in index order:
  // sums[e] covers entries [0, e). Their shared lookup steps are tb0's log
  // lookup and, on the shared-memory schemes, the exp lookup of an entry
  // with a live lane; tb4 fetches once per live lane instead.
  struct Sums {
    std::uint32_t live_lanes = 0;  // active
    std::uint32_t steps = 0;       // shared lookup steps
    std::uint32_t accesses = 0;    // their lane accesses
    std::array<std::uint32_t, 4> cycles{};  // their degrees, by log_c % 4
  };
  std::vector<Sums> sums;
  // tb4: largest live source byte of each row (0: none is live).
  std::vector<std::uint8_t> row_top;

  std::size_t index(std::size_t i, std::size_t g, std::size_t b) const {
    return (i * groups + g) * 4 + b;
  }
};

// ------------------------------------------------------------------------
// Fast-path sink: BlockCtx's bulk accounting for one block.

class BlockSink {
 public:
  explicit BlockSink(simgpu::BlockCtx& block) : block_(&block) {}
  BlockSink(const BlockSink&) = delete;
  BlockSink& operator=(const BlockSink&) = delete;
  // Charges the scalar work, known-degree shared steps and bulk texture
  // fetches the walk accumulated.
  ~BlockSink() {
    block_->fast_alu_deciops(alu_);
    block_->fast_shared_bulk(shared_accesses_, shared_events_,
                             shared_cycles_);
    if (bulk_fetches_ > 0) block_->fast_texture_bulk(bulk_fetches_, 0);
  }

  // tb4: fetches go through the block's texture cache only until every
  // line of [base, base + bytes) is resident. The table's lines own
  // distinct sets (static_model.h, kResident), so from then on no fetch can
  // miss or move a tag and the rest are charged in bulk. For the same
  // reason misses and the final tag state do not depend on fetch order:
  // walk order charges what the interpreted lane-major order does.
  void bind_texture(std::uintptr_t base, std::size_t bytes) {
    const simgpu::TextureCache& cache = block_->texture_cache();
    const std::size_t line = cache.line_bytes();
    for (std::uintptr_t l = base / line; l <= (base + bytes - 1) / line; ++l) {
      if (!cache.resident(l * line)) ++missing_lines_;
    }
  }

  void global_span(Region, std::uintptr_t addr, std::size_t span_bytes,
                   std::uint64_t instrs, std::uint64_t load_bytes,
                   std::uint64_t store_bytes, std::uint64_t times = 1) {
    block_->fast_global_bulk(
        simgpu::span_transactions(addr, span_bytes, coalesce_bytes()) * times,
        instrs * times, load_bytes * times, store_bytes * times);
  }
  std::uint64_t coalesce_bytes() const {
    return block_->spec().coalesce_segment_bytes;
  }
  void global_group(Region, const std::uintptr_t* addrs, std::size_t count,
                    std::size_t access_bytes, std::uint64_t load_bytes,
                    std::uint64_t store_bytes) {
    block_->fast_global_group(addrs, count, access_bytes, load_bytes,
                              store_bytes);
  }
  void shared_group(const std::uintptr_t* words, std::size_t count) {
    block_->fast_shared_group(words, count);
  }
  void shared_degree(std::uint64_t degree, std::size_t count,
                     std::uint64_t times = 1) {
    shared_accesses_ += count * times;
    shared_events_ += times;
    shared_cycles_ += degree * times;
  }
  void lookups(const TableLookups& lk, std::size_t begin, std::size_t end,
               std::size_t residue) {
    const TableLookups::Sums& first = lk.sums[begin];
    const TableLookups::Sums& last = lk.sums[end];
    shared_accesses_ += last.accesses - first.accesses;
    shared_events_ += last.steps - first.steps;
    shared_cycles_ += last.cycles[residue] - first.cycles[residue];
  }
  void alu(std::uint64_t deci) { alu_ += deci; }
  void texture_fetch(std::uintptr_t addr) {
    if (missing_lines_ == 0) {
      ++bulk_fetches_;
      return;
    }
    if (!block_->texture_cache().resident(addr)) --missing_lines_;
    block_->fast_texture_fetch(addr);
  }
  bool texture_warm() const { return missing_lines_ == 0; }
  void texture_bulk(std::uint64_t fetches, std::uintptr_t) {
    bulk_fetches_ += fetches;
  }
  void barrier() { block_->fast_barriers(1); }

 private:
  simgpu::BlockCtx* block_;
  std::uint64_t alu_ = 0;
  std::uint64_t shared_accesses_ = 0;
  std::uint64_t shared_events_ = 0;
  std::uint64_t shared_cycles_ = 0;
  std::uint64_t bulk_fetches_ = 0;
  std::size_t missing_lines_ = 0;
};

// ------------------------------------------------------------------------
// Static-model sink: SegmentBuilder charges plus the byte extent of every
// global region the walk touches, so the models' footprints are derived,
// never asserted.

class ModelSink {
 public:
  ModelSink(const simgpu::DeviceSpec& spec, std::string name)
      : spec_(&spec),
        seg_(spec, std::move(name)),
        unit_lines_(1),
        unit_touched_(1) {}

  void global_span(Region region, std::uintptr_t addr, std::size_t span_bytes,
                   std::uint64_t instrs, std::uint64_t load_bytes,
                   std::uint64_t store_bytes, std::uint64_t times = 1) {
    seg_.add_global_span(addr, span_bytes, instrs, load_bytes, store_bytes,
                         times);
    touch(region, addr, span_bytes);
  }
  std::uint64_t coalesce_bytes() const {
    return spec_->coalesce_segment_bytes;
  }
  void global_group(Region region, const std::uintptr_t* addrs,
                    std::size_t count, std::size_t access_bytes,
                    std::uint64_t load_bytes, std::uint64_t store_bytes) {
    seg_.add_global_group(addrs, count, access_bytes, load_bytes,
                          store_bytes);
    for (std::size_t l = 0; l < count; ++l) {
      touch(region, addrs[l], access_bytes);
    }
  }
  void shared_group(const std::uintptr_t* words, std::size_t count) {
    seg_.add_shared_group(words, count);
  }
  void shared_degree(std::uint64_t degree, std::size_t count,
                     std::uint64_t times = 1) {
    seg_.add_shared_group_degree(degree, count, times);
  }
  // Entry by entry, so degree_events keeps each step's degree.
  void lookups(const TableLookups& lk, std::size_t begin, std::size_t end,
               std::size_t residue) {
    for (std::size_t e = begin; e < end; ++e) {
      if (!lk.log_degree.empty()) {
        seg_.add_shared_group_degree(lk.log_degree[e], lk.lanes);
      }
      if (!lk.exp_degree.empty() && lk.active[e] != 0) {
        seg_.add_shared_group_degree(lk.exp_degree[e][residue],
                                     lk.active[e]);
      }
    }
  }
  void alu(std::uint64_t deci) { seg_.add_alu_deciops(deci); }
  // tb4: a cold cache misses once per distinct table line per texture
  // unit (the table is kResident, static_model.h). Every fetch lands in
  // the table bound here, so a unit whose touched lines number the
  // table's lines can miss no more.
  void bind_texture(std::uintptr_t base, std::size_t bytes) {
    const std::size_t line = line_bytes();
    table_lines_ = (base + bytes - 1) / line - base / line + 1;
  }
  void texture_fetch(std::uintptr_t addr) {
    ++fetches_;
    const std::size_t line = addr / line_bytes();
    std::vector<bool>& seen = unit_lines_[unit_];
    if (seen.size() <= line) seen.resize(line + 1);
    if (!seen[line]) {
      seen[line] = true;
      ++first_touches_;
      ++unit_touched_[unit_];
    }
    touch(Region::kExpTable, addr, 1);
  }
  bool texture_warm() const {
    return table_lines_ != 0 && unit_touched_[unit_] == table_lines_;
  }
  void texture_bulk(std::uint64_t fetches, std::uintptr_t top_addr) {
    fetches_ += fetches;
    touch(Region::kExpTable, top_addr, 1);
  }
  void barrier() { ++barriers_; }

  // The texture unit of the block the walk visits next.
  void set_block(std::size_t block) {
    unit_ = (block % static_cast<std::size_t>(spec_->num_sms)) /
            static_cast<std::size_t>(std::max(1, spec_->sms_per_texture_cache));
    if (unit_lines_.size() <= unit_) {
      unit_lines_.resize(unit_ + 1);
      unit_touched_.resize(unit_ + 1);
    }
  }
  std::size_t extent(Region region) const {
    return extents_[static_cast<std::size_t>(region)];
  }
  simgpu::SegmentModel finish(std::size_t step_width) {
    if (fetches_ > 0) seg_.add_texture_fetches(fetches_, first_touches_);
    return seg_.finish(step_width, barriers_);
  }

 private:
  std::size_t line_bytes() const {
    return std::max<std::size_t>(1, spec_->texture_cache_line_bytes);
  }
  void touch(Region region, std::uintptr_t addr, std::size_t bytes) {
    std::size_t& end = extents_[static_cast<std::size_t>(region)];
    end = std::max(end, static_cast<std::size_t>(addr) + bytes);
  }

  const simgpu::DeviceSpec* spec_;
  simgpu::SegmentBuilder seg_;
  std::uint64_t barriers_ = 0;
  std::uint64_t fetches_ = 0;
  std::size_t unit_ = 0;
  std::uint64_t first_touches_ = 0;  // distinct (unit, line) pairs
  std::vector<std::vector<bool>> unit_lines_;
  std::vector<std::size_t> unit_touched_;  // lines seen per unit
  std::size_t table_lines_ = 0;  // lines of the bound table; 0 = unbound
  std::array<std::size_t, static_cast<std::size_t>(Region::kCount)>
      extents_{};
};

// ------------------------------------------------------------------------
// Launch geometry, shared by the launchers and the static models, so the
// modeled launch is the launched one.

struct LaunchGeometry {
  std::size_t blocks = 0;
  std::size_t threads = 0;  // per block
};

// Block size of the table-based encode kernels.
inline constexpr std::size_t kTableThreads = 256;

// Encode over `total_words` output words. Fig. 2: the loop kernel runs one
// thread per word in blocks of up to 256, covering every word in one pass.
// Sec. 5.1.2: the table kernels run one resident block of kTableThreads per
// SM, striding, so each SM loads its tables once.
LaunchGeometry encode_geometry(const simgpu::DeviceSpec& spec,
                               EncodeScheme scheme, std::size_t total_words);

// Log-domain transform of `elements` items: 256 threads per block, at most
// one block per SM, striding.
LaunchGeometry transform_geometry(const simgpu::DeviceSpec& spec,
                                  std::size_t elements);

// Stage-1 inverter over `segments` n x n matrices: one block per segment.
// Only the column loop is serial: within a column the eliminations of all
// n - 1 other rows are independent, so a block spans the (row, word) items
// of [C | I], up to the device's block limit.
LaunchGeometry invert_geometry(const simgpu::DeviceSpec& spec, std::size_t n,
                               std::size_t segments);

// The inverter's working matrix [C | I], n rows of 2n bytes, of the n x n
// row-major matrix `c`.
AlignedBuffer augmented_identity(const std::uint8_t* c, std::size_t n);

// ------------------------------------------------------------------------
// Preprocess (Sec. 5.1.1 steps 1 and 2): `elements` items of
// `element_bytes` each, one thread per item, blocks striding. Each
// half-warp loads a contiguous span, transforms it and stores it back.

template <class Sink>
void preprocess_block_walk(Sink& sink, std::size_t block,
                           std::size_t elements, std::size_t element_bytes,
                           std::size_t threads, std::size_t stride,
                           std::size_t half, std::uintptr_t src_addr,
                           std::uintptr_t dst_addr) {
  const std::uint64_t byte_deci =
      simgpu::KernelMetrics::deciops(kPreprocessPerByte);
  for (std::size_t base = block * threads; base < elements; base += stride) {
    const std::size_t lanes_end = std::min(threads, elements - base);
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += half) {
      const std::size_t e0 = base + l0;
      const std::size_t cnt = std::min(half, elements - e0);
      const std::size_t bytes = cnt * element_bytes;
      sink.global_span(Region::kSource, src_addr + e0 * element_bytes, bytes,
                       cnt, bytes, 0);
      sink.alu(bytes * byte_deci);
      sink.global_span(Region::kOutput, dst_addr + e0 * element_bytes, bytes,
                       cnt, 0, bytes);
    }
  }
  sink.barrier();
}

// ------------------------------------------------------------------------
// Cooperative table load of the shared-memory table schemes (tb0-tb3,
// tb5; tb4 binds the exp table as a texture instead): lanes interleave
// over the table's words, one coalesced load and one shared store each.

template <class Sink>
void table_load_walk(Sink& sink, EncodeScheme scheme, std::size_t threads,
                     std::size_t half, std::uintptr_t exp_addr,
                     std::uintptr_t log_addr) {
  EXTNC_CHECK(half >= 1 && half <= 16);
  std::array<std::uintptr_t, 16> words;
  auto sweep = [&](Region region, std::size_t table_words,
                   std::size_t shared_word, std::uintptr_t addr) {
    for (std::size_t base = 0; base < table_words; base += threads) {
      for (std::size_t l0 = 0; l0 < threads && base + l0 < table_words;
           l0 += half) {
        const std::size_t w0 = base + l0;
        const std::size_t cnt = std::min(half, table_words - w0);
        sink.global_span(region, addr + w0 * 4, cnt * 4, cnt, cnt * 4, 0);
        for (std::size_t l = 0; l < cnt; ++l) {
          words[l] = shared_word + w0 + l;
        }
        sink.shared_group(words.data(), cnt);
      }
    }
  };
  if (scheme == EncodeScheme::kTable5) {
    sweep(Region::kExpTable, kExpTableEntries * kReplicatedTables, 0,
          exp_addr);
  } else {
    sweep(Region::kExpTable, kExpTableEntries / 4, kExpBytesOffset / 4,
          exp_addr);
    if (scheme == EncodeScheme::kTable0) {
      sweep(Region::kLogTable, 256 / 4, kLogBytesOffset / 4, log_addr);
    }
  }
  sink.barrier();
}

// ------------------------------------------------------------------------
// Encode (Fig. 2 loop-based and the Sec. 5.1 table schemes): one thread
// per output word, blocks striding over `total_words` (the loop kernel's
// stride covers them in one pass). A half-warp may straddle coded blocks
// (the recoder's aggregate rows, odd k); inside one coded block its
// coefficient load is a broadcast and its source and store spans are
// contiguous, which the exact span closed form charges. Inside one coded
// block the same charges repeat for every source row and half-warp group,
// so they are charged as runs (global_span's `times`): spans at addresses
// congruent modulo the coalescing segment cost the same, and a source row
// (group) repeats its offset within a segment every segment / gcd(k,
// segment) rows (segment / gcd(group bytes, segment) groups). The loop
// kernel charges one half-warp's n rows at a time; a table scheme with
// TableLookups charges a table run, the half-warps of one stride step
// inside one coded block, at once.

// Whether the table scheme's encode geometry admits TableLookups: (k / 4)
// and the thread count are half-warp multiples, so every half-warp lies in
// one coded block and starts a group, and for tb5 every half-warp start
// reads lane copy 0.
bool table_lookups_apply(EncodeScheme scheme, std::size_t k,
                         std::size_t threads, std::size_t half);

// TableLookups of `src`, the n x k accounting-domain segment.
TableLookups table_lookups(const simgpu::DeviceSpec& spec,
                           EncodeScheme scheme, const std::uint8_t* src,
                           std::size_t n, std::size_t k);

struct EncodeWalk {
  EncodeScheme scheme = EncodeScheme::kLoopBased;
  std::size_t n = 0;            // source rows
  std::size_t k = 0;            // bytes per row
  std::size_t total_words = 0;  // output words in the launch
  std::size_t threads = 0;      // threads per block
  std::size_t stride = 0;       // blocks * threads
  std::size_t half = 0;         // half-warp lanes
  const std::uint8_t* src = nullptr;     // accounting-domain rows, n x k
  const std::uint8_t* coeffs = nullptr;  // accounting-domain, n per block
  std::uintptr_t src_addr = 0;
  std::uintptr_t coeff_addr = 0;
  std::uintptr_t out_addr = 0;
  std::uintptr_t tex_addr = 0;  // tb4's exp texture
  // The segment's lookups when table_lookups_apply holds (the walk then
  // charges table runs); null evaluates every lookup step from its lanes.
  const TableLookups* lookups = nullptr;
};

template <class Sink>
void encode_block_walk(Sink& sink, EncodeWalk w, std::size_t block) {
  EXTNC_CHECK(w.half >= 1 && w.half <= 16);
  const EncodeCost cost = encode_cost(w.scheme);
  const bool loop = w.scheme == EncodeScheme::kLoopBased;
  const bool tb0 = w.scheme == EncodeScheme::kTable0;
  const bool tb4 = w.scheme == EncodeScheme::kTable4;
  const bool tb5 = w.scheme == EncodeScheme::kTable5;
  const std::uint8_t sentinel =
      scheme_uses_shifted_log(w.scheme) ? 0x00 : gf256::kLogZero;
  const std::uint8_t* log_table = gf256::tables().log;  // tb0's shared copy
  const std::size_t wpb = w.k / 4;
  const std::size_t group_bytes = w.half * 4;
  const std::uint64_t word_deci =
      simgpu::KernelMetrics::deciops(cost.per_word);
  const std::uint64_t byte_deci =
      simgpu::KernelMetrics::deciops(cost.per_byte);
  // The loop kernel's multiply cost per coefficient value, quantized per
  // lane-level charge (one count_alu per lane and row).
  static const std::array<std::uint64_t, 256> iteration_deci = [] {
    std::array<std::uint64_t, 256> table;
    const double per_iteration =
        encode_cost(EncodeScheme::kLoopBased).per_iteration;
    for (std::size_t c = 0; c < 256; ++c) {
      table[c] = simgpu::KernelMetrics::deciops(
          per_iteration *
          gf256::loop_iterations(static_cast<std::uint8_t>(c)));
    }
    return table;
  }();
  std::array<std::uintptr_t, 16> addrs;
  std::array<std::uintptr_t, 16> words;
  std::array<std::size_t, 16> jv;
  std::array<std::size_t, 16> wv;
  std::array<std::uint8_t, 16> log_c;
  // Loop runs: the multiply loops' deci-ops summed over the coefficient row
  // of coded block `sum_block`.
  std::size_t sum_block = static_cast<std::size_t>(-1);
  std::uint64_t row_sum = 0;

  // Charges the equal spans at first + i * k + g * group_bytes for source
  // rows i < rows and half-warp groups g < groups, one call per alignment
  // class: row i + row_period, and group g + group_period, start at the
  // same offset within a coalescing segment.
  const std::uint64_t segment = sink.coalesce_bytes();
  const std::size_t row_period =
      segment / std::gcd<std::uint64_t>(w.k, segment);
  const std::size_t group_period =
      segment / std::gcd<std::uint64_t>(group_bytes, segment);
  auto span_grid = [&](Region region, std::uintptr_t first, std::size_t rows,
                       std::size_t groups, std::size_t span_bytes,
                       std::uint64_t instrs, std::uint64_t load,
                       std::uint64_t store) {
    for (std::size_t r = 0; r < std::min(row_period, rows); ++r) {
      const std::size_t rn = (rows - r + row_period - 1) / row_period;
      for (std::size_t g = 0; g < std::min(group_period, groups); ++g) {
        const std::size_t gn = (groups - g + group_period - 1) / group_period;
        sink.global_span(region,
                         first + (r + (rn - 1) * row_period) * w.k +
                             (g + (gn - 1) * group_period) * group_bytes,
                         span_bytes, instrs, load, store, rn * gn);
      }
    }
  };

  // One table run: `gc` half-warp groups of coded block j from group g0.
  // Every half-warp of it reads the same n coefficients, so per source row
  // only the sentinel test and one lookup-range call remain. tb4's fetches
  // go through the texture cache lane-major, each lane cycling every row's
  // coefficient, only until the unit is warm; the rest are charged in bulk
  // at the run's highest row top, which is exact for footprints because
  // every (coded block, row, group) lies in some run.
  auto table_run = [&](std::size_t j, std::size_t g0, std::size_t gc) {
    const TableLookups& lk = *w.lookups;
    const std::uint8_t* coeff = w.coeffs + j * w.n;
    const std::uint64_t steps = gc * w.n;  // (half-warp, source row) pairs
    // The n coefficient broadcasts of each half-warp, one segment each;
    // tb0 looks the coefficient up in its log table, a broadcast of degree
    // 1.
    sink.global_span(Region::kCoefficients, w.coeff_addr + j * w.n + w.n - 1,
                     1, w.half, w.half, 0, steps);
    if (tb0) sink.shared_degree(1, w.half, steps);
    span_grid(Region::kSource, w.src_addr + g0 * group_bytes, w.n, gc,
              group_bytes, w.half, group_bytes, 0);
    // A zero coefficient skips its row's byte lookups. Row i's entries of
    // the run are [begin, begin + run_entries).
    std::uint64_t live_rows = 0;
    std::uint64_t fetches = 0;  // tb4
    std::size_t top = 0;        // tb4: largest log_c + row top
    const std::size_t n = w.n;  // a local: the sink's stores may alias w
    const std::size_t row_entries = lk.index(1, 0, 0);
    const std::size_t run_entries = lk.index(0, gc, 0);
    std::size_t begin = lk.index(0, g0, 0);
    for (std::size_t i = 0; i < n; ++i, begin += row_entries) {
      const std::uint8_t c = tb0 ? log_table[coeff[i]] : coeff[i];
      if (c == sentinel) continue;
      ++live_rows;
      const std::size_t end = begin + run_entries;
      if (!tb4) {
        sink.lookups(lk, begin, end, c % 4);
        continue;
      }
      fetches += lk.sums[end].live_lanes - lk.sums[begin].live_lanes;
      if (lk.row_top[i] != 0) {
        top = std::max<std::size_t>(top, c + lk.row_top[i]);
      }
    }
    sink.alu(gc * w.half * (w.n * word_deci + live_rows * 4 * byte_deci));
    if (fetches > 0) {
      std::uint64_t replayed = 0;
      for (std::size_t x = 0; x < gc * w.half && !sink.texture_warm(); ++x) {
        const std::uint8_t* bytes = w.src + (g0 * w.half + x) * 4;
        for (std::size_t i = 0; i < w.n && !sink.texture_warm(); ++i) {
          if (coeff[i] == sentinel) continue;
          for (std::size_t b = 0; b < 4 && !sink.texture_warm(); ++b) {
            const std::uint8_t log_s = bytes[i * w.k + b];
            if (log_s == sentinel) continue;
            sink.texture_fetch(w.tex_addr + coeff[i] + log_s);
            ++replayed;
          }
        }
      }
      if (fetches > replayed) {
        sink.texture_bulk(fetches - replayed, w.tex_addr + top);
      }
    }
    span_grid(Region::kOutput, w.out_addr + j * w.k + g0 * group_bytes, 1, gc,
              group_bytes, w.half, 0, group_bytes);
  };

  for (std::size_t base = block * w.threads; base < w.total_words;
       base += w.stride) {
    const std::size_t lanes_end = std::min(w.threads, w.total_words - base);
    if (w.lookups != nullptr) {
      // Whole groups that split only at coded-block boundaries.
      for (std::size_t x = base; x < base + lanes_end;) {
        const std::size_t word0 = x % wpb;
        const std::size_t run = std::min(wpb - word0, base + lanes_end - x);
        EXTNC_DASSERT(word0 % w.half == 0 && run % w.half == 0);
        table_run(x / wpb, word0 / w.half, run / w.half);
        x += run;
      }
      continue;
    }
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += w.half) {
      const std::size_t cnt = std::min(w.half, lanes_end - l0);
      jv[0] = (base + l0) / wpb;
      wv[0] = (base + l0) % wpb;
      for (std::size_t l = 1; l < cnt; ++l) {
        const bool wrap = wv[l - 1] + 1 == wpb;
        jv[l] = jv[l - 1] + (wrap ? 1 : 0);
        wv[l] = wrap ? 0 : wv[l - 1] + 1;
      }
      const bool one_block = jv[0] == jv[cnt - 1];
      // Charges per-lane addresses `first + jv * row_stride + wv *
      // word_bytes`, as one span when the half-warp stays in one coded
      // block.
      auto charge = [&](Region region, std::uintptr_t first,
                        std::size_t row_stride, std::size_t word_bytes,
                        std::size_t access_bytes, std::uint64_t load,
                        std::uint64_t store) {
        if (one_block) {
          sink.global_span(region,
                           first + jv[0] * row_stride + wv[0] * word_bytes,
                           (cnt - 1) * word_bytes + access_bytes, cnt, load,
                           store);
          return;
        }
        for (std::size_t l = 0; l < cnt; ++l) {
          addrs[l] = first + jv[l] * row_stride + wv[l] * word_bytes;
        }
        sink.global_group(region, addrs.data(), cnt, access_bytes, load,
                          store);
      };
      if (loop && one_block) {
        const std::size_t j = jv[0];
        if (j != sum_block) {
          sum_block = j;
          row_sum = 0;
          for (std::size_t i = 0; i < w.n; ++i) {
            row_sum += iteration_deci[w.coeffs[j * w.n + i]];
          }
        }
        // n coefficient broadcasts, one segment each.
        sink.global_span(Region::kCoefficients,
                         w.coeff_addr + j * w.n + w.n - 1, 1, cnt, cnt, 0,
                         w.n);
        span_grid(Region::kSource, w.src_addr + wv[0] * 4, w.n, 1, cnt * 4,
                  cnt, cnt * 4, 0);
        sink.alu(cnt * (row_sum + word_deci));
        charge(Region::kOutput, w.out_addr, w.k, 4, 4, 0, cnt * 4);
        continue;
      }
      for (std::size_t i = 0; i < w.n; ++i) {
        // Coefficient byte of each lane's coded block.
        charge(Region::kCoefficients, w.coeff_addr + i, w.n, 0, 1, cnt, 0);
        const std::uint8_t* coeff = w.coeffs + i;  // + jv * n per lane
        // Inside one coded block every lane has the same coefficient, and
        // tb0's log lookup of it is a broadcast: degree 1.
        if (!loop && one_block) {
          const std::uint8_t c = coeff[jv[0] * w.n];
          log_c.fill(tb0 ? log_table[c] : c);
          if (tb0) sink.shared_degree(1, cnt);
        } else if (!loop) {
          for (std::size_t l = 0; l < cnt; ++l) log_c[l] = coeff[jv[l] * w.n];
          if (tb0) {
            for (std::size_t l = 0; l < cnt; ++l) {
              words[l] = (kLogBytesOffset + log_c[l]) / 4;
              log_c[l] = log_table[log_c[l]];
            }
            sink.shared_group(words.data(), cnt);
          }
        }
        const std::uint8_t* row = w.src + i * w.k;
        charge(Region::kSource, w.src_addr + i * w.k, 0, 4, 4, cnt * 4, 0);
        if (loop) {
          // Per-lane multiply loops, one iteration per coefficient bit.
          std::uint64_t deci = 0;
          for (std::size_t l = 0; l < cnt; ++l) {
            deci += iteration_deci[coeff[jv[l] * w.n]];
          }
          sink.alu(deci);
          continue;
        }
        sink.alu(cnt * word_deci);
        // A zero coefficient skips the lane's four byte lookups.
        const std::size_t active =
            one_block ? (log_c[0] != sentinel ? cnt : 0)
                      : static_cast<std::size_t>(std::count_if(
                            log_c.begin(), log_c.begin() + cnt,
                            [&](std::uint8_t c) { return c != sentinel; }));
        if (active == 0) continue;
        for (std::size_t b = 0; b < 4; ++b) {
          if (tb0) {
            std::size_t k2 = 0;
            for (std::size_t l = 0; l < cnt; ++l) {
              if (log_c[l] == sentinel) continue;
              words[k2++] = (kLogBytesOffset + row[wv[l] * 4 + b]) / 4;
            }
            sink.shared_group(words.data(), k2);
          }
          sink.alu(active * byte_deci);
          std::size_t k2 = 0;
          for (std::size_t l = 0; l < cnt; ++l) {
            if (log_c[l] == sentinel) continue;
            std::uint8_t log_s = row[wv[l] * 4 + b];
            if (tb0) log_s = log_table[log_s];
            if (log_s == sentinel) continue;
            const std::size_t idx =
                static_cast<std::size_t>(log_c[l]) + log_s;
            if (tb4) {
              sink.texture_fetch(w.tex_addr + idx);
              continue;
            }
            words[k2++] = tb5 ? tb5_word_index(idx, l0 + l)
                              : (kExpBytesOffset + idx) / 4;
          }
          if (k2 > 0) sink.shared_group(words.data(), k2);
        }
      }
      if (loop) sink.alu(cnt * word_deci);
      charge(Region::kOutput, w.out_addr, w.k, 4, 4, 0, cnt * 4);
    }
  }
  sink.barrier();
}

// ------------------------------------------------------------------------
// Stage-1 Gauss-Jordan inverter (Sec. 5.2) over one block's augmented
// [C | I] at `aug` (n rows of 2n bytes), which it reduces in place with
// the host region ops. The pivot scan runs on one lane and charges
// `pivot`; every row step charges `rows` (the fast path passes one sink
// for both, the model one per segment). Needs threads >= 2n / 4 and
// threads >= n: the swap, scale and factor steps run one strided
// iteration per lane.

template <class PivotSink, class RowSink>
void invert_block_walk(PivotSink& pivot, RowSink& rows, std::uint8_t* aug,
                       std::size_t n, std::size_t threads, std::size_t half,
                       std::uintptr_t aug_addr) {
  EXTNC_CHECK(half >= 1 && half <= 16);
  const std::size_t row_bytes = 2 * n;
  const std::size_t row_words = row_bytes / 4;
  EXTNC_CHECK(threads >= row_words && threads >= n);
  // One charged word multiply quantizes its whole sum in a single
  // count_alu call, so the table holds the quantized sum per coefficient.
  static const std::array<std::uint64_t, 256> mul_deci = [] {
    std::array<std::uint64_t, 256> table;
    for (std::size_t c = 0; c < 256; ++c) {
      table[c] = simgpu::KernelMetrics::deciops(
          kDecodeCost.per_iteration *
              gf256::loop_iterations(static_cast<std::uint8_t>(c)) +
          kDecodeCost.per_word);
    }
    return table;
  }();
  const std::uint64_t scan_deci =
      simgpu::KernelMetrics::deciops(kDecodeCost.pivot_search_per_byte);
  const gf256::Ops& gops = gf256::ops();
  auto row = [&](std::size_t r) { return aug + r * row_bytes; };
  auto addr_of = [&](std::size_t r, std::size_t byte) -> std::uintptr_t {
    return aug_addr + r * row_bytes + byte;
  };
  std::vector<std::uint8_t> factors(n);
  std::array<std::uintptr_t, 16> addrs;
  std::array<std::uintptr_t, 16> col_addrs;
  std::array<std::uintptr_t, 16> words;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot scan: one lane, charged per scanned row including the hit.
    std::size_t pivot_row = n;
    std::uint64_t scanned = 0;
    for (std::size_t r = col; r < n; ++r) {
      ++scanned;
      if (row(r)[col] != 0) {
        pivot_row = r;
        break;
      }
    }
    EXTNC_CHECK(pivot_row != n);  // the matrix must be invertible
    pivot.alu(scanned * scan_deci);
    pivot.barrier();

    // Row swap: four accesses per lane in sequence order — load col, load
    // pivot, store col, store pivot — each a contiguous span per half-warp.
    if (pivot_row != col) {
      for (std::size_t w0 = 0; w0 < row_words; w0 += half) {
        const std::size_t cnt = std::min(half, row_words - w0);
        const std::size_t bytes = cnt * 4;
        rows.global_span(Region::kWork, addr_of(col, w0 * 4), bytes, cnt,
                         bytes, 0);
        rows.global_span(Region::kWork, addr_of(pivot_row, w0 * 4), bytes,
                         cnt, bytes, 0);
        rows.global_span(Region::kWork, addr_of(col, w0 * 4), bytes, cnt, 0,
                         bytes);
        rows.global_span(Region::kWork, addr_of(pivot_row, w0 * 4), bytes,
                         cnt, 0, bytes);
      }
      std::swap_ranges(row(col), row(col) + row_bytes, row(pivot_row));
      rows.barrier();
    }

    // Scale the pivot row to make the pivot 1.
    const std::uint8_t scale = gf256::inv(row(col)[col]);
    for (std::size_t w0 = 0; w0 < row_words; w0 += half) {
      const std::size_t cnt = std::min(half, row_words - w0);
      rows.global_span(Region::kWork, addr_of(col, w0 * 4), cnt * 4, cnt,
                       cnt * 4, 0);
      rows.alu(cnt * mul_deci[scale]);
      rows.global_span(Region::kWork, addr_of(col, w0 * 4), cnt * 4, cnt, 0,
                       cnt * 4);
    }
    gops.scale_region(row(col), scale, row_bytes);
    rows.barrier();

    // Factor snapshot: lane r loads its factor and stages it in shared
    // memory. Lane `col` skips the load WITHOUT advancing its sequence, so
    // its store lands one sequence point early: a separate 1-access group.
    for (std::size_t r0 = 0; r0 < n; r0 += half) {
      const std::size_t cnt = std::min(half, n - r0);
      std::size_t loads = 0;
      for (std::size_t l = 0; l < cnt; ++l) {
        const std::size_t r = r0 + l;
        factors[r] = r == col ? 0 : row(r)[col];
        if (r == col) continue;
        addrs[loads] = addr_of(r, col);
        words[loads++] = r / 4;
      }
      if (loads > 0) {
        rows.global_group(Region::kWork, addrs.data(), loads, 1, loads, 0);
      }
      if (cnt != loads) {  // this half-warp holds lane `col`
        const std::uintptr_t col_word = col / 4;
        rows.shared_group(&col_word, 1);
      }
      if (loads > 0) rows.shared_group(words.data(), loads);
    }
    rows.barrier();

    // Eliminate: work item (r, w) reads its factor from shared memory and,
    // when nonzero, applies d ^= factor * p. Half-warps may straddle rows,
    // so global groups take per-lane addresses.
    const std::size_t items = n * row_words;
    for (std::size_t base = 0; base < items; base += threads) {
      const std::size_t lanes_end = std::min(threads, items - base);
      for (std::size_t l0 = 0; l0 < lanes_end; l0 += half) {
        const std::size_t item0 = base + l0;
        const std::size_t cnt = std::min(half, items - item0);
        for (std::size_t l = 0; l < cnt; ++l) {
          words[l] = ((item0 + l) / row_words) / 4;
        }
        rows.shared_group(words.data(), cnt);
        std::uint64_t alu = 0;
        std::size_t active = 0;
        for (std::size_t l = 0; l < cnt; ++l) {
          const std::size_t r = (item0 + l) / row_words;
          const std::size_t w = (item0 + l) % row_words;
          if (factors[r] == 0) continue;  // interpreted skip_access x3
          addrs[active] = addr_of(r, w * 4);
          col_addrs[active] = addr_of(col, w * 4);
          ++active;
          alu += mul_deci[factors[r]];
        }
        if (active > 0) {
          rows.global_group(Region::kWork, addrs.data(), active, 4,
                            active * 4, 0);
          rows.global_group(Region::kWork, col_addrs.data(), active, 4,
                            active * 4, 0);
          rows.global_group(Region::kWork, addrs.data(), active, 4, 0,
                            active * 4);
          rows.alu(alu);
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (factors[r] != 0) {
        gops.mul_add_region(row(r), row(col), factors[r], row_bytes);
      }
    }
    rows.barrier();
  }
}

}  // namespace extnc::gpu
