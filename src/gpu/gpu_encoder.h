// GPU network encoder: the paper's encode kernels on the simulated device.
//
// Task partitioning follows the paper:
//  * loop-based (Fig. 2): one thread per 4-byte output word, 256-thread
//    blocks, each block producing 1 KB of coded data;
//  * table-based (Sec. 5.1.2): one resident block per SM, threads striding
//    over output words, so the log/exp tables are loaded into shared
//    memory (or bound as a texture) once per SM instead of once per block.
//
// Preprocessing (Sec. 5.1.1): for the preprocessed schemes the segment is
// transformed to the log domain once at construction, and each batch's
// coefficient matrix is transformed before the encode kernel runs; both
// transforms are themselves simulated kernels whose costs are kept in a
// separate metrics bucket so benches can amortize them the way the
// streaming-server scenario does.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "gpu/kernel_cost.h"
#include "simgpu/executor.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::gpu {

class GpuEncoder {
 public:
  // With a profiler attached every kernel launch (including the
  // construction-time segment preprocessing) is recorded under stable
  // "<prefix>/<scheme>/<kernel>" labels, e.g. "encode/tb5/exp_smem".
  // With a fault injector attached (simgpu/fault_injector.h) every launch
  // — including the construction-time preprocessing — is subject to the
  // injector's fault plan, so construction can throw simgpu::DeviceError.
  // With a checker attached (simgpu/checker.h) every launch runs under the
  // kernel sanitizer with the encoder's device buffers registered as
  // watched global regions, so OOB accesses become findings instead of
  // silent reads; in throw mode launches can throw simgpu::CheckError.
  GpuEncoder(const simgpu::DeviceSpec& spec, const coding::Segment& segment,
             EncodeScheme scheme, simgpu::Profiler* profiler = nullptr,
             std::string label_prefix = "encode",
             simgpu::FaultInjector* injector = nullptr,
             simgpu::Checker* checker = nullptr);

  // Unregisters this encoder's watched regions from an attached checker,
  // so short-lived encoders (the multi-segment decoder's stage-2
  // multipliers) leave a shared checker's region table clean.
  ~GpuEncoder();

  // Attach after construction (misses the segment-preprocess launches that
  // already ran; prefer the constructor argument when those matter).
  void attach_profiler(simgpu::Profiler* profiler,
                       std::string label_prefix = "encode");
  void attach_checker(simgpu::Checker* checker);

  const coding::Params& params() const { return segment_->params(); }
  EncodeScheme scheme() const { return scheme_; }
  const simgpu::DeviceSpec& spec() const { return launcher_.spec(); }

  // The simulated-device context this encoder launches on. Exposed so a
  // supervisor (gpu/resilient_launcher.h) can attach a fault injector and
  // read the modeled elapsed-time clock; the encoder remains the owner.
  simgpu::Launcher& launcher() { return launcher_; }

  // Fill the payloads of `batch` from its (natural-domain) coefficient
  // rows by running the scheme's kernels functionally.
  void encode_into(coding::CodedBatch& batch);

  coding::CodedBatch encode_batch(std::size_t count, Rng& rng);

  // Kernel-work metrics for the encode kernels proper.
  const simgpu::KernelMetrics& encode_metrics() const {
    return encode_metrics_;
  }
  // One-time (per segment / per batch) preprocessing kernel work.
  const simgpu::KernelMetrics& preprocess_metrics() const {
    return preprocess_metrics_;
  }
  void reset_metrics();

 private:
  // Cached access-pattern profile for the aligned table-scheme fast path.
  // The per-byte costs of a table block — shared-bank serialization degrees
  // of the exp/log lookups, source-span coalescing — are functions of
  // (word-group g within a coded block, coefficient row i) and, for the
  // lookup degrees, of log_c mod 4 only (the segment's TableLookups,
  // kernel_walks.h). The segment is immutable for the encoder's lifetime,
  // so these are summed once, in the constructor, as prefix sums over g
  // (index [i * (groups + 1) + g]), letting the steady-state encode loop
  // charge a whole j-run with a handful of subtractions instead of
  // re-deduplicating every byte.
  struct TableFastProfile {
    std::size_t groups = 0;  // words_per_block / half_warp
    std::vector<std::uint32_t> src_tx;        // source-load span transactions
    std::array<std::vector<std::uint32_t>, 4> exp_cycles;  // by log_c % 4
    std::vector<std::uint32_t> exp_events;    // byte positions with a lookup
    std::vector<std::uint32_t> exp_accesses;  // live lanes over 4 bytes
                                              // (kTable4: texture fetches)
    std::vector<std::uint32_t> log_cycles;    // kTable0 log-group degrees
  };

  void preprocess_segment();
  void preprocess_coefficients(const coding::CodedBatch& batch);
  void run_loop_based(coding::CodedBatch& batch);
  void run_table_based(coding::CodedBatch& batch);
  // Profiled lowering of the aligned table-based kernel body for one
  // block (taken when BlockCtx::fast_path() holds and half-warps never
  // straddle coded blocks): SIMD region math over the natural-domain
  // buffers plus bulk accounting from table_profile_ that is bit-identical
  // to the interpreted lane stepping. `src`/`coeffs` are the
  // accounting-domain pointers (log domain for preprocessed schemes);
  // kTable4 replays its exp fetches lane-major through the texture-cache
  // model only until every table line is resident, then charges the rest
  // in closed form (fast_texture_bulk). Other geometries, and the loop
  // kernel, lower through the shared walks (kernel_walks.h). The lowering
  // is const: block bodies may run concurrently and only read encoder
  // state.
  void run_table_based_fast(simgpu::BlockCtx& block, coding::CodedBatch& batch,
                            const EncodeCost& cost, std::size_t total_words,
                            std::size_t threads, std::size_t blocks,
                            const std::uint8_t* src,
                            const std::uint8_t* coeffs, std::uint8_t* out,
                            std::uint8_t sentinel) const;
  // Charges the cooperative shared-table load (one barrier, like the
  // interpreted load step) from table_load_.
  void fast_load_tables(simgpu::BlockCtx& block) const;
  void build_table_fast_profile(const std::uint8_t* src);
  void set_launch_label(const char* kernel);
  void unwatch_all();

  const coding::Segment* segment_;
  EncodeScheme scheme_;
  simgpu::Launcher launcher_;
  simgpu::Checker* checker_ = nullptr;
  std::string label_prefix_;
  simgpu::KernelMetrics encode_metrics_;
  simgpu::KernelMetrics preprocess_metrics_;

  // Device-resident data.
  AlignedBuffer log_segment_;      // segment in log domain (preprocessed)
  AlignedBuffer log_coefficients_; // batch coefficients in log domain
  AlignedBuffer exp_table_bytes_;  // 512-entry exp (plain or shifted)
  AlignedBuffer log_table_bytes_;  // 256-entry log (kTable0 only)
  AlignedBuffer exp_table_words_;  // 8 interleaved word tables (kTable5)

  // Built in the constructor for the table schemes and valid for the
  // encoder's lifetime (the accounting-domain segment never changes).
  // table_fast_aligned_ says whether the geometry admits the profiled
  // lowering (half-warps never straddle coded blocks), and so whether
  // table_profile_ was built.
  // table_load_ holds the counters of one block's cooperative table load
  // (table_load_model), charged per block by both table lowerings.
  TableFastProfile table_profile_;
  simgpu::KernelMetrics table_load_;
  bool table_fast_aligned_ = false;
};

}  // namespace extnc::gpu
