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

#include <cstdint>
#include <optional>
#include <string>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "gpu/kernel_walks.h"
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
  void preprocess_segment();
  void preprocess_coefficients(const coding::CodedBatch& batch);
  void run_loop_based(coding::CodedBatch& batch);
  void run_table_based(coding::CodedBatch& batch);
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
  // encoder's lifetime (the accounting-domain segment never changes):
  // table_lookups_, when the geometry admits them (half-warps never
  // straddle coded blocks), lets the encode walk charge table runs
  // (kernel_walks.h); table_load_ holds the counters of one block's
  // cooperative table load (table_load_model), charged per block.
  std::optional<TableLookups> table_lookups_;
  simgpu::KernelMetrics table_load_;
};

}  // namespace extnc::gpu
