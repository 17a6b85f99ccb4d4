// Multi-segment GPU decoder (Sec. 5.2) — the paper's headline decoding
// contribution.
//
// When S segments' worth of coded blocks are available, decoding becomes
// two stages:
//   stage 1 — per segment, invert the n x n coefficient matrix by
//             Gauss-Jordan on [C | I]. One thread block (one SM) per
//             inversion: this stage is serial in nature and underutilizes
//             the device, which is why its share of total time (annotated
//             on Fig. 9) is what limits small-block performance.
//   stage 2 — recover sources with b = C^-1 * x, a dense GF matrix
//             product with the same embarrassing parallelism as encoding;
//             it saturates the whole device.
// Running more segments in flight (the paper's 3-segment vs 6-segment
// curves) amortizes stage 1 across more SMs without changing stage 2's
// throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "simgpu/executor.h"

namespace extnc::gpu {

class GpuMultiSegmentDecoder {
 public:
  GpuMultiSegmentDecoder(const simgpu::DeviceSpec& spec,
                         coding::Params params);

  // Each batch holds exactly n linearly independent coded blocks of one
  // segment. Decodes all of them; aborts on rank deficiency (offline
  // decoding collects independent blocks by construction).
  std::vector<coding::Segment> decode_all(
      const std::vector<coding::CodedBatch>& batches);

  const coding::Params& params() const { return params_; }
  const simgpu::KernelMetrics& stage1_metrics() const { return stage1_; }
  const simgpu::KernelMetrics& stage2_metrics() const { return stage2_; }
  const simgpu::DeviceSpec& spec() const { return launcher_.spec(); }
  void reset_metrics();

  // Simulated-device context (fault-injector attachment, modeled clock).
  // A fault injector attached here is propagated to the stage-2 multiplier
  // encoders, so every launch of a decode is subject to the fault plan and
  // decode_all can throw simgpu::DeviceError.
  simgpu::Launcher& launcher() { return launcher_; }

  // Stage 1 launches record as "decode/multiseg/invert"; stage 2 reuses the
  // encode kernels under the "decode/multiseg/stage2" prefix.
  void attach_profiler(simgpu::Profiler* profiler);

 private:
  void invert_stage(const std::vector<coding::CodedBatch>& batches,
                    std::vector<AlignedBuffer>& inverses);
  void multiply_stage(const std::vector<coding::CodedBatch>& batches,
                      const std::vector<AlignedBuffer>& inverses,
                      std::vector<coding::Segment>& out);

  coding::Params params_;
  simgpu::Launcher launcher_;
  simgpu::KernelMetrics stage1_;
  simgpu::KernelMetrics stage2_;
  simgpu::Profiler* profiler_ = nullptr;
};

}  // namespace extnc::gpu
