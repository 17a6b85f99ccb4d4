// Hybrid GPU+CPU encoding (Sec. 5.4.1): "encoding can be employed by GPU
// and CPU in parallel, achieving encoding rates in proximity to the sum of
// the individual bandwidths".
//
// Encoding is embarrassingly parallel across coded blocks, so the batch is
// simply split: the leading share goes to the GPU kernel (simulated,
// bit-exact), the tail to the real multi-threaded CPU encoder. The split
// ratio defaults to the modeled GPU:CPU bandwidth ratio so both sides
// finish together; any ratio produces identical bytes.
//
// Device faults are not handled here: a simgpu::DeviceError from the GPU
// half reaches the caller. gpu::ResilientLauncher is the library's one
// GPU fault policy.
#pragma once

#include <cstddef>

#include "coding/batch.h"
#include "coding/segment.h"
#include "cpu/cpu_encoder.h"
#include "gpu/gpu_encoder.h"
#include "simgpu/device_spec.h"
#include "util/thread_pool.h"

namespace extnc::gpu {

class HybridEncoder {
 public:
  // gpu_share in (0, 1]: fraction of each batch encoded on the GPU. A
  // negative value (the default) selects the modeled bandwidth ratio.
  HybridEncoder(const simgpu::DeviceSpec& spec,
                const coding::Segment& segment, ThreadPool& pool,
                EncodeScheme gpu_scheme = EncodeScheme::kTable5,
                double gpu_share = -1.0);

  const coding::Params& params() const { return segment_->params(); }
  double gpu_share() const { return gpu_share_; }

  // Fill payloads for already-drawn coefficient rows.
  void encode_into(coding::CodedBatch& batch);
  coding::CodedBatch encode_batch(std::size_t count, Rng& rng);

  // How many blocks of an m-block batch land on the GPU.
  std::size_t gpu_blocks(std::size_t batch_size) const;

  const GpuEncoder& gpu() const { return gpu_encoder_; }
  const cpu::CpuEncoder& cpu() const { return cpu_encoder_; }

  // Record the GPU half's kernel launches under "hybrid/gpu/..." labels
  // (the CPU half runs real host code and has no simulated launches).
  void attach_profiler(simgpu::Profiler* profiler) {
    gpu_encoder_.attach_profiler(profiler, "hybrid/gpu");
  }

  // Run the GPU half under the kernel sanitizer (the CPU half is real
  // host code with nothing to instrument).
  void attach_checker(simgpu::Checker* checker) {
    gpu_encoder_.attach_checker(checker);
  }

 private:
  const coding::Segment* segment_;
  GpuEncoder gpu_encoder_;
  cpu::CpuEncoder cpu_encoder_;
  double gpu_share_;
};

}  // namespace extnc::gpu
