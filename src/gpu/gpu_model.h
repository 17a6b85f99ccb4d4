// Bandwidth models for the paper's figures.
//
// Encoding: per-output-word costs do not depend on k or on the number of
// coded blocks, so model_encode_bandwidth() calibrates once per (device,
// scheme, n) on a small seeded random workload — the static encode model
// (gpu/kernel_audit.h) over that segment and batch, i.e. the kernel's own
// accounting walk with its *measured* shared-memory conflict degrees and
// coalescing — and scales the per-word metrics to the requested workload
// before applying the timing model. No kernel is launched.
//
// Decoding: a full-size functional decode is O(n^2 k) work per segment
// (minutes at the figure sizes), so the decode models build the kernel
// metrics analytically from the same per-row-operation costs the
// functional decoders charge; tests cross-check the analytic metrics
// against functional runs at small sizes.
#pragma once

#include <cstddef>

#include "coding/params.h"
#include "gpu/encode_scheme.h"
#include "gpu/gpu_decoder.h"
#include "simgpu/device_spec.h"
#include "simgpu/profiler.h"
#include "simgpu/timing.h"

namespace extnc::gpu {

struct EncodeModelOptions {
  // Coded blocks generated per segment in the modeled workload. The
  // paper's streaming scenario generates thousands; n is the natural
  // batch for a VoD workload.
  std::size_t coded_blocks = 1024;
  // Include the log-domain preprocessing kernels, amortized over
  // coded_blocks (set false to model the steady-state encode rate only).
  bool include_preprocessing = true;
  // Optional observability: the modeled workload is recorded as one
  // "model/encode/<scheme>" launch (scaled metrics, modeled time), so
  // benches can export a trace of what the figure numbers are made of.
  simgpu::Profiler* profiler = nullptr;
};

struct BandwidthEstimate {
  double mb_per_s = 0;
  simgpu::TimeBreakdown time;
};

// Modeled steady-state encoding bandwidth (MB/s of coded payload).
BandwidthEstimate model_encode_bandwidth(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const coding::Params& params,
                                         const EncodeModelOptions& options = {});

// Modeled single-segment progressive decoding bandwidth (Sec. 4.2.2). With
// a profiler, the analytic workload records as "model/decode/single".
BandwidthEstimate model_single_segment_decode(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options = {}, simgpu::Profiler* profiler = nullptr);

struct MultiSegEstimate {
  double mb_per_s = 0;
  // Fraction of total decode time spent in stage 1 (matrix inversion) —
  // the Fig. 9 annotations.
  double stage1_share = 0;
  simgpu::TimeBreakdown stage1;
  simgpu::TimeBreakdown stage2;
};

// Modeled multi-segment decoding bandwidth with `segments` in flight
// (Sec. 5.2; the paper plots 3 and 6 on the GTX 280). With a profiler the
// two stages record as "model/decode/multiseg/{invert,stage2}".
MultiSegEstimate model_multi_segment_decode(const simgpu::DeviceSpec& spec,
                                            const coding::Params& params,
                                            std::size_t segments,
                                            simgpu::Profiler* profiler =
                                                nullptr);

// Analytic metric builders of the single-segment decode and inversion
// kernels (exposed for tests, which cross-check them against the
// functional decoders' measured metrics).
simgpu::KernelMetrics analytic_single_segment_decode_metrics(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options);
simgpu::KernelMetrics analytic_inversion_metrics(const simgpu::DeviceSpec& spec,
                                                 const coding::Params& params,
                                                 std::size_t segments);

}  // namespace extnc::gpu
