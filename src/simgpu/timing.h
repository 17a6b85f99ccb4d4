// Analytic timing model: KernelMetrics + DeviceSpec -> seconds.
//
// The model follows the paper's own Sec. 4.3 accounting:
//   compute side  — every scalar instruction occupies one SP issue slot;
//                   the SM's shared-memory pipeline serializes conflicting
//                   half-warp accesses at 2 cycles per serialized access,
//                   and only the *excess* (conflict) cycles add to the
//                   critical path (a conflict-free access is covered by
//                   its own issue slot);
//   memory side   — coalesced transactions stream at device bandwidth with
//                   a 32-byte minimum granule; texture misses count as
//                   transactions, hits are free;
//   occupancy     — an SM hides latency only with enough resident warps;
//                   utilization ramps as w / (w + w50). This is what makes
//                   single-segment decoding of small blocks slow (Sec. 4.3)
//                   and multi-segment decoding fast (Sec. 5.2).
// Compute and memory overlap (the paper measures the overlap as nearly
// perfect for encoding — the dummy-input ablation), so total is
// max(compute, memory) plus a fixed per-launch overhead.
//
// Calibration constants live in Calibration with their derivations;
// EXPERIMENTS.md records the resulting paper-vs-model numbers.
#pragma once

#include "simgpu/device_spec.h"
#include "simgpu/metrics.h"

namespace extnc::simgpu {

struct Calibration {
  // Fraction of peak issue rate a tuned kernel sustains; the paper derives
  // 91% for the loop-based encoder ("effectively achieves 91% of the
  // advertised computing power", Sec. 4.3) and our model uses a slightly
  // higher raw efficiency so that the modeled end-to-end rate (which also
  // pays launch overhead) lands on the measured one.
  double compute_efficiency = 0.97;
  // Per-kernel-launch fixed cost (driver + dispatch), seconds.
  double launch_overhead_s = 10e-6;
  // Resident warps per SM at which latency hiding reaches 50% (squared
  // ramp; see occupancy_factor).
  double warps_at_half_utilization = 2.6;
  // Minimum global-memory transaction granule, bytes.
  double min_transaction_bytes = 32.0;
  // Cost of one block-wide __syncthreads() step (pipeline drain + refill).
  // Barrier chains are per-SM-resident-block: total sync time is the
  // longest chain, i.e. barriers / blocks. This k-independent serial cost
  // is what makes GPU decoding of small blocks launch/sync-bound — and why
  // the 8800 GT matches the GTX 280 there (Sec. 4.3: "virtually the same
  // performance ... up to a block size of 1024 bytes").
  double barrier_latency_s = 0.25e-6;
};

struct TimeBreakdown {
  double compute_s = 0;
  double memory_s = 0;
  double launch_s = 0;
  double occupancy = 1.0;  // utilization factor applied to compute
  double total_s = 0;
};

TimeBreakdown estimate_time(const DeviceSpec& spec, const KernelMetrics& m,
                            const Calibration& calib = Calibration{});

// Utilization factor for a given launch geometry (exposed for scheme-level
// analytic models in src/gpu).
double occupancy_factor(const DeviceSpec& spec, std::size_t blocks,
                        std::size_t threads_per_block,
                        const Calibration& calib = Calibration{});

}  // namespace extnc::simgpu
