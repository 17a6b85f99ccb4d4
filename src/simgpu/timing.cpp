#include "simgpu/timing.h"

#include <algorithm>
#include <cmath>

namespace extnc::simgpu {

double occupancy_factor(const DeviceSpec& spec, std::size_t blocks,
                        std::size_t threads_per_block,
                        const Calibration& calib) {
  const double sms_used =
      static_cast<double>(std::min<std::size_t>(blocks, spec.num_sms));
  if (sms_used == 0) return 0;
  // Blocks resident on one SM at a time (GT200 allows up to 8, bounded by
  // threads); extra blocks queue behind them and do not add latency hiding.
  const double blocks_per_sm = std::min(
      std::ceil(static_cast<double>(blocks) / sms_used),
      std::floor(1024.0 / static_cast<double>(threads_per_block)));
  const double warps =
      std::max(1.0, blocks_per_sm) *
      (static_cast<double>(threads_per_block) / spec.warp_size);
  // Squared ramp: latency hiding improves superlinearly with the first few
  // warps and saturates by ~8 (the table-based encode kernels'
  // one-block-per-SM geometry runs at ~0.9).
  const double w50 = calib.warps_at_half_utilization;
  return warps * warps / (warps * warps + w50 * w50);
}

TimeBreakdown estimate_time(const DeviceSpec& spec, const KernelMetrics& m,
                            const Calibration& calib) {
  TimeBreakdown t;
  const double sms_used = static_cast<double>(
      std::min<std::size_t>(std::max<std::size_t>(m.blocks, 1), spec.num_sms));

  t.occupancy =
      occupancy_factor(spec, std::max<std::size_t>(m.blocks, 1),
                       std::max<std::size_t>(m.threads_per_block, 1), calib);

  // SP issue slots: alu_ops spread over the SPs of the SMs actually used.
  const double issue_rate = sms_used * spec.cores_per_sm * spec.core_clock_hz *
                            calib.compute_efficiency * t.occupancy;
  const double issue_s = m.alu_ops() / issue_rate;

  // Excess shared-memory serialization: conflict cycles beyond the one
  // slot per access already charged. Each serialized cycle stalls a whole
  // SM (8 SP slots) for spec.shared_cycles_per_access cycles.
  const double conflict_cycles =
      static_cast<double>(m.shared_serialized_cycles -
                          std::min(m.shared_serialized_cycles,
                                   m.shared_access_events)) *
      spec.shared_cycles_per_access;
  const double shared_s = conflict_cycles * spec.cores_per_sm /
                          issue_rate;  // cycles -> equivalent issue slots

  t.compute_s = issue_s + shared_s;

  // Memory: transactions stream at bandwidth with a minimum granule;
  // texture misses are extra line fills.
  const double transaction_bytes =
      static_cast<double>(m.global_transactions) * calib.min_transaction_bytes;
  const double demand_bytes = static_cast<double>(m.global_bytes());
  const double texture_bytes = static_cast<double>(m.texture_misses) *
                               static_cast<double>(spec.texture_cache_line_bytes);
  t.memory_s = (std::max(transaction_bytes, demand_bytes) + texture_bytes) /
               spec.mem_bandwidth_bytes_per_s;

  t.launch_s =
      static_cast<double>(std::max<std::uint64_t>(m.kernel_launches, 1)) *
      calib.launch_overhead_s;
  // Longest per-SM barrier chain (blocks sync independently in parallel).
  const double barrier_chain =
      static_cast<double>(m.barriers) /
      static_cast<double>(std::max<std::size_t>(m.blocks, 1));
  t.launch_s += barrier_chain * calib.barrier_latency_s;

  t.total_s = std::max(t.compute_s, t.memory_s) + t.launch_s;
  return t;
}

}  // namespace extnc::simgpu
