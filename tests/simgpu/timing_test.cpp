#include "simgpu/timing.h"

#include <gtest/gtest.h>

namespace extnc::simgpu {
namespace {

KernelMetrics base_metrics() {
  KernelMetrics m;
  m.set_alu_ops(1e9);
  m.blocks = 300;
  m.threads_per_block = 256;
  m.kernel_launches = 1;
  return m;
}

TEST(DeviceSpec, Gtx280PeakIpsNearPaperFigure) {
  // Sec. 4.3: the theoretical limit "translates to 360 GIPS" (240 SPs at
  // 1.458 GHz = 350 GIPS).
  EXPECT_NEAR(gtx280().peak_ips() / 1e9, 350.0, 5.0);
}

TEST(DeviceSpec, Gtx280HasTwiceTheComputeOf8800Gt) {
  const double ratio = gtx280().peak_ips() / geforce_8800gt().peak_ips();
  EXPECT_NEAR(ratio, 2.08, 0.05);  // 240*1.458 / (112*1.5)
}

TEST(Timing, ComputeBoundKernelScalesWithAluOps) {
  KernelMetrics m1 = base_metrics();
  KernelMetrics m2 = base_metrics();
  m2.set_alu_ops(2e9);
  const auto t1 = estimate_time(gtx280(), m1);
  const auto t2 = estimate_time(gtx280(), m2);
  EXPECT_NEAR(t2.compute_s / t1.compute_s, 2.0, 1e-9);
}

TEST(Timing, MemoryBoundKernelLimitedByBandwidth) {
  KernelMetrics m = base_metrics();
  m.set_alu_ops(1);  // negligible compute
  m.global_load_bytes = 1'000'000'000;
  m.global_transactions = 1'000'000'000 / 64;
  const auto t = estimate_time(gtx280(), m);
  EXPECT_NEAR(t.memory_s, 1e9 / gtx280().mem_bandwidth_bytes_per_s, 1e-6);
  EXPECT_GT(t.total_s, t.compute_s);
}

TEST(Timing, UncoalescedAccessesPayMinimumGranule) {
  // 1M scattered 1-byte loads: 1M transactions x 32 B granule, not 1 MB.
  KernelMetrics m = base_metrics();
  m.set_alu_ops(1);
  m.global_load_bytes = 1'000'000;
  m.global_transactions = 1'000'000;
  const auto t = estimate_time(gtx280(), m);
  EXPECT_NEAR(t.memory_s, 32e6 / gtx280().mem_bandwidth_bytes_per_s, 1e-9);
}

TEST(Timing, ConflictCyclesAddToComputeTime) {
  KernelMetrics clean = base_metrics();
  clean.shared_access_events = 1'000'000;
  clean.shared_serialized_cycles = 1'000'000;  // conflict-free
  KernelMetrics conflicted = base_metrics();
  conflicted.shared_access_events = 1'000'000;
  conflicted.shared_serialized_cycles = 3'000'000;  // 3-way conflicts
  const auto t_clean = estimate_time(gtx280(), clean);
  const auto t_conf = estimate_time(gtx280(), conflicted);
  EXPECT_GT(t_conf.compute_s, t_clean.compute_s);
}

TEST(Timing, TextureMissesCostMemoryBandwidth) {
  KernelMetrics m = base_metrics();
  m.set_alu_ops(1);
  m.texture_fetches = 1'000'000;
  m.texture_misses = 1'000'000;
  const auto t_cold = estimate_time(gtx280(), m);
  m.texture_misses = 0;
  const auto t_warm = estimate_time(gtx280(), m);
  EXPECT_GT(t_cold.memory_s, t_warm.memory_s);
}

TEST(Timing, OccupancyRampsWithWarps) {
  const auto& spec = gtx280();
  const double low = occupancy_factor(spec, 30, 32);    // 1 warp/SM
  const double high = occupancy_factor(spec, 300, 256); // many warps
  EXPECT_LT(low, 0.5);
  EXPECT_GT(high, 0.85);
  EXPECT_LT(high, 1.0);
}

TEST(Timing, FewBlocksLeaveSmsIdle) {
  // Same total work on 3 blocks vs 30 blocks: 3 blocks use 3 SMs.
  KernelMetrics m3 = base_metrics();
  m3.blocks = 3;
  KernelMetrics m30 = base_metrics();
  m30.blocks = 30;
  const auto t3 = estimate_time(gtx280(), m3);
  const auto t30 = estimate_time(gtx280(), m30);
  EXPECT_GT(t3.compute_s, 5.0 * t30.compute_s);
}

TEST(Timing, LaunchOverheadCountsPerLaunch) {
  KernelMetrics m = base_metrics();
  m.kernel_launches = 10;
  const Calibration calib;
  const auto t = estimate_time(gtx280(), m, calib);
  EXPECT_NEAR(t.launch_s, 10 * calib.launch_overhead_s, 1e-12);
}

TEST(Timing, ComputeAndMemoryOverlap) {
  KernelMetrics m = base_metrics();
  m.global_load_bytes = 100'000'000;
  m.global_transactions = 100'000'000 / 64;
  const auto t = estimate_time(gtx280(), m);
  EXPECT_NEAR(t.total_s, std::max(t.compute_s, t.memory_s) + t.launch_s,
              1e-12);
}

}  // namespace
}  // namespace extnc::simgpu
