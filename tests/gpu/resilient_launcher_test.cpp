// The supervision layer: retry/backoff/watchdog/breaker state machine at
// the closure level, then the supervised encoder and the seed-encoder
// bridge against scripted device faults.
#include "gpu/resilient_launcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coding/encoder.h"
#include "util/checksum.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Encoder;
using coding::Params;
using coding::Segment;

// --- supervisor state machine (synthetic closures, no GPU) -----------------

TEST(ResilientLauncher, CleanOpRunsOnceOnGpu) {
  ResilientLauncher supervisor;
  int gpu_calls = 0;
  SupervisedOp op;
  op.label = "clean";
  op.gpu = [&] { ++gpu_calls; };
  op.verify = [] { return true; };
  op.cpu = [] { FAIL() << "fallback must not run"; };
  const OperationReport report = supervisor.run(op);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(gpu_calls, 1);
  EXPECT_DOUBLE_EQ(report.backoff_s, 0.0);
  EXPECT_EQ(supervisor.totals().gpu_ok, 1u);
  EXPECT_EQ(supervisor.totals().retries, 0u);
  EXPECT_FALSE(supervisor.breaker_open());
}

TEST(ResilientLauncher, CorruptedOutputRetriesWithExponentialBackoff) {
  SupervisorConfig config;
  config.backoff_initial_s = 1.0;
  config.backoff_factor = 2.0;
  ResilientLauncher supervisor(config);
  int gpu_calls = 0;
  SupervisedOp op;
  op.gpu = [&] { ++gpu_calls; };
  op.verify = [&] { return gpu_calls >= 3; };  // first two results corrupted
  op.cpu = [] { FAIL() << "fallback must not run"; };
  const OperationReport report = supervisor.run(op);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.corrupted_outputs, 2);
  EXPECT_DOUBLE_EQ(report.backoff_s, 1.0 + 2.0);  // 1, then doubled
  EXPECT_EQ(supervisor.totals().retries, 2u);
  EXPECT_EQ(supervisor.totals().corrupted_outputs, 2u);
}

TEST(ResilientLauncher, WatchdogTripsOnClockOverrun) {
  SupervisorConfig config;
  config.watchdog_budget_s = 1.0;
  config.max_attempts = 2;
  ResilientLauncher supervisor(config);
  double clock = 0.0;
  bool cpu_ran = false;
  SupervisedOp op;
  op.gpu = [&] { clock += 5.0; };  // every attempt blows the budget
  op.gpu_clock = [&] { return clock; };
  op.verify = [] { return true; };
  op.cpu = [&] { cpu_ran = true; };
  const OperationReport report = supervisor.run(op);
  EXPECT_EQ(report.path, ComputePath::kCpuFallback);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.watchdog_trips, 2);
  EXPECT_TRUE(cpu_ran);
  EXPECT_EQ(supervisor.totals().watchdog_trips, 2u);
  EXPECT_EQ(supervisor.totals().fallbacks, 1u);
}

TEST(ResilientLauncher, TransientLaunchFailureIsRetried) {
  ResilientLauncher supervisor;
  int gpu_calls = 0;
  SupervisedOp op;
  op.gpu = [&] {
    if (++gpu_calls == 1) {
      throw simgpu::DeviceError(simgpu::FaultClass::kLaunchFailure, "boom");
    }
  };
  op.verify = [] { return true; };
  const OperationReport report = supervisor.run(op);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.launch_failures, 1);
  EXPECT_FALSE(supervisor.breaker_open());
}

TEST(ResilientLauncher, DeviceLossOpensBreakerAndShortCircuitsNextOps) {
  ResilientLauncher supervisor;
  SupervisedOp lost_op;
  lost_op.gpu = [] {
    throw simgpu::DeviceError(simgpu::FaultClass::kDeviceLost, "gone");
  };
  bool cpu_ran = false;
  lost_op.cpu = [&] { cpu_ran = true; };
  const OperationReport report = supervisor.run(lost_op);
  EXPECT_EQ(report.path, ComputePath::kCpuFallback);
  EXPECT_TRUE(report.device_lost);
  EXPECT_EQ(report.attempts, 1);  // no retry against a lost device
  EXPECT_TRUE(cpu_ran);
  EXPECT_TRUE(supervisor.breaker_open());

  // Breaker open: the GPU closure is never invoked again.
  SupervisedOp next;
  next.gpu = [] { FAIL() << "breaker must bypass the GPU"; };
  bool next_cpu = false;
  next.cpu = [&] { next_cpu = true; };
  const OperationReport short_circuit = supervisor.run(next);
  EXPECT_EQ(short_circuit.path, ComputePath::kCpuFallback);
  EXPECT_EQ(short_circuit.attempts, 0);
  EXPECT_TRUE(next_cpu);

  // reset_breaker models device recovery: GPU attempts resume.
  supervisor.reset_breaker();
  EXPECT_FALSE(supervisor.breaker_open());
  SupervisedOp healthy;
  int gpu_calls = 0;
  healthy.gpu = [&] { ++gpu_calls; };
  EXPECT_EQ(supervisor.run(healthy).path, ComputePath::kGpu);
  EXPECT_EQ(gpu_calls, 1);
}

TEST(ResilientLauncher, BreakerOpensAfterConsecutiveExhaustedOps) {
  SupervisorConfig config;
  config.max_attempts = 1;
  config.breaker_threshold = 2;
  ResilientLauncher supervisor(config);
  SupervisedOp bad;
  bad.gpu = [] {};
  bad.verify = [] { return false; };  // always corrupted
  bad.cpu = [] {};
  EXPECT_EQ(supervisor.run(bad).path, ComputePath::kCpuFallback);
  EXPECT_FALSE(supervisor.breaker_open());  // 1 of 2
  EXPECT_EQ(supervisor.run(bad).path, ComputePath::kCpuFallback);
  EXPECT_TRUE(supervisor.breaker_open());  // threshold reached

  // A success in between resets the consecutive count.
  supervisor.reset_breaker();
  (void)supervisor.run(bad);
  SupervisedOp good;
  good.gpu = [] {};
  (void)supervisor.run(good);
  (void)supervisor.run(bad);
  EXPECT_FALSE(supervisor.breaker_open());
}

// --- backoff schedule and breaker half-open --------------------------------

TEST(ResilientLauncher, BackoffScheduleIsExactGeometricSeries) {
  SupervisorConfig config;
  config.backoff_initial_s = 0.25;
  config.backoff_factor = 3.0;
  config.max_attempts = 5;
  ResilientLauncher supervisor(config);
  SupervisedOp op;
  op.gpu = [] {};
  op.verify = [] { return false; };  // exhaust every attempt
  op.cpu = [] {};
  const OperationReport report = supervisor.run(op);
  EXPECT_EQ(report.attempts, 5);
  // Attempts 2..5 sleep 0.25 * 3^k, k = 0..3 — simulated seconds, summed.
  const double expected = 0.25 * (1.0 + 3.0 + 9.0 + 27.0);
  EXPECT_DOUBLE_EQ(report.backoff_s, expected);
  EXPECT_DOUBLE_EQ(supervisor.totals().backoff_seconds, expected);
}

TEST(ResilientLauncher, BreakerHalfOpensAfterCooldownAndRecloses) {
  SupervisorConfig config;
  config.breaker_cooldown_s = 10.0;
  ResilientLauncher supervisor(config);
  double now = 100.0;
  supervisor.set_clock([&now] { return now; });

  SupervisedOp lost;
  lost.gpu = [] {
    throw simgpu::DeviceError(simgpu::FaultClass::kDeviceLost, "gone");
  };
  lost.cpu = [] {};
  EXPECT_EQ(supervisor.run(lost).path, ComputePath::kCpuFallback);
  EXPECT_TRUE(supervisor.breaker_open());  // opened at t=100

  // Inside the cool-down window the GPU closure is still bypassed.
  now = 105.0;
  SupervisedOp blocked;
  blocked.gpu = [] { FAIL() << "cool-down not elapsed"; };
  bool cpu_ran = false;
  blocked.cpu = [&] { cpu_ran = true; };
  const OperationReport during = supervisor.run(blocked);
  EXPECT_EQ(during.path, ComputePath::kCpuFallback);
  EXPECT_EQ(during.attempts, 0);
  EXPECT_TRUE(cpu_ran);
  EXPECT_TRUE(supervisor.breaker_open());

  // Cool-down elapsed: one half-open probe runs; success recloses.
  now = 110.0;
  int gpu_calls = 0;
  SupervisedOp probe;
  probe.gpu = [&] { ++gpu_calls; };
  probe.verify = [] { return true; };
  probe.cpu = [] { FAIL() << "probe succeeded; no fallback"; };
  const OperationReport reopened = supervisor.run(probe);
  EXPECT_EQ(reopened.path, ComputePath::kGpu);
  EXPECT_EQ(reopened.attempts, 1);
  EXPECT_EQ(gpu_calls, 1);
  EXPECT_FALSE(supervisor.breaker_open());

  // Fully closed again: normal multi-attempt operation resumes.
  const OperationReport after = supervisor.run(probe);
  EXPECT_EQ(after.path, ComputePath::kGpu);
  EXPECT_EQ(gpu_calls, 2);
}

TEST(ResilientLauncher, FailedProbeKeepsBreakerOpenAndRestartsCooldown) {
  SupervisorConfig config;
  config.breaker_cooldown_s = 10.0;
  ResilientLauncher supervisor(config);
  double now = 0.0;
  supervisor.set_clock([&now] { return now; });
  supervisor.trip_breaker();  // external health signal at t=0
  EXPECT_TRUE(supervisor.breaker_open());

  // Probe at t=10 fails: exactly ONE attempt (no retry burst against a
  // device that just proved unhealthy), breaker stays open.
  now = 10.0;
  int gpu_calls = 0;
  SupervisedOp flaky;
  flaky.gpu = [&] {
    ++gpu_calls;
    throw simgpu::DeviceError(simgpu::FaultClass::kLaunchFailure, "still bad");
  };
  flaky.cpu = [] {};
  const OperationReport failed_probe = supervisor.run(flaky);
  EXPECT_EQ(failed_probe.path, ComputePath::kCpuFallback);
  EXPECT_EQ(failed_probe.attempts, 1);
  EXPECT_EQ(gpu_calls, 1);
  EXPECT_TRUE(supervisor.breaker_open());

  // Cool-down restarted at t=10: t=19 grants no probe, t=20 does.
  now = 19.0;
  SupervisedOp blocked;
  blocked.gpu = [&] { ++gpu_calls; };
  blocked.cpu = [] {};
  EXPECT_EQ(supervisor.run(blocked).attempts, 0);
  EXPECT_EQ(gpu_calls, 1);
  now = 20.0;
  SupervisedOp healthy;
  healthy.gpu = [&] { ++gpu_calls; };
  EXPECT_EQ(supervisor.run(healthy).path, ComputePath::kGpu);
  EXPECT_EQ(gpu_calls, 2);
  EXPECT_FALSE(supervisor.breaker_open());
}

TEST(ResilientLauncher, HalfOpenProbeIsSingleFlightUnderHedgedRedispatch) {
  // The fleet race: a hedged re-dispatch lands on a device at the SAME
  // simulated instant its breaker comes off cool-down. Only the first
  // operation may probe — probe success closes the breaker before the
  // second op runs, and probe failure restarts the cool-down from the
  // same timestamp, so the second op must go straight to the CPU either
  // way. Two concurrent probes would double the load on a device that
  // has only proven it can survive one.
  metrics::Registry::instance().reset();
  SupervisorConfig config;
  config.breaker_cooldown_s = 10.0;
  config.metric_prefix = "test.singleflight";
  ResilientLauncher supervisor(config);
  double now = 0.0;
  supervisor.set_clock([&now] { return now; });
  supervisor.trip_breaker();

  // Case 1: the probe FAILS at t=10. The hedge replica arriving at the
  // same t=10 sees a cool-down restarted at 10 and is bypassed — exactly
  // one half-open probe is counted, one GPU call total.
  now = 10.0;
  int gpu_calls = 0;
  SupervisedOp failing;
  failing.gpu = [&] {
    ++gpu_calls;
    throw simgpu::DeviceError(simgpu::FaultClass::kLaunchFailure, "probe");
  };
  failing.cpu = [] {};
  EXPECT_EQ(supervisor.run(failing).path, ComputePath::kCpuFallback);
  SupervisedOp hedge;
  hedge.gpu = [] { FAIL() << "second op at the same instant must not probe"; };
  bool hedge_on_cpu = false;
  hedge.cpu = [&] { hedge_on_cpu = true; };
  const OperationReport raced = supervisor.run(hedge);
  EXPECT_EQ(raced.path, ComputePath::kCpuFallback);
  EXPECT_EQ(raced.attempts, 0);
  EXPECT_TRUE(hedge_on_cpu);
  EXPECT_TRUE(supervisor.breaker_open());
  EXPECT_EQ(gpu_calls, 1);
  EXPECT_DOUBLE_EQ(metrics::Registry::instance().value(
                       "test.singleflight.breaker_half_open"),
                   1.0);
  EXPECT_DOUBLE_EQ(metrics::Registry::instance().value(
                       "test.singleflight.breaker_probe_failed"),
                   1.0);

  // Case 2: the probe SUCCEEDS at t=20. The racing op runs on a CLOSED
  // breaker — a normal dispatch, not a second probe.
  now = 20.0;
  SupervisedOp probe;
  probe.gpu = [&] { ++gpu_calls; };
  probe.verify = [] { return true; };
  probe.cpu = [] { FAIL() << "probe succeeded; no fallback"; };
  EXPECT_EQ(supervisor.run(probe).path, ComputePath::kGpu);
  EXPECT_FALSE(supervisor.breaker_open());
  EXPECT_EQ(supervisor.run(probe).path, ComputePath::kGpu);
  EXPECT_EQ(gpu_calls, 3);
  // Still exactly two probes ever granted (one per cool-down expiry).
  EXPECT_DOUBLE_EQ(metrics::Registry::instance().value(
                       "test.singleflight.breaker_half_open"),
                   2.0);
  EXPECT_DOUBLE_EQ(metrics::Registry::instance().value(
                       "test.singleflight.breaker_reclosed"),
                   1.0);
  metrics::Registry::instance().reset();
}

TEST(ResilientLauncher, BreakerWithoutCooldownOrClockNeverHalfOpens) {
  // cooldown set but no clock attached
  SupervisorConfig with_cooldown;
  with_cooldown.breaker_cooldown_s = 1.0;
  ResilientLauncher no_clock(with_cooldown);
  no_clock.trip_breaker();
  SupervisedOp op;
  op.gpu = [] { FAIL() << "breaker must stay open"; };
  op.cpu = [] {};
  EXPECT_EQ(no_clock.run(op).attempts, 0);
  EXPECT_TRUE(no_clock.breaker_open());

  // clock attached but cooldown disabled (PR 3 semantics preserved)
  ResilientLauncher no_cooldown;
  double now = 0.0;
  no_cooldown.set_clock([&now] { return now; });
  no_cooldown.trip_breaker();
  now = 1e9;
  EXPECT_EQ(no_cooldown.run(op).attempts, 0);
  EXPECT_TRUE(no_cooldown.breaker_open());
  no_cooldown.reset_breaker();
  EXPECT_FALSE(no_cooldown.breaker_open());
}

TEST(ResilientLauncher, NoFallbackWiredReportsFailed) {
  SupervisorConfig config;
  config.max_attempts = 1;
  ResilientLauncher supervisor(config);
  SupervisedOp op;
  op.gpu = [] {};
  op.verify = [] { return false; };
  // op.cpu left null: no fallback wired.
  EXPECT_EQ(supervisor.run(op).path, ComputePath::kFailed);
}

// --- supervised encoder against scripted device faults ---------------------

// The injector indexes launches device-wide. ResilientEncoder construction
// does not consume indices (the injector attaches after the segment
// preprocess); each encode attempt with a table scheme then issues two
// launches: coefficient preprocess (even index), encode kernel (odd index).
class ResilientEncoderFaults : public ::testing::Test {
 protected:
  static constexpr Params kParams{.n = 16, .k = 256};

  ResilientEncoderFaults() : rng_(11), segment_(Segment::random(kParams, rng_)) {}

  SupervisorConfig config() {
    SupervisorConfig config;
    config.watchdog_budget_s = 1e-3;  // a hang stalls ~1e6x past this
    config.verify_sample = 64;        // >= batch size: every row checked
    return config;
  }

  // Runs one supervised batch of `count` blocks under `plan`, with the CPU
  // fallback on a pool of `threads`, and checks it against the reference
  // encoder row by row.
  OperationReport encode_and_check(const simgpu::FaultPlan& plan,
                                   std::size_t count = 6,
                                   std::size_t threads = 2) {
    simgpu::FaultInjector injector(plan);
    ResilientLauncher supervisor(config(), &injector);
    ThreadPool pool(threads);
    ResilientEncoder encoder(simgpu::gtx280(), segment_, EncodeScheme::kTable5,
                             pool, supervisor);
    const CodedBatch batch = encoder.encode_batch(count, rng_);
    const Encoder reference(segment_);
    std::vector<std::uint8_t> expected(kParams.k);
    for (std::size_t j = 0; j < batch.count(); ++j) {
      reference.encode_with_coefficients(batch.coefficients(j), expected);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             batch.payload(j).begin()))
          << "block " << j;
    }
    return encoder.last_report();
  }

  Rng rng_;
  Segment segment_;
};

TEST_F(ResilientEncoderFaults, NoFaultStaysOnGpuFirstTry) {
  const OperationReport report = encode_and_check(simgpu::FaultPlan{});
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.corrupted_outputs, 0);
}

TEST_F(ResilientEncoderFaults, BitFlipDetectedByVerifierAndRetried) {
  simgpu::FaultPlan plan;
  plan.scripted[1] = simgpu::FaultClass::kBitFlip;  // encode kernel, try 1
  const OperationReport report = encode_and_check(plan);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.corrupted_outputs, 1);
}

TEST_F(ResilientEncoderFaults, HangTripsWatchdogAndRetried) {
  simgpu::FaultPlan plan;
  plan.scripted[1] = simgpu::FaultClass::kHang;
  const OperationReport report = encode_and_check(plan);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.watchdog_trips, 1);
  EXPECT_GT(report.backoff_s, 0.0);
}

TEST_F(ResilientEncoderFaults, LaunchFailureRetriedTransparently) {
  simgpu::FaultPlan plan;
  plan.scripted[0] = simgpu::FaultClass::kLaunchFailure;
  const OperationReport report = encode_and_check(plan);
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.launch_failures, 1);
}

// The CPU fallback splits a batch across the pool, so it is checked at
// every pool size and at batch counts below, between and above them.
constexpr std::size_t kFallbackPools[] = {1, 2, 3, 4, 8};
constexpr std::size_t kFallbackCounts[] = {1, 5, 64};

TEST_F(ResilientEncoderFaults, DeviceLossFallsBackToCpuBitExact) {
  simgpu::FaultPlan plan;
  plan.scripted[0] = simgpu::FaultClass::kDeviceLost;
  for (std::size_t threads : kFallbackPools) {
    for (std::size_t count : kFallbackCounts) {
      SCOPED_TRACE(testing::Message()
                   << "pool " << threads << ", count " << count);
      const OperationReport report = encode_and_check(plan, count, threads);
      EXPECT_EQ(report.path, ComputePath::kCpuFallback);
      EXPECT_TRUE(report.device_lost);
    }
  }
}

TEST_F(ResilientEncoderFaults, PersistentCorruptionExhaustsRetriesThenCpu) {
  simgpu::FaultPlan plan;  // flip the encode kernel of all four attempts
  plan.scripted[1] = simgpu::FaultClass::kBitFlip;
  plan.scripted[3] = simgpu::FaultClass::kBitFlip;
  plan.scripted[5] = simgpu::FaultClass::kBitFlip;
  plan.scripted[7] = simgpu::FaultClass::kBitFlip;
  for (std::size_t threads : kFallbackPools) {
    for (std::size_t count : kFallbackCounts) {
      SCOPED_TRACE(testing::Message()
                   << "pool " << threads << ", count " << count);
      const OperationReport report = encode_and_check(plan, count, threads);
      EXPECT_EQ(report.path, ComputePath::kCpuFallback);
      EXPECT_EQ(report.attempts, 4);
      EXPECT_EQ(report.corrupted_outputs, 4);
    }
  }
}

TEST_F(ResilientEncoderFaults, ScriptedBurstBackoffFollowsSimClockSchedule) {
  // Corrupt the encode kernel of attempts 1..3 (device-wide launch
  // indices 1, 3, 5); attempt 4 is clean. The supervisor must have slept
  // the exact geometric series in simulated seconds before it.
  simgpu::FaultPlan plan;
  plan.scripted[1] = simgpu::FaultClass::kBitFlip;
  plan.scripted[3] = simgpu::FaultClass::kBitFlip;
  plan.scripted[5] = simgpu::FaultClass::kBitFlip;
  simgpu::FaultInjector injector(plan);
  SupervisorConfig config = this->config();
  config.backoff_initial_s = 1e-3;
  config.backoff_factor = 2.0;
  ResilientLauncher supervisor(config, &injector);
  ThreadPool pool(2);
  ResilientEncoder encoder(simgpu::gtx280(), segment_, EncodeScheme::kTable5,
                           pool, supervisor);
  const CodedBatch batch = encoder.encode_batch(6, rng_);
  const OperationReport report = encoder.last_report();
  EXPECT_EQ(report.path, ComputePath::kGpu);
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.corrupted_outputs, 3);
  EXPECT_DOUBLE_EQ(report.backoff_s, 1e-3 * (1.0 + 2.0 + 4.0));
  EXPECT_DOUBLE_EQ(supervisor.totals().backoff_seconds, report.backoff_s);
  // Output stays bit-exact after the burst.
  const Encoder reference(segment_);
  std::vector<std::uint8_t> expected(kParams.k);
  for (std::size_t j = 0; j < batch.count(); ++j) {
    reference.encode_with_coefficients(batch.coefficients(j), expected);
    EXPECT_EQ(crc32c(expected), crc32c(batch.payload(j))) << j;
  }
}

TEST_F(ResilientEncoderFaults, BreakerHalfOpenProbeRecoversGpuAfterLoss) {
  // Device dies on the very first launch; a supervisor clock drives the
  // cool-down; the half-open probe (which clears the injector's sticky
  // lost state) brings the GPU path back. All batches stay bit-exact.
  simgpu::FaultPlan plan;
  plan.scripted[0] = simgpu::FaultClass::kDeviceLost;
  simgpu::FaultInjector injector(plan);
  SupervisorConfig config = this->config();
  config.breaker_cooldown_s = 5.0;
  ResilientLauncher supervisor(config, &injector);
  double now = 0.0;
  supervisor.set_clock([&now] { return now; });
  ThreadPool pool(2);
  ResilientEncoder encoder(simgpu::gtx280(), segment_, EncodeScheme::kTable5,
                           pool, supervisor);

  const CodedBatch dead = encoder.encode_batch(4, rng_);
  EXPECT_EQ(encoder.last_report().path, ComputePath::kCpuFallback);
  EXPECT_TRUE(supervisor.breaker_open());

  now = 2.0;  // within cool-down: still served by the CPU codec
  const CodedBatch shielded = encoder.encode_batch(4, rng_);
  EXPECT_EQ(encoder.last_report().path, ComputePath::kCpuFallback);
  EXPECT_EQ(encoder.last_report().attempts, 0);
  EXPECT_TRUE(supervisor.breaker_open());

  now = 6.0;  // cool-down elapsed: probe succeeds, breaker recloses
  const CodedBatch recovered = encoder.encode_batch(4, rng_);
  EXPECT_EQ(encoder.last_report().path, ComputePath::kGpu);
  EXPECT_FALSE(supervisor.breaker_open());

  const Encoder reference(segment_);
  std::vector<std::uint8_t> expected(kParams.k);
  for (const CodedBatch* batch : {&dead, &shielded, &recovered}) {
    for (std::size_t j = 0; j < batch->count(); ++j) {
      reference.encode_with_coefficients(batch->coefficients(j), expected);
      EXPECT_EQ(crc32c(expected), crc32c(batch->payload(j))) << j;
    }
  }
}

// --- seed-encoder bridge ---------------------------------------------------

TEST(ResilientSeed, BoundSegmentClosureSurvivesDeviceLoss) {
  Rng rng(41);
  const Params params{.n = 8, .k = 64};
  const Segment segment = Segment::random(params, rng);
  simgpu::FaultPlan plan;
  plan.scripted[4] = simgpu::FaultClass::kDeviceLost;
  ResilientSeed seed(simgpu::gtx280(), EncodeScheme::kTable5,
                     SupervisorConfig{}, plan, /*threads=*/2,
                     /*blocks_per_launch=*/4);
  ASSERT_NE(seed.injector(), nullptr);
  auto encode = seed.bind_segment(segment);
  const Encoder reference(segment);
  std::vector<std::uint8_t> expected(params.k);
  // Enough blocks to cross the scripted loss; all must stay bit-exact.
  for (int i = 0; i < 24; ++i) {
    const coding::CodedBlock block = encode(rng);
    reference.encode_with_coefficients(block.coefficients(), expected);
    EXPECT_EQ(crc32c(expected), crc32c(block.payload())) << i;
  }
  EXPECT_TRUE(seed.supervisor().breaker_open());
  EXPECT_GT(seed.supervisor().totals().fallbacks, 0u);
}

TEST(ResilientSeed, BoundContentSplitsIntoGenerations) {
  Rng rng(42);
  const Params params{.n = 4, .k = 32};
  std::vector<std::uint8_t> content(params.segment_bytes() * 2 + 17);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng.next_below(256));
  ResilientSeed seed(simgpu::gtx280(), EncodeScheme::kTable5);
  auto encode = seed.bind_content(params, content);
  // Generation 2 is the 17-byte tail, zero-padded to a full segment.
  coding::Segment tail = coding::Segment::from_bytes(
      params,
      std::span(content.data() + params.segment_bytes() * 2, std::size_t{17}));
  const Encoder reference(tail);
  std::vector<std::uint8_t> expected(params.k);
  for (int i = 0; i < 6; ++i) {
    const coding::CodedBlock block = encode(2, rng);
    reference.encode_with_coefficients(block.coefficients(), expected);
    EXPECT_EQ(crc32c(expected), crc32c(block.payload())) << i;
  }
}

}  // namespace
}  // namespace extnc::gpu
