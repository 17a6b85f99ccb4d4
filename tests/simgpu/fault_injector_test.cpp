// The fault model itself: scripted and probabilistic scheduling, sticky
// device loss, damage application, launcher integration (DeviceError on
// rejected launches, hang stalls on the modeled clock).
#include "simgpu/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simgpu/device_spec.h"
#include "simgpu/executor.h"

namespace extnc::simgpu {
namespace {

TEST(FaultPlan, ParsesScriptedAndProbabilisticTokens) {
  const auto plan = FaultPlan::parse("hang@3,flip@7,lost@12,pfail=0.25", 42);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->scripted.size(), 3u);
  EXPECT_EQ(plan->scripted.at(3), FaultClass::kHang);
  EXPECT_EQ(plan->scripted.at(7), FaultClass::kBitFlip);
  EXPECT_EQ(plan->scripted.at(12), FaultClass::kDeviceLost);
  EXPECT_DOUBLE_EQ(plan->p_launch_failure, 0.25);
  EXPECT_DOUBLE_EQ(plan->p_hang, 0.0);
  EXPECT_TRUE(plan->any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse("wat@3").has_value());     // unknown class
  EXPECT_FALSE(FaultPlan::parse("hang@x").has_value());    // bad index
  EXPECT_FALSE(FaultPlan::parse("hang@").has_value());     // empty index
  EXPECT_FALSE(FaultPlan::parse("pwat=0.1").has_value());  // unknown class
  EXPECT_FALSE(FaultPlan::parse("phang=1.5").has_value()); // p out of range
  EXPECT_FALSE(FaultPlan::parse("phang=x").has_value());   // bad number
  EXPECT_FALSE(FaultPlan::parse("hang").has_value());      // no @ or =
  EXPECT_FALSE(FaultPlan::parse("hang@1,,flip@2").has_value());  // empty token
}

TEST(FaultPlan, EmptySpecMeansNoFaults) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->any());
}

TEST(FaultInjector, ScriptedFaultsFireAtExactLaunchIndices) {
  FaultPlan plan;
  plan.scripted[2] = FaultClass::kLaunchFailure;
  plan.scripted[5] = FaultClass::kHang;
  FaultInjector injector(plan);
  std::vector<FaultClass> observed;
  for (int i = 0; i < 8; ++i) {
    const FaultClass fault = injector.begin_launch();
    observed.push_back(fault);
    // Rejected launches never run; begin_launch alone was the whole launch.
    if (fault != FaultClass::kLaunchFailure && fault != FaultClass::kDeviceLost) {
      injector.finish_launch(fault, 0.001);
    }
  }
  for (int i = 0; i < 8; ++i) {
    if (i == 2) {
      EXPECT_EQ(observed[i], FaultClass::kLaunchFailure) << i;
    } else if (i == 5) {
      EXPECT_EQ(observed[i], FaultClass::kHang) << i;
    } else {
      EXPECT_EQ(observed[i], FaultClass::kNone) << i;
    }
  }
  EXPECT_EQ(injector.counters().launches, 8u);
  EXPECT_EQ(injector.counters().launch_failures, 1u);
  EXPECT_EQ(injector.counters().hangs, 1u);
  EXPECT_EQ(injector.counters().faults(), 2u);
}

TEST(FaultInjector, ProbabilisticDrawsAreSeedDeterministic) {
  FaultPlan plan;
  plan.p_bit_flip = 0.3;
  plan.seed = 77;
  // Using the injector as a bare fault oracle still owes it the launch
  // pairing: cancel each launch we begin but never run.
  auto draw = [&] {
    FaultInjector injector(plan);
    std::vector<FaultClass> faults;
    for (int i = 0; i < 64; ++i) {
      faults.push_back(injector.begin_launch());
      injector.cancel_launch();
    }
    return faults;
  };
  const auto a = draw();
  const auto b = draw();
  EXPECT_EQ(a, b);
  // And the plan actually fires sometimes (0.3 over 64 draws).
  EXPECT_GT(std::count(a.begin(), a.end(), FaultClass::kBitFlip), 0);

  plan.seed = 78;
  FaultInjector other(plan);
  std::vector<FaultClass> c;
  for (int i = 0; i < 64; ++i) {
    c.push_back(other.begin_launch());
    other.cancel_launch();
  }
  EXPECT_NE(a, c);  // different seed, different trajectory
}

TEST(FaultInjector, DeviceLostIsStickyUntilRestore) {
  FaultPlan plan;
  plan.scripted[1] = FaultClass::kDeviceLost;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.begin_launch(), FaultClass::kNone);
  injector.finish_launch(FaultClass::kNone, 0.001);
  // Rejected launches are already finished; begin_launch alone is the
  // whole launch for them.
  EXPECT_EQ(injector.begin_launch(), FaultClass::kDeviceLost);
  EXPECT_TRUE(injector.device_lost());
  // Every subsequent launch fails, but only the transition is counted.
  EXPECT_EQ(injector.begin_launch(), FaultClass::kDeviceLost);
  EXPECT_EQ(injector.begin_launch(), FaultClass::kDeviceLost);
  EXPECT_EQ(injector.counters().device_losses, 1u);
  injector.restore_device();
  EXPECT_FALSE(injector.device_lost());
  EXPECT_EQ(injector.begin_launch(), FaultClass::kNone);
  injector.cancel_launch();
}

TEST(FaultInjector, BitFlipDamagesWatchedRegion) {
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kBitFlip;
  FaultInjector injector(plan);
  std::vector<std::uint8_t> buffer(256, 0);
  injector.watch_region(buffer);
  const FaultClass fault = injector.begin_launch();
  EXPECT_EQ(fault, FaultClass::kBitFlip);
  injector.finish_launch(fault, 0.001);
  std::size_t flipped_bits = 0;
  for (std::uint8_t byte : buffer) {
    flipped_bits += static_cast<std::size_t>(__builtin_popcount(byte));
  }
  EXPECT_GE(flipped_bits, 1u);
  // Flips can collide, never multiply.
  EXPECT_LE(flipped_bits, static_cast<std::size_t>(kFlipsPerFault));
  injector.clear_regions();
}

TEST(FaultInjector, HangScribblesSuffixAndStallsClock) {
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kHang;
  plan.hang_stall_factor = 1000.0;
  FaultInjector injector(plan);
  std::vector<std::uint8_t> buffer(64, 0);
  injector.watch_region(buffer);
  const FaultClass fault = injector.begin_launch();
  EXPECT_EQ(fault, FaultClass::kHang);
  EXPECT_DOUBLE_EQ(injector.time_multiplier(fault), 1000.0);
  EXPECT_DOUBLE_EQ(injector.time_multiplier(FaultClass::kNone), 1.0);
  injector.finish_launch(fault, 2.0);  // caller pre-scales by the multiplier
  EXPECT_DOUBLE_EQ(injector.observed_seconds(), 2.0);
  // The scribbled suffix is overwhelmingly unlikely to stay all-zero.
  EXPECT_TRUE(std::any_of(buffer.begin(), buffer.end(),
                          [](std::uint8_t b) { return b != 0; }));
}

TEST(FaultInjector, UnwatchedDamageIsHeldPending) {
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kBitFlip;
  FaultInjector injector(plan);
  const FaultClass fault = injector.begin_launch();
  injector.finish_launch(fault, 0.001);
  EXPECT_EQ(injector.pending_damage(), 1u);
}

// Launcher integration: rejected launches throw DeviceError before any
// block runs; hang launches stall the modeled clocks.
TEST(FaultInjector, LauncherThrowsDeviceErrorOnRejectedLaunch) {
  Launcher launcher(gtx280());
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kLaunchFailure;
  plan.scripted[1] = FaultClass::kDeviceLost;
  FaultInjector injector(plan);
  launcher.set_fault_injector(&injector);

  int ran = 0;
  const LaunchConfig config{.blocks = 1, .threads_per_block = 1};
  auto kernel = [&](BlockCtx& block) {
    block.step([&](ThreadCtx&) { ++ran; });
  };
  try {
    launcher.launch(config, kernel);
    FAIL() << "launch 0 should have thrown";
  } catch (const DeviceError& error) {
    EXPECT_EQ(error.fault(), FaultClass::kLaunchFailure);
  }
  try {
    launcher.launch(config, kernel);
    FAIL() << "launch 1 should have thrown";
  } catch (const DeviceError& error) {
    EXPECT_EQ(error.fault(), FaultClass::kDeviceLost);
  }
  EXPECT_EQ(ran, 0);  // nothing executed
  EXPECT_DOUBLE_EQ(launcher.elapsed_seconds(), 0.0);  // no metrics accrued
  EXPECT_TRUE(injector.device_lost());
  // Sticky: further launches keep failing until the device is restored.
  EXPECT_THROW(launcher.launch(config, kernel), DeviceError);
  injector.restore_device();
  launcher.launch(config, kernel);
  EXPECT_EQ(ran, 1);
}

// The launch-granularity contract: one launch in flight per injector at a
// time, begun and finished (or cancelled) on the launching thread. The
// parallel engine depends on this — blocks never touch the injector, so
// fault decisions and damage stay keyed to the launch index alone.
using FaultInjectorDeathTest = ::testing::Test;

TEST(FaultInjectorDeathTest, OverlappingLaunchesAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FaultInjector injector(FaultPlan{});
  (void)injector.begin_launch();
  EXPECT_DEATH((void)injector.begin_launch(), "EXTNC_CHECK failed");
  injector.cancel_launch();
  (void)injector.begin_launch();  // paired again: fine
  injector.finish_launch(FaultClass::kNone, 0.001);
}

TEST(FaultInjectorDeathTest, FinishWithoutBeginIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FaultInjector injector(FaultPlan{});
  EXPECT_DEATH(injector.finish_launch(FaultClass::kNone, 0.001),
               "EXTNC_CHECK failed");
  // A rejected launch is already finished: finishing it is also misuse.
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kLaunchFailure;
  FaultInjector rejecting(plan);
  EXPECT_EQ(rejecting.begin_launch(), FaultClass::kLaunchFailure);
  EXPECT_DEATH(rejecting.finish_launch(FaultClass::kLaunchFailure, 0.001),
               "EXTNC_CHECK failed");
}

TEST(FaultInjector, HangStallsLauncherElapsedClock) {
  const LaunchConfig config{.blocks = 1, .threads_per_block = 32};
  auto kernel = [](BlockCtx& block) {
    block.step([](ThreadCtx& thread) { thread.count_alu(100); });
  };

  Launcher healthy(gtx280());
  healthy.launch(config, kernel);
  const double normal_s = healthy.last_launch_seconds();
  ASSERT_GT(normal_s, 0.0);

  Launcher faulty(gtx280());
  FaultPlan plan;
  plan.scripted[0] = FaultClass::kHang;
  plan.hang_stall_factor = 1e6;
  FaultInjector injector(plan);
  faulty.set_fault_injector(&injector);
  faulty.launch(config, kernel);
  EXPECT_NEAR(faulty.last_launch_seconds(), normal_s * 1e6, normal_s);
  EXPECT_NEAR(injector.observed_seconds(), normal_s * 1e6, normal_s);
}

}  // namespace
}  // namespace extnc::simgpu
