// Degradation ladder: immediate climb, hysteretic step-down, dwell.
#include "serve/degradation.h"

#include <gtest/gtest.h>

namespace extnc::serve {
namespace {

TEST(DegradationLadder, StartsFullAndClimbsAtThresholds) {
  DegradationLadder ladder;
  EXPECT_EQ(ladder.mode(), ServiceMode::kFull);
  EXPECT_EQ(ladder.update(0.49), ServiceMode::kFull);
  EXPECT_EQ(ladder.update(0.50), ServiceMode::kBatched);
  EXPECT_EQ(ladder.update(0.75), ServiceMode::kCpuCodec);
  EXPECT_EQ(ladder.update(0.95), ServiceMode::kThinned);
  EXPECT_EQ(ladder.transitions(), 3u);
}

TEST(DegradationLadder, SpikeClimbsSeveralRungsInOneUpdate) {
  DegradationLadder ladder;
  EXPECT_EQ(ladder.update(1.2), ServiceMode::kThinned);
  // One observation, one recorded transition (kFull -> kThinned).
  EXPECT_EQ(ladder.transitions(), 1u);
}

TEST(DegradationLadder, StepDownNeedsHysteresisMargin) {
  DegradationLadder ladder;  // enter {0.5, 0.75, 0.95}, kLadderHysteresis 0.15
  ladder.update(0.6);
  ASSERT_EQ(ladder.mode(), ServiceMode::kBatched);
  // Pressure below the entry threshold but inside the hysteresis band:
  // hold the rung, no flapping.
  EXPECT_EQ(ladder.update(0.45), ServiceMode::kBatched);
  EXPECT_EQ(ladder.update(0.36), ServiceMode::kBatched);
  // Below enter[0] - kLadderHysteresis = 0.35: relax.
  EXPECT_EQ(ladder.update(0.34), ServiceMode::kFull);
}

TEST(DegradationLadder, RelaxesOneRungPerUpdate) {
  DegradationLadder ladder;
  ladder.update(1.0);
  ASSERT_EQ(ladder.mode(), ServiceMode::kThinned);
  // Pressure collapses to zero; the ladder still walks down rung by rung
  // so recovering service ramps fidelity back gradually.
  EXPECT_EQ(ladder.update(0.0), ServiceMode::kCpuCodec);
  EXPECT_EQ(ladder.update(0.0), ServiceMode::kBatched);
  EXPECT_EQ(ladder.update(0.0), ServiceMode::kFull);
  EXPECT_EQ(ladder.update(0.0), ServiceMode::kFull);
  EXPECT_EQ(ladder.transitions(), 4u);  // 1 up + 3 down
}

TEST(DegradationLadder, DwellCountsUpdatesPerMode) {
  DegradationLadder ladder;
  ladder.update(0.1);
  ladder.update(0.2);
  ladder.update(0.6);
  ladder.update(0.6);
  ladder.update(0.6);
  const auto& dwell = ladder.dwell();
  EXPECT_EQ(dwell[static_cast<int>(ServiceMode::kFull)], 2u);
  EXPECT_EQ(dwell[static_cast<int>(ServiceMode::kBatched)], 3u);
  EXPECT_EQ(dwell[static_cast<int>(ServiceMode::kCpuCodec)], 0u);
}

TEST(DegradationLadder, ClassBiasEntersRungsPerPriority) {
  DegradationLadder ladder;  // default bias {-1, 0, +1}
  ladder.update(0.6);
  ASSERT_EQ(ladder.mode(), ServiceMode::kBatched);
  // Interactive runs a rung BELOW the pressure level, best-effort a rung
  // above; both clamp to the ladder's ends.
  EXPECT_EQ(ladder.mode_for(Priority::kInteractive), ServiceMode::kFull);
  EXPECT_EQ(ladder.mode_for(Priority::kStandard), ServiceMode::kBatched);
  EXPECT_EQ(ladder.mode_for(Priority::kBestEffort), ServiceMode::kCpuCodec);

  ladder.update(1.0);
  ASSERT_EQ(ladder.mode(), ServiceMode::kThinned);
  EXPECT_EQ(ladder.mode_for(Priority::kInteractive), ServiceMode::kCpuCodec);
  EXPECT_EQ(ladder.mode_for(Priority::kBestEffort), ServiceMode::kThinned);
}

TEST(DegradationLadder, RestoreLevelJumpsWithoutCountingATransition) {
  DegradationLadder ladder;
  ladder.restore_level(2);
  EXPECT_EQ(ladder.mode(), ServiceMode::kCpuCodec);
  EXPECT_EQ(ladder.transitions(), 0u);  // a journal replay, not a change
}

TEST(PriorityNames, RoundTrip) {
  for (Priority p : {Priority::kInteractive, Priority::kStandard,
                     Priority::kBestEffort}) {
    const auto parsed = parse_priority(priority_name(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parse_priority("vip").has_value());
}

TEST(ServiceNames, StatesAndModesHaveStableNames) {
  EXPECT_STREQ(session_state_name(SessionState::kCompleted), "completed");
  EXPECT_STREQ(session_state_name(SessionState::kShed), "shed");
  EXPECT_STREQ(service_mode_name(ServiceMode::kFull), "full");
  EXPECT_STREQ(service_mode_name(ServiceMode::kThinned), "thinned");
  EXPECT_TRUE(is_terminal(SessionState::kFailed));
  EXPECT_FALSE(is_terminal(SessionState::kServing));
}

}  // namespace
}  // namespace extnc::serve
