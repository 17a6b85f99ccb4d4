// Overload-degradation ladder with hysteresis.
//
// Maps the admission queue's pressure (fill fraction) to a ServiceMode.
// Rising pressure climbs the ladder one or more rungs immediately (the
// service must react to a spike within the dispatch it sees it); falling
// pressure steps down only after dropping kLadderHysteresis BELOW the rung's
// entry threshold, so a queue hovering at a boundary does not flap between
// modes on every dispatch.
#pragma once

#include <array>
#include <cstdint>

#include "serve/session.h"

namespace extnc::serve {

// Step down a rung only when pressure < enter[rung-1] - kLadderHysteresis.
inline constexpr double kLadderHysteresis = 0.15;

struct LadderConfig {
  // Entry thresholds (pressure, i.e. queue depth / capacity) for
  // kBatched, kCpuCodec, kThinned. Must be non-decreasing.
  std::array<double, kServiceModes - 1> enter = {0.5, 0.75, 0.95};
};

class DegradationLadder {
 public:
  explicit DegradationLadder(LadderConfig config = {});

  const LadderConfig& config() const { return config_; }

  // Feed the current pressure; returns the (possibly changed) mode.
  ServiceMode update(double pressure);

  ServiceMode mode() const { return static_cast<ServiceMode>(level_); }

  // The mode a session of `priority` is actually served in: the current
  // rung shifted by one class bias, clamped to [kFull, kThinned].
  // Interactive traffic degrades one rung later than the ladder says,
  // best-effort one rung earlier.
  ServiceMode mode_for(Priority priority) const;

  // Crash recovery: jump straight to a journaled rung without counting a
  // transition (the transition was counted — and journaled — by the
  // process that made it).
  void restore_level(int level);

  // Mode transitions so far (both directions).
  std::uint64_t transitions() const { return transitions_; }
  // Dispatches spent in each mode (update() calls).
  const std::array<std::uint64_t, kServiceModes>& dwell() const {
    return dwell_;
  }

 private:
  LadderConfig config_;
  int level_ = 0;
  std::uint64_t transitions_ = 0;
  std::array<std::uint64_t, kServiceModes> dwell_ = {};
};

}  // namespace extnc::serve
