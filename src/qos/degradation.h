// SLO-aware graceful degradation for the AR frame path. Under sustained
// SLO violation the ladder steps fidelity down one rung at a time and
// steps back up only after sustained headroom. Each rung lowers the
// modeled per-frame cost (DegradationProfile::cost_multiplier), which is
// the paper's §4.1 position: late results are worse than degraded ones.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/metrics.h"

namespace arbd::qos {

// What the frame path should do at the ladder's current level. Consumers
// read this once per frame; cost_multiplier is the modeled per-frame work
// relative to full fidelity (used by the overload simulator and benches).
struct DegradationProfile {
  int level = 0;
  double cost_multiplier = 1.0;
};

struct LadderConfig {
  Duration slo = Duration::Millis(33);  // frame-path latency objective
  // Hysteresis: a frame counts as a violation above `slo`, as clear below
  // `headroom * slo`; the band between resets neither streak.
  double headroom = 0.7;
  int violations_to_step_down = 8;
  int clears_to_step_up = 64;
  int max_level = 3;
};

class DegradationLadder {
 public:
  explicit DegradationLadder(LadderConfig cfg = {}, MetricRegistry* metrics = nullptr);

  // Feed one frame-path (or frame-relevant query) latency observation.
  void Observe(Duration latency);
  // An admission shed of frame-relevant work counts as an SLO violation:
  // shedding is strictly worse than serving degraded.
  void ObserveShed();

  int level() const { return level_; }
  DegradationProfile profile() const;

  std::uint64_t step_downs() const { return step_downs_; }
  std::uint64_t step_ups() const { return step_ups_; }

  const LadderConfig& config() const { return cfg_; }

 private:
  void Violation();
  void StepTo(int level);

  LadderConfig cfg_;
  MetricRegistry* metrics_;
  int level_ = 0;
  int violation_streak_ = 0;
  int clear_streak_ = 0;
  std::uint64_t step_downs_ = 0;
  std::uint64_t step_ups_ = 0;
};

}  // namespace arbd::qos
