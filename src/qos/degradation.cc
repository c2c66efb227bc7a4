#include "qos/degradation.h"

#include <algorithm>

namespace arbd::qos {
namespace {

// Per-rung cost of a frame relative to full fidelity.
constexpr double kCostByLevel[] = {1.0, 0.75, 0.55, 0.40};

}  // namespace

DegradationLadder::DegradationLadder(LadderConfig cfg, MetricRegistry* metrics)
    : cfg_(cfg), metrics_(metrics) {
  cfg_.max_level = std::clamp(cfg_.max_level, 0, 3);
}

DegradationProfile DegradationLadder::profile() const {
  DegradationProfile p;
  p.level = level_;
  p.cost_multiplier = kCostByLevel[level_];
  return p;
}

void DegradationLadder::StepTo(int level) {
  level = std::clamp(level, 0, cfg_.max_level);
  if (level == level_) return;
  if (level > level_) {
    ++step_downs_;
    if (metrics_ != nullptr) metrics_->Add("qos.degrade.step_down");
  } else {
    ++step_ups_;
    if (metrics_ != nullptr) metrics_->Add("qos.degrade.step_up");
  }
  level_ = level;
  violation_streak_ = 0;
  clear_streak_ = 0;
  if (metrics_ != nullptr) {
    metrics_->Set("qos.degrade.level", static_cast<double>(level_));
  }
}

void DegradationLadder::Violation() {
  clear_streak_ = 0;
  if (++violation_streak_ >= cfg_.violations_to_step_down) {
    StepTo(level_ + 1);
  }
}

void DegradationLadder::Observe(Duration latency) {
  if (latency > cfg_.slo) {
    Violation();
  } else if (latency.seconds() < cfg_.headroom * cfg_.slo.seconds()) {
    violation_streak_ = 0;
    if (++clear_streak_ >= cfg_.clears_to_step_up) {
      StepTo(level_ - 1);
    }
  } else {
    // Dead band: neither violating nor comfortably clear. Reset both
    // streaks so the ladder holds its level instead of flapping.
    violation_streak_ = 0;
    clear_streak_ = 0;
  }
}

void DegradationLadder::ObserveShed() { Violation(); }

}  // namespace arbd::qos
