#include "qos/admission.h"

#include <string>

namespace arbd::qos {

const char* PriorityClassName(PriorityClass c) {
  switch (c) {
    case PriorityClass::kFrameCritical: return "frame_critical";
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kBackground: return "background";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig cfg, MetricRegistry* metrics)
    : cfg_(cfg), metrics_(metrics) {}

void AdmissionController::UpdatePressure(PriorityClass c, double fill) {
  const int i = static_cast<int>(c);
  fill_[static_cast<std::size_t>(i)] = fill;
  const ClassWatermarks& wm = cfg_.watermarks[static_cast<std::size_t>(i)];
  bool& state = raw_shedding_[static_cast<std::size_t>(i)];
  const bool next = state ? (fill >= wm.resume_at) : (fill > wm.shed_at);
  if (next != state) {
    state = next;
    ++transitions_[static_cast<std::size_t>(i)];
    if (metrics_ != nullptr) {
      metrics_->Add(std::string("qos.admission.transitions.") + PriorityClassName(c));
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Set(std::string("qos.admission.fill.") + PriorityClassName(c), fill);
  }
}

bool AdmissionController::shedding(PriorityClass c) const {
  // Cascade: shedding a class implies shedding everything below it, so the
  // lowest class is always the first to go regardless of watermark tuning.
  for (int i = 0; i <= static_cast<int>(c); ++i) {
    if (raw_shedding_[static_cast<std::size_t>(i)]) return true;
  }
  return false;
}

bool AdmissionController::Admit(PriorityClass c) {
  const std::size_t i = static_cast<std::size_t>(c);
  if (shedding(c)) {
    // Invariant check: every lower-priority class must be shedding too.
    for (int lower = static_cast<int>(c) + 1; lower < kPriorityClasses; ++lower) {
      if (!shedding(static_cast<PriorityClass>(lower))) ++inversions_;
    }
    ++shed_[i];
    if (metrics_ != nullptr) {
      metrics_->Add(std::string("qos.admission.shed.") + PriorityClassName(c));
    }
    return false;
  }
  ++admitted_[i];
  if (metrics_ != nullptr) {
    metrics_->Add(std::string("qos.admission.admitted.") + PriorityClassName(c));
  }
  return true;
}

std::uint64_t AdmissionController::admitted(PriorityClass c) const {
  return admitted_[static_cast<std::size_t>(c)];
}

std::uint64_t AdmissionController::shed(PriorityClass c) const {
  return shed_[static_cast<std::size_t>(c)];
}

std::uint64_t AdmissionController::transitions(PriorityClass c) const {
  return transitions_[static_cast<std::size_t>(c)];
}

}  // namespace arbd::qos
