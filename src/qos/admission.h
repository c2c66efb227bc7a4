// Admission control with priority classes — the "shed gracefully, not
// queue unboundedly" half of the paper's timeliness argument (§4.1). Work
// entering the platform is classified by how frame-relevant it is:
// tracker/registration work must land this frame, POI/reco queries are
// interactive, analytics/crowdsource ingest can wait. Under measured queue
// pressure the controller sheds the lowest class first, with hysteresis
// bands so admission does not flap around a watermark.
#pragma once

#include <array>
#include <cstdint>

#include "common/metrics.h"

namespace arbd::qos {

// Ordered by priority: a lower enum value is shed later. The controller
// guarantees that a class is only ever shed while every lower-priority
// class is also shedding (lowest first, structurally).
enum class PriorityClass : int {
  kFrameCritical = 0,  // tracker / registration / frame composition
  kInteractive = 1,    // POI lookups, recommendation queries
  kBackground = 2,     // analytics ingest, crowdsource contributions
};

inline constexpr int kPriorityClasses = 3;

const char* PriorityClassName(PriorityClass c);

// Hysteresis band for one class: start shedding when the measured queue
// fill fraction rises above `shed_at`, resume admitting only once it has
// fallen back below `resume_at`.
struct ClassWatermarks {
  double shed_at = 0.8;
  double resume_at = 0.6;
};

struct AdmissionConfig {
  // Indexed by PriorityClass. Defaults shed background at 60% fill,
  // interactive at 80%, and frame-critical only at 95% — the ordering the
  // shedding cascade (see Admit) additionally enforces at runtime.
  std::array<ClassWatermarks, kPriorityClasses> watermarks{
      ClassWatermarks{0.95, 0.85},
      ClassWatermarks{0.80, 0.60},
      ClassWatermarks{0.60, 0.40},
  };
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg = {},
                               MetricRegistry* metrics = nullptr);

  // Report the measured fill fraction (depth / budget) of the queue that
  // backs class `c`.
  void UpdatePressure(PriorityClass c, double fill);

  // Decide one unit of work. Counts the decision and exports
  // qos.admission.{admitted,shed}.<class> counters.
  bool Admit(PriorityClass c);

  // Effective shed state: a class sheds if its own hysteresis band says so
  // OR any higher-priority class is shedding (so "shed lowest first" holds
  // for any watermark configuration).
  bool shedding(PriorityClass c) const;

  std::uint64_t admitted(PriorityClass c) const;
  std::uint64_t shed(PriorityClass c) const;
  // Times a class entered/left the shedding state (flap measure).
  std::uint64_t transitions(PriorityClass c) const;
  // Decisions where a class was shed while some lower-priority class was
  // admitted. The cascade makes this impossible; the chaos-overload
  // property suite asserts it stays zero.
  std::uint64_t priority_inversions() const { return inversions_; }

  const AdmissionConfig& config() const { return cfg_; }

 private:
  AdmissionConfig cfg_;
  MetricRegistry* metrics_;
  std::array<bool, kPriorityClasses> raw_shedding_{};  // own-band state
  std::array<double, kPriorityClasses> fill_{};
  std::array<std::uint64_t, kPriorityClasses> admitted_{};
  std::array<std::uint64_t, kPriorityClasses> shed_{};
  std::array<std::uint64_t, kPriorityClasses> transitions_{};
  std::uint64_t inversions_ = 0;
};

}  // namespace arbd::qos
