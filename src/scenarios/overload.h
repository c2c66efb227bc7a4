// Overload soak harness (E19): drives an open-loop, priority-mixed record
// workload through the broker at a configurable multiple of service
// capacity and measures what the QoS stack buys. With QoS on, each
// priority class gets a budgeted topic, admission sheds lowest-class-first
// under queue pressure, and a degradation ladder cheapens service under
// sustained SLO violation; with QoS off, one unbounded FIFO queue absorbs
// everything and latency diverges with offered load — the contrast the
// paper's §4.1 timeliness argument predicts.
//
// Deterministic: simulated time, Poisson arrivals from a seeded Rng, and
// stall faults from a seeded FaultInjector plan, so a (config, seed) pair
// replays bit-for-bit. Shared by bench_overload and the chaos-overload
// property tests.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "fault/injector.h"
#include "qos/admission.h"
#include "qos/degradation.h"

namespace arbd::scenarios {

struct OverloadConfig {
  // Offered load as a multiple of level-0 service capacity (1.0 = arrivals
  // match what the server can drain; 4.0 = sustained 4× saturation).
  double load = 1.0;
  double capacity_per_s = 4000.0;  // records served per second at level 0
  Duration duration = Duration::Seconds(3);
  Duration tick = Duration::Millis(1);

  // QoS on: per-class budgeted topics + admission + degradation ladder.
  // QoS off: one unbudgeted FIFO topic, everything admitted.
  bool qos = true;
  std::size_t class_budget_records = 64;  // per-class topic budget (QoS mode)

  // Arrival mix by priority class (frame, interactive, background);
  // normalized internally. Frame-critical work is deliberately the
  // minority share — the tracker produces a bounded stream, the analytics
  // firehose is what scales with users.
  std::array<double, qos::kPriorityClasses> mix = {0.1, 0.3, 0.6};

  qos::AdmissionConfig admission;
  // SLO for violation counting + degradation. 10ms (not the 33ms frame
  // budget): the ladder watches *queue* latency, which must stay well
  // under the frame budget for frame-relevant results to land in time.
  qos::LadderConfig ladder{.slo = Duration::Millis(10)};

  // FaultPlan spec; `stall@ms=…,p=…` pauses service (the injection point
  // is service.tick). Empty = fault-free.
  std::string fault_spec;
  std::uint64_t seed = 1;
};

struct OverloadClassStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;   // passed admission AND the broker budget
  std::uint64_t shed = 0;       // admission controller said no
  std::uint64_t rejected = 0;   // broker backpressure (budget backstop)
  std::uint64_t processed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct OverloadReport {
  std::array<OverloadClassStats, qos::kPriorityClasses> classes;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t processed = 0;
  // Admitted records never served by the end of the drain (must be 0
  // unless the wedge guard tripped).
  std::uint64_t lost = 0;
  // Processed / sim-seconds of the loaded phase: the sustained service
  // rate. Under overload a healthy server holds this at capacity.
  double goodput_per_s = 0.0;
  double aggregate_p50_ms = 0.0;
  double aggregate_p99_ms = 0.0;
  // Ticks on which service latency exceeded cfg.ladder.slo.
  std::uint64_t slo_violations = 0;
  std::size_t max_queue_depth = 0;   // max total retained records, any tick
  // Ticks on which a budgeted topic held more than its budget (the broker
  // backstop makes this structurally 0; asserted by tests and the bench).
  std::uint64_t budget_violations = 0;
  std::uint64_t backpressure_rejects = 0;
  std::uint64_t priority_inversions = 0;
  int max_degradation_level = 0;
  std::uint64_t step_downs = 0;
  std::uint64_t step_ups = 0;
  std::uint64_t fault_events = 0;
  std::vector<fault::FaultEvent> fault_log;
  bool wedged = false;
  MetricRegistry metrics;  // qos.* exports from every layer
};

// Run a single constant-load soak: `duration` of offered load, then drain.
Expected<OverloadReport> RunOverloadSoak(const OverloadConfig& cfg);

// Piecewise-constant load profile for spike/recovery experiments. Each
// phase reuses `base` with its own load and duration; per-phase stats
// attribute each record to the phase during which it was *served*, so a
// recovery phase inherits the spike's backlog — exactly the effect the
// post-spike recovery check measures.
struct OverloadPhase {
  double load = 1.0;
  Duration duration = Duration::Seconds(1);
};

struct OverloadPhaseStats {
  double load = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  double goodput_per_s = 0.0;
  double p99_ms = 0.0;  // frame-critical class in QoS mode, aggregate otherwise
};

struct OverloadSpikeReport {
  std::vector<OverloadPhaseStats> phases;
  OverloadReport overall;
};

Expected<OverloadSpikeReport> RunOverloadSpike(const OverloadConfig& base,
                                               const std::vector<OverloadPhase>& phases);

}  // namespace arbd::scenarios
