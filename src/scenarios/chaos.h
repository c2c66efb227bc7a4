// Chaos soak harness: streams a scenario-flavored event workload through
// the full durability stack (Broker -> ConsumerGroup -> CheckpointedJob ->
// windowed Pipeline) with a FaultPlan injected at every layer, and checks
// the §4.1 robustness contract — committed results must match a fault-free
// run exactly, with degradation showing up as replay/retry overhead, never
// as lost records. Shared by bench_chaos and the soak property tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/status.h"
#include "fault/injector.h"
#include "stream/recovery.h"

namespace arbd::scenarios {

// Which scenario's event stream feeds the soak: retail purchase events
// (Zipf-skewed product keys, §3.1) or emergency IoT detections (uniform
// grid-cell keys, §3.4).
enum class ChaosWorkload { kRetail, kEmergency };

struct ChaosConfig {
  ChaosWorkload workload = ChaosWorkload::kRetail;
  std::size_t records = 4000;
  std::uint32_t partitions = 2;
  std::size_t checkpoint_every = 16;
  std::size_t batch = 32;
  // FaultPlan spec (plan.h grammar); empty = fault-free baseline run.
  std::string fault_spec;
  // Seeds both the workload generator and the fault schedule, so a failing
  // (spec, seed) pair replays bit-for-bit.
  std::uint64_t seed = 1;
};

// Final committed window results: "key|window_start_ms" -> (value, count).
// Keyed (not appended) because at-least-once recovery may legitimately
// re-emit a window with identical contents; upserts make that idempotent.
using ChaosResultTable =
    std::map<std::string, std::pair<double, std::uint64_t>>;

struct ChaosReport {
  stream::RecoveryStats stats;
  ChaosResultTable results;
  std::uint64_t fault_events = 0;     // total injected across all layers
  std::uint64_t fault_opportunities = 0;
  // The full fired-fault schedule, for reproducibility checks: identical
  // (spec, seed) pairs must yield identical logs.
  std::vector<fault::FaultEvent> fault_log;
  bool wedged = false;                // pump-iteration guard tripped
  // Unique records committed / total pushes (replays included): 1.0 when
  // fault-free, degrading smoothly as replay overhead grows.
  double goodput = 0.0;
  MetricRegistry metrics;             // fault.injected.* / fault.survived.*
};

// Runs the soak to completion (all produced records committed) or until
// the wedge guard trips. Identical (cfg.workload, records, seed) with an
// empty fault_spec gives the baseline the results table must match.
Expected<ChaosReport> RunChaosSoak(const ChaosConfig& cfg);

// Producer-path chaos: a retrying producer pushes `records` uniquely-keyed
// records through a broker injecting torn appends and clean append errors.
// Torn appends duplicate records (at-least-once produce, the lost-ack
// case); the check is that nothing is ever lost.
struct ProducerChaosReport {
  std::uint64_t attempts = 0;    // send calls including retries
  std::uint64_t retries = 0;     // sends retried after an injected error
  std::uint64_t duplicates = 0;  // extra copies appended by torn appends
  std::uint64_t lost = 0;        // produced keys missing from the log (must be 0)
};

Expected<ProducerChaosReport> RunProducerChaos(std::size_t records,
                                               const std::string& fault_spec,
                                               std::uint64_t seed);

}  // namespace arbd::scenarios
