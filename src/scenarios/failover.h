// Failover soak harness (E22): drives the full exactly-once stack —
// IdempotentProducer -> replicated Broker partitions -> ConsumerGroup ->
// CheckpointedJob with a transactional sink — while replica leaders are
// killed mid-produce (injected `nodecrash` faults) and mid-run by an
// explicit seeded kill schedule. The robustness contract it audits:
//
//   - zero committed loss: every acknowledged record is in the committed
//     log (identity = its unique event time);
//   - zero duplicates: no identity appears twice in the log, and no
//     window result reaches the transactional sink twice;
//   - determinism: the committed digest, high-watermark histories, and
//     fired-fault log are pure functions of (config, seeds) — and with a
//     generous producer retry budget the committed digest is identical
//     across replication factors and crash schedules, because every
//     record eventually commits in producer order.
//
// Shared by bench_replication (E22 gates), the replication determinism
// suite, and the 100-seed failover soak tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/injector.h"
#include "scenarios/chaos.h"
#include "stream/recovery.h"
#include "stream/replication.h"

namespace arbd::scenarios {

struct FailoverConfig {
  std::size_t records = 2000;
  std::uint32_t partitions = 2;
  std::uint32_t replication_factor = 3;
  std::size_t checkpoint_every = 16;
  std::size_t batch = 32;          // records pumped per job iteration
  std::size_t produce_chunk = 16;  // records produced between pumps
  // FaultPlan spec (plan.h grammar) — `nodecrash@p=..,x=..` kills the
  // partition leader mid-produce; crash/ckptfail/etc. hit the job as in
  // the chaos soak. Empty = fault-free baseline.
  std::string fault_spec;
  std::uint64_t seed = 1;        // workload (keys, values, event times)
  std::uint64_t fault_seed = 1;  // injected faults + explicit kill schedule
  // Producer retry budget per record (total attempts). Must exceed the
  // crash restore window for lossless runs; small values turn denials
  // into the availability measurement instead.
  std::size_t producer_attempts = 40;
  // Explicit kill schedule: before each pump, with this probability crash
  // the leader of a seeded-random partition (the "mid-checkpoint" kill —
  // the job is between checkpoints whenever it fires).
  double kill_p = 0.0;
  std::size_t kill_restore_ops = 8;  // restore window for explicit kills
};

struct FailoverReport {
  // Producer side.
  std::uint64_t offered = 0;   // records the driver tried to send
  std::uint64_t acked = 0;     // records acknowledged (possibly after retries)
  std::uint64_t denied = 0;    // records that exhausted the retry budget
  std::uint64_t producer_retries = 0;
  double availability = 0.0;   // acked / offered

  // Replication layer (aggregated over partitions).
  stream::ReplicationStats replication;
  // Per-partition (epoch, high-watermark) histories, in advance order.
  std::vector<std::vector<stream::ReplicatedPartition::HwStep>> hw_histories;

  // Committed-log audit (identity = unique event time per record).
  std::uint64_t committed_records = 0;
  std::uint64_t committed_loss = 0;   // acked identities missing (must be 0)
  std::uint64_t log_duplicates = 0;   // identities appearing twice (must be 0)
  std::uint64_t committed_digest = 0; // CommittedTopicDigest over the topic

  // Exactly-once output audit.
  std::uint64_t outputs_delivered = 0;
  std::uint64_t output_duplicates = 0;  // identical window delivered twice (must be 0)
  ChaosResultTable results;             // final windows, for baseline equality

  stream::RecoveryStats job;
  std::vector<fault::FaultEvent> fault_log;
  bool wedged = false;
};

Expected<FailoverReport> RunFailoverSoak(const FailoverConfig& cfg);

}  // namespace arbd::scenarios
