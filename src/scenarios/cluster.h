// Cluster soak harness: one driver for the three cluster experiments.
// A modeled multi-broker cluster runs a fleet-shaped workload (diurnal
// volume curve, Zipf users and POI hotspots) produced through a
// rerouting ClusterProducer and consumed by a generation-fenced consumer
// group whose members are homed on brokers (a broker kill evicts its
// member mid-flight; the restore rejoins it). Fault profiles stack on the
// one config:
//   - E24 fail-stop: a rolling-kill schedule (every broker killed once,
//     staggered), an optional seeded netsplit, injected killbroker /
//     netsplit faults;
//   - E26 autoscaling: the controller-driven split/merge autoscaler, with
//     the hottest live partition's per-turn ingest sampled before and
//     after the first split;
//   - E27 gray failures: a slow-broker arm, a lossy-link arm and a single
//     kill, hedged overlay reads, health-driven demotion, and a per-turn
//     frame budget (each turn is one AR frame; a frame whose budget
//     survives its produce chunk and overlay reads is a deadline hit).
//
// The robustness contract audited after the storm:
//   - zero committed loss: every acknowledged record is in the committed
//     log (identity = its unique event time);
//   - zero duplicate delivery: a record counts as delivered only when a
//     *successful* commit covers it — fenced and stale-generation commits
//     discard the member's in-flight polls (the records are redelivered
//     by the surviving owners from the committed offsets), so nothing is
//     ever counted twice and nothing committed goes missing;
//   - controller consistency: replaying the metadata log through a fresh
//     state machine lands on the live routing table's digest;
//   - determinism: the committed digest is a pure function of
//     (config, seeds) — and with a generous retry budget it is identical
//     across broker counts, because placement only moves replica slots,
//     never the record -> partition routing. Hedged reads and health
//     demotion never perturb it either.
//
// Shared by bench_cluster (E24), bench_autoscale (E26), bench_brownout
// (E27) and the stacked-profile soak suite.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "cluster/cluster.h"
#include "cluster/hedge.h"
#include "offload/fleet.h"

namespace arbd::scenarios {

struct ClusterSoakConfig {
  std::uint32_t brokers = 4;
  std::uint32_t partitions = 8;
  std::uint32_t replication_factor = 3;  // clamped to `brokers` at placement
  std::uint32_t consumers = 4;           // group members, homed on broker i % brokers

  // Fleet-shaped workload (diurnal + Zipf hotspots, optional flash-crowd
  // surge); records are keyed by POI so hot partitions emerge naturally.
  // Event times are strictly increasing — each record's unique identity
  // for the loss/dup audit.
  offload::FleetLoadConfig fleet{.users = 5000,
                                 .hotspots = 64,
                                 .ticks = 24,
                                 .peak_events_per_tick = 120,
                                 .seed = 7};

  // Rolling-kill schedule: broker k dies at cluster tick
  // `kill_start_tick + k * kill_spacing_ticks` with restore window
  // `restore_ticks`. restore_ticks > kill_spacing_ticks overlaps the
  // outages (several brokers down at once) — the availability-vs-broker-
  // count experiment's regime.
  bool rolling_kill = true;
  std::uint64_t kill_start_tick = 2;
  std::uint64_t kill_spacing_ticks = 4;
  std::uint64_t restore_ticks = 6;

  // Turn (produce-poll-commit round) at which a seeded netsplit isolates
  // a minority of brokers; 0 = no split. Heals after `netsplit_heal_ticks`.
  std::size_t netsplit_at_turn = 0;
  std::uint64_t netsplit_heal_ticks = 6;

  // Gray-failure schedule. At cluster tick `slow_at_tick` broker
  // `slow_broker` is browned out to `slow_factor`× base latency for
  // `slow_ticks`; 0 disables the arm. Likewise for the lossy link, and
  // for a single fail-stop kill of `kill_broker` (restore window
  // `restore_ticks`) — the brownout+kill overlap.
  std::uint64_t slow_at_tick = 0;
  cluster::BrokerId slow_broker = 0;
  double slow_factor = 8.0;
  std::uint64_t slow_ticks = 24;
  std::uint64_t lossy_at_tick = 0;
  cluster::BrokerId lossy_broker = 0;
  double lossy_drop_p = 0.35;
  std::uint64_t lossy_ticks = 8;
  std::uint64_t kill_at_tick = 0;
  cluster::BrokerId kill_broker = 1;

  // Optional FaultPlan spec (plan.h grammar) fired on every cluster tick:
  // `killbroker`/`slowbroker` at cluster.broker, `netsplit`/`lossylink`
  // at cluster.link, `autosplit`/`automerge` at cluster.autoscale (armed
  // autoscaler only). Empty = only the explicit schedules above.
  std::string fault_spec;
  std::uint64_t fault_seed = 1;

  // Partition autoscaler; enabled=false = the fixed partition count.
  cluster::AutoscaleConfig autoscale;
  // Gray-failure machinery under test.
  cluster::HedgeConfig hedge;    // enabled=false = primary-only overlay reads
  cluster::HealthConfig health;  // enabled=false = no demotion verdicts
  // Per-turn frame budget charged by produce retries and overlay reads;
  // Zero = unlimited (every frame hits, the passthrough baseline).
  Duration frame_budget = Duration::Zero();
  // Rows each per-partition overlay read asks for; 0 = no overlay reads.
  std::size_t read_batch = 0;

  std::size_t produce_chunk = 16;  // records produced per turn
  // Producer retry budget per record (total attempts). Each retry ticks
  // cluster time, so budgets comfortably above restore_ticks make runs
  // lossless; starved budgets turn outages into the availability
  // measurement instead.
  std::size_t producer_attempts = 32;
  std::uint64_t seed = 1;
};

struct ClusterSoakReport {
  // Frame accounting: one frame per turn; a hit = the frame's deadline
  // budget survived its produce chunk and overlay reads.
  std::uint64_t frames = 0;
  std::uint64_t frame_hits = 0;
  double frame_hit_rate = 0.0;

  // Producer side.
  std::uint64_t offered = 0;
  std::uint64_t acked = 0;   // acknowledged (possibly after rerouted retries)
  std::uint64_t denied = 0;  // exhausted the retry budget
  std::uint64_t deadline_misses = 0;    // sends stopped by the frame budget
  std::uint64_t producer_retries = 0;
  std::uint64_t producer_rerouted = 0;  // retries that followed a leader move
  std::uint64_t producer_handoffs = 0;  // sends rerouted off a sealed partition
  double availability = 0.0;            // acked / offered

  // Overlay-read side (modeled winner cost per read).
  std::uint64_t reads = 0;
  std::uint64_t read_rows = 0;
  std::uint64_t read_errors = 0;
  std::int64_t read_p50_ns = 0;
  std::int64_t read_p99_ns = 0;
  // Reads issued after the first health-driven demotion: the p99 here is
  // what the E27 gate compares against a health-off run's overall p99 —
  // demotion drains the browned-out leaderships, so post-demotion reads
  // should be near base latency again.
  std::uint64_t post_demotion_reads = 0;
  std::int64_t post_demotion_p99_ns = 0;
  cluster::HedgedReader::Stats hedge;

  // Committed-log audit (identity = unique event time per record).
  std::uint64_t committed_records = 0;
  std::uint64_t committed_loss = 0;   // acked identities missing (must be 0)
  std::uint64_t log_duplicates = 0;   // identities stored twice (must be 0)
  std::uint64_t committed_digest = 0; // CommittedTopicDigest over the topic

  // Consumer-group delivery audit.
  std::uint64_t delivered = 0;            // records covered by successful commits
  std::uint64_t delivered_duplicates = 0; // identities delivered twice (must be 0)
  std::uint64_t delivery_gaps = 0;        // committed but never delivered (must be 0)
  std::uint64_t fenced_commits = 0;       // stale/zombie commits rejected
  std::uint64_t rebalances = 0;
  std::uint64_t generation = 0;
  std::uint64_t evictions = 0;  // member fencings driven by broker kills
  std::uint64_t rejoins = 0;

  // Cluster + controller (stats carries kills, splits / merges,
  // demotions / recoveries, slow and lossy arms, lossy drops).
  cluster::ClusterStats cluster;
  std::uint64_t controller_events = 0;
  std::uint64_t controller_state_digest = 0;
  std::uint64_t controller_replay_digest = 0;
  bool controller_consistent = false;  // replay digest == live digest

  // Netsplit observability (netsplit_at_turn > 0 runs only).
  bool minority_fenced = false;        // a minority side was observed isolated
  std::uint64_t acked_during_split = 0;  // majority kept committing (> 0)

  // Autoscaler outcome.
  std::uint32_t final_partitions = 0;  // total ever created (incl. sealed)
  std::uint32_t live_leaves = 0;       // partitions currently routable
  // Hot-partition pressure: per-turn max ingest across live leaves,
  // p99 over the turns before the first split vs the turns after the
  // last one. (Both are over the whole run when no split fires.)
  double hot_p99_before = 0.0;
  double hot_p99_after = 0.0;

  bool wedged = false;  // turn cap hit before the group drained

  bool AuditClean() const {
    return committed_loss == 0 && log_duplicates == 0 &&
           delivered_duplicates == 0 && delivery_gaps == 0 &&
           controller_consistent && !wedged;
  }
};

Expected<ClusterSoakReport> RunClusterSoak(const ClusterSoakConfig& cfg);

}  // namespace arbd::scenarios
