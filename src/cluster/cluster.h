// The modeled multi-broker cluster (ISSUE 7 tentpole). One physical
// stream::Broker remains the storage substrate; this layer models N
// broker *nodes* above it by mapping every partition's replica slots onto
// distinct brokers via consistent-hash placement (placement.h) and
// gating produce/fetch on the reachability of the partition's current
// leader broker (stream::ClusterGate).
//
// Killing a broker crashes every replica slot it hosts, which drains its
// leaderships through the existing epoch/fencing election machinery in
// ReplicatedPartition — no new failover code paths, the cluster only
// decides *which* nodes die together. Every liveness/placement/leadership
// transition is appended to the metadata controller's replicated log
// before taking effect, so the routing table is reconstructible from the
// log alone.
//
// Determinism: cluster time advances only through Tick() (driver-side, or
// from ClusterProducer's backoff loop), and the injected `killbroker` /
// `netsplit` faults as well as victim choice are driven by seeded
// streams. Between ticks the gate's answers are stable, so parallel
// produce fan-outs see a frozen routing table — the digest-equality
// argument across worker counts.
//
// PlatformConfig::cluster_brokers (1..16) sizes the cluster the platform
// builds; 1 (the default) builds no cluster at all — a structural
// passthrough, byte-identical to the pre-cluster platform.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "cluster/controller.h"
#include "cluster/health.h"
#include "cluster/placement.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "stream/log.h"

namespace arbd::cluster {

// Partition autoscaling policy (ISSUE 9). Rates are records appended per
// cluster Tick, observed from end-offset deltas and recorded into the
// controller's load accounting each tick.
struct AutoscaleConfig {
  bool enabled = false;
  // Split the hottest live partition when its per-tick rate reaches this.
  std::uint64_t split_rate_threshold = 256;
  // A partition is "cold" at or below this rate...
  std::uint64_t merge_rate_threshold = 2;
  // ...and a sibling pair merges after both stayed cold this many
  // consecutive ticks.
  std::uint32_t merge_cold_ticks = 8;
  // Hard ceiling on a topic's total partition count (live + sealed);
  // splits stop at it. Merges/splits are also capped per tick so one
  // tick's metadata churn stays bounded.
  std::uint32_t max_partitions = 64;
  std::uint32_t max_actions_per_tick = 1;
};

struct ClusterConfig {
  std::uint32_t brokers = 1;
  std::uint32_t virtual_nodes = 64;  // ring points per broker
  std::uint64_t seed = 0xc1057e7ULL; // ring, elections, victim picks
  // Ticks a killed broker stays down when the kill site does not specify
  // a window, and the default netsplit heal window.
  std::uint64_t default_restore_ticks = 8;
  // Replicas of the controller's metadata log (clamped to the broker
  // count; modeled as a separate controller quorum, so data-broker kills
  // never starve it).
  std::uint32_t metadata_factor = 3;
  AutoscaleConfig autoscale;
  // Modeled service time of one operation on a healthy broker. A browned-
  // out broker (SlowBroker / injected `slowbroker`) serves at this times
  // its slow factor; deadline-aware callers charge OpLatency per attempt.
  Duration base_op_latency = Duration::Micros(200);
  // Health-driven leadership demotion (ISSUE 10). Disabled = no tracker
  // verdicts ever fire and the cluster is byte-identical to before.
  HealthConfig health;
  // Seal target of the controller's metadata log (TopicConfig::segment_bytes).
  std::size_t segment_bytes = stream::DefaultSegmentBytes();
};

struct ClusterStats {
  std::uint64_t kills = 0;
  std::uint64_t restores = 0;
  std::uint64_t netsplits = 0;     // split events (whole-cluster, not per broker)
  std::uint64_t heals = 0;
  std::uint64_t leader_moves = 0;  // routing-table updates after elections
  std::uint64_t produce_denied = 0;
  std::uint64_t fetch_denied = 0;
  std::uint64_t splits = 0;        // partition splits (autoscaler or manual)
  std::uint64_t merges = 0;        // partition merges
  std::uint64_t slow_brownouts = 0;   // slowbroker arms (fault or manual)
  std::uint64_t lossy_brownouts = 0;  // lossylink arms (fault or manual)
  std::uint64_t lossy_drops = 0;      // admitted requests dropped by a lossy link
  std::uint64_t demotions = 0;        // health-driven leadership drains
  std::uint64_t recoveries = 0;       // degraded brokers restored to service
};

class BrokerCluster : public stream::ClusterGate {
 public:
  // Installs itself as `broker`'s cluster gate; detaches in the dtor.
  BrokerCluster(stream::Broker& broker, ClusterConfig cfg);
  ~BrokerCluster() override;

  BrokerCluster(const BrokerCluster&) = delete;
  BrokerCluster& operator=(const BrokerCluster&) = delete;

  // Create a topic with cluster placement: the replication factor
  // (explicit, or the process default when 0) is clamped to the live broker
  // count with a logged warning, every partition's replica slots land on
  // distinct brokers, and the placement is committed to the metadata log.
  Status CreateTopic(const std::string& name, stream::TopicConfig cfg);

  // Kill a modeled broker: every replica slot it hosts crashes, its
  // leaderships drain to surviving brokers (deterministic elections), and
  // the routing table + metadata log record the transitions.
  // `restore_ticks` 0 uses the config default; the broker restarts that
  // many Tick()s later (its slots rejoin and catch up, leadership stays
  // where it drained to).
  Status KillBroker(BrokerId broker, std::uint64_t restore_ticks = 0);
  Status RestoreBroker(BrokerId broker);

  // Seeded link partition: a minority subset of live brokers is isolated
  // (their slots fence — any stale leader among them is deposed by
  // election) while the majority keeps committing. Heals `heal_ticks`
  // ticks later (config default when 0).
  Status NetSplit(std::uint64_t heal_ticks = 0);
  Status Heal();

  // --- gray failures (ISSUE 10) ---
  // Brown a broker out: it stays up and keeps serving, but every
  // operation costs `factor` times the base latency for `ticks` cluster
  // ticks (config default when 0). Arming is a fault, not a metadata
  // event — routing is unchanged, only modeled latency moves.
  Status SlowBroker(BrokerId broker, double factor, std::uint64_t ticks = 0);
  // Make a broker's link lossy: each admitted produce/fetch/query against
  // it is dropped with probability `drop_p` (retriable Unavailable, not
  // fail-stop) for `ticks` cluster ticks. Drops are a pure seeded hash of
  // (seed, broker, epoch, tick, request id): frozen within a tick — so
  // parallel fan-outs agree — and re-drawn across ticks, so retries that
  // tick the cluster make progress.
  Status LossyLink(BrokerId broker, double drop_p, std::uint64_t ticks = 0);
  // Modeled service time of one op on `broker` right now (base latency
  // times its slow factor; Duration::Max() if the id is out of range).
  Duration OpLatency(BrokerId broker) const;
  // Current health verdict (always false with health disabled).
  bool BrokerDegraded(BrokerId broker) const;
  HealthTracker& health() { return health_; }
  const HealthTracker& health() const { return health_; }

  // Advance cluster time one step: due restores/heals and expired
  // brownouts clear first, then the fault injector (if set) gets one
  // `killbroker` + `slowbroker` draw at cluster.broker and one `netsplit`
  // + `lossylink` draw at cluster.link, then the health pass folds the
  // tracker and drains leaderships off degraded brokers (when enabled),
  // then the autoscaler runs (when enabled).
  void Tick();

  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  bool BrokerUp(BrokerId broker) const;
  std::vector<BrokerId> MinoritySide() const;
  std::uint32_t brokers() const { return cfg_.brokers; }
  std::uint64_t now_tick() const { return tick_.load(std::memory_order_relaxed); }

  // Current leader broker of a partition (follows elections, unlike the
  // static placement). Unavailable while the partition is leaderless.
  Expected<BrokerId> LeaderBroker(const std::string& topic, stream::PartitionId p) const;
  Expected<const TopicPlacement*> Placement(const std::string& topic) const;

  // --- partition autoscaling (ISSUE 9) ---
  // Split a live partition into two placed children: the split event is
  // appended to the metadata log FIRST (if the metadata quorum is gone
  // the split does not happen), then the parent's replica group seals at
  // its committed end offset, its active rows seal into an immutable
  // segment, two fresh partitions inherit its dedup table, and the
  // key-range router sends the parent's key range to them by the next
  // refinement bit. Exposed publicly for tests/scenarios; the autoscaler
  // calls it from Tick when a rate threshold trips.
  Status SplitPartition(const std::string& topic, stream::PartitionId parent);
  // Inverse transition: seal two cold sibling leaves and route their
  // combined key range to one fresh placed partition (seeded with both
  // dedup tables).
  Status MergePartitions(const std::string& topic, stream::PartitionId a,
                         stream::PartitionId b);

  // Route a record key to its live partition. Identity with
  // Topic::PartitionFor — including the empty-key round-robin draw —
  // until the topic's first split creates a router; after that, keyed
  // records follow the key-range trie and empty keys round-robin over the
  // live leaves.
  Expected<stream::PartitionId> RoutePartition(const std::string& topic,
                                               const std::string& key);
  bool HasRouter(const std::string& topic) const;
  // Whether `p` is sealed for split/merge handoff (a retired parent or
  // merged child). ClusterProducer uses this to tell the split fence
  // apart from other kFailedPrecondition rejections.
  bool IsSealed(const std::string& topic, stream::PartitionId p) const;
  // Live (routable) partitions, ascending; all partitions when no router.
  std::vector<stream::PartitionId> LiveLeaves(const std::string& topic) const;
  // Highest committed (pid, seq) floor on partition `p` — what a producer
  // first touching a split/merge child must start its sequence above,
  // because the child inherited its ancestors' dedup table.
  std::uint64_t DedupFloor(const std::string& topic, stream::PartitionId p,
                           stream::ProducerId pid) const;

  MetadataController& controller() { return controller_; }
  const MetadataController& controller() const { return controller_; }
  ClusterStats stats() const;

  // stream::ClusterGate — consulted by the broker before fault draws: the
  // leader broker's reachability, then — only while a lossy brownout is
  // armed on it — the seeded per-request drop.
  Status AdmitProduceRequest(const std::string& topic, stream::PartitionId partition,
                             std::uint64_t request_id) override;
  Status AdmitFetchRequest(const std::string& topic, stream::PartitionId partition,
                           std::uint64_t request_id) override;
  // Modeled per-op cost of the partition's current leader broker (zero
  // when the topic is not cluster-managed or leaderless — the admission
  // rejection carries the cost story there).
  Duration OpCost(const std::string& topic, stream::PartitionId partition) override;

 private:
  struct Node {
    bool up = true;
    bool split = false;            // isolated minority side
    std::uint64_t restore_at = 0;  // tick to auto-restart at (0 = manual)
    std::uint64_t epoch = 1;       // liveness epoch
    // Gray-failure state (ISSUE 10). slow_factor inflates OpLatency while
    // now_tick() < slow_until; drop_p drops admitted requests while
    // now_tick() < lossy_until. lossy_epoch salts the drop hash so two
    // brownout windows on one broker draw independent schedules.
    double slow_factor = 1.0;
    std::uint64_t slow_until = 0;
    double drop_p = 0.0;
    std::uint64_t lossy_until = 0;
    std::uint64_t lossy_epoch = 0;
    // Health demotion: true while the controller holds a kBrokerDegraded
    // verdict for this broker (leaderships drained off it each tick).
    bool degraded = false;
  };

  // All *Locked members require mu_ held exclusively.
  Status KillBrokerLocked(BrokerId broker, std::uint64_t restore_ticks);
  Status RestoreBrokerLocked(BrokerId broker);
  Status NetSplitLocked(std::uint64_t heal_ticks);
  Status HealLocked();
  // Crash/restore every replica slot `broker` hosts.
  void CrashSlotsLocked(BrokerId broker);
  void RestoreSlotsLocked(BrokerId broker);
  // Re-read every partition's leader slot and record moves in the routing
  // table + metadata log.
  void RefreshRoutesLocked();
  Status AdmitLocked(const std::string& topic, stream::PartitionId partition) const;
  Status SplitPartitionLocked(const std::string& topic, stream::PartitionId parent);
  Status MergePartitionsLocked(const std::string& topic, stream::PartitionId a,
                               stream::PartitionId b);
  // The per-tick autoscale pass: refresh load accounting for every live
  // leaf from end-offset deltas (plus the qos byte gauges when exported),
  // then split the hottest leaf over the rate threshold and merge any
  // sibling pair cold long enough — bounded by max_actions_per_tick. The
  // injected `autosplit`/`automerge` chaos kinds force the corresponding
  // action regardless of thresholds.
  void AutoscaleTickLocked();
  std::vector<stream::PartitionId> LiveLeavesLocked(const std::string& topic) const;
  // Gray-failure plumbing. ArmSlow/ArmLossy implement SlowBroker/LossyLink
  // under the lock; ExpireBrownoutsLocked clears windows that ran out.
  Status ArmSlowLocked(BrokerId broker, double factor, std::uint64_t ticks);
  Status ArmLossyLocked(BrokerId broker, double drop_p, std::uint64_t ticks);
  void ExpireBrownoutsLocked(std::uint64_t now);
  // Health fold + demotion pass: fold the tracker's per-tick aggregates,
  // append kBrokerDegraded/kBrokerRecovered transitions (metadata first),
  // and drain leaderships off every currently-degraded broker through the
  // existing epoch/fencing elections (CrashNode + RestoreNode per slot).
  void HealthTickLocked();
  void DrainLeadershipsLocked(BrokerId broker);
  // The lossy-link drop verdict for an admitted request (pure hash).
  bool LossyDropLocked(const Node& node, BrokerId broker,
                       std::uint64_t request_id) const;
  // The node currently leading a cluster-managed partition, or nullptr
  // when the topic is unmanaged or the partition leaderless (mu_ held).
  const Node* LeaderNodeLocked(const std::string& topic,
                               stream::PartitionId partition, BrokerId* broker) const;

  stream::Broker& broker_;
  ClusterConfig cfg_;
  HashRing ring_;
  MetadataController controller_;
  Rng rng_;  // victim / minority-side picks (consumed only on injected faults)
  HealthTracker health_;
  fault::FaultInjector* fault_ = nullptr;

  mutable std::shared_mutex mu_;
  std::vector<Node> nodes_;
  std::map<std::string, TopicPlacement> placements_;
  // Live mirror of the controller's key-range routers (same transitions,
  // applied in the same order; ControllerState holds the replayable copy).
  // Empty until a topic's first split.
  std::map<std::string, TopicRouter> routers_;
  // Per topic: each partition's end offset at the last autoscale pass,
  // for per-tick rate deltas.
  std::map<std::string, std::vector<stream::Offset>> last_end_;
  std::uint64_t split_heal_at_ = 0;  // 0 = no active split
  std::atomic<std::uint64_t> tick_{0};

  ClusterStats stats_;  // guarded by mu_ (denials via the atomics below)
  mutable std::atomic<std::uint64_t> produce_denied_{0};
  mutable std::atomic<std::uint64_t> fetch_denied_{0};
  mutable std::atomic<std::uint64_t> lossy_drops_{0};
};

// Cluster-routed idempotent producer: stable (pid, seq) dedup plus
// RetryPolicy-backed rerouting. A send that hits an unreachable or
// leaderless partition backs off (modeled time), ticks the cluster — the
// passage of time during which kill windows expire and elections settle —
// and retries; `rerouted` counts sends whose leader broker moved between
// attempts, i.e. retries that actually followed the routing table to a
// different broker.
class ClusterProducer {
 public:
  ClusterProducer(BrokerCluster& cluster, stream::Broker& broker, std::string topic,
                  fault::RetryPolicy retry = {}, std::uint64_t jitter_seed = 0xc10dULL);

  // Send with an optional deadline budget (ISSUE 10): each attempt
  // charges the leader broker's modeled OpLatency, each backoff charges
  // (and is clamped to) the remaining budget, and once the budget is gone
  // the send short-circuits with kDeadlineExceeded instead of retrying
  // past the frame. Null deadline = the original unbounded behaviour,
  // byte for byte. Every attempt also feeds the cluster's HealthTracker
  // (pure accounting; affects nothing until health is enabled).
  Expected<std::pair<stream::PartitionId, stream::Offset>> Send(
      stream::Record record, Deadline* deadline = nullptr);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t rerouted() const { return rerouted_; }
  std::uint64_t exhausted() const { return exhausted_; }
  // Sends abandoned because the deadline budget ran out mid-retry.
  std::uint64_t deadline_exhausted() const { return deadline_exhausted_; }
  // In-flight sends that followed a split/merge to a different partition
  // (either the target sealed under them, or a tick during backoff moved
  // the route). Each carried its (pid, seq) across, so the handoff is
  // dedup-safe end to end.
  std::uint64_t handoffs() const { return handoffs_; }
  Duration total_backoff() const { return total_backoff_; }

 private:
  // ++next_seq_[p], seeding a first-touched partition's counter above the
  // broker-side dedup floor (nonzero only for split/merge children, which
  // inherit their ancestors' committed (pid, seq) table).
  std::uint64_t NextSeqFor(stream::PartitionId p);

  BrokerCluster& cluster_;
  stream::Broker& broker_;
  std::string topic_;
  fault::RetryPolicy retry_;
  Rng rng_;
  stream::ProducerId pid_;
  std::map<stream::PartitionId, std::uint64_t> next_seq_;
  std::uint64_t sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t rerouted_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t deadline_exhausted_ = 0;
  Duration total_backoff_ = Duration::Zero();
};

// Cluster-routed historical reads (ISSUE 9 satellite). The broker's query
// tier is gate-admitted: while a partition's leader broker is down or
// fenced, Broker::QueryRange/QueryTime/OffsetForTimestamp return the
// AdmitFetchRequest rejection directly — and before this helper existed, callers
// had no reroute-and-retry, so a killbroker mid-replay failed the whole
// replay even though the data was one election away. ClusterQuery wraps
// the three query entry points in the same backoff-and-Tick retry loop
// ClusterProducer uses for produce: backoff is modeled time, each Tick
// counts kill/heal windows down and settles elections, and the retry is
// admitted once a leader broker is reachable again. Queries consume no
// fault-injector randomness, so wrapping them never shifts a schedule.
class ClusterQuery {
 public:
  ClusterQuery(BrokerCluster& cluster, stream::Broker& broker, std::string topic,
               fault::RetryPolicy retry = {}, std::uint64_t jitter_seed = 0x9e7ULL);

  // Each entry point takes an optional deadline budget (ISSUE 10): every
  // attempt charges the leader's modeled OpLatency, backoffs clamp to the
  // remaining budget, and an exhausted budget short-circuits with
  // kDeadlineExceeded. Null = the original unbounded retry loop.
  Expected<stream::QueryResult> QueryRange(stream::PartitionId p, stream::Offset lo,
                                           stream::Offset hi,
                                           Deadline* deadline = nullptr);
  Expected<stream::QueryResult> QueryTime(stream::PartitionId p, TimePoint t_lo,
                                          TimePoint t_hi, Deadline* deadline = nullptr);
  Expected<stream::Offset> OffsetForTimestamp(stream::PartitionId p, TimePoint t,
                                              Deadline* deadline = nullptr);

  std::uint64_t retries() const { return retries_; }
  std::uint64_t exhausted() const { return exhausted_; }
  std::uint64_t deadline_exhausted() const { return deadline_exhausted_; }
  Duration total_backoff() const { return total_backoff_; }

 private:
  template <typename T>
  Expected<T> WithRetry(stream::PartitionId p,
                        const std::function<Expected<T>()>& attempt,
                        Deadline* deadline);

  BrokerCluster& cluster_;
  stream::Broker& broker_;
  std::string topic_;
  fault::RetryPolicy retry_;
  Rng rng_;
  std::uint64_t retries_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t deadline_exhausted_ = 0;
  Duration total_backoff_ = Duration::Zero();
};

}  // namespace arbd::cluster
