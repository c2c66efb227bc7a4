// Partitioned, append-only message log — the Kafka-shaped substrate the
// paper's "velocity" arguments assume. In-memory (this is a simulation
// substrate) but with the full broker semantics the rest of the platform
// relies on: key-hash partitioning, per-partition monotonically increasing
// offsets, retention by size and by time, and checksummed fetches.
//
// Concurrency model (since the exec refactor): the partition is the unit
// of parallelism. Each Partition carries its own mutex, so Produce/Fetch/
// TruncateBefore on *different* partitions never contend; lightweight
// accessors (size, bytes, offsets, pressure, credit) read relaxed atomic
// mirrors and stay lock-free. The topic map itself is guarded by a
// shared_mutex — lookups take a shared lock, CreateTopic/DeleteTopic an
// exclusive one. DeleteTopic must not race in-flight produce/fetch on the
// topic being deleted (callers quiesce first; the simulation drivers do).
// Budget checks read the lock-free aggregates, so enforcement is exact in
// serial use and best-effort (a handful of records of slack) when many
// workers produce concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "fault/injector.h"
#include "stream/batch.h"
#include "stream/query.h"
#include "stream/record.h"
#include "stream/replication.h"
#include "stream/segment.h"

namespace arbd::stream {

// Admission hook for the modeled multi-broker cluster (src/cluster). When
// installed on a Broker, every produce/fetch asks the gate whether the
// partition's current leader broker is reachable before any fault-injector
// draw — the gate itself consumes no randomness, so installing it never
// perturbs fault schedules, and with no cluster (or a healthy one) every
// call admits and the broker's behaviour is byte-identical.
class ClusterGate {
 public:
  virtual ~ClusterGate() = default;
  // Ok to admit; kUnavailable when the partition's leader broker is down
  // or on the fenced minority side of a network split. `request_id` is a
  // stable hash of the request's content, which lets a lossy-link gate
  // drop individual requests by pure seeded hash — no RNG stream, so the
  // decision is independent of worker interleaving.
  virtual Status AdmitProduceRequest(const std::string& topic, PartitionId partition,
                                     std::uint64_t request_id) = 0;
  virtual Status AdmitFetchRequest(const std::string& topic, PartitionId partition,
                                   std::uint64_t request_id) = 0;

  // Modeled cost of one admitted operation against this partition's
  // leader broker — what deadline-aware callers charge their budget per
  // produce/fetch/query. Zero by default (and for non-cluster gates), so
  // deadline accounting is a no-op unless the cluster models latency.
  virtual Duration OpCost(const std::string& topic, PartitionId partition) {
    (void)topic;
    (void)partition;
    return Duration::Zero();
  }
};

struct TopicConfig {
  std::uint32_t partitions = 1;
  // Retention: records older than this (by ingest time) or beyond this
  // count per partition are eligible for truncation. Zero disables.
  Duration retention_time = Duration::Zero();
  std::size_t retention_records = 0;
  // QoS budgets across the whole topic (zero disables): once the topic
  // holds this many records / payload+key bytes, Produce is rejected with
  // kResourceExhausted instead of growing the queue unboundedly. Producers
  // read the remaining headroom through Broker::Credit (credit-based
  // backpressure) rather than probing for rejections.
  std::size_t max_records = 0;
  std::size_t max_bytes = 0;
  // Replica nodes per partition (stream/replication.h). 0 defers to
  // RuntimeConfig::replicas of the process (default 1, the single-copy
  // behaviour every pre-replication caller gets unchanged). Explicit
  // values are clamped to [1, 8] with a logged warning, matching the env
  // path; the cluster layer additionally clamps to its live broker count
  // at placement time (src/cluster/placement.h).
  std::uint32_t replication_factor = 0;
  // Seeds the deterministic leader elections; mixed with the partition id
  // so sibling partitions fail over independently.
  std::uint64_t replication_seed = 0x5eedULL;
  // Seal target in key+payload bytes (stream/segment.h); 0 keeps every
  // partition the flat single-batch store. Each partition captures it when
  // it is built, so autoscale split and merge children inherit it.
  std::size_t segment_bytes = DefaultSegmentBytes();
};

// One partition of a topic. Offsets are dense: the first retained record
// sits at `log_start_offset`, the next append goes to `end_offset`.
// All mutating/reading operations on the record store are serialized by
// the partition mutex; the offset/size/byte accessors read atomic mirrors
// and may be called from any thread without locking.
//
// Storage is a segmented log (ISSUE 8): an active head RecordBatch that
// appends go to, plus a run of sealed immutable Segments
// (stream/segment.h), each carrying sparse offset/time indexes. The
// active batch keeps the dropped-prefix cursor of the flat store
// (truncation advances `active_head_` in O(1) per record, rebuilt once
// the dead prefix outweighs the live rows), while sealed segments drop
// whole in O(1) when retention/truncation passes their end — the tiered
// "segment drop" path. Sealing is gated by the seal target the partition
// is built with (TopicConfig::segment_bytes): at 0 the partition never
// seals and is the flat single-batch store, byte-for-byte.
//
// Invariants (with mu_ held): sealed segments are contiguous and
// adjacent (seg[i].end == seg[i+1].base); if any exist,
// sealed_.back()->end_offset() == active_base_ and active_head_ == 0
// (a dead prefix can only accumulate in the active batch once every
// sealed segment is gone); start_offset_ points into the front segment
// (rows below it are dead, their bytes in front_dead_bytes_) or equals
// active_base_ when none exist.
class Partition {
 public:
  explicit Partition(std::size_t segment_bytes)
      : segment_bytes_(segment_bytes) {}

  Offset Append(Record record, TimePoint ingest_time);

  // Fetch up to `max_records` starting at `from` as one RecordBatch built
  // from contiguous column-range copies (no per-record string/vector
  // construction), with base_offset stamped. Returns OutOfRange if `from`
  // is below the log start (truncated away) or above the end; both errors
  // carry the valid [log_start, end) window so consumers can reposition
  // without parsing the message.
  Expected<RecordBatch> FetchBatch(Offset from, std::size_t max_records) const;

  // FetchBatch with the rows materialized as StoredRecords.
  Expected<std::vector<StoredRecord>> Fetch(Offset from, std::size_t max_records) const;

  Offset log_start_offset() const { return start_mirror_.load(std::memory_order_acquire); }
  Offset end_offset() const { return end_mirror_.load(std::memory_order_acquire); }
  std::size_t size() const {
    return static_cast<std::size_t>(end_offset() - log_start_offset());
  }
  // Retained payload+key bytes (the unit topic byte budgets meter).
  std::size_t bytes() const { return bytes_mirror_.load(std::memory_order_acquire); }

  // Drop records violating retention limits. Returns number dropped.
  std::size_t EnforceRetention(const TopicConfig& cfg, TimePoint now);

  // Advance the log start to `offset`, dropping everything below it (the
  // Kafka deleteRecords operation). Consumers that have committed up to an
  // offset use this to return queue budget to producers. Returns records
  // dropped; offsets beyond the end clamp to the end.
  std::size_t TruncateBefore(Offset offset);

  // Latest event time appended (for watermark generation at the source).
  TimePoint max_event_time() const {
    return TimePoint::FromNanos(max_event_ns_mirror_.load(std::memory_order_acquire));
  }

  // What a historical query reads (stream/query.h): shared_ptrs to the
  // sealed segments overlapping [lo, hi) plus a copy of the overlapping
  // live active rows, taken under one lock acquisition. The query then
  // scans the immutable segments lock-free, so long scans never hold the
  // tail's append lock. A bounded event-time window [t_lo, t_hi) trims the
  // active copy to the rows from the first to the last whose event time
  // lies inside it; rows between them are copied whatever their time, so
  // the caller still filters. The default, unbounded window copies every
  // active row in [lo, hi).
  PartitionSnapshot Snapshot(Offset lo, Offset hi, TimePoint t_lo = TimePoint::Min(),
                             TimePoint t_hi = TimePoint::Max()) const;

  std::size_t sealed_segment_count() const;

  // Force-seal the live active rows into an immutable segment regardless
  // of the seal target (no-op when nothing is live). The
  // autoscale split fence uses this so a sealed parent's history is
  // served entirely from the immutable query tier.
  void SealActive();

 private:
  void UpdateMirrors();  // call with mu_ held after any mutation
  std::size_t ActiveLiveLocked() const { return active_.size() - active_head_; }
  Offset EndLocked() const {
    return active_base_ + static_cast<Offset>(ActiveLiveLocked());
  }
  std::size_t LiveLocked() const {
    return static_cast<std::size_t>(EndLocked() - start_offset_);
  }
  // Seal the live active rows into an immutable Segment once they exceed
  // segment_bytes_ (no-op when the target is 0 or nothing is live).
  void MaybeSealLocked();
  void SealActiveLocked();
  // Advance the log start to min(target, end), dropping whole sealed
  // segments in O(1) when the target passes their end and per-row
  // otherwise. Returns records dropped; caller refreshes mirrors.
  std::size_t AdvanceStartLocked(Offset target);
  void MaybeReclaimHeadLocked(); // rebuild active_ when its dead prefix dominates

  const std::size_t segment_bytes_;
  mutable std::mutex mu_;
  // Sealed run, oldest first; deque for O(1) front drop, shared_ptr so
  // in-flight query snapshots outlive truncation.
  std::deque<std::shared_ptr<const Segment>> sealed_;
  // Rows [active_head_, active_.size()) are live; [0, active_head_) were
  // truncated away and are reclaimed lazily by MaybeReclaimHeadLocked.
  RecordBatch active_;
  std::size_t active_head_ = 0;
  Offset active_base_ = 0;   // absolute offset of active_ row active_head_
  Offset start_offset_ = 0;  // log start (may point into sealed_.front())
  std::size_t bytes_ = 0;    // live key+payload bytes across both tiers
  // Bytes of the truncated-away rows below start_offset_ still held by
  // sealed_.front() / active_ (immutable segments can't shrink in place).
  std::size_t front_dead_bytes_ = 0;
  std::size_t active_dead_bytes_ = 0;
  TimePoint max_event_time_ = TimePoint::Min();

  std::atomic<Offset> start_mirror_{0};
  std::atomic<Offset> end_mirror_{0};
  std::atomic<std::size_t> bytes_mirror_{0};
  std::atomic<std::int64_t> max_event_ns_mirror_{TimePoint::Min().nanos()};
};

class Topic {
 public:
  Topic(std::string name, TopicConfig cfg);

  const std::string& name() const { return name_; }
  const TopicConfig& config() const { return cfg_; }
  std::uint32_t partition_count() const { return static_cast<std::uint32_t>(parts_.size()); }

  // Key-hash partitioning; empty key round-robins. The round-robin counter
  // is atomic (thread-safe), but its assignment order then depends on call
  // interleaving — parallel producers that need determinism assign
  // partitions on the driver before fanning out (stream/parallel.h does).
  PartitionId PartitionFor(const std::string& key);

  Partition& partition(PartitionId p) { return *parts_.at(p); }
  const Partition& partition(PartitionId p) const { return *parts_.at(p); }

  // The replica group in front of partition `p`: every produce routes
  // through it, and the Partition above is its committed prefix.
  ReplicatedPartition& replication(PartitionId p) { return *repl_.at(p); }

  // Append `n` fresh empty partitions (each with its own replica group,
  // seeded by the same per-index formula the constructor uses) — the
  // autoscale split/merge target creation. Carries the same quiescence
  // contract as Broker::DeleteTopic: no concurrent produce/fetch on this
  // topic during the call (the cluster layer only mutates under its
  // exclusive lock between driver ticks). Existing partitions and offsets
  // are untouched; note PartitionFor's modulus widens, so key-stable
  // routing across a grow must go through the cluster's key-range router.
  // Returns the new partition count.
  std::uint32_t AddPartitions(std::uint32_t n);

  std::size_t TotalRecords() const;
  std::size_t TotalBytes() const;
  std::size_t EnforceRetention(TimePoint now);

  // Queue pressure against the configured budgets: the larger of the
  // record-fill and byte-fill fractions, 0 when unbudgeted. The admission
  // layer reads this (via Broker::Pressure) to decide what to shed.
  double Pressure() const;

 private:
  std::string name_;
  TopicConfig cfg_;
  // unique_ptr because Partition owns a mutex (non-movable).
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<std::unique_ptr<ReplicatedPartition>> repl_;
  std::atomic<std::uint64_t> round_robin_{0};
};

// The broker: a named collection of topics plus produce/fetch endpoints.
// Each partition fronts a replica group (stream/replication.h): produces
// route through the group's leader and commit only once quorum-acked, so
// every fetch below reads the committed prefix. At replication factor 1
// (the default) the group is a zero-overhead passthrough.
class Broker {
 public:
  explicit Broker(Clock& clock) : clock_(clock) {}

  Status CreateTopic(const std::string& name, TopicConfig cfg);
  Status DeleteTopic(const std::string& name);
  bool HasTopic(const std::string& name) const;
  Expected<Topic*> GetTopic(const std::string& name);

  // Appends the record, stamping ingest time from the broker clock.
  // Returns the (partition, offset) it landed at.
  Expected<std::pair<PartitionId, Offset>> Produce(const std::string& topic, Record record);

  // Produce with the partition chosen by the caller (parallel producers
  // assign partitions deterministically on the driver, then fan appends
  // out across workers — see stream/parallel.h). Budget + fault semantics
  // match Produce.
  Expected<Offset> ProduceToPartition(const std::string& topic, PartitionId partition,
                                      Record record);

  // Idempotent produce: like ProduceToPartition, but stamped with the
  // producer's stable id and per-partition sequence number so the replica
  // group can dedup retries after a lost ack (torn append, leader crash).
  // Sequence numbers must be assigned monotonically per (pid, partition) —
  // IdempotentProducer (stream/replication.h) does this for you.
  Expected<Offset> ProduceIdempotent(const std::string& topic, PartitionId partition,
                                     ProducerId pid, std::uint64_t seq, Record record);

  // Broker-unique producer id for idempotent produce (never 0; 0 means
  // anonymous / no dedup).
  ProducerId AllocateProducerId() {
    return next_pid_.fetch_add(1, std::memory_order_relaxed);
  }

  // The replica group fronting a partition — the handle chaos harnesses
  // use to crash and restore specific nodes.
  Expected<ReplicatedPartition*> Replication(const std::string& topic,
                                             PartitionId partition);
  // Convenience: crash the current leader of a partition's replica group.
  Status CrashLeader(const std::string& topic, PartitionId partition,
                     std::size_t restore_after_ops = 0);

  // The one fetch path: cluster-gate admission, then exactly one
  // kFetchError fault draw, then Partition::FetchBatch. The batch comes
  // back stamped with (partition, base_offset) and is zero-copy readable.
  Expected<RecordBatch> FetchBatch(const std::string& topic, PartitionId partition,
                                   Offset from, std::size_t max_records);
  // FetchBatch with the rows materialized as StoredRecords.
  Expected<std::vector<StoredRecord>> Fetch(const std::string& topic, PartitionId partition,
                                            Offset from, std::size_t max_records);

  // --- historical read path (stream/query.h) ----------------------------
  // Offset-range and event-time queries over the segmented log, read
  // straight from the sealed segment columns. Admitted by the cluster gate
  // like any fetch, but deliberately drawing NO fault-injector randomness:
  // running historical scans never shifts a fault schedule, so scenario
  // digests are unchanged whether or not queries run alongside.
  // Out-of-window bounds clamp to [log_start, end) instead of erroring —
  // a replay asking below the log start gets the surviving suffix.
  Expected<QueryResult> QueryRange(const std::string& topic, PartitionId partition,
                                   Offset lo, Offset hi);
  Expected<QueryResult> QueryTime(const std::string& topic, PartitionId partition,
                                  TimePoint t_lo, TimePoint t_hi);
  // Smallest retained offset with event time >= t, or the log end (what
  // Consumer::SeekToTimestamp repositions with).
  Expected<Offset> OffsetForTimestamp(const std::string& topic, PartitionId partition,
                                      TimePoint t);

  // Advance a partition's log start (consumer-driven queue truncation).
  Expected<std::size_t> TruncateBefore(const std::string& topic, PartitionId partition,
                                       Offset offset);

  // Runs retention across all topics; returns records dropped. Depth/byte
  // gauges of partitions that shed records are refreshed.
  std::size_t RunRetention();

  std::vector<std::string> TopicNames() const;
  Clock& clock() { return clock_; }

  std::uint64_t total_produced() const {
    return total_produced_.load(std::memory_order_relaxed);
  }
  std::uint64_t backpressure_rejects() const {
    return backpressure_rejects_.load(std::memory_order_relaxed);
  }

  // Remaining record headroom under the topic's budgets (credit-based
  // backpressure): how many records a producer may send before Produce
  // starts rejecting. SIZE_MAX when the topic is unbudgeted; byte budgets
  // are counted conservatively against the topic's mean record size.
  std::size_t Credit(const std::string& topic) const;

  // Topic::Pressure for a named topic; 0 for unknown or unbudgeted topics.
  double Pressure(const std::string& topic) const;

  // Optional observability hook (not owned). When set, the broker exports
  // per-partition depth gauges (qos.depth.<topic>.p<n>), topic byte
  // gauges, ingest-to-fetch lag gauges (qos.lag_ms.<topic>.p<n>), and
  // backpressure counters into the registry. Gauges are last-write-wins
  // under concurrency; scenario digests only fold in counters.
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }
  MetricRegistry* metrics() const { return metrics_; }

  // Optional chaos hook (not owned). When set, produce/fetch consult it:
  // `apperr` rejects the append cleanly, `torn` persists the record but
  // still reports Unavailable (a retrying producer then duplicates it —
  // at-least-once, like a real broker losing the ack), and `fetcherr`
  // fails the fetch without touching the log. The injector's RNG is not
  // thread-safe, so the broker serializes Fire() calls behind a mutex;
  // fault *ordering* is deterministic only for serial producers.
  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  // Optional cluster-routing hook (not owned; see ClusterGate above).
  // Installed by cluster::BrokerCluster; consulted before fault draws so
  // it cannot shift injection schedules.
  void set_cluster_gate(ClusterGate* gate) { cluster_gate_ = gate; }
  ClusterGate* cluster_gate() const { return cluster_gate_; }

  // Optional tracing hook (not owned). When set and enabled, ProduceImpl
  // records a "broker.produce" span under each record's trace context and
  // stamps the child context back onto the record before it is appended,
  // so consumers chain downstream spans off the produce. Cost on the
  // modeled-time axis; zero impact on the record's encoded bytes.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  Expected<Offset> ProduceImpl(const std::string& topic, Topic* t, PartitionId partition,
                               Record record, ProducerId pid = 0, std::uint64_t seq = 0);

  Clock& clock_;
  mutable std::shared_mutex topics_mu_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  std::atomic<std::uint64_t> total_produced_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<ProducerId> next_pid_{1};
  std::mutex fault_mu_;
  fault::FaultInjector* fault_ = nullptr;
  MetricRegistry* metrics_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  ClusterGate* cluster_gate_ = nullptr;
};

}  // namespace arbd::stream
