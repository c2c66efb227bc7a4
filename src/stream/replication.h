// Replicated partitions with deterministic failover (ISSUE 5) — the layer
// that turns the single-copy broker into a leader/follower replica group
// per partition, Kafka-shaped:
//
//   - Each partition has `factor` replica nodes; one is the leader, the
//     rest are followers. The in-sync-replica (ISR) set is the online
//     replicas that hold the leader's full log.
//   - Produce is quorum-acknowledged (acks=all): a record is *committed*
//     only once every ISR member holds it, at which point the
//     high-watermark advances and the record lands in the committed
//     Partition — the store every fetch/consumer/retention path already
//     reads. Consumers therefore never observe an uncommitted record.
//   - Leader epochs fence stale leaders: every append carries the
//     epoch the appender believes is current, and an append with an old
//     epoch is rejected (kFailedPrecondition) without touching any log.
//   - Failover is deterministic: when the leader crashes, the successor
//     is the online replica with the longest log, ties broken by a hash
//     seeded from (failover_seed, epoch, partition state) — so a given
//     crash schedule elects the same leaders at any worker count and on
//     every rerun. Divergent suffixes (entries only the dead leader held)
//     are truncated at the epoch/offset boundary when the node restores.
//   - Producers get stable ids and per-partition sequence numbers; the
//     broker dedups (pid, seq) against committed state, so a retry after
//     a lost ack (torn append, leader crash mid-produce) returns the
//     original offset instead of appending a duplicate — the produce half
//     of end-to-end exactly-once (stream/recovery.h has the consume half).
//
// Simulation notes: replication is synchronous and in-process — there is
// no modeled replication network. A crashed node keeps its log (crash =
// process down, disk intact) and restores after a configured number of
// produce attempts (the restore window models the real-world catch-up
// period during which the node is out of the ISR). See
// docs/replication.md for the full contract and invariants.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "fault/retry.h"
#include "stream/record.h"

namespace arbd::stream {

class Partition;
class Broker;
class Topic;

using NodeId = std::uint32_t;
using Epoch = std::uint64_t;
using ProducerId = std::uint64_t;  // 0 = anonymous (no dedup)

inline constexpr NodeId kNoLeader = static_cast<NodeId>(-1);

// How long (in subsequent produce attempts on the partition) a crashed
// node stays down before auto-restoring, when the injection site does not
// specify a window. Models the catch-up period a restarted node spends
// out of the ISR.
inline constexpr std::size_t kDefaultRestoreWindow = 25;

// Fault directive a produce call can carry (the broker translates an
// injected `nodecrash` rule into one of these).
struct InjectedCrash {
  bool crash_leader = false;            // kill the leader mid-produce
  std::size_t restore_after_ops = kDefaultRestoreWindow;
};

// Introspection row for one replica node (tests, benches, docs tables).
struct ReplicaInfo {
  NodeId node = 0;
  bool online = true;
  bool in_sync = true;
  std::size_t tail_entries = 0;  // uncommitted entries this replica holds
};

struct ReplicationStats {
  std::uint64_t failovers = 0;          // leader elections after the first
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restores = 0;
  std::uint64_t truncated_entries = 0;  // divergent-suffix entries dropped
  std::uint64_t fenced_appends = 0;     // stale-epoch appends rejected
  std::uint64_t dedup_hits = 0;         // duplicate (pid, seq) absorbed
  std::uint64_t unavailable_rejects = 0;// produce attempts with no leader

  bool operator==(const ReplicationStats&) const = default;
};

// One partition's replica group. `committed` is the Partition consumers
// fetch from: nothing lands there until quorum-acknowledged, so the
// existing fetch path serves exactly the committed prefix. All methods
// are serialized by an internal mutex (the partition is the unit of
// parallelism, as elsewhere in the broker).
class ReplicatedPartition {
 public:
  ReplicatedPartition(std::uint32_t factor, std::uint64_t failover_seed,
                      Partition& committed);

  // Quorum produce through the current leader. `crash.crash_leader`
  // injects the interesting failure: the leader appends locally,
  // replicates to a deterministic subset of followers, and dies before
  // acknowledging — the caller sees kUnavailable and the record survives
  // iff the elected successor holds it (a retry with the same (pid, seq)
  // then dedups instead of duplicating). At factor 1 the crash simply
  // downs the node before anything is appended.
  Expected<Offset> Produce(Record record, TimePoint ingest_time,
                           ProducerId pid, std::uint64_t seq,
                           InjectedCrash crash = {});

  // The fencing surface: an append that carries the epoch the caller
  // believes is current. A deposed leader retrying with its old epoch is
  // rejected with kFailedPrecondition and nothing is appended anywhere.
  Expected<Offset> LeaderAppend(Epoch claimed_epoch, Record record,
                                TimePoint ingest_time, ProducerId pid,
                                std::uint64_t seq, InjectedCrash crash = {});

  // Crash / restore a specific node. `restore_after_ops` > 0 arms the
  // auto-restore counter: the node comes back after that many subsequent
  // produce attempts on this partition (attempts, not successes, so a
  // factor-1 partition recovers even while rejecting). 0 = manual restore.
  Status CrashNode(NodeId node, std::size_t restore_after_ops = 0);
  Status RestoreNode(NodeId node);
  // Crash the current leader (no-op error if the group is leaderless).
  Status CrashLeader(std::size_t restore_after_ops = 0);

  // --- autoscale split/merge handoff (ISSUE 9) ---
  // Fence the group for a partition split or merge: every replica's
  // uncommitted tail is dropped (those entries were never acknowledged,
  // so dropping them loses nothing a producer was promised), and all
  // future appends are rejected with kFailedPrecondition. Dedup lookups
  // still answer: a retry of a (pid, seq) that committed before the seal
  // keeps returning its original offset instead of the sealed error —
  // the order the exactly-once handoff depends on. Returns the committed
  // end offset (the fenced split offset) and a snapshot of the dedup
  // table for seeding the children.
  struct SealSnapshot {
    Offset split_offset = 0;
    std::map<ProducerId, std::pair<std::uint64_t, Offset>> seen;
  };
  SealSnapshot SealForSplit();
  bool sealed() const;
  // Merge a sealed ancestor's dedup table into this (fresh) group, taking
  // the max seq per producer — so an in-flight retry of a record the
  // parent already committed dedups on the child instead of duplicating.
  void SeedDedup(const std::map<ProducerId, std::pair<std::uint64_t, Offset>>& seen);
  // Highest committed seq for `pid` (0 if never seen) — the floor a
  // rerouting producer must start its per-partition sequence above.
  std::uint64_t LastSeq(ProducerId pid) const;

  NodeId leader() const;
  Epoch epoch() const;
  Offset high_watermark() const;
  std::uint32_t factor() const { return static_cast<std::uint32_t>(replicas_.size()); }
  std::vector<NodeId> Isr() const;
  std::vector<ReplicaInfo> Replicas() const;
  ReplicationStats stats() const;

  // Every (epoch, high-watermark) advance, in order — the determinism
  // suite asserts two runs with the same seed and fault plan produce the
  // identical history. Recorded only at factor > 1 (at factor 1 the
  // history is the trivial one-step-per-append sequence; skipping it keeps
  // the single-copy hot path allocation-free).
  struct HwStep {
    Epoch epoch;
    Offset hw;
    bool operator==(const HwStep&) const = default;
  };
  std::vector<HwStep> hw_history() const;

 private:
  struct Entry {
    Epoch epoch = 0;
    ProducerId pid = 0;
    std::uint64_t seq = 0;
    Record record;
    TimePoint ingest_time;
  };
  struct Replica {
    bool online = true;
    // Uncommitted tail (entries above the high-watermark). Between produce
    // calls every *online* replica's tail is empty (commit is synchronous);
    // a crashed node's tail is the suffix it held when it died, truncated
    // at restore if an election moved the epoch past it.
    std::deque<Entry> tail;
    Epoch epoch_at_crash = 0;
    std::size_t restore_in_ops = 0;  // 0 = not armed
  };

  // All private helpers require mu_ held.
  void TickRestores();
  void RestoreLocked(NodeId node);
  void CrashLocked(NodeId node, std::size_t restore_after_ops);
  void ElectLeader();
  void CommitLeaderTail();
  Expected<Offset> AppendLocked(Epoch claimed_epoch, Record record,
                                TimePoint ingest_time, ProducerId pid,
                                std::uint64_t seq, InjectedCrash crash);
  std::size_t OnlineCount() const;
  void RecordHw();

  mutable std::mutex mu_;
  Partition& committed_;
  std::uint64_t failover_seed_;
  std::vector<Replica> replicas_;
  NodeId leader_ = 0;
  Epoch epoch_ = 1;
  // Committed (pid -> {highest seq, offset it landed at}); the dedup table.
  std::map<ProducerId, std::pair<std::uint64_t, Offset>> seen_;
  bool sealed_ = false;  // split/merge fence: no further appends, ever
  ReplicationStats stats_;
  std::vector<HwStep> hw_history_;
};

// Producer with a stable id and per-partition sequence numbers: assigns
// the partition on the driver (same key-hash / round-robin rule as
// Broker::Produce), stamps (pid, seq) on every send, and retries
// kUnavailable acks with capped backoff. Retries are duplicate-safe by
// construction — the broker dedups (pid, seq) — so a lost ack is absorbed
// instead of appended twice. Backoff is accounted on the modeled-time
// axis (total_backoff) rather than slept.
class IdempotentProducer {
 public:
  IdempotentProducer(Broker& broker, std::string topic,
                     fault::RetryPolicy retry = {},
                     std::uint64_t jitter_seed = 0x1d3);

  Expected<std::pair<PartitionId, Offset>> Send(Record record);

  ProducerId id() const { return pid_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t exhausted() const { return exhausted_; }
  Duration total_backoff() const { return total_backoff_; }

 private:
  Broker& broker_;
  std::string topic_;
  fault::RetryPolicy retry_;
  Rng rng_;
  ProducerId pid_;
  std::map<PartitionId, std::uint64_t> next_seq_;
  std::uint64_t sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t exhausted_ = 0;  // sends that ran out of retry budget
  Duration total_backoff_ = Duration::Zero();
};

// Digest of a partition's committed prefix: folds (offset, key, payload,
// event time) per record — deliberately *not* ingest time, so the digest
// is a statement about committed content and order, invariant across
// crash schedules that stretch wall-clock differently. The E22 gates
// compare this across worker counts, replication factors, and schedules.
std::uint64_t CommittedDigest(const Partition& partition);
// All partitions of a topic, folded in partition order.
std::uint64_t CommittedTopicDigest(Topic& topic);

}  // namespace arbd::stream
