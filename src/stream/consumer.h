// Consumer groups over the partitioned log: cooperative partition
// assignment, committed offsets, and rebalancing when members join or
// leave. Mirrors the Kafka consumer-group contract closely enough that the
// platform's readers (analytics jobs, scenario pipelines) behave like
// their production counterparts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "stream/log.h"

namespace arbd::stream {

class ConsumerGroup;

// A single member of a consumer group. Poll() only returns records from
// partitions currently assigned to this member.
class Consumer {
 public:
  // Fetches up to max_records across assigned partitions (round-robin so
  // one hot partition cannot starve the others), one broker FetchBatch per
  // partition visited. Rows stay in their per-partition RecordBatches (one
  // per non-empty partition, stamped with partition and base offset) for
  // zero-copy downstream processing.
  //
  // The optional deadline bounds the poll to a budget: each
  // partition fetch charges the cluster gate's modeled per-op cost
  // (zero without a cluster), and once the budget is spent the poll
  // stops visiting further partitions and returns what it has — a
  // frame-deadline consumer degrades to partial progress instead of
  // blowing the frame. Null = the unbounded poll.
  std::vector<RecordBatch> PollBatches(std::size_t max_records,
                                       Deadline* deadline = nullptr);

  // PollBatches with the rows materialized as StoredRecords, in poll order.
  std::vector<StoredRecord> Poll(std::size_t max_records, Deadline* deadline = nullptr);

  // Reposition every assigned partition to the smallest retained offset
  // whose event time is >= t (the log end when the partition has nothing
  // that late) — Kafka's offsetsForTimes + seek, driven by the sealed
  // segments' sparse time indexes. Polled-but-uncommitted progress on the
  // seeked partitions is abandoned, exactly like a rebalance rewind; the
  // next Commit covers positions from the seek point forward. Rejected
  // with kFailedPrecondition for fenced members.
  Status SeekToTimestamp(TimePoint t);

  // Commit consumed offsets back to the group (next offsets to read).
  // Generation-fenced: the commit is rejected with kFailedPrecondition when
  // this member was evicted (a zombie whose host broker died) or when the
  // group rebalanced since this member's last Poll — its polled-but-
  // uncommitted progress was rewound to the committed offsets and belongs
  // to a dead generation, exactly the stale commit that would silently
  // skip records for the members now owning those partitions.
  Status Commit();

  const std::string& id() const { return id_; }
  std::vector<PartitionId> Assignment() const;
  // The group generation this member last synced with (at rebalance or
  // poll time). A commit is valid only while this matches the group's.
  std::uint64_t generation() const { return observed_generation_; }
  bool fenced() const { return fenced_; }

 private:
  friend class ConsumerGroup;
  Consumer(ConsumerGroup& group, std::string id) : group_(group), id_(std::move(id)) {}

  ConsumerGroup& group_;
  std::string id_;
  // Position per assigned partition (next offset to fetch); seeded from the
  // group's committed offsets at (re)assignment.
  std::map<PartitionId, Offset> positions_;
  std::uint64_t rr_cursor_ = 0;
  std::uint64_t observed_generation_ = 0;
  bool fenced_ = false;
};

// Where a fresh group (no committed offset) starts reading.
enum class ResetPolicy { kEarliest, kLatest };

class ConsumerGroup {
 public:
  ConsumerGroup(Broker& broker, std::string group_id, std::string topic,
                ResetPolicy reset = ResetPolicy::kEarliest);

  // Adding/removing a member triggers an immediate rebalance. Uncommitted
  // progress on reassigned partitions is rewound to the committed offset —
  // i.e. at-least-once delivery, like the real thing.
  Expected<Consumer*> Join(const std::string& consumer_id);
  // A graceful leave commits the member's progress first; a crash
  // (commit_progress = false) loses everything since the last commit.
  Status Leave(const std::string& consumer_id, bool commit_progress = true);

  // Fence a member without destroying it — the cluster layer's model of a
  // consumer whose host broker died. The member keeps its handle but polls
  // nothing and its commits are rejected (stale generation); its
  // partitions are rebalanced to the survivors, who resume from the
  // committed offsets. Rejoin() re-admits it after the broker restarts.
  Status Evict(const std::string& consumer_id);
  Status Rejoin(const std::string& consumer_id);

  // Monotone rebalance counter used to fence stale commits: bumped on
  // every membership change, synced to members at rebalance and poll.
  std::uint64_t generation() const { return generation_; }
  // Commits rejected because the committing member was fenced or raced a
  // rebalance — each one is a would-be lost-record bug caught.
  std::uint64_t fenced_commit_count() const { return fenced_commits_; }

  Offset CommittedOffset(PartitionId p) const;
  std::size_t member_count() const { return members_.size(); }
  const std::string& topic() const { return topic_name_; }
  std::uint64_t rebalance_count() const { return rebalances_; }
  // Times a member's position was repositioned after falling outside the
  // retained offset window (observability for data-loss windows).
  std::uint64_t auto_reset_count() const { return auto_resets_; }

  // Total records not yet committed across all partitions ("consumer lag").
  std::int64_t TotalLag() const;

  // Rebalance iff the topic's partition count changed since the last
  // assignment (an autoscale split/merge appended partitions). Drivers
  // call this after cluster ticks; it is a no-op — no generation bump, no
  // position rewind — when nothing changed. Returns whether it rebalanced.
  bool SyncPartitions();

 private:
  friend class Consumer;
  void Rebalance();
  Offset InitialOffset(PartitionId p) const;

  Broker& broker_;
  std::string group_id_;
  std::string topic_name_;
  ResetPolicy reset_;
  std::map<std::string, std::unique_ptr<Consumer>> members_;
  std::map<PartitionId, std::string> assignment_;  // partition -> consumer id
  std::map<PartitionId, Offset> committed_;
  std::uint32_t assigned_partition_count_ = 0;  // topic size at last rebalance
  std::uint64_t rebalances_ = 0;
  std::uint64_t auto_resets_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t fenced_commits_ = 0;
};

}  // namespace arbd::stream
