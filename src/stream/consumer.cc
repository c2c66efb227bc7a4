#include "stream/consumer.h"

#include <algorithm>

namespace arbd::stream {

std::vector<RecordBatch> Consumer::PollBatches(std::size_t max_records, Deadline* deadline) {
  std::vector<RecordBatch> out;
  if (fenced_ || positions_.empty() || max_records == 0) return out;
  // Polling observes the current generation: progress made now is
  // committable until the next rebalance invalidates it.
  observed_generation_ = group_.generation_;

  // Snapshot assigned partitions in a stable order, then start from a
  // rotating cursor for fairness.
  std::vector<PartitionId> parts;
  parts.reserve(positions_.size());
  for (const auto& [p, _] : positions_) parts.push_back(p);

  const std::size_t n = parts.size();
  std::size_t got = 0;
  for (std::size_t i = 0; i < n && got < max_records; ++i) {
    // An exhausted budget stops the rotation between partitions — the
    // records already gathered are returned, and the cursor still
    // advances so the next poll resumes fairly.
    if (deadline != nullptr && deadline->expired()) break;
    const PartitionId p = parts[(rr_cursor_ + i) % n];
    Offset& pos = positions_[p];
    if (deadline != nullptr) {
      if (ClusterGate* gate = group_.broker_.cluster_gate(); gate != nullptr) {
        deadline->Charge(gate->OpCost(group_.topic_name_, p));
      }
    }
    auto fetched = group_.broker_.FetchBatch(group_.topic_name_, p, pos, max_records - got);
    if (!fetched.ok()) {
      const Status st = fetched.status();
      if (st.code() == StatusCode::kOutOfRange && st.has_range()) {
        // Our position fell outside the retained [log_start, end) window
        // (retention or truncation ran past us). Reposition per the
        // group's reset policy using the structured range — no string
        // parsing — and retry immediately so the surviving records are
        // delivered in this same poll.
        pos = group_.reset_ == ResetPolicy::kEarliest ? st.range_lo() : st.range_hi();
        ++group_.auto_resets_;
        fetched = group_.broker_.FetchBatch(group_.topic_name_, p, pos, max_records - got);
      }
      if (!fetched.ok()) continue;  // transient (injected fault, unknown topic)
    }
    if (fetched->empty()) continue;
    pos = fetched->base_offset() + static_cast<Offset>(fetched->size());
    got += fetched->size();
    if (out.empty()) out.reserve(n - i);
    out.push_back(std::move(*fetched));
  }
  rr_cursor_ = (rr_cursor_ + 1) % std::max<std::size_t>(n, 1);
  return out;
}

std::vector<StoredRecord> Consumer::Poll(std::size_t max_records, Deadline* deadline) {
  const std::vector<RecordBatch> batches = PollBatches(max_records, deadline);
  std::size_t rows = 0;
  for (const RecordBatch& batch : batches) rows += batch.size();
  std::vector<StoredRecord> out;
  out.reserve(rows);
  for (const RecordBatch& batch : batches) {
    for (std::size_t i = 0; i < batch.size(); ++i) batch.MaterializeStored(i, out.emplace_back());
  }
  return out;
}

Status Consumer::SeekToTimestamp(TimePoint t) {
  if (fenced_) {
    return Status::FailedPrecondition("consumer '" + id_ + "' is fenced (evicted from group '" +
                                      group_.group_id_ + "')");
  }
  // Resolve every partition's offset before touching any position: the
  // seek is atomic. A mid-iteration failure (gate rejection, injected
  // fetch fault, truncated index) used to leave earlier partitions moved
  // and later ones not — a half-applied seek the caller could neither
  // detect nor undo. Either every assigned partition repositions, or none.
  std::map<PartitionId, Offset> resolved;
  for (const auto& [p, pos] : positions_) {
    auto off = group_.broker_.OffsetForTimestamp(group_.topic_name_, p, t);
    if (!off.ok()) return off.status();
    resolved[p] = *off;
  }
  for (auto& [p, pos] : positions_) pos = resolved[p];
  return Status::Ok();
}

Status Consumer::Commit() {
  if (fenced_) {
    ++group_.fenced_commits_;
    return Status::FailedPrecondition("consumer '" + id_ + "' is fenced (evicted from group '" +
                                      group_.group_id_ + "')");
  }
  if (observed_generation_ != group_.generation_) {
    // A rebalance ran between this member's poll and its commit: the
    // polled records may now be owned by someone else, and this member's
    // positions were rewound to the committed offsets. Accepting the
    // commit would advance offsets past records the new owners have not
    // delivered — the silent-loss bug generation fencing exists to stop.
    ++group_.fenced_commits_;
    return Status::FailedPrecondition(
        "consumer '" + id_ + "' commit from stale generation " +
        std::to_string(observed_generation_) + " (group at " +
        std::to_string(group_.generation_) + ")");
  }
  for (const auto& [p, pos] : positions_) {
    group_.committed_[p] = std::max(group_.CommittedOffset(p), pos);
  }
  return Status::Ok();
}

std::vector<PartitionId> Consumer::Assignment() const {
  std::vector<PartitionId> parts;
  parts.reserve(positions_.size());
  for (const auto& [p, _] : positions_) parts.push_back(p);
  return parts;
}

ConsumerGroup::ConsumerGroup(Broker& broker, std::string group_id, std::string topic,
                             ResetPolicy reset)
    : broker_(broker),
      group_id_(std::move(group_id)),
      topic_name_(std::move(topic)),
      reset_(reset) {}

Expected<Consumer*> ConsumerGroup::Join(const std::string& consumer_id) {
  if (members_.contains(consumer_id)) {
    return Status::AlreadyExists("consumer '" + consumer_id + "' already in group '" +
                                 group_id_ + "'");
  }
  auto topic = broker_.GetTopic(topic_name_);
  if (!topic.ok()) return topic.status();
  auto consumer = std::unique_ptr<Consumer>(new Consumer(*this, consumer_id));
  Consumer* raw = consumer.get();
  members_[consumer_id] = std::move(consumer);
  Rebalance();
  return raw;
}

Status ConsumerGroup::Leave(const std::string& consumer_id, bool commit_progress) {
  auto it = members_.find(consumer_id);
  if (it == members_.end()) {
    return Status::NotFound("consumer '" + consumer_id + "' not in group '" + group_id_ + "'");
  }
  // Preserve the departing member's progress before dropping it (unless
  // this models a crash, where in-flight progress is lost). A fenced
  // member has nothing committable by definition.
  if (commit_progress && !it->second->fenced_) it->second->Commit();
  members_.erase(it);
  Rebalance();
  return Status::Ok();
}

Status ConsumerGroup::Evict(const std::string& consumer_id) {
  auto it = members_.find(consumer_id);
  if (it == members_.end()) {
    return Status::NotFound("consumer '" + consumer_id + "' not in group '" + group_id_ + "'");
  }
  if (it->second->fenced_) return Status::Ok();  // already a zombie
  it->second->fenced_ = true;
  it->second->positions_.clear();
  Rebalance();
  return Status::Ok();
}

Status ConsumerGroup::Rejoin(const std::string& consumer_id) {
  auto it = members_.find(consumer_id);
  if (it == members_.end()) {
    return Status::NotFound("consumer '" + consumer_id + "' not in group '" + group_id_ + "'");
  }
  if (!it->second->fenced_) {
    return Status::FailedPrecondition("consumer '" + consumer_id + "' is not fenced");
  }
  it->second->fenced_ = false;
  Rebalance();
  return Status::Ok();
}

Offset ConsumerGroup::CommittedOffset(PartitionId p) const {
  auto it = committed_.find(p);
  if (it != committed_.end()) return it->second;
  return InitialOffset(p);
}

Offset ConsumerGroup::InitialOffset(PartitionId p) const {
  auto topic = const_cast<Broker&>(broker_).GetTopic(topic_name_);
  if (!topic.ok()) return 0;
  const Partition& part = (*topic)->partition(p);
  return reset_ == ResetPolicy::kEarliest ? part.log_start_offset() : part.end_offset();
}

std::int64_t ConsumerGroup::TotalLag() const {
  auto topic = const_cast<Broker&>(broker_).GetTopic(topic_name_);
  if (!topic.ok()) return 0;
  std::int64_t lag = 0;
  for (PartitionId p = 0; p < (*topic)->partition_count(); ++p) {
    lag += (*topic)->partition(p).end_offset() - CommittedOffset(p);
  }
  return lag;
}

void ConsumerGroup::Rebalance() {
  ++rebalances_;
  // Every rebalance opens a new generation: progress polled under the old
  // one is no longer committable (Consumer::Commit checks this).
  ++generation_;
  assignment_.clear();
  for (auto& [_, m] : members_) {
    m->positions_.clear();
    // Reset the poll rotation with the assignment it indexes into: the
    // cursor is a position in the *previous* assignment's partition list,
    // and carrying it across a shrink/grow (member churn, an autoscale
    // split widening the partition set) starts the next poll mid-list —
    // fair rotation then visits the first partitions last, indefinitely,
    // for members whose cursor happened to land past them.
    m->rr_cursor_ = 0;
  }

  // Range assignment over the live (non-fenced) members: partitions dealt
  // to members in sorted order. Fenced zombies keep their handles but get
  // nothing.
  std::vector<Consumer*> ms;
  ms.reserve(members_.size());
  for (auto& [_, m] : members_) {
    if (!m->fenced_) ms.push_back(m.get());
  }
  if (ms.empty()) return;

  auto topic = broker_.GetTopic(topic_name_);
  if (!topic.ok()) return;

  const std::uint32_t nparts = (*topic)->partition_count();
  assigned_partition_count_ = nparts;
  for (PartitionId p = 0; p < nparts; ++p) {
    Consumer* owner = ms[p % ms.size()];
    assignment_[p] = owner->id_;
    owner->positions_[p] = CommittedOffset(p);
  }
  // Deliberately do NOT sync the members' observed generations here: a
  // member only becomes current again at its next Poll. Syncing now would
  // let a commit issued after the rebalance — but covering records polled
  // before it, whose positions this very rebalance just rewound — pass the
  // fence and be counted as delivered, double-delivering those records
  // once the rewound positions are re-polled.
}

bool ConsumerGroup::SyncPartitions() {
  auto topic = broker_.GetTopic(topic_name_);
  if (!topic.ok()) return false;
  if ((*topic)->partition_count() == assigned_partition_count_) return false;
  Rebalance();
  return true;
}

}  // namespace arbd::stream
