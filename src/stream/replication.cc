#include "stream/replication.h"

#include <algorithm>

#include "common/rng.h"
#include "common/serialize.h"
#include "stream/batch.h"
#include "stream/log.h"

namespace arbd::stream {

namespace {

// Stateless on purpose: election decisions must depend only on persistent
// partition state (seed, epoch, committed offset), never on a shared RNG
// stream whose position varies with unrelated call history.
std::uint64_t Mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return Mix64(a ^ Mix64(b ^ Mix64(c)));
}

}  // namespace

ReplicatedPartition::ReplicatedPartition(std::uint32_t factor,
                                         std::uint64_t failover_seed,
                                         Partition& committed)
    : committed_(committed), failover_seed_(failover_seed) {
  replicas_.resize(std::max<std::uint32_t>(1, factor));
}

Expected<Offset> ReplicatedPartition::Produce(Record record, TimePoint ingest_time,
                                              ProducerId pid, std::uint64_t seq,
                                              InjectedCrash crash) {
  std::lock_guard<std::mutex> lk(mu_);
  TickRestores();
  return AppendLocked(epoch_, std::move(record), ingest_time, pid, seq, crash);
}

Expected<Offset> ReplicatedPartition::LeaderAppend(Epoch claimed_epoch, Record record,
                                                   TimePoint ingest_time, ProducerId pid,
                                                   std::uint64_t seq, InjectedCrash crash) {
  std::lock_guard<std::mutex> lk(mu_);
  TickRestores();
  return AppendLocked(claimed_epoch, std::move(record), ingest_time, pid, seq, crash);
}

Expected<Offset> ReplicatedPartition::AppendLocked(Epoch claimed_epoch, Record record,
                                                   TimePoint ingest_time, ProducerId pid,
                                                   std::uint64_t seq, InjectedCrash crash) {
  if (leader_ == kNoLeader) {
    ++stats_.unavailable_rejects;
    return Status::Unavailable("partition leaderless (all replicas down)");
  }
  // Fencing: an appender claiming a superseded epoch is a deposed leader
  // (or a caller holding a stale view) — reject before touching any log.
  if (claimed_epoch != epoch_) {
    ++stats_.fenced_appends;
    return Status::FailedPrecondition(
        "fenced: append at epoch " + std::to_string(claimed_epoch) +
        ", current epoch " + std::to_string(epoch_));
  }
  // Idempotence: dedup against *committed* state only. Entries that were
  // appended but lost to a crash never enter this table, so the producer's
  // retry lands for real instead of being absorbed into a hole.
  if (pid != 0) {
    auto it = seen_.find(pid);
    if (it != seen_.end() && seq <= it->second.first) {
      ++stats_.dedup_hits;
      return it->second.second;
    }
  }
  // Split/merge fence — checked after dedup, deliberately: a retry of a
  // record the parent committed before sealing must keep resolving to its
  // original offset (exactly-once through the handoff); only genuinely
  // new appends get turned away toward the children.
  if (sealed_) {
    return Status::FailedPrecondition("partition sealed for split/merge handoff");
  }

  if (replicas_.size() == 1) {
    // Single copy: a crash downs the node before the record persists (no
    // follower can save it), otherwise commit directly.
    if (crash.crash_leader) {
      CrashLocked(leader_, crash.restore_after_ops);
      return Status::Unavailable("leader crashed before append (factor 1)");
    }
    const Offset off = committed_.Append(std::move(record), ingest_time);
    if (pid != 0) seen_[pid] = {seq, off};
    return off;
  }

  Entry entry{epoch_, pid, seq, std::move(record), ingest_time};
  Replica& leader = replicas_[leader_];

  if (crash.crash_leader) {
    // The interesting window: the leader persists locally, replicates to
    // only a prefix of its followers, and dies before acknowledging. The
    // prefix size is a pure function of (seed, epoch, committed offset),
    // so a given crash schedule replays bit-identically.
    std::vector<NodeId> online_followers;
    for (NodeId n = 0; n < replicas_.size(); ++n) {
      if (n != leader_ && replicas_[n].online) online_followers.push_back(n);
    }
    const std::uint64_t reached =
        Mix3(failover_seed_, epoch_,
             static_cast<std::uint64_t>(committed_.end_offset())) %
        (online_followers.size() + 1);
    leader.tail.push_back(entry);
    for (std::uint64_t i = 0; i < reached; ++i) {
      replicas_[online_followers[i]].tail.push_back(entry);
    }
    CrashLocked(leader_, crash.restore_after_ops);
    // CrashLocked ran the election; if a successor holds the entry it is
    // now committed — but the *ack* is lost either way, like a real torn
    // write. The producer's (pid, seq) retry resolves which happened.
    return Status::Unavailable("leader crashed mid-produce");
  }

  // Normal quorum path: every ISR member (== every online replica; see the
  // Replica::tail invariant) takes the entry, then the high-watermark
  // advances and the entry lands in the committed partition.
  leader.tail.push_back(entry);
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    if (n != leader_ && replicas_[n].online) replicas_[n].tail.push_back(entry);
  }
  CommitLeaderTail();
  // CommitLeaderTail recorded this (pid, seq) at its committed offset.
  if (pid != 0) return seen_[pid].second;
  return committed_.end_offset() - 1;
}

ReplicatedPartition::SealSnapshot ReplicatedPartition::SealForSplit() {
  std::lock_guard<std::mutex> lk(mu_);
  sealed_ = true;
  // Uncommitted tails were never acknowledged to any producer — dropping
  // them loses nothing promised, and guarantees a later restore can never
  // resurrect a divergent suffix past the fence.
  for (Replica& r : replicas_) {
    stats_.truncated_entries += r.tail.size();
    r.tail.clear();
  }
  return SealSnapshot{committed_.end_offset(), seen_};
}

bool ReplicatedPartition::sealed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sealed_;
}

void ReplicatedPartition::SeedDedup(
    const std::map<ProducerId, std::pair<std::uint64_t, Offset>>& seen) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [pid, entry] : seen) {
    auto it = seen_.find(pid);
    if (it == seen_.end() || entry.first > it->second.first) seen_[pid] = entry;
  }
}

std::uint64_t ReplicatedPartition::LastSeq(ProducerId pid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = seen_.find(pid);
  return it == seen_.end() ? 0 : it->second.first;
}

void ReplicatedPartition::CommitLeaderTail() {
  ARBD_CHECK(leader_ != kNoLeader, "commit requires a leader");
  Replica& leader = replicas_[leader_];
  if (leader.tail.empty()) return;
  for (Entry& e : leader.tail) {
    const Offset off = committed_.Append(std::move(e.record), e.ingest_time);
    if (e.pid != 0) seen_[e.pid] = {e.seq, off};
  }
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    if (replicas_[n].online) replicas_[n].tail.clear();
  }
  RecordHw();
}

void ReplicatedPartition::ElectLeader() {
  // Candidates: online replicas. The winner is the most complete log
  // (longest uncommitted tail — all tails share the committed prefix);
  // ties break by a seeded hash over persistent state so every rerun and
  // every worker count elects the same node.
  std::vector<NodeId> candidates;
  std::size_t best_len = 0;
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    if (!replicas_[n].online) continue;
    const std::size_t len = replicas_[n].tail.size();
    if (candidates.empty() || len > best_len) {
      candidates.clear();
      best_len = len;
      candidates.push_back(n);
    } else if (len == best_len) {
      candidates.push_back(n);
    }
  }
  if (candidates.empty()) {
    leader_ = kNoLeader;
    return;
  }
  const std::uint64_t pick =
      Mix3(failover_seed_, epoch_,
           static_cast<std::uint64_t>(committed_.end_offset())) %
      candidates.size();
  leader_ = candidates[pick];
  ++epoch_;
  ++stats_.failovers;

  // Bring surviving followers in line with the new leader: drop any
  // divergent suffix, copy any missing entries (preserving the epoch each
  // entry was originally written under), then commit the tail. Committing
  // possibly-unacknowledged entries is safe: the producer never saw the
  // ack, and its retry dedups against the committed (pid, seq).
  Replica& leader = replicas_[leader_];
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    if (n == leader_ || !replicas_[n].online) continue;
    auto& tail = replicas_[n].tail;
    std::size_t common = 0;
    while (common < tail.size() && common < leader.tail.size() &&
           tail[common].epoch == leader.tail[common].epoch &&
           tail[common].seq == leader.tail[common].seq &&
           tail[common].pid == leader.tail[common].pid) {
      ++common;
    }
    stats_.truncated_entries += tail.size() - common;
    tail.erase(tail.begin() + static_cast<std::ptrdiff_t>(common), tail.end());
    for (std::size_t i = common; i < leader.tail.size(); ++i) {
      tail.push_back(leader.tail[i]);
    }
  }
  CommitLeaderTail();
  RecordHw();  // mark the epoch change even when the tail was empty
}

void ReplicatedPartition::CrashLocked(NodeId node, std::size_t restore_after_ops) {
  Replica& r = replicas_[node];
  ARBD_CHECK(r.online, "crashing a node that is already down");
  r.online = false;
  r.epoch_at_crash = epoch_;
  r.restore_in_ops = restore_after_ops;
  ++stats_.node_crashes;
  if (node == leader_) ElectLeader();
}

void ReplicatedPartition::RestoreLocked(NodeId node) {
  Replica& r = replicas_[node];
  r.online = true;
  r.restore_in_ops = 0;
  ++stats_.node_restores;
  if (epoch_ > r.epoch_at_crash) {
    // An election moved past this node while it was down: its unacked
    // suffix diverges from the committed history and is truncated at the
    // epoch boundary (the entries were never acknowledged, so dropping
    // them loses nothing a producer was promised).
    stats_.truncated_entries += r.tail.size();
    r.tail.clear();
  }
  if (leader_ == kNoLeader) {
    ElectLeader();
  } else if (node != leader_) {
    // Catch up to the leader's in-flight tail so the node rejoins the ISR
    // (catch-up is synchronous in this model; the restore window above is
    // what modeled the lag).
    r.tail = replicas_[leader_].tail;
  }
}

void ReplicatedPartition::TickRestores() {
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    Replica& r = replicas_[n];
    if (r.online || r.restore_in_ops == 0) continue;
    if (--r.restore_in_ops == 0) RestoreLocked(n);
  }
}

Status ReplicatedPartition::CrashNode(NodeId node, std::size_t restore_after_ops) {
  std::lock_guard<std::mutex> lk(mu_);
  if (node >= replicas_.size()) {
    return Status::OutOfRange("node " + std::to_string(node));
  }
  if (!replicas_[node].online) {
    return Status::FailedPrecondition("node " + std::to_string(node) + " already down");
  }
  CrashLocked(node, restore_after_ops);
  return Status::Ok();
}

Status ReplicatedPartition::RestoreNode(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  if (node >= replicas_.size()) {
    return Status::OutOfRange("node " + std::to_string(node));
  }
  if (replicas_[node].online) {
    return Status::FailedPrecondition("node " + std::to_string(node) + " already online");
  }
  RestoreLocked(node);
  return Status::Ok();
}

Status ReplicatedPartition::CrashLeader(std::size_t restore_after_ops) {
  std::lock_guard<std::mutex> lk(mu_);
  if (leader_ == kNoLeader) return Status::FailedPrecondition("partition leaderless");
  CrashLocked(leader_, restore_after_ops);
  return Status::Ok();
}

NodeId ReplicatedPartition::leader() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leader_;
}

Epoch ReplicatedPartition::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

Offset ReplicatedPartition::high_watermark() const { return committed_.end_offset(); }

std::vector<NodeId> ReplicatedPartition::Isr() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<NodeId> isr;
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    if (replicas_[n].online) isr.push_back(n);
  }
  return isr;
}

std::vector<ReplicaInfo> ReplicatedPartition::Replicas() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ReplicaInfo> out;
  out.reserve(replicas_.size());
  for (NodeId n = 0; n < replicas_.size(); ++n) {
    const Replica& r = replicas_[n];
    out.push_back({n, r.online, r.online, r.tail.size()});
  }
  return out;
}

ReplicationStats ReplicatedPartition::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<ReplicatedPartition::HwStep> ReplicatedPartition::hw_history() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hw_history_;
}

std::size_t ReplicatedPartition::OnlineCount() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.online ? 1 : 0;
  return n;
}

void ReplicatedPartition::RecordHw() {
  if (replicas_.size() == 1) return;
  const HwStep step{epoch_, committed_.end_offset()};
  if (!hw_history_.empty() && hw_history_.back() == step) return;
  hw_history_.push_back(step);
}

IdempotentProducer::IdempotentProducer(Broker& broker, std::string topic,
                                       fault::RetryPolicy retry,
                                       std::uint64_t jitter_seed)
    : broker_(broker),
      topic_(std::move(topic)),
      retry_(retry),
      rng_(jitter_seed),
      pid_(broker.AllocateProducerId()) {}

Expected<std::pair<PartitionId, Offset>> IdempotentProducer::Send(Record record) {
  auto t = broker_.GetTopic(topic_);
  if (!t.ok()) return t.status();
  // Assign the partition once, up front: retries must target the same
  // partition or the sequence number loses its meaning.
  const PartitionId p = (*t)->PartitionFor(record.key);
  const std::uint64_t seq = ++next_seq_[p];
  const std::size_t attempts = std::max<std::size_t>(1, retry_.max_attempts);
  Status last = Status::Unavailable("unreachable");
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      total_backoff_ = total_backoff_ + retry_.BackoffFor(attempt, rng_);
    }
    auto off = broker_.ProduceIdempotent(topic_, p, pid_, seq, record);
    if (off.ok()) {
      ++sent_;
      return std::make_pair(p, *off);
    }
    last = off.status();
    // Only lost-ack shapes are worth retrying; backpressure and fencing
    // are decisions, not transient failures.
    if (last.code() != StatusCode::kUnavailable) return last;
  }
  ++exhausted_;
  return last;
}

std::uint64_t CommittedDigest(const Partition& partition) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t v) { h = Mix64(h ^ v); };
  const Offset start = partition.log_start_offset();
  const std::size_t n = partition.size();
  // Columnar walk: fold straight over the fetched batch's zero-copy slices.
  auto batch = partition.FetchBatch(start, n);
  if (!batch.ok()) return h;
  for (std::size_t i = 0; i < batch->size(); ++i) {
    fold(static_cast<std::uint64_t>(batch->base_offset() + static_cast<Offset>(i)));
    const std::string_view key = batch->key(i);
    fold(Fnv1a(key.data(), key.size()));
    fold(Fnv1a(batch->payload_data(i), batch->payload_size(i)));
    fold(static_cast<std::uint64_t>(batch->event_time(i).nanos()));
  }
  return h;
}

std::uint64_t CommittedTopicDigest(Topic& topic) {
  std::uint64_t h = 0x84222325cbf29ce4ULL;
  for (PartitionId p = 0; p < topic.partition_count(); ++p) {
    h = Mix64(h ^ p);
    h = Mix64(h ^ CommittedDigest(topic.partition(p)));
  }
  return h;
}

}  // namespace arbd::stream
