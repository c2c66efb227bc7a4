#include "stream/log.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "common/runtime.h"

namespace arbd::stream {

namespace {

// Modeled cost of one broker append on the causal-trace time axis.
constexpr Duration kProduceCost = Duration::Micros(2);

}  // namespace

void Partition::UpdateMirrors() {
  start_mirror_.store(start_offset_, std::memory_order_release);
  end_mirror_.store(EndLocked(), std::memory_order_release);
  bytes_mirror_.store(bytes_, std::memory_order_release);
  max_event_ns_mirror_.store(max_event_time_.nanos(), std::memory_order_release);
}

void Partition::MaybeReclaimHeadLocked() {
  // Reclaim the dead prefix once it outweighs the live rows: one bulk
  // column copy, amortized O(1) per dropped record.
  if (active_head_ < 32 || active_head_ < ActiveLiveLocked()) return;
  RecordBatch fresh;
  fresh.AppendRange(active_, active_head_, ActiveLiveLocked());
  active_ = std::move(fresh);
  active_head_ = 0;
  active_dead_bytes_ = 0;
}

void Partition::MaybeSealLocked() {
  if (segment_bytes_ == 0) return;
  if (active_.byte_size() - active_dead_bytes_ < segment_bytes_) return;
  if (ActiveLiveLocked() == 0) return;
  SealActiveLocked();
}

void Partition::SealActiveLocked() {
  // Only live rows are sealed, so fresh segments carry no dead prefix.
  // The threshold is soft: one oversized bulk append seals as one
  // oversized segment rather than splitting mid-call.
  const std::size_t live = ActiveLiveLocked();
  RecordBatch rows;
  if (active_head_ == 0) {
    rows = std::move(active_);
  } else {
    rows.AppendRange(active_, active_head_, live);
  }
  sealed_.push_back(std::make_shared<const Segment>(active_base_, std::move(rows)));
  active_ = RecordBatch();
  active_head_ = 0;
  active_dead_bytes_ = 0;
  active_base_ += static_cast<Offset>(live);
}

std::size_t Partition::AdvanceStartLocked(Offset target) {
  target = std::min(target, EndLocked());
  std::size_t dropped = 0;
  // Whole sealed segments in O(1) each — the tiered "segment drop".
  while (!sealed_.empty() && sealed_.front()->end_offset() <= target) {
    const Segment& front = *sealed_.front();
    bytes_ -= front.bytes() - front_dead_bytes_;
    dropped += static_cast<std::size_t>(front.end_offset() - start_offset_);
    start_offset_ = front.end_offset();
    front_dead_bytes_ = 0;
    sealed_.pop_front();
  }
  if (!sealed_.empty()) {
    // Partial drop inside the surviving front segment: the rows stay in
    // the immutable segment, only the accounting moves.
    const Segment& front = *sealed_.front();
    while (start_offset_ < target) {
      const std::size_t row = static_cast<std::size_t>(start_offset_ - front.base_offset());
      const std::size_t rb = front.data().row_bytes(row);
      bytes_ -= rb;
      front_dead_bytes_ += rb;
      ++start_offset_;
      ++dropped;
    }
    return dropped;
  }
  while (start_offset_ < target) {
    const std::size_t rb = active_.row_bytes(active_head_);
    bytes_ -= rb;
    active_dead_bytes_ += rb;
    ++active_head_;
    ++active_base_;
    ++start_offset_;
    ++dropped;
  }
  if (dropped > 0) MaybeReclaimHeadLocked();
  return dropped;
}

Offset Partition::Append(Record record, TimePoint ingest_time) {
  std::lock_guard<std::mutex> lk(mu_);
  max_event_time_ = std::max(max_event_time_, record.event_time);
  bytes_ += record.key.size() + record.payload.size();
  active_.AppendRow(record.key, record.payload.data(), record.payload.size(),
                    record.event_time, ingest_time, record.checksum, record.trace_ctx);
  const Offset off = EndLocked() - 1;
  MaybeSealLocked();
  UpdateMirrors();
  return off;
}

Expected<RecordBatch> Partition::FetchBatch(Offset from, std::size_t max_records) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Offset end = EndLocked();
  if (from < start_offset_) {
    // Carry the valid [log_start, end) window as structured payload so
    // consumers can reposition without parsing the message text.
    return Status::OutOfRange("offset " + std::to_string(from) +
                              " below log start " + std::to_string(start_offset_))
        .WithRange(start_offset_, end);
  }
  if (from > end) {
    return Status::OutOfRange("offset " + std::to_string(from) + " beyond log end " +
                              std::to_string(end))
        .WithRange(start_offset_, end);
  }
  RecordBatch out;
  std::size_t n = std::min(max_records, static_cast<std::size_t>(end - from));
  Offset cur = from;
  // First sealed segment covering `cur` (offset index: binary search on
  // the dense per-segment bounds), then contiguous chunks tier by tier.
  std::size_t si = 0, si_end = sealed_.size();
  while (si < si_end) {
    const std::size_t mid = si + (si_end - si) / 2;
    if (sealed_[mid]->end_offset() <= cur) si = mid + 1; else si_end = mid;
  }
  // One column-range copy per tier crossed — a seam-straddling fetch is
  // two AppendRange calls, not per-row work.
  for (; n > 0 && si < sealed_.size(); ++si) {
    const Segment& seg = *sealed_[si];
    const std::size_t row = static_cast<std::size_t>(cur - seg.base_offset());
    const std::size_t take = std::min(n, seg.rows() - row);
    out.AppendRange(seg.data(), row, take);
    cur += static_cast<Offset>(take);
    n -= take;
  }
  if (n > 0 && cur < end) {
    const std::size_t row = active_head_ + static_cast<std::size_t>(cur - active_base_);
    out.AppendRange(active_, row, n);
  }
  out.set_base_offset(from);
  return out;
}

Expected<std::vector<StoredRecord>> Partition::Fetch(Offset from,
                                                     std::size_t max_records) const {
  auto batch = FetchBatch(from, max_records);
  if (!batch.ok()) return batch.status();
  return batch->Materialize();
}

std::size_t Partition::EnforceRetention(const TopicConfig& cfg, TimePoint now) {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t dropped = 0;
  if (cfg.retention_records > 0 && LiveLocked() > cfg.retention_records) {
    dropped += AdvanceStartLocked(EndLocked() -
                                  static_cast<Offset>(cfg.retention_records));
  }
  if (cfg.retention_time > Duration::Zero()) {
    const TimePoint cutoff = now - cfg.retention_time;
    while (LiveLocked() > 0) {
      if (!sealed_.empty()) {
        const Segment& front = *sealed_.front();
        if (front.max_ingest_time() < cutoff) {
          // Every row in the segment is past retention: drop it whole.
          dropped += AdvanceStartLocked(front.end_offset());
          continue;
        }
        const std::size_t row =
            static_cast<std::size_t>(start_offset_ - front.base_offset());
        if (front.data().ingest_time(row) >= cutoff) break;
        dropped += AdvanceStartLocked(start_offset_ + 1);
        continue;
      }
      if (active_.ingest_time(active_head_) >= cutoff) break;
      dropped += AdvanceStartLocked(start_offset_ + 1);
    }
  }
  if (dropped > 0) UpdateMirrors();
  return dropped;
}

std::size_t Partition::TruncateBefore(Offset offset) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t dropped = AdvanceStartLocked(offset);
  if (dropped > 0) UpdateMirrors();
  return dropped;
}

PartitionSnapshot Partition::Snapshot(Offset lo, Offset hi, TimePoint t_lo,
                                      TimePoint t_hi) const {
  std::lock_guard<std::mutex> lk(mu_);
  PartitionSnapshot snap;
  snap.log_start = start_offset_;
  snap.end = EndLocked();
  lo = std::max(lo, start_offset_);
  hi = std::min(hi, snap.end);
  snap.active.set_base_offset(snap.end);
  if (lo >= hi) return snap;
  for (const auto& seg : sealed_) {
    if (seg->end_offset() <= lo) continue;
    if (seg->base_offset() >= hi) break;
    snap.sealed.push_back(seg);
  }
  const Offset a_lo = std::max(lo, active_base_);
  if (a_lo < hi) {
    std::size_t first = active_head_ + static_cast<std::size_t>(a_lo - active_base_);
    std::size_t last = first + static_cast<std::size_t>(hi - a_lo);  // one past
    if (t_lo != TimePoint::Min() || t_hi != TimePoint::Max()) {
      const std::int64_t* ev = active_.event_ns_data();
      const auto outside = [&](std::size_t i) {
        return ev[i] < t_lo.nanos() || ev[i] >= t_hi.nanos();
      };
      while (first < last && outside(first)) ++first;
      while (last > first && outside(last - 1)) --last;
    }
    snap.active.AppendRange(active_, first, last - first);
    snap.active.set_base_offset(active_base_ + static_cast<Offset>(first - active_head_));
  }
  return snap;
}

std::size_t Partition::sealed_segment_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sealed_.size();
}

void Partition::SealActive() {
  std::lock_guard<std::mutex> lk(mu_);
  if (ActiveLiveLocked() == 0) return;
  SealActiveLocked();
  UpdateMirrors();
}

Topic::Topic(std::string name, TopicConfig cfg)
    : name_(std::move(name)), cfg_(cfg) {
  if (cfg_.partitions == 0) cfg_.partitions = 1;
  if (cfg_.replication_factor == 0) cfg_.replication_factor = RuntimeConfig::Process().replicas;
  // Explicit factors get the same [1, 8] clamp the ARBD_REPLICAS path
  // applies — a factor-12 request silently becoming 12 lock-stepped
  // replicas is not a configuration anyone meant.
  if (cfg_.replication_factor > 8) {
    ARBD_LOG_WARN("stream", "topic '" + name_ + "' replication_factor " +
                                std::to_string(cfg_.replication_factor) +
                                " clamped to 8");
    cfg_.replication_factor = 8;
  }
  parts_.reserve(cfg_.partitions);
  repl_.reserve(cfg_.partitions);
  for (std::uint32_t i = 0; i < cfg_.partitions; ++i) {
    parts_.push_back(std::make_unique<Partition>(cfg_.segment_bytes));
    // Mix the partition id into the failover seed so sibling partitions
    // elect independently under the same crash schedule.
    repl_.push_back(std::make_unique<ReplicatedPartition>(
        cfg_.replication_factor, cfg_.replication_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)),
        *parts_.back()));
  }
}

std::uint32_t Topic::AddPartitions(std::uint32_t n) {
  parts_.reserve(parts_.size() + n);
  repl_.reserve(repl_.size() + n);
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint64_t i = parts_.size();  // absolute index, same seed formula
    parts_.push_back(std::make_unique<Partition>(cfg_.segment_bytes));
    repl_.push_back(std::make_unique<ReplicatedPartition>(
        cfg_.replication_factor, cfg_.replication_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)),
        *parts_.back()));
  }
  cfg_.partitions = static_cast<std::uint32_t>(parts_.size());
  return cfg_.partitions;
}

PartitionId Topic::PartitionFor(const std::string& key) {
  if (key.empty()) {
    return static_cast<PartitionId>(
        round_robin_.fetch_add(1, std::memory_order_relaxed) % parts_.size());
  }
  return static_cast<PartitionId>(Fnv1a(key) % parts_.size());
}

std::size_t Topic::TotalRecords() const {
  std::size_t n = 0;
  for (const auto& p : parts_) n += p->size();
  return n;
}

std::size_t Topic::TotalBytes() const {
  std::size_t n = 0;
  for (const auto& p : parts_) n += p->bytes();
  return n;
}

double Topic::Pressure() const {
  double pressure = 0.0;
  if (cfg_.max_records > 0) {
    pressure = static_cast<double>(TotalRecords()) / static_cast<double>(cfg_.max_records);
  }
  if (cfg_.max_bytes > 0) {
    pressure = std::max(pressure, static_cast<double>(TotalBytes()) /
                                      static_cast<double>(cfg_.max_bytes));
  }
  return pressure;
}

std::size_t Topic::EnforceRetention(TimePoint now) {
  std::size_t dropped = 0;
  for (auto& p : parts_) dropped += p->EnforceRetention(cfg_, now);
  return dropped;
}

Status Broker::CreateTopic(const std::string& name, TopicConfig cfg) {
  if (name.empty()) return Status::InvalidArgument("topic name must not be empty");
  std::unique_lock<std::shared_mutex> lk(topics_mu_);
  if (topics_.contains(name)) return Status::AlreadyExists("topic '" + name + "'");
  topics_[name] = std::make_unique<Topic>(name, cfg);
  return Status::Ok();
}

Status Broker::DeleteTopic(const std::string& name) {
  std::unique_lock<std::shared_mutex> lk(topics_mu_);
  if (topics_.erase(name) == 0) return Status::NotFound("topic '" + name + "'");
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lk(topics_mu_);
  return topics_.contains(name);
}

Expected<Topic*> Broker::GetTopic(const std::string& name) {
  std::shared_lock<std::shared_mutex> lk(topics_mu_);
  auto it = topics_.find(name);
  if (it == topics_.end()) return Status::NotFound("topic '" + name + "'");
  return it->second.get();
}

Expected<std::pair<PartitionId, Offset>> Broker::Produce(const std::string& topic,
                                                         Record record) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  const PartitionId p = (*t)->PartitionFor(record.key);
  auto off = ProduceImpl(topic, *t, p, std::move(record));
  if (!off.ok()) return off.status();
  return std::make_pair(p, *off);
}

Expected<Offset> Broker::ProduceToPartition(const std::string& topic,
                                            PartitionId partition, Record record) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  return ProduceImpl(topic, *t, partition, std::move(record));
}

Expected<Offset> Broker::ProduceIdempotent(const std::string& topic, PartitionId partition,
                                           ProducerId pid, std::uint64_t seq,
                                           Record record) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  return ProduceImpl(topic, *t, partition, std::move(record), pid, seq);
}

Expected<ReplicatedPartition*> Broker::Replication(const std::string& topic,
                                                   PartitionId partition) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  return &(*t)->replication(partition);
}

Status Broker::CrashLeader(const std::string& topic, PartitionId partition,
                           std::size_t restore_after_ops) {
  auto rp = Replication(topic, partition);
  if (!rp.ok()) return rp.status();
  return (*rp)->CrashLeader(restore_after_ops);
}

Expected<Offset> Broker::ProduceImpl(const std::string& topic, Topic* t,
                                     PartitionId p, Record record, ProducerId pid,
                                     std::uint64_t seq) {
  // Cluster routing first: an unreachable leader broker is a routing
  // failure, decided before backpressure or fault draws. The gate consumes
  // no randomness, so fault schedules are unchanged whether or not a
  // cluster fronts this broker. Every gate request id is Mix64 of the
  // request's content, so a retry of the same request carries the same id.
  if (cluster_gate_ != nullptr) {
    Status admitted = cluster_gate_->AdmitProduceRequest(
        topic, p,
        Mix64(Fnv1a(record.key) ^
              static_cast<std::uint64_t>(record.event_time.nanos())));
    if (!admitted.ok()) return admitted;
  }
  // Budget check next: backpressure is a flow-control decision, not a
  // fault, so it must not consume injector randomness.
  const TopicConfig& cfg = t->config();
  const bool over_records = cfg.max_records > 0 && t->TotalRecords() >= cfg.max_records;
  const bool over_bytes = cfg.max_bytes > 0 && t->TotalBytes() >= cfg.max_bytes;
  if (over_records || over_bytes) {
    backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add("qos.backpressure." + topic);
    return Status::ResourceExhausted("topic '" + topic + "' over " +
                                     (over_records ? "record" : "byte") + " budget");
  }
  bool torn = false;
  InjectedCrash crash;
  if (fault_ != nullptr) {
    // FaultInjector's RNG is single-threaded; serialize draws.
    std::lock_guard<std::mutex> flk(fault_mu_);
    if (fault_->Fire(fault::FaultKind::kAppendError, fault::InjectionPoint::kBrokerAppend)) {
      return Status::Unavailable("injected append error on topic '" + topic + "'");
    }
    torn = fault_->Fire(fault::FaultKind::kTornAppend, fault::InjectionPoint::kBrokerAppend);
    if (fault_->Fire(fault::FaultKind::kNodeCrash, fault::InjectionPoint::kReplicaAppend)) {
      crash.crash_leader = true;
      // The rule's `x=` is the restore window in produce attempts; 0 keeps
      // the replication layer's default.
      const fault::FaultRule* rule = fault_->plan().Find(fault::FaultKind::kNodeCrash);
      if (rule != nullptr && rule->magnitude > 0.0) {
        crash.restore_after_ops = static_cast<std::size_t>(rule->magnitude);
      }
    }
  }
  if (tracer_ != nullptr && tracer_->enabled() && record.trace_ctx.valid()) {
    // Stamp the child context before the append so fetchers see the
    // produce span as their causal parent. Salted with the record's key
    // and event time: many records of one trace may produce at the same
    // cursor.
    record.trace_ctx = tracer_->Record(
        "broker.produce", record.trace_ctx, kProduceCost,
        {{"topic", topic}, {"partition", std::to_string(p)}},
        Fnv1a(record.key) ^ static_cast<std::uint64_t>(record.event_time.nanos()));
  }
  auto off = t->replication(p).Produce(std::move(record), clock_.Now(), pid, seq, crash);
  // Refresh the depth/byte gauges on *every* attempt that reached the
  // replica group, not just acked ones: a leader crash loses the ack while
  // the elected successor may still commit the record, and a torn append
  // persists it outright — either way the partition grew and a gauge
  // updated only on success would go stale across the handoff.
  if (metrics_ != nullptr) {
    metrics_->Set("qos.depth." + topic + ".p" + std::to_string(p),
                  static_cast<double>(t->partition(p).size()));
    metrics_->Set("qos.bytes." + topic, static_cast<double>(t->TotalBytes()));
  }
  if (!off.ok()) return off.status();
  total_produced_.fetch_add(1, std::memory_order_relaxed);
  if (torn) {
    // The record landed but the ack is lost; the producer sees a failure.
    return Status::Unavailable("injected torn append on topic '" + topic + "'");
  }
  return *off;
}

Expected<RecordBatch> Broker::FetchBatch(const std::string& topic, PartitionId partition,
                                         Offset from, std::size_t max_records) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  if (cluster_gate_ != nullptr) {
    Status admitted = cluster_gate_->AdmitFetchRequest(
        topic, partition,
        Mix64(static_cast<std::uint64_t>(from) ^
              (static_cast<std::uint64_t>(partition) << 48)));
    if (!admitted.ok()) return admitted;
  }
  if (fault_ != nullptr) {
    std::lock_guard<std::mutex> flk(fault_mu_);
    if (fault_->Fire(fault::FaultKind::kFetchError, fault::InjectionPoint::kBrokerFetch)) {
      return Status::Unavailable("injected fetch error on topic '" + topic + "'");
    }
  }
  auto fetched = (*t)->partition(partition).FetchBatch(from, max_records);
  if (!fetched.ok()) return fetched.status();
  fetched->set_partition(partition);
  if (metrics_ != nullptr && !fetched->empty()) {
    // Ingest-to-fetch lag of the newest record handed out: how far behind
    // the head this consumer is running, in wall-clock terms.
    const Duration lag = clock_.Now() - fetched->ingest_time(fetched->size() - 1);
    metrics_->Set("qos.lag_ms." + topic + ".p" + std::to_string(partition),
                  lag.seconds() * 1e3);
  }
  return fetched;
}

Expected<std::vector<StoredRecord>> Broker::Fetch(const std::string& topic,
                                                  PartitionId partition, Offset from,
                                                  std::size_t max_records) {
  auto batch = FetchBatch(topic, partition, from, max_records);
  if (!batch.ok()) return batch.status();
  return batch->Materialize();
}

Expected<QueryResult> Broker::QueryRange(const std::string& topic, PartitionId partition,
                                         Offset lo, Offset hi) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  if (cluster_gate_ != nullptr) {
    Status admitted = cluster_gate_->AdmitFetchRequest(
        topic, partition,
        Mix64(static_cast<std::uint64_t>(lo) ^
              (static_cast<std::uint64_t>(hi) << 24) ^
              (static_cast<std::uint64_t>(partition) << 56)));
    if (!admitted.ok()) return admitted;
  }
  // Deliberately no fault-injector draw: historical queries consume no
  // injector randomness, so running them alongside a chaos schedule never
  // shifts which tail operations the faults land on.
  QueryResult res = stream::QueryRange((*t)->partition(partition), lo, hi);
  for (StoredRecord& sr : res.rows) sr.partition = partition;
  return res;
}

Expected<QueryResult> Broker::QueryTime(const std::string& topic, PartitionId partition,
                                        TimePoint t_lo, TimePoint t_hi) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  if (cluster_gate_ != nullptr) {
    Status admitted = cluster_gate_->AdmitFetchRequest(
        topic, partition,
        Mix64(static_cast<std::uint64_t>(t_lo.nanos()) ^
              (static_cast<std::uint64_t>(t_hi.nanos()) << 1) ^
              (static_cast<std::uint64_t>(partition) << 56)));
    if (!admitted.ok()) return admitted;
  }
  QueryResult res = stream::QueryTime((*t)->partition(partition), t_lo, t_hi);
  for (StoredRecord& sr : res.rows) sr.partition = partition;
  return res;
}

Expected<Offset> Broker::OffsetForTimestamp(const std::string& topic,
                                            PartitionId partition, TimePoint t) {
  auto topic_it = GetTopic(topic);
  if (!topic_it.ok()) return topic_it.status();
  if (partition >= (*topic_it)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  if (cluster_gate_ != nullptr) {
    Status admitted = cluster_gate_->AdmitFetchRequest(
        topic, partition,
        Mix64(static_cast<std::uint64_t>(t.nanos()) ^
              (static_cast<std::uint64_t>(partition) << 56)));
    if (!admitted.ok()) return admitted;
  }
  return stream::OffsetForTimestamp((*topic_it)->partition(partition), t);
}

Expected<std::size_t> Broker::TruncateBefore(const std::string& topic,
                                             PartitionId partition, Offset offset) {
  auto t = GetTopic(topic);
  if (!t.ok()) return t.status();
  if (partition >= (*t)->partition_count()) {
    return Status::OutOfRange("partition " + std::to_string(partition) + " of topic '" +
                              topic + "'");
  }
  const std::size_t dropped = (*t)->partition(partition).TruncateBefore(offset);
  if (metrics_ != nullptr && dropped > 0) {
    metrics_->Set("qos.depth." + topic + ".p" + std::to_string(partition),
                  static_cast<double>((*t)->partition(partition).size()));
    metrics_->Set("qos.bytes." + topic, static_cast<double>((*t)->TotalBytes()));
  }
  return dropped;
}

std::size_t Broker::Credit(const std::string& topic) const {
  const Topic* t = nullptr;
  {
    std::shared_lock<std::shared_mutex> lk(topics_mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return 0;
    t = it->second.get();
  }
  const TopicConfig& cfg = t->config();
  std::size_t credit = static_cast<std::size_t>(-1);
  if (cfg.max_records > 0) {
    const std::size_t held = t->TotalRecords();
    credit = held >= cfg.max_records ? 0 : cfg.max_records - held;
  }
  if (cfg.max_bytes > 0) {
    const std::size_t held = t->TotalBytes();
    std::size_t byte_credit = 0;
    if (held < cfg.max_bytes) {
      // Convert byte headroom to records conservatively via the mean
      // retained record size (or count bytes 1:1 on an empty topic).
      const std::size_t n = t->TotalRecords();
      const std::size_t mean = n > 0 ? std::max<std::size_t>(1, held / n) : 1;
      byte_credit = (cfg.max_bytes - held) / mean;
    }
    credit = std::min(credit, byte_credit);
  }
  return credit;
}

double Broker::Pressure(const std::string& topic) const {
  std::shared_lock<std::shared_mutex> lk(topics_mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return 0.0;
  return it->second->Pressure();
}

std::size_t Broker::RunRetention() {
  std::shared_lock<std::shared_mutex> lk(topics_mu_);
  std::size_t dropped = 0;
  for (auto& [name, topic] : topics_) {
    // Per partition rather than Topic::EnforceRetention so the depth gauge
    // of each partition that shed records can be refreshed in step — a
    // retention pass that shrinks the log but leaves the gauges reading
    // pre-drop depths is a stale-observability bug.
    std::size_t topic_dropped = 0;
    for (PartitionId p = 0; p < topic->partition_count(); ++p) {
      const std::size_t d =
          topic->partition(p).EnforceRetention(topic->config(), clock_.Now());
      if (d > 0 && metrics_ != nullptr) {
        metrics_->Set("qos.depth." + name + ".p" + std::to_string(p),
                      static_cast<double>(topic->partition(p).size()));
      }
      topic_dropped += d;
    }
    if (topic_dropped > 0 && metrics_ != nullptr) {
      metrics_->Set("qos.bytes." + name, static_cast<double>(topic->TotalBytes()));
    }
    dropped += topic_dropped;
  }
  return dropped;
}

std::vector<std::string> Broker::TopicNames() const {
  std::shared_lock<std::shared_mutex> lk(topics_mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, _] : topics_) names.push_back(name);
  return names;
}

}  // namespace arbd::stream
